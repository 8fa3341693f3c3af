"""Command-line entry point.

Every subcommand reads JSON inputs, runs one library operation, and emits a
deterministic report (JSON by default, flat CSV on request).  Reports embed
the sha256 of every input file, the seed, the computation mode, and a
tolerance block, and contain no timestamps, so identical invocations produce
byte-identical output.

Exit codes: 0 success; 2 validation error (including a result that is not a
finite number); 64 unknown command, or a --seed below 0 or a --budget below 1;
65 malformed input file (including non-finite table values); 66 budget
exceeded by an exact cost or a sample count (a command that takes --mc and
ran without it hints to rerun with --mc N); 70 internal error, such as a
rejection-sampling loop hitting its retry cap.  Apart from argparse usage
errors, every failure writes one JSON object to stderr.  A cost or budget
above 2^64 is reported as ">2^64".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .config import FLOAT_TOL
from .errors import (
    BudgetExceededError,
    FormatError,
    FpuniformError,
    ValidationError,
    reported_count,
)
from .field import digit_table
from .rng import sha256

_COMMANDS = (
    "gowers",
    "average",
    "system",
    "fourier",
    "decompose",
    "rank",
    "test",
    "interior",
    "distributional",
)


# -- input loading ---------------------------------------------------------------


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_json(path: str):
    data = _read_bytes(path)
    try:
        obj = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    return obj, {"path": path, "sha256": sha256(data).hexdigest()}


def _load(parse, path: str):
    """parse(decoded JSON) and the file's metadata.  A field of the wrong type
    or shape surfaces from the parsers as a builtin exception; it is a
    malformed file all the same."""
    obj, meta = _load_json(path)
    try:
        return parse(obj), meta
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed input: {exc}") from exc


# -- report plumbing ---------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, complex):
        return [float(x.real), float(x.imag)]
    if isinstance(x, np.generic):  # a numpy integer, float or bool
        return x.item()
    if hasattr(x, "to_text"):  # a Polynomial
        return x.to_text()
    if hasattr(x, "__dataclass_fields__"):
        return _fields(x)
    return x


def _fields(rep, drop=()) -> dict:
    """Every dataclass field of `rep` but those in `drop`, as JSON values, with
    a cost as reported_count writes it: a report's fields come from its
    library result, so the result type alone decides its schema."""
    out = {k: _jsonable(getattr(rep, k)) for k in rep.__dataclass_fields__ if k not in drop}
    if "cost" in out:
        out["cost"] = reported_count(rep.cost)
    return out


def _tolerance(mode: str, stderr=None):
    if mode == "exact":
        return {"kind": "float-rounding", "value": FLOAT_TOL}
    return {
        "kind": "mc-stderr",
        "value": None if stderr is None else float(stderr),
    }


def _mc_samples(args) -> int | None:
    """The --mc sample count, or None for an exact computation."""
    if args.mc is not None and args.exact:
        raise ValidationError("--mc and --exact are mutually exclusive")
    if args.mc is not None and args.mc < 1:
        raise ValidationError("--mc needs a positive sample count")
    return args.mc


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} {text!r}") from exc


def _flat_rows(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flat_rows(obj[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        for i, v in enumerate(obj):
            yield from _flat_rows(v, f"{prefix}.{i}")
    elif isinstance(obj, list):
        yield prefix, json.dumps(obj, separators=(",", ":"))
    else:
        yield prefix, obj


def _to_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if report.get("command") == "fourier":
        p, n = report["p"], report["n"]
        writer.writerow([f"a{i + 1}" for i in range(n)] + ["re", "im"])
        for alpha, (re, im) in zip(digit_table(p, n), report["coefficients"]):
            writer.writerow([int(v) for v in alpha] + [repr(re), repr(im)])
        return out.getvalue()
    writer.writerow(["key", "value"])
    for key, value in _flat_rows(report):
        writer.writerow([key, value])
    return out.getvalue()


def _write_output(report: dict, args) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError("the result is not finite; rescale the input") from exc
    if args.format == "csv":
        text = _to_csv(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diag(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


# -- command handlers ---------------------------------------------------------------
#
# Each handler imports the modules it uses, so a command loads only those: a
# `fourier`, `gowers` or `average` run does not import testers, factors or
# polyrank.


def _cmd_gowers(args) -> dict:
    from .analysis import gowers_norm
    from .tables import parse_function_table

    table, meta = _load(parse_function_table, args.table)
    rep = gowers_norm(
        table, args.k, samples=_mc_samples(args), seed=args.seed, budget=args.budget
    )
    return {
        "command": "gowers",
        "inputs": {"table": meta},
        **_fields(rep),
        "tolerance": _tolerance(rep.mode, rep.stderr),
    }


def _cmd_average(args) -> dict:
    from .analysis import linear_form_average
    from .linear_forms import LinearSystem
    from .tables import parse_function_table

    system, sys_meta = _load(LinearSystem.from_json_dict, args.system)
    loaded = [_load(parse_function_table, p) for p in args.tables]
    tables = [t for t, _ in loaded]
    conjugations = (
        _parse_int_list(args.conjugations, "conjugation flags")
        if args.conjugations
        else None
    )
    rep = linear_form_average(
        tables if len(tables) > 1 else tables[0],
        system,
        conjugations=conjugations,
        samples=_mc_samples(args),
        seed=args.seed,
        budget=args.budget,
    )
    return {
        "command": "average",
        "inputs": {
            "system": sys_meta,
            "tables": [meta for _, meta in loaded],
        },
        **_fields(rep),
        "abs": abs(rep.value),
        "tolerance": _tolerance(rep.mode, rep.stderr),
    }


def _cmd_system(args) -> dict:
    from .linear_forms import (
        FlaggedSystem,
        LinearSystem,
        are_isomorphic,
        connected_components,
        cs_complexity,
        flagged_product,
        true_complexity,
    )

    system, meta = _load(LinearSystem.from_json_dict, args.file)
    report = {
        "command": "system",
        "action": args.action,
        "inputs": {"system": meta},
        "mode": "exact",
        "tolerance": {"kind": "integer-exact", "value": 0},
    }
    if args.action == "complexity":
        rep = cs_complexity(system) if args.kind == "cs" else true_complexity(
            system, budget=args.budget
        )
        report.update(_fields(rep, drop=("witness",)))
    elif args.action == "components":
        parts = connected_components(system)
        report.update(components=parts, count=len(parts))
    elif args.action == "isomorphism":
        if args.other is None:
            raise ValidationError("isomorphism needs --other")
        other, other_meta = _load(LinearSystem.from_json_dict, args.other)
        report["inputs"]["other"] = other_meta
        report.update(_fields(are_isomorphic(system, other, budget=args.budget)))
    else:  # product
        if args.other is None:
            raise ValidationError("product needs --other")
        other, other_meta = _load(LinearSystem.from_json_dict, args.other)
        report["inputs"]["other"] = other_meta
        if not isinstance(system, FlaggedSystem) or not isinstance(
            other, FlaggedSystem
        ):
            raise ValidationError("product needs two flagged systems")
        report.update(product=flagged_product(system, other).to_json_dict())
    return report


def _cmd_fourier(args) -> dict:
    from .analysis import fourier_transform
    from .tables import parse_function_table

    table, meta = _load(parse_function_table, args.table)
    hat = fourier_transform(table, budget=args.budget)
    return {
        "command": "fourier",
        "inputs": {"table": meta},
        "p": table.p,
        "n": table.n,
        "coefficients": [[float(v.real), float(v.imag)] for v in hat],
        "cost": reported_count(len(hat)),
        "mode": "exact",
        "tolerance": _tolerance("exact"),
    }


def _cmd_decompose(args) -> dict:
    from .factors import decompose
    from .tables import parse_function_table

    table, meta = _load(parse_function_table, args.table)
    rep = decompose(
        table,
        args.degree,
        args.delta,
        rank_floor=args.rank_floor,
        homogeneous_only=args.homogeneous,
        budget=args.budget,
    )
    return {
        "command": "decompose",
        "inputs": {"table": meta},
        **_fields(rep, drop=("factor", "projection", "residual")),
        "complexity": rep.complexity,
        "polynomials": [q.to_text() for q in rep.factor.defining],
        "mode": "exact",
        "tolerance": _tolerance("exact"),
    }


def _cmd_rank(args) -> dict:
    from .polynomials import Polynomial
    from .polyrank import polynomial_rank

    loaded = [_load(Polynomial.from_json_dict, p) for p in args.polys]
    rep = polynomial_rank([q for q, _ in loaded], r_max=args.rmax, budget=args.budget)
    return {
        "command": "rank",
        "inputs": {"polynomials": [meta for _, meta in loaded]},
        **_fields(rep),
        "mode": "exact",
        "tolerance": {"kind": "integer-exact", "value": 0},
    }


def _cmd_test(args) -> dict:
    from .tables import parse_function_table
    from .testers import TesterSpec, run_tester, symmetrize_tester, uniformity_test

    spec_flags = args.exact or args.trials is not None or args.spec is not None
    if args.action == "uniformity" and spec_flags:
        raise ValidationError("test uniformity takes --samples, not --exact, --trials or --spec")
    table, table_meta = _load(parse_function_table, args.table)
    if args.action == "uniformity":
        rep = uniformity_test(
            table, args.degree, args.samples, seed=args.seed, threshold=args.threshold,
            budget=args.budget,
        )
        return {
            "command": "test",
            "action": "uniformity",
            "inputs": {"table": table_meta},
            **_fields(rep),
            "mode": "mc",
            "tolerance": _tolerance("mc", rep.stderr),
        }
    if args.spec is None:
        raise ValidationError(f"test {args.action} needs --spec")
    spec, spec_meta = _load(TesterSpec.from_json_dict, args.spec)
    if args.action == "symmetrize":
        spec = symmetrize_tester(spec)
    if not args.exact and args.trials is None:
        raise ValidationError("estimate mode needs --trials")
    trials = None if args.exact else args.trials
    rep = run_tester(spec, table, trials=trials, seed=args.seed, budget=args.budget)
    return {
        "command": "test",
        "action": args.action,
        "inputs": {"spec": spec_meta, "table": table_meta},
        **_fields(rep),
        "thresholds": [spec.theta_minus, spec.theta_plus],
        "symmetrized": spec.symmetrized,
        "tolerance": _tolerance(rep.mode, rep.stderr),
    }


def _cmd_interior(args) -> dict:
    from .linear_forms import LinearSystem
    from .testers import interior_experiment

    loaded = [_load(LinearSystem.from_json_dict, p) for p in args.systems]
    rep = interior_experiment(
        [s for s, _ in loaded],
        args.p,
        args.n,
        trials=args.trials,
        seed=args.seed,
        budget=args.budget,
    )
    return {
        "command": "interior",
        "inputs": {"systems": [meta for _, meta in loaded]},
        **_fields(rep, drop=("witness",)),
        "witness": rep.witness.values.real.tolist(),
        "mode": "mc",
        "tolerance": _tolerance("mc"),
    }


def _cmd_distributional(args) -> dict:
    from .linear_forms import LinearSystem
    from .tables import parse_function_table
    from .testers import DistributionalFunction

    table, table_meta = _load(parse_function_table, args.table)
    system, sys_meta = _load(LinearSystem.from_json_dict, args.system)
    gamma = DistributionalFunction.lift(table)
    beta = _parse_int_list(args.beta, "beta")
    rep = gamma.t_star(
        system, beta, samples=_mc_samples(args), seed=args.seed, budget=args.budget
    )
    return {
        "command": "distributional",
        "inputs": {"table": table_meta, "system": sys_meta},
        "beta": beta,
        **_fields(rep),
        "abs": abs(rep.value),
        "tolerance": _tolerance(rep.mode, rep.stderr),
    }


# -- parser ---------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (recorded in output)")
    sub.add_argument("--budget", type=int, default=None, help="max points enumerated or sampled")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    # every flag is spelled in full: no prefix such as --bet stands for --beta
    parser = argparse.ArgumentParser(
        prog="fpuniform",
        description="uniformity norms, linear-form averages, and testers over F_p^n",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return subs.add_parser(name, help=summary, allow_abbrev=False)

    sub = command("gowers", "U^k norm of a function table")
    sub.add_argument("--table", required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--mc", type=int, default=None, metavar="N")
    sub.add_argument("--exact", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_gowers)

    sub = command("average", "t_L average over a linear-form system")
    sub.add_argument("--system", required=True)
    sub.add_argument("--tables", nargs="+", required=True)
    sub.add_argument("--conjugations", default=None, help="0/1 flags, comma separated")
    sub.add_argument("--mc", type=int, default=None, metavar="N")
    sub.add_argument("--exact", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_average)

    sub = command("system", "complexity / isomorphism / components / product")
    sub.add_argument("action", choices=("complexity", "isomorphism", "components", "product"))
    sub.add_argument("--file", required=True)
    sub.add_argument("--other", default=None, help="second system for isomorphism/product")
    sub.add_argument("--kind", choices=("cs", "true"), default="true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_system)

    sub = command("fourier", "full Fourier spectrum of a table")
    sub.add_argument("--table", required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_fourier)

    sub = command("decompose", "degree-d factor + small-norm residual split")
    sub.add_argument("--table", required=True)
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--delta", type=float, required=True)
    sub.add_argument("--rank-floor", type=int, default=None, dest="rank_floor")
    sub.add_argument("--homogeneous", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_decompose)

    sub = command("rank", "rank of a polynomial collection")
    sub.add_argument("--polys", nargs="+", required=True)
    sub.add_argument("--rmax", type=int, default=2)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_rank)

    sub = command("test", "uniformity / generic / symmetrize testers")
    sub.add_argument("action", choices=("uniformity", "generic", "symmetrize"))
    sub.add_argument("--table", required=True)
    sub.add_argument("--spec", default=None, help="tester spec JSON (generic/symmetrize)")
    sub.add_argument("--degree", type=int, default=1)
    sub.add_argument("--samples", type=int, default=1000)
    sub.add_argument("--threshold", type=float, default=0.5)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--exact", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_test)

    sub = command("interior", "boundary-function independence experiment")
    sub.add_argument("--systems", nargs="+", required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--trials", type=int, default=50)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_interior)

    sub = command("distributional", "t* average of a lifted [0,1] table")
    sub.add_argument("--table", required=True)
    sub.add_argument("--system", required=True)
    sub.add_argument("--beta", required=True, help="comma-separated entries, one per form")
    sub.add_argument("--mc", type=int, default=None, metavar="N")
    sub.add_argument("--exact", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_distributional)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        _diag({"error": "missing command", "commands": sorted(_COMMANDS)})
        return 64
    if argv[0] not in _COMMANDS and argv[0] not in ("-h", "--help"):
        _diag({"error": f"unknown command {argv[0]!r}", "commands": sorted(_COMMANDS)})
        return 64
    # argparse reads a value led by "-" as an option, so "--beta -1,2,3" is
    # passed on as "--beta=-1,2,3"
    while "--beta" in argv[:-1]:
        i = argv.index("--beta")
        argv[i:i + 2] = [f"--beta={argv[i + 1]}"]
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag, least in (("seed", 0), ("budget", 1)):
        value = getattr(args, flag)
        if value is not None and value < least:
            error = f"--{flag} must be an integer >= {least}, got {value}"
            _diag({"type": "usage", "error": error})
            return 64
    try:
        with np.errstate(all="ignore"):  # overflow surfaces as a non-finite result
            report = args.handler(args)
        report["seed"] = getattr(args, "seed", None)
        _write_output(report, args)
    except FormatError as exc:
        _diag({"type": "format", "error": str(exc), "pointer": exc.pointer})
        return 65
    except BudgetExceededError as exc:
        diag = {
            "type": "budget", "error": str(exc),
            "cost": reported_count(exc.cost), "budget": reported_count(exc.budget),
        }
        if "mc" in vars(args) and args.mc is None:
            diag["hint"] = "rerun with --mc N for a Monte Carlo estimate"
        _diag(diag)
        return 66
    except ValidationError as exc:
        _diag({"type": "validation", "error": str(exc)})
        return 2
    except FpuniformError as exc:
        _diag({"type": "internal", "error": str(exc)})
        return 70
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
