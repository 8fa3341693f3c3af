"""Command-line entry point.

Every subcommand reads JSON inputs, runs one library operation, and emits a
deterministic report (JSON by default, flat CSV on request).  Reports embed
the sha256 of every input file, the seed, the computation mode, and a
tolerance block, and contain no timestamps, so identical invocations produce
byte-identical output.

Exit codes: 0 success; 2 validation error (including a result that is not a
finite number); 64 unknown command; 65 malformed input file (including
non-finite table values); 66 budget exceeded (rerun with --mc N to estimate
instead); 70 internal error, such as a rejection-sampling loop hitting its
retry cap.  Apart from argparse usage errors, every failure writes one JSON
object to stderr.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys

import numpy as np

from .analysis import fourier_transform, gowers_norm, linear_form_average
from .errors import BudgetExceededError, FormatError, FpuniformError, ValidationError
from .factors import decompose
from .field import digit_table
from .linear_forms import (
    FlaggedSystem,
    LinearSystem,
    are_isomorphic,
    connected_components,
    cs_complexity,
    flagged_product,
    true_complexity,
)
from .polynomials import Polynomial
from .polyrank import polynomial_rank
from .tables import parse_function_table
from .testers import (
    DistributionalFunction,
    TesterSpec,
    interior_experiment,
    run_tester,
    symmetrize_tester,
    uniformity_test,
)

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
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    return obj, {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _load_table(path: str):
    obj, meta = _load_json(path)
    return parse_function_table(obj), meta


def _load_system(path: str):
    obj, meta = _load_json(path)
    return LinearSystem.from_json_dict(obj), meta


def _load_poly(path: str):
    obj, meta = _load_json(path)
    return Polynomial.from_json_dict(obj), meta


def _load_tester(path: str):
    obj, meta = _load_json(path)
    return TesterSpec.from_json_dict(obj), meta


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
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, Polynomial):
        return x.to_text()
    if hasattr(x, "to_json_dict"):
        return _jsonable(x.to_json_dict())
    if hasattr(x, "__dataclass_fields__"):
        return {
            k: _jsonable(getattr(x, k)) for k in x.__dataclass_fields__
        }
    return x


def _tolerance(mode: str, stderr=None):
    if mode == "exact":
        return {"kind": "float-rounding", "value": 1e-12}
    return {
        "kind": "mc-stderr",
        "value": None if stderr is None else float(stderr),
    }


def _mode_args(args):
    mc = getattr(args, "mc", None)
    if mc is not None and getattr(args, "exact", False):
        raise ValidationError("--mc and --exact are mutually exclusive")
    if mc is not None:
        if mc < 1:
            raise ValidationError("--mc needs a positive sample count")
        return "mc", mc
    return "exact", None


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


def _cmd_gowers(args) -> dict:
    table, meta = _load_table(args.table)
    mode, samples = _mode_args(args)
    rep = gowers_norm(
        table, args.k, mode=mode, samples=samples, seed=args.seed, budget=args.budget
    )
    return {
        "command": "gowers",
        "inputs": {"table": meta},
        "k": rep.k,
        "p": rep.p,
        "n": rep.n,
        "value": rep.value,
        "power": rep.power,
        "mode": rep.mode,
        "samples": rep.samples,
        "stderr": rep.stderr,
        "cost": rep.cost,
        "tolerance": _tolerance(rep.mode, rep.stderr),
    }


def _cmd_average(args) -> dict:
    system, sys_meta = _load_system(args.system)
    loaded = [_load_table(p) for p in args.tables]
    tables = [t for t, _ in loaded]
    mode, samples = _mode_args(args)
    conjugations = (
        _parse_int_list(args.conjugations, "conjugation flags")
        if args.conjugations
        else None
    )
    rep = linear_form_average(
        tables if len(tables) > 1 else tables[0],
        system,
        conjugations=conjugations,
        mode=mode,
        samples=samples,
        seed=args.seed,
        budget=args.budget,
    )
    return {
        "command": "average",
        "inputs": {
            "system": sys_meta,
            "tables": [meta for _, meta in loaded],
        },
        "value": [rep.value.real, rep.value.imag],
        "abs": abs(rep.value),
        "mode": rep.mode,
        "samples": rep.samples,
        "stderr": rep.stderr,
        "cost": rep.cost,
        "tolerance": _tolerance(rep.mode, rep.stderr),
    }


def _cmd_system(args) -> dict:
    system, meta = _load_system(args.file)
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
        report.update(
            kind=rep.kind,
            value=rep.value,
            bound_only=rep.bound_only,
            certificate=_jsonable(rep.certificate),
        )
    elif args.action == "components":
        parts = connected_components(system)
        report.update(components=parts, count=len(parts))
    elif args.action == "isomorphism":
        if args.other is None:
            raise ValidationError("isomorphism needs --other")
        other, other_meta = _load_system(args.other)
        report["inputs"]["other"] = other_meta
        rep = are_isomorphic(system, other)
        report.update(
            decided=rep.decided,
            isomorphic=rep.isomorphic,
            mapping=None if rep.mapping is None else list(rep.mapping),
        )
    else:  # product
        if args.other is None:
            raise ValidationError("product needs --other")
        other, other_meta = _load_system(args.other)
        report["inputs"]["other"] = other_meta
        if not isinstance(system, FlaggedSystem) or not isinstance(
            other, FlaggedSystem
        ):
            raise ValidationError("product needs two flagged systems")
        report.update(product=flagged_product(system, other).to_json_dict())
    return report


def _cmd_fourier(args) -> dict:
    table, meta = _load_table(args.table)
    hat = fourier_transform(table)
    return {
        "command": "fourier",
        "inputs": {"table": meta},
        "p": table.p,
        "n": table.n,
        "coefficients": [[float(v.real), float(v.imag)] for v in hat],
        "mode": "exact",
        "tolerance": _tolerance("exact"),
    }


def _cmd_decompose(args) -> dict:
    table, meta = _load_table(args.table)
    rep = decompose(
        table,
        args.degree,
        args.delta,
        rank_floor=None if args.rank_floor is None else lambda _: args.rank_floor,
        homogeneous_only=args.homogeneous,
        budget=args.budget,
    )
    report = rep.to_json_dict()
    report.update(
        command="decompose",
        inputs={"table": meta},
        mode="exact",
        tolerance=_tolerance("exact"),
    )
    return report


def _cmd_rank(args) -> dict:
    loaded = [_load_poly(p) for p in args.polys]
    rep = polynomial_rank([q for q, _ in loaded], r_max=args.rmax)
    return {
        "command": "rank",
        "inputs": {"polynomials": [meta for _, meta in loaded]},
        "kind": rep.kind,
        "value": rep.value,
        "refuted_up_to": rep.refuted_up_to,
        "checks": {str(r): bool(v) for r, v in sorted(rep.checks.items())},
        "certificate": _jsonable(rep.certificate),
        "mode": "exact",
        "tolerance": {"kind": "integer-exact", "value": 0},
    }


def _cmd_test(args) -> dict:
    table, table_meta = _load_table(args.table)
    if args.action == "uniformity":
        rep = uniformity_test(
            table, args.degree, args.samples, seed=args.seed, threshold=args.threshold
        )
        return {
            "command": "test",
            "action": "uniformity",
            "inputs": {"table": table_meta},
            "estimate": rep.estimate,
            "accept": rep.accept,
            "threshold": rep.threshold,
            "d": rep.d,
            "samples": rep.samples,
            "seed": args.seed,
            "queries_per_sample": rep.queries_per_sample,
            "points_queried": rep.points_queried,
            "stderr": rep.stderr,
            "mode": "mc",
            "tolerance": _tolerance("mc", rep.stderr),
        }
    if args.spec is None:
        raise ValidationError(f"test {args.action} needs --spec")
    spec, spec_meta = _load_tester(args.spec)
    if args.action == "symmetrize":
        spec = symmetrize_tester(spec, seed=args.seed)
    if args.exact:
        rep = run_tester(spec, table, mode="exact", budget=args.budget)
    else:
        if args.trials is None:
            raise ValidationError("estimate mode needs --trials")
        rep = run_tester(spec, table, trials=args.trials, seed=args.seed)
    return {
        "command": "test",
        "action": args.action,
        "inputs": {"spec": spec_meta, "table": table_meta},
        "acceptance": rep.acceptance,
        "trials": rep.trials,
        "thresholds": [spec.theta_minus, spec.theta_plus],
        "symmetrized": spec.symmetrized,
        "stderr": rep.stderr,
        "mode": "exact" if rep.mode == "exact" else "mc",
        "tolerance": _tolerance(
            "exact" if rep.mode == "exact" else "mc", rep.stderr
        ),
    }


def _cmd_interior(args) -> dict:
    loaded = [_load_system(p) for p in args.systems]
    rep = interior_experiment(
        [s for s, _ in loaded],
        args.p,
        args.n,
        trials=args.trials,
        seed=args.seed,
        budget=args.budget,
    )
    report = rep.to_json_dict()
    report.update(
        command="interior",
        inputs={"systems": [meta for _, meta in loaded]},
        witness=[float(v) for v in rep.witness.values.real],
        mode="mc",
        tolerance=_tolerance("mc"),
    )
    return report


def _cmd_distributional(args) -> dict:
    table, table_meta = _load_table(args.table)
    system, sys_meta = _load_system(args.system)
    gamma = DistributionalFunction.lift(table)
    beta = _parse_int_list(args.beta, "beta")
    mode, samples = _mode_args(args)
    rep = gamma.t_star(
        system, beta, mode=mode, samples=samples, seed=args.seed, budget=args.budget
    )
    return {
        "command": "distributional",
        "inputs": {"table": table_meta, "system": sys_meta},
        "beta": beta,
        "value": [rep.value.real, rep.value.imag],
        "abs": abs(rep.value),
        "mode": rep.mode,
        "samples": rep.samples,
        "stderr": rep.stderr,
        "tolerance": _tolerance(rep.mode, rep.stderr),
    }


# -- parser ---------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (recorded in output)")
    sub.add_argument("--budget", type=int, default=None, help="max enumeration points")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpuniform",
        description="uniformity norms, linear-form averages, and testers over F_p^n",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gowers", help="U^k norm of a function table")
    sub.add_argument("--table", required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--mc", type=int, default=None, metavar="N")
    sub.add_argument("--exact", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_gowers)

    sub = subs.add_parser("average", help="t_L average over a linear-form system")
    sub.add_argument("--system", required=True)
    sub.add_argument("--tables", nargs="+", required=True)
    sub.add_argument("--conjugations", default=None, help="0/1 flags, comma separated")
    sub.add_argument("--mc", type=int, default=None, metavar="N")
    sub.add_argument("--exact", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_average)

    sub = subs.add_parser("system", help="complexity / isomorphism / components / product")
    sub.add_argument("action", choices=("complexity", "isomorphism", "components", "product"))
    sub.add_argument("--file", required=True)
    sub.add_argument("--other", default=None, help="second system for isomorphism/product")
    sub.add_argument("--kind", choices=("cs", "true"), default="true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_system)

    sub = subs.add_parser("fourier", help="full Fourier spectrum of a table")
    sub.add_argument("--table", required=True)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_fourier)

    sub = subs.add_parser("decompose", help="degree-d factor + small-norm residual split")
    sub.add_argument("--table", required=True)
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--delta", type=float, required=True)
    sub.add_argument("--rank-floor", type=int, default=None, dest="rank_floor")
    sub.add_argument("--homogeneous", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_decompose)

    sub = subs.add_parser("rank", help="rank of a polynomial collection")
    sub.add_argument("--polys", nargs="+", required=True)
    sub.add_argument("--rmax", type=int, default=2)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_rank)

    sub = subs.add_parser("test", help="uniformity / generic / symmetrize testers")
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

    sub = subs.add_parser("interior", help="boundary-function independence experiment")
    sub.add_argument("--systems", nargs="+", required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--trials", type=int, default=50)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_interior)

    sub = subs.add_parser("distributional", help="t* average of a lifted [0,1] table")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # overflow surfaces as a non-finite result
            report = args.handler(args)
        report["seed"] = getattr(args, "seed", None)
        _write_output(report, args)
    except FormatError as exc:
        _diag({"type": "format", "error": str(exc), "pointer": exc.pointer})
        return 65
    except BudgetExceededError as exc:
        _diag(
            {
                "type": "budget",
                "error": str(exc),
                "cost": exc.cost,
                "budget": exc.budget,
                "hint": "rerun with --mc N for a Monte Carlo estimate",
            }
        )
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
