"""Seeded inputs, command lists and output checks for the three workloads.

Each workload is a list of `fpuniform` CLI invocations.  Inputs are made from
the seed with numpy and the package's own constructors and written as JSON
files; the reference each output is checked against is computed here, before
any timing, by the numpy code in `refs`.  Checks never compare with a frozen
seeded output, so a change of RNG stream or evaluation order in the library
does not fail them:

* exact values match the reference to within 1e-9;
* Monte-Carlo values lie within Z_SE reported standard errors of an exact
  reference;
* structural outputs are checked by their properties (a decomposition's
  residual norm is recomputed from the reported polynomials, a rank
  certificate is replayed, a Gram matrix is rebuilt from the witness).
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from fpuniform.linear_forms import FlaggedSystem, LinearSystem
from fpuniform.polynomials import Polynomial, monomials_up_to
from fpuniform.tables import FunctionTable
from fpuniform.testers import TesterSpec, uniformity_tester_spec

import refs

WORKLOADS = ("exact-enum", "poly-search", "sampled")

#: Budget passed to every exact command: above every declared cost, so that a
#: change to the cost model cannot change which commands run.
BUDGET = 2**62

#: Monte-Carlo outputs must lie within this many reported standard errors.
Z_SE = 6.0

EXACT_TOL = 1e-9


class Checker:
    """Collects the problems found in one command's output.

    `skew` is added to every reference value before comparing; the
    benchmark's self-check sets it to show that each check can fail.
    """

    def __init__(self, skew: float = 0.0):
        self.skew = skew
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def close(self, what: str, got, want, tol: float = EXACT_TOL) -> None:
        want = np.asarray(want, dtype=np.complex128) + self.skew
        got = np.asarray(got, dtype=np.complex128)
        if got.shape != want.shape or not np.all(
            np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))
        ):
            self.fail(f"{what}: got {got.tolist()}, reference {want.tolist()}")

    def equal(self, what: str, got, want) -> None:
        if got != want or self.skew:
            self.fail(f"{what}: got {got!r}, expected {want!r}")

    def within_se(self, what: str, got, want, stderr) -> None:
        if stderr is None:
            self.fail(f"{what}: no standard error reported")
            return
        value = complex(*got) if isinstance(got, list) else complex(got)
        dev = abs(value - (want + self.skew))
        if not dev <= Z_SE * float(stderr) + EXACT_TOL:
            self.fail(
                f"{what}: {got} is {dev:.3g} from reference {want}, "
                f"more than {Z_SE} x stderr {stderr}"
            )

    def at_most(self, what: str, got, bound) -> None:
        if not got <= bound - self.skew:
            self.fail(f"{what}: {got} exceeds {bound}")


@dataclass
class Command:
    """One CLI invocation of a workload and the check of its JSON report."""

    name: str
    argv: list[str]
    check: Callable[[dict, Checker], None]
    samples: int = 0  # Monte-Carlo samples or trials requested


@dataclass
class Workload:
    commands: list[Command]
    inputs: dict[str, str] = field(default_factory=dict)  # file -> sha256


class _Files:
    def __init__(self, work: Path):
        self.work = work
        self.sha: dict[str, str] = {}

    def put(self, name: str, obj) -> str:
        data = json.dumps(obj, sort_keys=True).encode()
        (self.work / name).write_bytes(data)
        self.sha[name] = hashlib.sha256(data).hexdigest()
        return name


def _rng(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _unit_table(rng, p: int, n: int, spread: float = 2 * np.pi) -> np.ndarray:
    return np.exp(1j * spread * rng.random(p**n))


def _table_json(p: int, n: int, values, codomain: str = "complex") -> dict:
    return FunctionTable(p, n, values, codomain).to_json_dict()


def _ap(p: int, length: int) -> LinearSystem:
    return LinearSystem(p, 2, [(1, i % p) for i in range(length)])


TRIANGLE = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
SQUARE = LinearSystem(2, 3, [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])


def _exact(*argv) -> list[str]:
    return [*map(str, argv), "--budget", str(BUDGET)]


def _random_poly(rng, p: int, n: int, d: int) -> dict:
    """Coefficients of a uniform polynomial of degree exactly d."""
    monos = monomials_up_to(p, n, d)
    while True:
        coeffs = rng.integers(0, p, size=len(monos))
        terms = {e: int(c) for e, c in zip(monos, coeffs) if c}
        if refs.poly_degree(terms, p) == d:
            return terms


# -- exact-enum ---------------------------------------------------------------------


def _check_gowers_exact(ref: float):
    def check(out, chk):
        chk.close("U^k norm", out["value"], ref)

    return check


def _check_average_exact(ref: complex):
    def check(out, chk):
        chk.close("average", complex(*out["value"]), ref)

    return check


def _check_components(m: int):
    def check(out, chk):
        chk.equal("component count", out["count"], 1)
        chk.equal("forms covered", sorted(i for c in out["components"] for i in c), list(range(m)))

    return check


def _check_interior(n: int, trials: int):
    def check(out, chk):
        f = np.asarray(out["witness"], dtype=float)
        rows = [refs.boundary_triangle(f), refs.boundary_square(f)]
        gram = np.array([[np.mean(a * b) for b in rows] for a in rows])
        chk.close("Gram matrix", out["gram"], gram)
        chk.close("least eigenvalue", out["min_singular_value"], np.linalg.eigvalsh(gram).min())
        chk.at_most("trials run", out["trials_run"], trials)
        if out["independent"] != (out["min_singular_value"] > 1e-6):
            chk.fail("independence flag disagrees with the least eigenvalue")

    return check


def _exact_enum(seed: int, files: _Files, tiny: bool) -> list[Command]:
    cmds = []
    for label, p, n, k in (("u4", 2, 3 if tiny else 7, 4), ("u3", 3, 2 if tiny else 6, 3)):
        vals = _unit_table(_rng(seed, label), p, n)
        t = files.put(f"{label}.json", _table_json(p, n, vals))
        cmds.append(Command(
            f"gowers-{label}", _exact("gowers", "--table", t, "--k", k),
            _check_gowers_exact(refs.gowers_power(vals, p, n, k) ** (1 / 2**k)),
        ))
    for label, p, n, length in (("ap3", 3, 3 if tiny else 7, 3), ("ap4", 5, 2 if tiny else 4, 4)):
        vals = _unit_table(_rng(seed, label), p, n)
        t = files.put(f"{label}-table.json", _table_json(p, n, vals))
        s = files.put(f"{label}.json", _ap(p, length).to_json_dict())
        cmds.append(Command(
            f"average-{label}", _exact("average", "--system", s, "--tables", t),
            _check_average_exact(refs.progression_average(vals, p, n, length)),
        ))
    # build_high_rank_flag(2, d), a connected system, under a seeded change
    # of variables and reordering of its forms: still one component.  Its
    # members are {0} x F_2^(d-1) and {1} x {0,1}^(d-1), minus 0 and the flag.
    d = 3 if tiny else 4
    cube = [tuple(int(v) for v in row) for row in refs.digits(2, d - 1)]
    flag = (1,) + (0,) * (d - 1)
    members = [(0, *t) for t in cube if any(t)] + [(1, *t) for t in cube if any(t)]
    rng = _rng(seed, "flag")
    while True:
        S = rng.integers(0, 2, size=(d, d))
        if round(abs(np.linalg.det(S))) % 2:
            break
    forms = [tuple(int(v) for v in (np.array(f) @ S) % 2) for f in members]
    forms = [forms[i] for i in rng.permutation(len(forms))]
    flag = tuple(int(v) for v in (np.array(flag) @ S) % 2)
    s = files.put("flag.json", FlaggedSystem(2, d, forms, flag).to_json_dict())
    cmds.append(Command(
        "components", _exact("system", "components", "--file", s), _check_components(len(forms))
    ))
    p, n = 3, 2 if tiny else 6
    F = _rng(seed, "dist").random(p**n)
    t = files.put("dist-table.json", _table_json(p, n, F, "real"))
    s = files.put("ap3-dist.json", _ap(p, 3).to_json_dict())
    # a_1 of the lift of F is F itself, so t* is the AP3 average of F
    cmds.append(Command(
        "distributional-ap3",
        _exact("distributional", "--table", t, "--system", s, "--beta", "1,1,1"),
        _check_average_exact(refs.progression_average(F, p, n, 3)),
    ))
    n, trials = (3 if tiny else 7), 3
    a = files.put("triangle.json", TRIANGLE.to_json_dict())
    b = files.put("square.json", SQUARE.to_json_dict())
    cmds.append(Command(
        "interior",
        _exact("interior", "--systems", a, b, "--p", 2, "--n", n,
               "--trials", trials, "--seed", seed),
        _check_interior(n, trials),
    ))
    return cmds


# -- poly-search ----------------------------------------------------------------------


def _check_decompose(values: np.ndarray, p: int, n: int, degree: int, delta: float):
    def check(out, chk):
        chk.equal("flagged", out["flagged"], False)
        chk.at_most("achieved norm", out["achieved_norm"], delta)
        polys = [refs.parse_poly_text(text, n) for text in out["polynomials"]]
        if any(refs.poly_degree(terms, p) > degree for terms in polys):
            chk.fail(f"a factor polynomial exceeds degree {degree}")
        tables = [refs.eval_poly(terms, p, n) for terms in polys]
        residual = refs.conditional_residual(values, tables, p)
        norm = refs.gowers_power(residual, p, n, degree + 1) ** (1 / 2 ** (degree + 1))
        chk.close("achieved norm", out["achieved_norm"], norm)
        chk.equal("rounds", out["rounds"], len(out["polynomials"]))

    return check


def _replay_certificate(out, polys: list[dict], p: int, n: int, chk: Checker) -> None:
    cert = out["certificate"]
    target = np.zeros(p**n, dtype=np.int64)
    for a, terms in zip(cert["alpha"], polys):
        target = (target + a * refs.eval_poly(terms, p, n)) % p
    support = max(refs.poly_degree(t, p) for a, t in zip(cert["alpha"], polys) if a)
    args = [refs.parse_poly_text(t, n) for t in cert["arguments"]]
    arg_tables = [refs.eval_poly(t, p, n) for t in args]
    if any(refs.poly_degree(t, p) >= support for t in args):
        chk.fail("certificate argument of too high degree")
    gamma = {ast.literal_eval(k): v for k, v in cert["gamma"].items()}
    replay = [gamma.get(tuple(int(t[x]) for t in arg_tables)) for x in range(p**n)]
    chk.equal("certificate replay", replay, [int(v) for v in target])
    chk.equal("certificate size", len(args), out["value"])


def _check_rank(polys: list[dict], p: int, n: int, ref: int | None, rmax: int):
    def check(out, chk):
        if ref is None:
            chk.equal("rank", out["value"], None)
            chk.equal("refuted up to", out["refuted_up_to"], rmax)
        else:
            chk.equal("rank", out["value"], ref)
            if out["certificate"] is not None:
                _replay_certificate(out, polys, p, n, chk)

    return check


def _poly_search(seed: int, files: _Files, tiny: bool) -> list[Command]:
    cmds = []
    p, delta = 2, 0.3
    n = 3 if tiny else 6
    rng = _rng(seed, "planted")
    Q = _random_poly(rng, p, n, 2)
    values = 0.8 * (-1.0) ** refs.eval_poly(Q, p, n) + 0.2 * rng.uniform(-1, 1, p**n)
    t = files.put("planted.json", _table_json(p, n, values, "real"))
    cmds.append(Command(
        "decompose-planted",
        _exact("decompose", "--table", t, "--degree", 2, "--delta", delta),
        _check_decompose(values, p, n, 2, delta),
    ))
    n = 3 if tiny else 5
    values = _rng(seed, "noise").uniform(-1, 1, p**n)
    t = files.put("noise.json", _table_json(p, n, values, "real"))
    cmds.append(Command(
        "decompose-random",
        _exact("decompose", "--table", t, "--degree", 2, "--delta", delta),
        _check_decompose(values, p, n, 2, delta),
    ))
    n, rmax = (3 if tiny else 4), 2
    for label, count in (("cubic-pair", 2), ("cubic", 1)):
        rng = _rng(seed, label)
        polys = [_random_poly(rng, p, n, 3) for _ in range(count)]
        names = [
            files.put(f"{label}-{i}.json", Polynomial(p, n, P).to_json_dict())
            for i, P in enumerate(polys)
        ]
        ref = refs.f2_rank_upto2([refs.eval_poly(P, p, n) for P in polys], n)
        cmds.append(Command(
            f"rank-{label}", _exact("rank", "--polys", *names, "--rmax", rmax),
            _check_rank(polys, p, n, ref, rmax),
        ))
    n = 4 if tiny else 8
    Q = _random_poly(_rng(seed, "quadratic"), p, n, 2)
    name = files.put("quadratic.json", Polynomial(p, n, Q).to_json_dict())
    cmds.append(Command(
        "rank-quadratic", _exact("rank", "--polys", name, "--rmax", rmax),
        _check_rank([Q], p, n, refs.quadratic_rank_f2(refs.eval_poly(Q, p, n), n), rmax),
    ))
    return cmds


# -- sampled ------------------------------------------------------------------------


def _check_mc_norm(ref_power: float, k: int):
    def check(out, chk):
        chk.within_se(f"U^{k} estimate", out["value"], ref_power ** (1 / 2**k), out["stderr"])

    return check


def _check_mc_average(ref: complex, key: str = "value"):
    def check(out, chk):
        chk.within_se("average estimate", out[key], ref, out["stderr"])

    return check


def _check_acceptance(ref: float):
    def check(out, chk):
        chk.within_se("acceptance", out["acceptance"], ref, out["stderr"])

    return check


def _parallelepipeds(rng, n: int, k: int, count: int) -> list:
    """`count` random 2^k-point parallelepipeds in F_2^n, corners ordered by
    the bitmask of directions used."""
    out = []
    for _ in range(count):
        x0 = rng.integers(0, 2, size=n)
        ys = rng.integers(0, 2, size=(k, n))
        pts = [
            (x0 + sum(ys[i] for i in range(k) if mask >> i & 1)) % 2
            for mask in range(2**k)
        ]
        out.append(np.array(pts))
    return out


def _sampled(seed: int, files: _Files, tiny: bool) -> list[Command]:
    cmds = []
    scale = 100 if tiny else 1
    # a tensor product of three blocks: its U^k power is the product of the
    # blocks' powers, which keeps an exact reference cheap at n = 12
    block = 2 if tiny else 4
    rng = _rng(seed, "blocks")
    blocks = [_unit_table(rng, 2, block, spread=1.5) for _ in range(3)]
    vals = np.kron(np.kron(blocks[0], blocks[1]), blocks[2])
    t = files.put("product.json", _table_json(2, 3 * block, vals))
    for k in (3, 4):
        samples = 200_000 // scale
        power = float(np.prod([refs.gowers_power(b, 2, block, k) for b in blocks]))
        cmds.append(Command(
            f"gowers-mc-u{k}",
            ["gowers", "--table", t, "--k", str(k), "--mc", str(samples), "--seed", str(seed)],
            _check_mc_norm(power, k), samples,
        ))
    p, n, samples = 5, (2 if tiny else 4), 500_000 // scale
    ap_vals = _unit_table(_rng(seed, "ap4-mc"), p, n)
    t = files.put("ap4-table.json", _table_json(p, n, ap_vals))
    s = files.put("ap4.json", _ap(p, 4).to_json_dict())
    cmds.append(Command(
        "average-mc-ap4",
        ["average", "--system", s, "--tables", t, "--mc", str(samples), "--seed", str(seed)],
        _check_mc_average(refs.progression_average(ap_vals, p, n, 4)), samples,
    ))
    n = 4 if tiny else 10
    bits = _rng(seed, "bits").integers(0, 2, size=2**n)
    t = files.put("bits.json", _table_json(2, n, bits, "real"))
    samples = 500_000 // scale
    cmds.append(Command(
        "uniformity",
        ["test", "uniformity", "--table", t, "--degree", "2", "--samples", str(samples),
         "--seed", str(seed)],
        _check_mc_average(refs.gowers_power((-1.0) ** bits, 2, n, 3), key="estimate"), samples,
    ))
    trials = 16_000 // scale
    n1 = 3 if tiny else 5
    bits1 = _rng(seed, "bits-small").integers(0, 2, size=2**n1)
    t1 = files.put("bits-small.json", _table_json(2, n1, bits1, "real"))
    s1 = files.put("spec-d1.json", uniformity_tester_spec(2, n1, 1).to_json_dict())
    s2 = files.put("spec-d2.json", uniformity_tester_spec(2, n, 2).to_json_dict())
    for label, spec, table, tbits, tn, k in (
        ("symmetrize-d1", s1, t1, bits1, n1, 2), ("symmetrize-d2", s2, t, bits, n, 3)
    ):
        cmds.append(Command(
            label,
            ["test", "symmetrize", "--table", table, "--spec", spec, "--trials", str(trials),
             "--seed", str(seed)],
            _check_acceptance(refs.symmetrized_acceptance(tbits, tn, k)), trials,
        ))
    rng = _rng(seed, "generic")
    tuples = _parallelepipeds(rng, n, 3, 64)
    weights = rng.random(len(tuples)) + 0.5
    probs = weights / weights.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    support = list(zip(tuples, probs.tolist()))
    parity = refs.digits(2, 8).sum(axis=1) % 2 == 0
    spec = TesterSpec(2, 8, parity.astype(float), base_support=support)
    s = files.put("spec-generic.json", spec.to_json_dict())
    trials = 200_000 // scale
    cmds.append(Command(
        "generic",
        ["test", "generic", "--table", t, "--spec", s, "--trials", str(trials),
         "--seed", str(seed)],
        _check_acceptance(refs.support_acceptance(bits, support, 2, n)), trials,
    ))
    F = _rng(seed, "dist-mc").random(2**n)
    t = files.put("dist-table.json", _table_json(2, n, F, "real"))
    s = files.put("square.json", SQUARE.to_json_dict())
    samples = 500_000 // scale
    # a_1 of the lift of F is F, and the square average of F is its U^2 power
    cmds.append(Command(
        "distributional-mc",
        ["distributional", "--table", t, "--system", s, "--beta", "1,1,1,1",
         "--mc", str(samples), "--seed", str(seed)],
        _check_mc_average(refs.gowers_power(F, 2, n, 2)), samples,
    ))
    return cmds


_WORKLOAD_INPUTS = {"exact-enum": _exact_enum, "poly-search": _poly_search, "sampled": _sampled}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    """Write the workload's inputs under `work` and return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    files = _Files(work)
    cmds = _WORKLOAD_INPUTS[name](seed, files, tiny)
    return Workload(cmds, files.sha)


def setup_probe(work: Path) -> list[str]:
    """A trivial command: every invocation pays at least this much."""
    name = "probe.json"
    (work / name).write_text(json.dumps(_table_json(2, 1, [1.0, -1.0], "real")))
    return ["fourier", "--table", name]
