"""Query-based correlation testers and the experiments built on them.

The uniformity test estimates ‖e_p(f)‖_{U^{d+1}}^{2^{d+1}} from 2^{d+1}-point
query patterns; generic testers pair a query distribution with a 0/1 decision
map and thresholds; symmetrization composes the queries with a fresh random
invertible affine transformation, after which the query tuples reduce to
homogeneous linear-form systems whose exponential averages reconstruct the
acceptance probability.  Distributional functions carry a probability vector
per point; the interior experiment hunts for a witness function whose
boundary functions have a nonsingular Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    _integer_values,
    boundary_function,
    exponential_average,
    linear_form_average,
)
from .config import check_budget
from .errors import FormatError, ValidationError
from .field import (
    all_invertible_matrices,
    digit_table,
    place_values,
    random_affine,
    random_affine_batch,
    space_size,
    validate_dims,
)
from .linalg import span_coordinates
from .linear_forms import LinearSystem, are_isomorphic, connected_components, cube_system
from .rng import as_rng
from .tables import FunctionTable


# -- distributional functions ------------------------------------------------------


class DistributionalFunction:
    """A map from F_p^n to probability distributions on F_p."""

    __slots__ = ("p", "n", "table")

    def __init__(self, p: int, n: int, table):
        p, n = validate_dims(p, n)
        arr = np.asarray(table, dtype=float)
        if arr.shape != (space_size(p, n), p):
            raise ValidationError(
                f"expected shape {(space_size(p, n), p)}, got {arr.shape}"
            )
        if arr.min() < -1e-12:
            raise ValidationError("negative probability entry")
        sums = arr.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-12:
            raise ValidationError("rows must sum to 1")
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DistributionalFunction is immutable")

    @classmethod
    def from_function(cls, f) -> "DistributionalFunction":
        """Dirac embedding of a field-valued table."""
        vals = _integer_values(f, f.p, f.n)
        table = np.zeros((space_size(f.p, f.n), f.p))
        table[np.arange(len(vals)), vals] = 1.0
        return cls(f.p, f.n, table)

    @classmethod
    def lift(cls, F: FunctionTable) -> "DistributionalFunction":
        """Gamma_F: Pr[0] = F + (1-F)/p, every nonzero value has mass (1-F)/p."""
        if F.codomain != "real":
            raise ValidationError("lift expects a real-valued table")
        vals = F.values.real
        if vals.min() < -1e-12 or vals.max() > 1 + 1e-12:
            raise ValidationError("lift expects values in [0, 1]")
        vals = np.clip(vals, 0.0, 1.0)
        p = F.p
        table = np.tile(((1.0 - vals) / p)[:, None], (1, p))
        table[:, 0] += vals
        return cls(F.p, F.n, table)

    @classmethod
    def uniform(cls, p: int, n: int) -> "DistributionalFunction":
        return cls(p, n, np.full((space_size(p, n), p), 1.0 / p))

    def a_c(self, c: int) -> FunctionTable:
        """The character moment a_c(x) = E_{z ~ Gamma(x)} e_p(c z)."""
        c = int(c) % self.p
        chars = np.exp(2j * np.pi * c * np.arange(self.p) / self.p)
        return FunctionTable(self.p, self.n, self.table @ chars)

    def sample_function(self, seed) -> FunctionTable:
        """Draw f(x) ~ Gamma(x) independently at every point."""
        rng = as_rng(seed)
        cdf = np.cumsum(self.table, axis=1)
        u = rng.random(len(self.table))
        vals = (u[:, None] > cdf).sum(axis=1)
        return FunctionTable(self.p, self.n, np.minimum(vals, self.p - 1), codomain="real")

    def t_star(
        self,
        system: LinearSystem,
        beta,
        mode: str = "exact",
        samples: int | None = None,
        seed=None,
        budget: int | None = None,
    ):
        """E prod_i (a_{beta_i} o Gamma)(L_i(X)) — the distributional average."""
        beta = [int(b) % self.p for b in beta]
        if len(beta) != system.m:
            raise ValidationError("beta length must match the number of forms")
        tables = [self.a_c(b) for b in beta]
        return linear_form_average(
            tables, system, mode=mode, samples=samples, seed=seed, budget=budget
        )


# Free-function forms of the distributional operations.


def distributional_lift(F: FunctionTable) -> DistributionalFunction:
    return DistributionalFunction.lift(F)


def a_c_compose(gamma: DistributionalFunction, c: int) -> FunctionTable:
    return gamma.a_c(c)


def sample_function(gamma: DistributionalFunction, seed) -> FunctionTable:
    return gamma.sample_function(seed)


def t_star(gamma: DistributionalFunction, system: LinearSystem, beta, **kwargs):
    return gamma.t_star(system, beta, **kwargs)


# -- tester specs ---------------------------------------------------------------


class TesterSpec:
    """q queries, a distribution over query tuples, and a 0/1 decision map."""

    __test__ = False  # keep pytest from collecting the Test* name

    __slots__ = (
        "p", "q", "decision_table", "theta_minus", "theta_plus",
        "epsilon", "delta", "base_support", "sampler", "symmetrized",
    )

    def __init__(
        self,
        p: int,
        q: int,
        decision_table,
        theta_minus: float = 0.0,
        theta_plus: float = 1.0,
        epsilon: float | None = None,
        delta: float | None = None,
        base_support=None,
        sampler=None,
        symmetrized: bool = False,
    ):
        if q < 1:
            raise ValidationError("need at least one query")
        decision = np.asarray(decision_table, dtype=float).reshape(-1)
        if decision.shape != (p**q,):
            raise ValidationError(f"decision table must have p^q = {p ** q} entries")
        if not np.isin(decision, (0.0, 1.0)).all():
            raise ValidationError("decision table entries must be 0 or 1")
        if not (0.0 <= theta_minus < theta_plus <= 1.0):
            raise ValidationError("need 0 <= theta- < theta+ <= 1")
        if (epsilon is None) != (delta is None):
            raise ValidationError("epsilon and delta come together")
        if epsilon is not None and not (0.0 < delta < epsilon):
            raise ValidationError("need 0 < delta < epsilon")
        if base_support is None and sampler is None:
            raise ValidationError("need a base_support or a sampler")
        support = None
        if base_support is not None:
            support = []
            total = 0.0
            for points, prob in base_support:
                pts = np.asarray(points, dtype=np.int64) % p
                if pts.ndim != 2 or pts.shape[0] != q:
                    raise ValidationError("support point must hold q query vectors")
                if prob < 0:
                    raise ValidationError("negative support probability")
                support.append((pts, float(prob)))
                total += prob
            if abs(total - 1.0) > 1e-12:
                raise ValidationError("support probabilities must sum to 1")
        decision.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "decision_table", decision)
        object.__setattr__(self, "theta_minus", float(theta_minus))
        object.__setattr__(self, "theta_plus", float(theta_plus))
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "base_support", support)
        object.__setattr__(self, "sampler", sampler)
        object.__setattr__(self, "symmetrized", bool(symmetrized))

    def __setattr__(self, name, value):
        raise AttributeError("TesterSpec is immutable")

    def draw_queries(self, rng, n: int, count: int) -> np.ndarray:
        """(count, q, n) array of query tuples."""
        if self.sampler is not None:
            out = np.asarray(self.sampler(rng, n, count), dtype=np.int64)
        else:
            probs = np.array([prob for _, prob in self.base_support])
            picks = rng.choice(len(self.base_support), size=count, p=probs)
            stacked = np.stack([pts for pts, _ in self.base_support])
            if stacked.shape[2] != n:
                raise ValidationError("support points live in a different dimension")
            out = stacked[picks]
        if out.shape != (count, self.q, n):
            raise ValidationError(
                f"query sampler emitted shape {out.shape}, wanted {(count, self.q, n)}"
            )
        return out % self.p

    def decide(self, values: np.ndarray) -> np.ndarray:
        """Apply the decision map to (count, q) query values."""
        labels = (values % self.p) @ place_values(self.p, self.q)
        return self.decision_table[labels]

    def to_json_dict(self) -> dict:
        if self.sampler is not None or self.base_support is None:
            raise ValidationError("procedural samplers do not serialize")
        return {
            "schema": "fpuniform/v1",
            "kind": "tester",
            "p": self.p,
            "q": self.q,
            "support": [
                {"points": pts.tolist(), "prob": prob}
                for pts, prob in self.base_support
            ],
            "decision_table": [int(v) for v in self.decision_table],
            "thresholds": [self.theta_minus, self.theta_plus],
            "epsilon": self.epsilon,
            "delta": self.delta,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TesterSpec":
        for key in ("schema", "p", "q", "support", "decision_table", "thresholds"):
            if key not in obj:
                raise FormatError(f"missing field {key!r}", pointer=f"/{key}")
        if obj["schema"] != "fpuniform/v1":
            raise FormatError(f"unknown schema {obj['schema']!r}", pointer="/schema")
        support = []
        for i, entry in enumerate(obj["support"]):
            try:
                support.append((entry["points"], entry["prob"]))
            except (KeyError, TypeError) as exc:
                raise FormatError(f"bad support entry: {exc}", pointer=f"/support/{i}") from exc
        lo, hi = obj["thresholds"]
        try:
            return cls(
                int(obj["p"]), int(obj["q"]), obj["decision_table"],
                theta_minus=lo, theta_plus=hi,
                epsilon=obj.get("epsilon"), delta=obj.get("delta"),
                base_support=support,
            )
        except ValidationError as exc:
            raise FormatError(str(exc)) from exc


def uniformity_tester_spec(p: int, n: int, d: int, **kwargs) -> TesterSpec:
    """The 2^{d+1}-query pattern (X + sum_{i in I} Y_i), accepting on vanishing
    alternating sums — the base support is the standard parallelepiped at the
    first d+1 coordinates."""
    if d < 1:
        raise ValidationError("degree must be >= 1")
    k = d + 1
    if n < k:
        raise ValidationError(f"need n >= {k} coordinates for the base pattern")
    q = 2**k
    points = []
    for mask in range(q):
        pt = np.zeros(n, dtype=np.int64)
        for i in range(k):
            if mask >> i & 1:
                pt[i] = (pt[i] + 1) % p
        points.append(pt)
    # decision: the alternating sum of the corner values vanishes
    decision = np.zeros(p**q, dtype=float)
    signs = np.array([(-1) ** (k - bin(mask).count("1")) for mask in range(q)])
    values = digit_table(p, q)
    alt = (values @ signs) % p
    decision[alt == 0] = 1.0
    kwargs.setdefault("theta_minus", 1.0 / p)
    kwargs.setdefault("theta_plus", 1.0)
    return TesterSpec(p, q, decision, base_support=[(np.stack(points), 1.0)], **kwargs)


# -- running testers ---------------------------------------------------------------


@dataclass
class TesterReport:
    acceptance: float
    trials: int | None
    mode: str
    seed: object = None
    stderr: float | None = None

    def __float__(self) -> float:
        return self.acceptance


def run_tester(
    spec: TesterSpec,
    f: FunctionTable,
    trials: int | None = None,
    seed=None,
    mode: str = "estimate",
    budget: int | None = None,
) -> TesterReport:
    """Acceptance probability of the decision map on f's query values."""
    vals = _integer_values(f, f.p, f.n)
    if f.p != spec.p:
        raise ValidationError("tester and table use different primes")
    n = f.n
    places = place_values(spec.p, n)
    if mode == "exact":
        if spec.base_support is None:
            raise ValidationError("exact mode needs an explicit finite support")
        if spec.symmetrized:
            # enumerate Aff(F_p^n) = GL x translations
            check_budget(
                spec.p ** (n * n + n) * spec.q, budget, "affine symmetrization orbit"
            )
            mats = all_invertible_matrices(spec.p, n, budget)
            shifts = digit_table(spec.p, n)
            acceptance = 0.0
            for pts, prob in spec.base_support:
                images = np.einsum("gij,qj->gqi", mats, pts) % spec.p
                acceptance += prob * _symmetrized_mean(spec, vals, images, shifts, places)
            return TesterReport(acceptance=float(acceptance), trials=None, mode="exact")
        acceptance = 0.0
        for pts, prob in spec.base_support:
            if pts.shape[1] != n:
                raise ValidationError("support points live in a different dimension")
            got = vals[pts @ places]
            acceptance += prob * float(spec.decide(got[None, :])[0])
        return TesterReport(acceptance=float(acceptance), trials=None, mode="exact")
    if mode != "estimate":
        raise ValidationError(f"unknown mode {mode!r}")
    if trials is None or trials < 1:
        raise ValidationError("estimate mode needs trials >= 1")
    rng = as_rng(0 if seed is None else seed)
    queries = spec.draw_queries(rng, n, trials)
    got = vals[queries @ places]  # (trials, q)
    decisions = spec.decide(got)
    acc = float(decisions.mean())
    se = float(np.sqrt(max(acc * (1 - acc), 0.0) / trials))
    return TesterReport(acceptance=acc, trials=trials, mode="estimate", seed=seed, stderr=se)


def _symmetrized_mean(spec, vals, images, shifts, places) -> float:
    """Mean decision over GL images x all translations of one support tuple."""
    total = 0.0
    base_idx = images @ places  # (G, q) — indices of M @ x_j
    p = spec.p
    digits = digit_table(p, shifts.shape[1])
    for c in shifts:
        # translating every point by c permutes indices the same way
        perm = ((digits + c) % p) @ places
        total += spec.decide(vals[perm[base_idx]]).mean()
    return total / len(shifts)


def symmetrize_tester(spec: TesterSpec, seed=None) -> TesterSpec:
    """Wrap the sampler so every draw first passes through a fresh uniform
    random invertible affine map applied to all q queries jointly."""
    base_draw = spec.draw_queries

    def sampler(rng, n, count):
        queries = base_draw(rng, n, count)
        mats, offsets = random_affine_batch(spec.p, n, rng, count)
        return (
            np.einsum("tij,tqj->tqi", mats, queries) + offsets[:, None, :]
        ) % spec.p

    return TesterSpec(
        spec.p,
        spec.q,
        spec.decision_table,
        theta_minus=spec.theta_minus,
        theta_plus=spec.theta_plus,
        epsilon=spec.epsilon,
        delta=spec.delta,
        base_support=[(pts, prob) for pts, prob in spec.base_support]
        if spec.base_support is not None
        else None,
        sampler=sampler,
        symmetrized=True,
    )


# -- linear-form profiles -----------------------------------------------------------


@dataclass
class ProfileEntry:
    system: LinearSystem
    weight: float
    merged_beta: dict  # original beta tuple -> per-form beta tuple
    gamma_hat: np.ndarray  # decision Fourier coefficients, beta enumeration order


def extract_linear_form_profile(spec: TesterSpec, n: int) -> list[ProfileEntry]:
    """Rewrite each support tuple as a homogeneous linear-form system.

    A tuple (x_1..x_q) with differences of rank r becomes the forms
    (1, lambda_{i,1..r}) in variables (Y_0..Y_r); queries landing on the same
    form pool their beta weight.  The decision map's Fourier coefficients over
    F_p^q ride along, so that sum of gamma_hat(beta) * t*_{L, beta} over the
    support reconstructs the symmetrized acceptance up to O(p^{-n} q^2).
    """
    if spec.base_support is None:
        raise ValidationError("cannot extract a profile from a black-box sampler")
    p, q = spec.p, spec.q
    cube = spec.decision_table.reshape((p,) * q)
    gamma_hat = np.fft.fftn(cube).reshape(-1) / p**q
    betas = digit_table(p, q)
    out = []
    for pts, prob in spec.base_support:
        if pts.shape[1] != n:
            raise ValidationError("support points live in a different dimension")
        _, lam = span_coordinates(pts - pts[0], p)
        r = lam.shape[1]
        forms = [(1, *(int(v) for v in row)) for row in lam]
        distinct = sorted(set(forms))
        positions = {form: j for j, form in enumerate(distinct)}
        merged = {}
        for b_idx in range(p**q):
            beta = betas[b_idx]
            folded = [0] * len(distinct)
            for i in range(q):
                folded[positions[forms[i]]] = (folded[positions[forms[i]]] + int(beta[i])) % p
            merged[tuple(int(v) for v in beta)] = tuple(folded)
        system = LinearSystem(p, r + 1, distinct)
        out.append(
            ProfileEntry(system=system, weight=prob, merged_beta=merged, gamma_hat=gamma_hat)
        )
    return out


def profile_acceptance(profile: list[ProfileEntry], f, budget: int | None = None) -> complex:
    """Acceptance reconstruction: sum of weights * gamma_hat(beta) * t*_{L,beta}(f)."""
    total = 0.0 + 0j
    for entry in profile:
        p = entry.system.p
        q = int(round(np.log(len(entry.gamma_hat)) / np.log(p)))
        beta_rows = digit_table(p, q)
        for b_idx in range(len(entry.gamma_hat)):
            coeff = entry.gamma_hat[b_idx]
            if abs(coeff) < 1e-15:
                continue
            beta = tuple(int(v) for v in beta_rows[b_idx])
            folded = entry.merged_beta[beta]
            val = complex(
                exponential_average(f, entry.system, beta=folded, budget=budget)
            )
            total += entry.weight * coeff * val
    return total


# -- the uniformity test -----------------------------------------------------------


@dataclass
class UniformityReport:
    estimate: float
    accept: bool
    threshold: float
    d: int
    samples: int
    seed: object
    queries_per_sample: int
    points_queried: int
    stderr: float

    def __float__(self) -> float:
        return self.estimate


def uniformity_test(
    f,
    d: int,
    samples: int,
    seed=None,
    threshold: float = 0.5,
) -> UniformityReport:
    """Estimate ‖e_p(f)‖_{U^{d+1}}^{2^{d+1}} for field-valued f from random
    parallelepipeds: the exponential average over cube_system(p, d+1) with
    exponents (-1)^(d+1-|omega|), so each sample reads 2^{d+1} points."""
    if d < 1:
        raise ValidationError("degree must be >= 1")
    k = d + 1
    beta = [(-1) ** (k - bin(mask).count("1")) for mask in range(2**k)]
    rep = exponential_average(f, cube_system(f.p, k), beta, mode="mc", samples=samples, seed=seed)
    estimate = float(rep.value.real)
    return UniformityReport(
        estimate=estimate,
        accept=estimate >= threshold,
        threshold=threshold,
        d=d,
        samples=samples,
        seed=seed,
        queries_per_sample=2**k,
        points_queried=samples * 2**k,
        stderr=rep.stderr,
    )


def find_testing_degree(
    members,
    p: int,
    n: int,
    d_max: int,
    samples: int = 2000,
    seed=None,
) -> dict:
    """Heuristic scan: which degree's uniformity test best separates the given
    family members from uniform-random functions?  Labeled heuristic — a good
    degree is only guaranteed to exist, not to be found by any fixed recipe,
    so this samples and compares."""
    if not members:
        raise ValidationError("need at least one family member")
    rng = as_rng(0 if seed is None else seed)
    N = space_size(p, n)
    randoms = [
        FunctionTable(p, n, rng.integers(0, p, size=N), codomain="real")
        for _ in range(len(members))
    ]
    separations = {}
    for d in range(1, d_max + 1):
        on_family = np.mean(
            [uniformity_test(g, d, samples, seed=rng).estimate for g in members]
        )
        on_random = np.mean(
            [uniformity_test(g, d, samples, seed=rng).estimate for g in randoms]
        )
        separations[d] = float(on_family - on_random)
    best = max(separations, key=separations.get)
    return {"best_degree": best, "separations": separations, "heuristic": True}


# -- dual families ---------------------------------------------------------------


@dataclass
class DualFamily:
    """An enumerable family per n, with spot-checkable structural flags."""

    p: int
    generator: object  # callable n -> list[FunctionTable], field-valued
    contains: object = None  # callable FunctionTable -> bool
    size_bound: object = None  # callable n -> int
    affine_invariant: bool = False

    def members(self, n: int):
        out = list(self.generator(n))
        if not out:
            raise ValidationError("family is empty at this n")
        return out

    def check_consistency(self, n: int) -> bool:
        """A1: members are valid field-valued tables on F_p^n, within the
        declared size bound."""
        got = self.members(n)
        for g in got:
            _integer_values(g, self.p, n)
        if self.size_bound is not None and len(got) > self.size_bound(n):
            return False
        return True

    def spot_check_affine_invariance(self, n: int, seed=None, rounds: int = 5) -> bool:
        """A2 on samples: membership survives random affine substitutions."""
        if self.contains is None:
            raise ValidationError("no membership test supplied")
        rng = as_rng(0 if seed is None else seed)
        got = self.members(n)
        for _ in range(rounds):
            g = got[rng.integers(0, len(got))]
            amap = random_affine(self.p, n, rng)
            moved = g.apply_affine(amap)
            if not self.contains(moved):
                return False
        return True


def poly_dual_family(p: int, d: int) -> DualFamily:
    """Poly_d as a dual family: all degree-<=d polynomial value tables."""
    from itertools import product as iter_product

    from .polynomials import Polynomial, family_size, monomials_up_to

    def generator(n):
        monos = monomials_up_to(p, n, d)
        check_budget(p ** len(monos), None, "polynomial family enumeration")
        out = []
        for coeffs in iter_product(range(p), repeat=len(monos)):
            poly = Polynomial.from_coefficients(p, n, monos, coeffs)
            out.append(FunctionTable(p, n, poly.value_table(), codomain="real"))
        return out

    def contains(table):
        # every function is a unique reduced-exponent polynomial; interpolate
        # and read its degree off the nonzero coefficients
        vals = _integer_values(table, table.p, table.n)
        from .linalg import solve as gf_solve

        n = table.n
        monos = monomials_up_to(p, n, n * (p - 1))
        pts = digit_table(p, n)
        cols = np.empty((len(pts), len(monos)), dtype=np.int64)
        for j, exps in enumerate(monos):
            col = np.ones(len(pts), dtype=np.int64)
            for i, e in enumerate(exps):
                for _ in range(e):
                    col = (col * pts[:, i]) % p
            cols[:, j] = col
        coeffs = gf_solve(cols, vals, p)
        if coeffs is None:
            return False
        degs = np.array([sum(e) for e in monos])
        return not np.any((coeffs % p != 0) & (degs > d))

    def size_bound(n):
        return p ** family_size(p, n, d)

    return DualFamily(
        p=p,
        generator=generator,
        contains=contains,
        size_bound=size_bound,
        affine_invariant=True,
    )


# -- the interior experiment ---------------------------------------------------------


@dataclass
class InteriorReport:
    gram: np.ndarray
    min_singular_value: float
    independent: bool
    witness: FunctionTable | None
    trials_run: int
    seed: object

    def to_json_dict(self) -> dict:
        return {
            "gram": [[float(v) for v in row] for row in self.gram],
            "min_singular_value": float(self.min_singular_value),
            "independent": bool(self.independent),
            "trials_run": self.trials_run,
        }


def interior_experiment(
    systems,
    p: int,
    n: int,
    trials: int = 50,
    seed=None,
    threshold: float = 1e-6,
    budget: int | None = None,
) -> InteriorReport:
    """Search for f with linearly independent boundary functions.

    Each system's connected components must be mutually isomorphic (the
    average then factors as a power of one connected representative), and the
    representatives must be pairwise non-isomorphic; random f: F_p^n -> (0,1)
    are drawn until the Gram matrix of the boundary functions has least
    eigenvalue above the threshold.
    """
    systems = list(systems)
    if not systems:
        raise ValidationError("need at least one system")
    # Hypothesis gate.  Averages factor over connected components, and a power
    # t -> t^r is a diffeomorphism of (0,1), so a system whose components are
    # all isomorphic to one connected system acts as that system.  Anything
    # with genuinely mixed components has no single connected representative
    # and is rejected, as is any pair whose representatives coincide.
    reps = []
    for sys_ in systems:
        if sys_.p != p:
            raise ValidationError("system prime mismatch")
        parts = connected_components(sys_)
        rep_sys = sys_.subsystem(parts[0])
        for part in parts[1:]:
            other = sys_.subsystem(part)
            iso = are_isomorphic(rep_sys, other)
            if not iso.decided:
                raise ValidationError("cannot verify the component structure")
            if not iso.isomorphic:
                raise ValidationError(
                    f"system {sys_.forms} mixes non-isomorphic components "
                    f"{rep_sys.forms} and {other.forms}"
                )
        reps.append(rep_sys)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            iso = are_isomorphic(reps[i], reps[j])
            if not iso.decided:
                raise ValidationError(
                    f"cannot verify systems {i} and {j} are non-isomorphic"
                )
            if iso.isomorphic:
                raise ValidationError(
                    f"systems {i} and {j} reduce to isomorphic components "
                    f"via {iso.mapping}"
                )
    rng = as_rng(0 if seed is None else seed)
    N = space_size(p, n)
    best = None
    for t in range(1, trials + 1):
        f = FunctionTable(
            p, n, 1e-3 + (1.0 - 2e-3) * rng.random(N), codomain="real"
        )
        rows = [boundary_function(f, sys_, budget=budget).values.real for sys_ in systems]
        gram = np.array([[np.mean(a * b) for b in rows] for a in rows])
        low = float(np.linalg.eigvalsh(gram).min())
        if best is None or low > best[0]:
            best = (low, gram, f, t)
        if low > threshold:
            return InteriorReport(
                gram=gram,
                min_singular_value=low,
                independent=True,
                witness=f,
                trials_run=t,
                seed=seed,
            )
    low, gram, f, _ = best
    return InteriorReport(
        gram=gram,
        min_singular_value=low,
        independent=False,
        witness=f,
        trials_run=trials,
        seed=seed,
    )
