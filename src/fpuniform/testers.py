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

from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    _fp_transform,
    _integer_values,
    boundary_function,
    exponential_average,
    linear_form_average,
)
from .config import check_budget, resolve_budget
from .errors import FormatError, ValidationError, parse_at
from .field import (
    digit_table,
    independent_tuples,
    index_combination,
    is_space_size,
    place_values,
    random_independent_rows,
    space_size,
    validate_dims,
    validate_prime,
)
from .linalg import span_coordinates
from .linear_forms import LinearSystem, are_isomorphic, connected_components, cube_system
from .rng import _CHUNK, as_rng, check_count, mc_mean
from .tables import FunctionTable


# -- distributional functions ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DistributionalFunction:
    """A map from F_p^n to probability distributions on F_p."""

    p: int
    n: int
    table: np.ndarray

    def __post_init__(self):
        p, n = validate_dims(self.p, self.n)
        arr = np.asarray(self.table, dtype=float)
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
        samples: int | None = None,
        seed=None,
        budget: int | None = None,
    ):
        """E prod_i (a_{beta_i} o Gamma)(L_i(X)) — the distributional average,
        exact when `samples` is None and sampled otherwise."""
        beta = [int(b) % self.p for b in beta]
        if len(beta) != system.m:
            raise ValidationError("beta length must match the number of forms")
        tables = [self.a_c(b) for b in beta]
        return linear_form_average(tables, system, samples=samples, seed=seed, budget=budget)


# -- tester specs ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TesterSpec:
    """q queries, a distribution over query tuples, and a 0/1 decision map."""

    __test__ = False  # keep pytest from collecting the Test* name

    p: int
    q: int
    decision_table: np.ndarray
    theta_minus: float = 0.0
    theta_plus: float = 1.0
    epsilon: float | None = None
    delta: float | None = None
    base_support: list | None = None
    symmetrized: bool = False

    def __post_init__(self):
        p, q = validate_prime(self.p), self.q
        if q < 1:
            raise ValidationError("need at least one query")
        decision = np.asarray(self.decision_table, dtype=float).reshape(-1)
        if not is_space_size(decision.size, p, q):
            raise ValidationError(f"decision table must have p^q entries, p = {p} and q = {q}")
        if not np.isin(decision, (0.0, 1.0)).all():
            raise ValidationError("decision table entries must be 0 or 1")
        if not (0.0 <= self.theta_minus < self.theta_plus <= 1.0):
            raise ValidationError("need 0 <= theta- < theta+ <= 1")
        epsilon, delta = self.epsilon, self.delta
        if (epsilon is None) != (delta is None):
            raise ValidationError("epsilon and delta come together")
        if epsilon is not None and not (0.0 < delta < epsilon):
            raise ValidationError("need 0 < delta < epsilon")
        if self.base_support is None:
            raise ValidationError("need a base_support")
        support = []
        total = 0.0
        for points, prob in self.base_support:
            pts = np.asarray(points, dtype=np.int64) % p
            if pts.ndim != 2 or pts.shape[0] != q:
                raise ValidationError("support point must hold q query vectors")
            if not prob >= 0:
                raise ValidationError(f"support probability {prob} is not >= 0")
            support.append((pts, float(prob)))
            total += prob
        if abs(total - 1.0) > 1e-12:
            raise ValidationError("support probabilities must sum to 1")
        decision.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "decision_table", decision)
        object.__setattr__(self, "theta_minus", float(self.theta_minus))
        object.__setattr__(self, "theta_plus", float(self.theta_plus))
        object.__setattr__(self, "base_support", support)
        object.__setattr__(self, "symmetrized", bool(self.symmetrized))

    def support_indices(self, n: int) -> np.ndarray:
        """(tuples, q) point indices of the base support's query tuples."""
        stacked = np.stack([pts for pts, _ in self.base_support])
        if stacked.shape[2] != n:
            raise ValidationError("support points live in a different dimension")
        return stacked @ place_values(self.p, n)

    def index_sampler(self, n: int):
        """(draw, width): draw(rng, count) -> (count, q) point indices of drawn
        query tuples, and the number of block-length arrays that a tester draw
        keeps live, 4q: the q query indices, their values, their residues and
        the sampler's own temporaries.  A support tuple is picked by its
        probability; a symmetrized spec then maps it by a uniform affine map,
        i.e. to u + lambda.V (see basis_forms) for a uniform point u and a
        uniform independent tuple V, drawn per call."""
        rows = self.support_indices(n)
        probs = np.array([prob for _, prob in self.base_support])
        width = 4 * self.q
        if not self.symmetrized:
            return lambda rng, count: rows[rng.choice(len(rows), size=count, p=probs)], width
        forms = [basis_forms(pts, self.p) for pts, _ in self.base_support]
        r = max(f.shape[1] for f in forms) - 1

        def draw(rng, count):
            picks = rng.choice(len(rows), size=count, p=probs)
            V = random_independent_rows(self.p, n, r, rng, count)
            Z = np.vstack([rng.integers(0, space_size(self.p, n), size=count), V])
            out = np.empty((count, self.q), dtype=np.int64)
            for s, coeffs in enumerate(forms):
                mask = picks == s
                for i, idx in enumerate(
                    index_combination(self.p, n, coeffs, Z[: coeffs.shape[1], mask])
                ):
                    out[mask, i] = idx
            return out

        return draw, width

    def decide(self, values: np.ndarray) -> np.ndarray:
        """Apply the decision map to (count, q) query values."""
        labels = (values % self.p) @ place_values(self.p, self.q)
        return self.decision_table[labels]

    def to_json_dict(self) -> dict:
        if self.symmetrized:
            raise ValidationError("symmetrized specs do not serialize")
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
                parse_at("/p", validate_prime, obj["p"]), int(obj["q"]), obj["decision_table"],
                theta_minus=lo, theta_plus=hi,
                epsilon=obj.get("epsilon"), delta=obj.get("delta"),
                base_support=support,
            )
        except ValidationError as exc:
            raise FormatError(str(exc)) from exc


def basis_forms(pts: np.ndarray, p: int) -> np.ndarray:
    """The homogeneous forms (1, lambda_i) of a query tuple x_1..x_q, as a
    (q, r + 1) array: lambda holds the differences' coordinates over their
    greedy basis v_1..v_r, so x_i = x_1 + sum_j lambda_ij v_j.  The map
    x -> Mx + b sends the tuple to (M x_1 + b) + sum_j lambda_ij M v_j, and for
    uniform invertible M and uniform b that is a uniform point plus a uniform
    independent r-tuple."""
    lam = span_coordinates(pts - pts[0], p)[1]
    return np.hstack([np.ones((len(pts), 1), dtype=np.int64), lam])


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
    budget: int | None = None,
) -> TesterReport:
    """Acceptance probability of the decision map on f's query values: exact
    over the support (and, when symmetrized, every affine image of it) when
    `trials` is None, otherwise by rng.mc_mean over that many drawn tuples,
    whose trials * q query points are charged against the budget first."""
    vals = _integer_values(f, f.p, f.n)
    if f.p != spec.p:
        raise ValidationError("tester and table use different primes")
    n = f.n
    if trials is None:
        rows = spec.support_indices(n)  # checks the dimension too
        probs = [prob for _, prob in spec.base_support]
        if spec.symmetrized:
            # every image u + lambda.V: all points u, all independent tuples V
            forms = [basis_forms(pts, spec.p) for pts, _ in spec.base_support]
            cost = sum(space_size(spec.p, n) ** f.shape[1] for f in forms) * spec.q
            check_budget(cost, budget, "affine symmetrization orbit")
            acceptance = sum(
                prob * _orbit_acceptance(spec, vals, coeffs, n)
                for coeffs, prob in zip(forms, probs)
            )
        else:
            acceptance = sum(prob * float(d) for prob, d in zip(probs, spec.decide(vals[rows])))
        return TesterReport(acceptance=float(acceptance), trials=None, mode="exact")
    draw, width = spec.index_sampler(n)
    acc, se = mc_mean(
        lambda rng, size: spec.decide(vals[draw(rng, size)]),
        trials, seed, "trials", spec.q, budget, width,
    )
    return TesterReport(acceptance=float(acc), trials=trials, mode="mc", seed=seed, stderr=se)


def _orbit_acceptance(spec: TesterSpec, vals: np.ndarray, coeffs: np.ndarray, n: int) -> float:
    """Mean decision over the images u + lambda.V of one support tuple with
    basis forms `coeffs`, over every point u and independent tuple V."""
    N = space_size(spec.p, n)
    u = np.arange(N)
    total, count = 0.0, 0
    for V in independent_tuples(spec.p, n, coeffs.shape[1] - 1, max(1, _CHUNK // N)):
        rows = index_combination(spec.p, n, coeffs, [u, *V[:, :, None]])
        idx = np.stack(list(rows)).reshape(spec.q, -1)
        total += float(spec.decide(vals[idx.T]).sum())
        count += idx.shape[1]
    return total / count


def symmetrize_tester(spec: TesterSpec) -> TesterSpec:
    """The spec that maps every drawn support tuple by a fresh uniform
    invertible affine map, jointly on all q queries.  The image depends only
    on where the map sends the tuple's first point and the basis of its
    differences, so it is drawn as u + lambda.V; symmetrizing twice is
    symmetrizing once."""
    return replace(spec, symmetrized=True)


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
    p, q = spec.p, spec.q
    gamma_hat = _fp_transform(spec.decision_table, p, q) / p**q
    betas = digit_table(p, q)
    out = []
    for pts, prob in spec.base_support:
        if pts.shape[1] != n:
            raise ValidationError("support points live in a different dimension")
        coeffs = basis_forms(pts, p)
        r = coeffs.shape[1] - 1
        forms = [tuple(int(v) for v in row) for row in coeffs]
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
    budget: int | None = None,
) -> UniformityReport:
    """Estimate ‖e_p(f)‖_{U^{d+1}}^{2^{d+1}} for field-valued f from random
    parallelepipeds: the exponential average over cube_system(p, d+1) with
    exponents (-1)^(d+1-|omega|), so each sample reads 2^{d+1} points."""
    check_count(samples, "samples")
    if d < 1:
        raise ValidationError("degree must be >= 1")
    if not -float("inf") < threshold < float("inf"):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    k = d + 1
    cube = cube_system(f.p, k, budget)
    beta = [(-1) ** (k - bin(mask).count("1")) for mask in range(2**k)]
    rep = exponential_average(f, cube, beta, samples=samples, seed=seed, budget=budget)
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


# -- the interior experiment ---------------------------------------------------------


@dataclass
class InteriorReport:
    gram: np.ndarray
    min_singular_value: float
    independent: bool
    witness: FunctionTable | None
    trials_run: int
    seed: object


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
    representatives must be pairwise non-isomorphic (each comparison is
    charged against the budget, see are_isomorphic); random f: F_p^n -> (0,1)
    are drawn until the Gram matrix of the boundary functions has least
    eigenvalue above the threshold.
    """
    systems = list(systems)
    if not systems:
        raise ValidationError("need at least one system")
    check_count(trials, "trials")
    p, n = validate_dims(p, n)
    # the table costs p^n >= 2^n points, so p^min(n, 2 bits) is its exact cost
    # or, for an n past twice the budget's bit length, a refused lower bound
    bits = resolve_budget(budget).bit_length()
    check_budget(p ** min(n, 2 * bits), budget, "interior experiment table")
    N = space_size(p, n)
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
            if not are_isomorphic(rep_sys, other, budget=budget).isomorphic:
                raise ValidationError(
                    f"system {sys_.forms} mixes non-isomorphic components "
                    f"{rep_sys.forms} and {other.forms}"
                )
        reps.append(rep_sys)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            iso = are_isomorphic(reps[i], reps[j], budget=budget)
            if iso.isomorphic:
                raise ValidationError(
                    f"systems {i} and {j} reduce to isomorphic components "
                    f"via {iso.mapping}"
                )
    rng = as_rng(0 if seed is None else seed)
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
