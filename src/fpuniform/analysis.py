"""Exact and Monte-Carlo averages: Gowers norms, correlation with polynomial
phase families, and multilinear averages over systems of linear forms.

Exact Gowers norms use the derivative recursion
    ||f||_{U^k}^{2^k} = E_y ||f(.+y) conj f||_{U^(k-1)}^{2^(k-1)}
with |E f|^2 at the bottom and a Fourier evaluation at level two; both are
exact rewritings of the box-average definition, which the test suite checks
against a direct enumeration.

Linear-form averages reduce to the span of the system before enumerating
(cost p^(n*rank) instead of p^(n*k)) and factor across connected components.
Monte-Carlo Gowers norms are linear-form averages over the cube system
x + omega.y with parity conjugations, estimated by the sampler in
linear_form_average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .config import check_budget, resolve_workers
from .errors import ValidationError
from .field import digit_table, place_values, space_size
from .linalg import in_span, span_coordinates
from .linear_forms import FlaggedSystem, LinearSystem, connected_components, cube_system
from .polynomials import Polynomial, monomials_up_to
from .rng import as_rng
from .tables import FunctionTable

_CHUNK = 1 << 15


def inner_product(f: FunctionTable, g: FunctionTable) -> complex:
    """E_x f(x) conj(g(x))."""
    if (f.p, f.n) != (g.p, g.n):
        raise ValidationError("tables live on different spaces")
    return complex(np.vdot(g.values, f.values) / len(f.values))


def fourier_transform(f: FunctionTable) -> np.ndarray:
    """f_hat(alpha) = E_x f(x) e_p(-alpha . x), in enumeration order of alpha."""
    cube = f.values.reshape((f.p,) * f.n)
    return np.fft.fftn(cube).reshape(-1) / len(f.values)


def inverse_fourier(p: int, n: int, coefficients: np.ndarray) -> FunctionTable:
    cube = np.asarray(coefficients, dtype=np.complex128).reshape((p,) * n)
    vals = np.fft.ifftn(cube).reshape(-1) * space_size(p, n)
    return FunctionTable(p, n, vals)


# -- Gowers norms ---------------------------------------------------------------


@dataclass
class GowersReport:
    value: float
    power: float  # value ** 2^k
    k: int
    p: int
    n: int
    mode: str
    samples: int | None = None
    stderr: float | None = None
    seed: int | None = None
    cost: int | None = None

    def __float__(self) -> float:
        return float(self.value)


def _shift_perm(p: int, n: int, y_digits: np.ndarray) -> np.ndarray:
    digits = digit_table(p, n)
    return ((digits + y_digits) % p) @ place_values(p, n)


def _u_power(vals: np.ndarray, p: int, n: int, k: int) -> float:
    if k == 1:
        return abs(vals.mean()) ** 2
    if k == 2:
        hat = np.fft.fftn(vals.reshape((p,) * n)).reshape(-1) / len(vals)
        return float((np.abs(hat) ** 4).sum())
    digits = digit_table(p, n)
    total = 0.0
    for y in range(len(vals)):
        deriv = vals[_shift_perm(p, n, digits[y])] * np.conj(vals)
        total += _u_power(deriv, p, n, k - 1)
    return total / len(vals)


def gowers_norm(
    f: FunctionTable,
    k: int,
    mode: str = "exact",
    samples: int | None = None,
    seed=None,
    budget: int | None = None,
) -> GowersReport:
    """The U^k norm of f, exactly or estimated from random parallelepipeds."""
    if k < 1:
        raise ValidationError("Gowers norms are defined for k >= 1")
    p, n = f.p, f.n
    if mode == "exact":
        cost = space_size(p, n) ** (k + 1) if k > 2 else space_size(p, n)
        check_budget(cost, budget, f"exact U^{k} norm")
        power = _u_power(f.values, p, n, k)
        if not math.isfinite(power):
            raise ValidationError(f"U^{k} power is not finite; the table values overflow")
        assert power >= -1e-12, "box average must be real and nonnegative"
        power = max(power, 0.0)
        return GowersReport(
            value=power ** (1 / 2**k), power=power, k=k, p=p, n=n,
            mode="exact", cost=cost,
        )
    if mode != "mc":
        raise ValidationError(f"unknown mode {mode!r}")
    conjugations = [(k - bin(mask).count("1")) % 2 for mask in range(2**k)]
    rep = linear_form_average(
        f, cube_system(p, k), conjugations, mode="mc", samples=samples, seed=seed
    )
    power = max(rep.value.real, 0.0)
    value = power ** (1 / 2**k)
    stderr = rep.stderr * value ** (1 - 2**k) / 2**k if power > 0 else None
    return GowersReport(
        value=value, power=power, k=k, p=p, n=n, mode="mc",
        samples=samples, stderr=stderr if stderr is None or math.isfinite(stderr) else None,
        seed=seed, cost=rep.cost,
    )


# -- correlation with polynomial phases ------------------------------------------


@dataclass
class CorrelationReport:
    value: float
    best: Polynomial | None
    degree: int | None
    mode: str
    family_size: int | None = None
    samples: int | None = None
    stderr: float | None = None
    seed: int | None = None

    def __float__(self) -> float:
        return self.value


def _phase_rows(p: int, n: int, coeff_block: np.ndarray, mon_values: np.ndarray) -> np.ndarray:
    vals = (coeff_block @ mon_values.T) % p
    return np.exp(2j * np.pi * vals / p)


def correlation_with_family(
    f: FunctionTable,
    degree: int | None = None,
    polys=None,
    mode: str = "exact",
    samples: int | None = None,
    seed=None,
    budget: int | None = None,
) -> CorrelationReport:
    """sup over the family of |<f, e_p(g)>|.

    With `degree` the family is every polynomial of that degree or less
    (constants are skipped — they only rotate the inner product).  Degree one
    goes through the Fourier transform; an explicit `polys` list is averaged
    exactly or sampled in mc mode, giving a certified lower bound.
    """
    p, n = f.p, f.n
    N = space_size(p, n)
    if (degree is None) == (polys is None):
        raise ValidationError("exactly one of degree / polys is required")
    if polys is not None:
        polys = list(polys)
        if not polys:
            raise ValidationError("empty polynomial list")
        for g in polys:
            if (g.p, g.n) != (p, n):
                raise ValidationError("polynomial lives on a different space")
        if mode == "exact":
            check_budget(len(polys) * N, budget, "explicit correlation family")
            best_val, best_g = -1.0, None
            for g in polys:
                phase = np.exp(2j * np.pi * g.value_table() / p)
                val = abs(np.vdot(phase, f.values)) / N
                if val > best_val:
                    best_val, best_g = val, g
            return CorrelationReport(
                value=float(best_val), best=best_g, degree=None,
                mode="exact", family_size=len(polys),
            )
        if mode != "mc":
            raise ValidationError(f"unknown mode {mode!r}")
        if samples is None or samples < 1:
            raise ValidationError("mc mode needs samples >= 1")
        rng = as_rng(0 if seed is None else seed)
        pts = rng.integers(0, p, size=(samples, n))
        idx = pts @ place_values(p, n)
        fs = f.values[idx]
        best_val, best_g, best_se = -1.0, None, None
        for g in polys:
            phase = np.exp(-2j * np.pi * g.values_at(pts) / p)
            zs = fs * phase
            mean = zs.mean()
            val = abs(mean)
            if val > best_val:
                se = math.sqrt(
                    max(0.0, float((np.abs(zs) ** 2).mean()) - val**2) / samples
                )
                best_val, best_g, best_se = val, g, se
        return CorrelationReport(
            value=float(best_val), best=best_g, degree=None, mode="mc",
            family_size=len(polys), samples=samples, stderr=best_se, seed=seed,
        )

    if mode != "exact":
        raise ValidationError("degree families are enumerated exactly; pass polys for mc")
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    if degree > n * (p - 1):
        # reduced exponents stay below p coordinatewise, so total degree caps out
        raise ValidationError(f"no degree-{degree} monomials exist on F_{p}^{n}")
    if degree == 1:
        hat = fourier_transform(f)
        alpha = int(np.argmax(np.abs(hat)))
        exps = digit_table(p, n)[alpha]
        terms = {}
        for i, c in enumerate(exps):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = int(c)
        best = Polynomial(p, n, terms)
        return CorrelationReport(
            value=float(np.abs(hat).max()), best=best, degree=1,
            mode="exact", family_size=p**n,
        )
    monos = [e for e in monomials_up_to(p, n, degree) if any(e)]
    family = p ** len(monos)
    check_budget(family * N, budget, "polynomial phase family")
    mon_values = np.ones((N, len(monos)), dtype=np.int64)
    pts = digit_table(p, n)
    for j, exps in enumerate(monos):
        col = np.ones(N, dtype=np.int64)
        for i, e in enumerate(exps):
            for _ in range(e):
                col = (col * pts[:, i]) % p
        mon_values[:, j] = col
    best_val, best_coeffs = -1.0, None
    fconj = np.conj(f.values)
    block = max(1, _CHUNK // max(N, 1))
    coeff_iter = iter_product(range(p), repeat=len(monos))
    done = False
    while not done:
        rows = []
        for _ in range(block):
            nxt = next(coeff_iter, None)
            if nxt is None:
                done = True
                break
            rows.append(nxt)
        if not rows:
            break
        coeff_block = np.array(rows, dtype=np.int64)
        phases = _phase_rows(p, n, coeff_block, mon_values)
        scores = np.abs(phases @ fconj) / N
        j = int(np.argmax(scores))
        if scores[j] > best_val:
            best_val = float(scores[j])
            best_coeffs = rows[j]
    best = Polynomial.from_coefficients(p, n, monos, best_coeffs)
    return CorrelationReport(
        value=best_val, best=best, degree=degree, mode="exact", family_size=family,
    )


# -- linear form averages ----------------------------------------------------------


@dataclass
class AverageReport:
    value: complex
    mode: str
    system: LinearSystem
    samples: int | None = None
    stderr: float | None = None
    seed: int | None = None
    cost: int | None = None

    def __complex__(self) -> complex:
        return self.value


def _mixed_radix_digits(flat: np.ndarray, base: int, width: int) -> list[np.ndarray]:
    out = []
    rest = flat.copy()
    for _ in range(width):
        out.append(rest % base)
        rest //= base
    return out  # least-significant first


def _product_mean(
    tables: list[np.ndarray],
    powers: list[int],
    conj_flags: list[bool],
    C: np.ndarray,
    p: int,
    n: int,
    fixed_first: int | None = None,
    workers: int | None = None,
) -> complex:
    """Mean over assignments Z_1..Z_r in F_p^n of prod_i t_i(sum_j C_ij Z_j),
    each factor raised to powers[i] and conjugated per conj_flags[i].
    With fixed_first, Z_1 is pinned to that point index."""
    m, r = C.shape
    N = space_size(p, n)
    digits = digit_table(p, n)
    places = place_values(p, n)
    free = r - (1 if fixed_first is not None else 0)
    total_assignments = N**free

    def chunk_sum(lo: int, hi: int) -> complex:
        flat = np.arange(lo, hi, dtype=np.int64)
        zs = _mixed_radix_digits(flat, N, free)
        if fixed_first is not None:
            zs = [np.full(hi - lo, fixed_first, dtype=np.int64)] + zs
        acc = np.ones(hi - lo, dtype=np.complex128)
        for i in range(m):
            pt = np.zeros((hi - lo, n), dtype=np.int64)
            for j in range(r):
                c = int(C[i, j])
                if c:
                    pt += c * digits[zs[j]]
            idx = (pt % p) @ places
            vals = tables[i][idx]
            if conj_flags[i]:
                vals = np.conj(vals)
            if powers[i] != 1:
                vals = vals ** powers[i]
            acc *= vals
        return complex(acc.sum())

    bounds = list(range(0, total_assignments, _CHUNK)) + [total_assignments]
    pieces = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    workers = resolve_workers(workers)
    if workers > 1 and len(pieces) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(lambda ab: chunk_sum(*ab), pieces))
    else:
        total = sum(chunk_sum(lo, hi) for lo, hi in pieces)
    return total / total_assignments


def _as_table_list(f, system: LinearSystem) -> list[FunctionTable]:
    if isinstance(f, FunctionTable):
        tables = [f] * system.m
    else:
        tables = list(f)
        if len(tables) != system.m:
            raise ValidationError("need one table per form")
    for t in tables:
        if not isinstance(t, FunctionTable):
            raise ValidationError("expected FunctionTable inputs")
        if t.p != system.p:
            raise ValidationError("table prime differs from system prime")
        if t.n != tables[0].n:
            raise ValidationError("tables live on different spaces")
    return tables


def linear_form_average(
    f,
    system: LinearSystem,
    conjugations=None,
    mode: str = "exact",
    samples: int | None = None,
    seed=None,
    budget: int | None = None,
    workers: int | None = None,
) -> AverageReport:
    """t_L(f) = E prod_i f_i(L_i(X)), with optional per-form conjugation.

    Exact mode enumerates the span of the system (cost p^(n * rank)) and
    multiplies independent components separately; mc mode samples X.
    """
    tables = _as_table_list(f, system)
    n = tables[0].n
    p = system.p
    if conjugations is None:
        conjugations = [0] * system.m
    conjugations = [int(c) for c in conjugations]
    if len(conjugations) != system.m or any(c not in (0, 1) for c in conjugations):
        raise ValidationError("conjugations must be 0/1 flags, one per form")
    mult = list(getattr(system, "multiplicities", (1,) * system.m))
    arr = system.as_array()

    if mode == "exact":
        value = 1.0 + 0j
        cost = 0
        for group in connected_components(system):
            # coordinates over a spanning subset: enumerate r point variables
            C = span_coordinates(arr[group], p)[1]
            r = C.shape[1]
            cost += space_size(p, n) ** r
            check_budget(cost, budget, "linear form average")
            value *= _product_mean(
                [tables[i].values for i in group],
                [mult[i] for i in group],
                [bool(conjugations[i]) for i in group],
                C,
                p,
                n,
                workers=workers,
            )
        return AverageReport(value=value, mode="exact", system=system, cost=cost)
    if mode != "mc":
        raise ValidationError(f"unknown mode {mode!r}")
    if samples is None or samples < 1:
        raise ValidationError("mc mode needs samples >= 1")
    rng = as_rng(0 if seed is None else seed)
    places = place_values(p, n)
    xs = rng.integers(0, p, size=(system.k, samples, n))
    acc = np.ones(samples, dtype=np.complex128)
    for i in range(system.m):
        pt = np.zeros((samples, n), dtype=np.int64)
        for j in range(system.k):
            c = int(arr[i, j])
            if c == 1:
                pt += xs[j]
            elif c:
                pt += c * xs[j]
        idx = np.remainder(pt, p, out=pt) @ places
        vals = tables[i].values[idx]
        if conjugations[i]:
            vals = np.conj(vals)
        if mult[i] != 1:
            vals = vals ** mult[i]
        # not in place: numpy rounds a one-element in-place product differently
        acc = acc * vals
    mean = acc.mean()
    se = math.sqrt(
        max(0.0, float((np.abs(acc) ** 2).mean()) - abs(mean) ** 2) / samples
    )
    return AverageReport(
        value=complex(mean), mode="mc", system=system,
        samples=samples, stderr=se, seed=seed, cost=samples * system.m,
    )


def _integer_values(f, p: int, n: int) -> np.ndarray:
    if isinstance(f, Polynomial):
        if (f.p, f.n) != (p, n):
            raise ValidationError("polynomial lives on a different space")
        return f.value_table()
    if isinstance(f, FunctionTable):
        if (f.p, f.n) != (p, n):
            raise ValidationError("table lives on a different space")
        real = f.values.real
        rounded = np.rint(real)
        if f.values.imag.any() or np.abs(real - rounded).max() > 1e-9:
            raise ValidationError("expected integer-valued table")
        return rounded.astype(np.int64) % p
    arr = np.asarray(f)
    if arr.shape != (space_size(p, n),):
        raise ValidationError("value array has wrong length")
    return arr.astype(np.int64) % p


def exponential_average(
    f,
    system: LinearSystem,
    beta,
    n: int | None = None,
    mode: str = "exact",
    samples: int | None = None,
    seed=None,
    budget: int | None = None,
    workers: int | None = None,
) -> AverageReport:
    """t*(f) = E e_p(sum_i beta_i f(L_i(X))) for an F_p-valued f.

    Conjugation-weighted multilinear averages of the phase e_p(f) are the
    special case beta_i = +/-1: conjugating a factor flips the sign of its
    exponent.
    """
    p = system.p
    beta = [int(b) % p for b in beta]
    if len(beta) != system.m:
        raise ValidationError("need one exponent per form")
    if n is None:
        if isinstance(f, (Polynomial, FunctionTable)):
            n = f.n
        else:
            raise ValidationError("n is required for raw value arrays")
    vals = _integer_values(f, p, n)
    # e_p(b * f) table per distinct exponent, then an ordinary product average
    phases = {
        b: FunctionTable(p, n, np.exp(2j * np.pi * ((b * vals) % p) / p)) for b in set(beta)
    }
    return linear_form_average(
        [phases[b] for b in beta], system, mode=mode, samples=samples, seed=seed,
        budget=budget, workers=workers,
    )


# -- flagged averages and boundary functions -----------------------------------------


def flagged_average(
    f: FunctionTable,
    system: FlaggedSystem,
    budget: int | None = None,
    workers: int | None = None,
) -> FunctionTable:
    """The conditional average x -> E[prod_i f(L_i(X))^mult_i | flag(X) = x].

    When the flag falls outside the span of the forms the condition is
    independent of the product and the result is the constant t(f).
    """
    if not isinstance(system, FlaggedSystem):
        raise ValidationError("flagged_average needs a FlaggedSystem")
    if f.p != system.p:
        raise ValidationError("table prime differs from system prime")
    p, n = f.p, f.n
    N = space_size(p, n)
    arr = system.as_array()
    flag = np.array(system.flag, dtype=np.int64)
    if not in_span(arr, flag, p):
        value = linear_form_average(f, system, budget=budget, workers=workers).value
        return FunctionTable(p, n, np.full(N, value, dtype=np.complex128))
    # basis of span(forms) with the flag first: conditioning pins Z_1
    basis_idx, C = span_coordinates(np.vstack([flag, arr]), p)
    assert basis_idx[0] == 0, "flag is nonzero, so it leads the basis"
    C = C[1:]
    r = C.shape[1]
    check_budget(N**r, budget, "flagged average")
    out = np.empty(N, dtype=np.complex128)
    mult = list(system.multiplicities)
    conj_flags = [False] * system.m
    for x in range(N):
        out[x] = _product_mean(
            [f.values] * system.m, mult, conj_flags, C, p, n,
            fixed_first=x, workers=workers,
        )
    return FunctionTable(p, n, out)


def boundary_function(
    f: FunctionTable,
    system: LinearSystem,
    budget: int | None = None,
    workers: int | None = None,
) -> FunctionTable:
    """Sum over forms of the conditional average of the others given that
    form: the gradient of t_L at f, in the sense that
    d/dt t_L(f + t g)|_0 = E[g * boundary] for real f, g."""
    p, n = f.p, f.n
    total = np.zeros(space_size(p, n), dtype=np.complex128)
    for i in range(system.m):
        rest, removed = system.without(i)
        if rest is None:
            total += 1.0  # empty product conditions to the constant one
            continue
        flagged = FlaggedSystem(p, system.k, rest.forms, removed)
        total += flagged_average(f, flagged, budget=budget, workers=workers).values
    return FunctionTable(p, n, total)
