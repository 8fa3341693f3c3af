"""Exact and Monte-Carlo averages: Gowers norms, correlation with polynomial
phase families, and multilinear averages over systems of linear forms.

Every Fourier transform here is one unnormalised transform over F_p^n along
the last axis of an array, _fp_transform: the n digits of the index go in
groups, and each group is one matrix product with a Kronecker power of the
p x p DFT matrix (np.fft.fftn above p = 97).  At p = 2 every character
e_2(x) = (-1)^x is real, so a table whose imaginary parts are exactly zero
(_real_at_two) runs through the exact kernels as float64: the transform, the
U^k derivatives, the primal, dual and keyed sums, and the Poly_d scorer, whose
rows are the float64 words of f with the sign bit XOR-ed by a bit parity of
the coefficient vector (polynomials.twisted_rows).

Exact Gowers norms use the derivative recursion
    ||f||_{U^k}^{2^k} = E_y ||f(.+y) conj f||_{U^(k-1)}^{2^(k-1)}
unrolled to its bottom: the mean over shift tuples (y_1..y_{k-2}) of the U^2
power of the derivative row, read off its transform.  The power is invariant
under the cube's symmetries that fix the bottom face (Gowers 2001, Host-Kra
2005): permuting the y_i and replacing y_i by -y_i.  So one sorted tuple of
{y, -y} class representatives runs per orbit, weighted by the orbit size, at
cost C(R + k - 3, k - 2) * max(N, k - 2) for N = p^n and R classes (R = N at
p = 2, (N + 1) / 2 otherwise), and N for k <= 2.  The test suite checks this
against the box-average definition.

A linear-form average t_L = E prod_i f_i(L_i X) factors over the connected
components of the system, and each component of m forms and rank r is
evaluated on the primal or the dual side.  The primal side enumerates the
span, N^r points.  The dual side is Fourier inversion,
    t_L = sum over {alpha : sum_i alpha_i (x) L_i = 0} of prod_i f_i^(alpha_i),
a sum over a kernel of dimension m - r, N^(m-r) points after one transform of
N points per distinct table.  The dual side runs when m - r < r; ties, and a
lone form (whose average is its mean), go to the primal side.  A conditional
average keys rows: a keyed row leaves its own table out of the product, and
the sums are split by its value on the primal side, or by its frequency on the
dual side, where one more transform per key gives the conditional average at
every point.  A
flagged average is the rows [flag] + forms keyed on the flag, which has no
table; a boundary function is the forms keyed on every form, in one pass.
Each component is enumerated once for all its keys, and a key's array is its
component's keyed average times the other components' averages; a flag outside
the span of the forms is a component of its own whose keyed average is the
constant 1.  Monte-Carlo Gowers norms are linear-form averages over the cube
system x + omega.y with parity conjugations, estimated in blocks by
linear_form_average through rng.mc_mean.  Both the enumeration and the sampler
carry points as indices and find every form's point with
field.index_combination.  The exact primal, dual and keyed sums enumerate a
grid, as the U^k recursion does: the first variable runs as arange(N) along
each row, and the other variables of a row are the digits of its number
(field.digits), in blocks of _CHUNK // N rows, or of _CHUNK // (N (2m + 1))
rows for a keyed sum over m rows (of one row at least).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, combinations_with_replacement, islice
from typing import TYPE_CHECKING

import numpy as np

from .config import FLOAT_TOL, budget, charge, limit
from .errors import ValidationError
from .field import digit_table, digits, index_add, index_combination, space_size
from .linalg import nullspace, rank, span_coordinates
from .rng import _CHUNK, mc_mean
from .tables import FunctionTable, phases

# linear_forms and polynomials are imported in the functions that run them, so
# that a command loads only the modules whose code it runs
if TYPE_CHECKING:
    from .linear_forms import FlaggedSystem, LinearSystem
    from .polynomials import Polynomial


def inner_product(f: FunctionTable, g: FunctionTable) -> complex:
    """E_x f(x) conj(g(x))."""
    if (f.p, f.n) != (g.p, g.n):
        raise ValidationError("tables live on different spaces")
    return complex(np.vdot(g.values, f.values) / len(f.values))


def _real_at_two(values: np.ndarray, p: int) -> np.ndarray:
    """The values as contiguous float64 when p = 2 and their imaginary parts
    are exactly zero, where every character e_2 is real too; else as given."""
    return np.ascontiguousarray(values.real) if p == 2 and not values.imag.any() else values


@cache
def _dft_power(p: int, b: int, inner: int = 1) -> np.ndarray:
    """The b-fold Kronecker power of the p x p matrix e_p(-a x) (+-1 at p = 2,
    real), times the identity on `inner` trailing values: a symmetric matrix."""
    dft = phases(p, np.outer(np.arange(p), np.arange(p)), -1)
    w = np.ones((1, 1))
    for _ in range(b):
        w = np.kron(w, dft)
    return np.kron(w, np.eye(inner))


def _fp_transform(values, p: int, n: int, overwrite: bool = False) -> np.ndarray:
    """sum_x v(x) e_p(-alpha . x) along the last axis, which indexes F_p^n in
    enumeration order; unnormalised.  With `overwrite` the caller gives up
    `values`: the first product is written into it, so no second array of its
    size is held beside it.

    The digits are taken in groups of b, the most with p^b <= 32, and each
    group's transform is one matrix product with a Kronecker power of the
    p x p DFT matrix (row-column factorisation).  At p = 2 that matrix is a
    real Hadamard block: real input stays float64, complex input is taken as
    its float64 view, whose (re, im) pairs sit below the lowest digit.  Above
    p = 97 np.fft.fftn is faster (measured with single-threaded BLAS:
    matrices win up to p = 97, lose from p = 127)."""
    real = p == 2 and not np.iscomplexobj(values)
    values = np.ascontiguousarray(values, dtype=np.float64 if real else np.complex128)
    if p > 97:
        cube = values.reshape(values.shape[:-1] + (p,) * n)
        return np.fft.fftn(cube, axes=tuple(range(-n, 0))).reshape(values.shape)
    b = 1
    while p ** (b + 1) <= 32:
        b += 1
    inner = 2 if p == 2 and not real else 1
    x = values.view(np.float64) if inner == 2 else values
    for j in range(0, n, b):
        g = min(b, n - j)
        if j == 0:  # the lowest group is one product over rows of p^g digit values
            x = x.reshape(-1, p**g * inner)
            x = np.matmul(x, _dft_power(p, g, inner), out=x if overwrite else None)
        else:
            x = np.matmul(_dft_power(p, g), x.reshape(-1, p**g, p**j * inner))
    x = x.reshape(-1)  # matmul output is contiguous
    return (x.view(np.complex128) if inner == 2 else x).reshape(values.shape)


def fourier_transform(f: FunctionTable) -> np.ndarray:
    """f_hat(alpha) = E_x f(x) e_p(-alpha . x), in enumeration order of alpha;
    the N transformed points are charged."""
    charge(len(f.values), "Fourier transform")
    return _fp_transform(f.values, f.p, f.n) / len(f.values)


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
    path: str | None = None  # exact: "orbit" (k >= 3) or "direct"; mc: "sampled"

    def __float__(self) -> float:
        return float(self.value)


def _orbit_count(p: int, n: int, k: int, cap: int) -> int:
    """The number of shift tuples (y_1..y_{k-2}) that _u_power runs, one per
    orbit: C(R + k - 3, k - 2), the multisets of k - 2 of the R classes, with
    R = N at p = 2 and R = (N + 1) / 2 classes {y, -y} at p > 2.  It is built
    as C(a - j + i, i) for i = 1..j, which at least doubles at every step, and
    a partial product above `cap` is returned as it is: a lower bound, found
    in a few dozen steps however large the count."""
    N = space_size(p, n)
    R = N if p == 2 else (N + 1) // 2
    a, j = R + k - 3, min(k - 2, R - 1)
    count = 1
    for i in range(1, j + 1):
        count = count * (a - j + i) // i
        if count > cap:
            break
    return count


def _sorted_tuples(R: int, d: int, block: int):
    """The sorted d-tuples r_1 <= ... <= r_d over range(R) in lexicographic
    order, as (d, count) arrays of at most `block` tuples; for d = 0 the one
    empty tuple."""
    if d == 0:
        yield np.zeros((0, 1), dtype=np.int64)
        return
    flat = chain.from_iterable(combinations_with_replacement(range(R), d))
    while len(entries := np.fromiter(islice(flat, block * d), dtype=np.int64)):
        yield entries.reshape(-1, d).T


def _u_power(vals: np.ndarray, p: int, n: int, k: int) -> float:
    """||f||_{U^k}^{2^k}: the mean over shift tuples (y_1..y_{k-2}) of the U^2
    power of the derivative f_y = Delta_{y_1}...Delta_{y_{k-2}} f.

    That power is unchanged when the y_i are permuted, and when one y_i becomes
    -y_i (a shift and a conjugation of f_y), so one sorted tuple of class
    representatives runs per orbit, weighted by the orbit's size over
    N^(k-2): the multinomial (k-2)! / prod m_c! of its repeated classes, times
    2 for each nonzero entry at p > 2.  Tuples come in blocks of at most
    _CHUNK derivative values; a block is sorted, so the tuples that share a
    prefix (y_1..y_j) are a run and its derivative is formed once.

    A derivative row of depth j is a product of 2^j values, so its rounding
    compounds to about 2^j ulp.  When every value has modulus 1 to FLOAT_TOL,
    rows from the depth where that could pass FLOAT_TOL on are divided by
    their modulus; they would otherwise overflow at large k, although the
    power is at most 1."""
    if k == 1:
        return abs(vals.mean()) ** 2
    vals = _real_at_two(vals, p)
    unit = bool(np.all(np.abs(np.abs(vals) - 1) <= FLOAT_TOL))
    phase_depth = math.log2(FLOAT_TOL / np.finfo(float).eps) if unit else math.inf
    N = len(vals)
    d = k - 2
    x = np.arange(N)
    # a class {y, -y} is represented by its lower index; index 0 is y = 0
    reps = x if p == 2 else np.flatnonzero(x <= next(index_combination(p, n, [[-1]], [x])))
    total = 0.0
    for tuples in _sorted_tuples(len(reps), d, max(1, _CHUNK // N)):
        count = tuples.shape[1]
        # the orbit's share of the N^(k-2) tuples, one factor j / (m N) per
        # entry j, where the entry is the m-th of its class in the tuple
        weight, run = np.ones(count), np.ones(count)
        rows, parent = vals[None, :], np.zeros(count, dtype=np.int64)
        fresh = np.arange(count) == 0  # where a prefix (r_1..r_j) starts
        for j, r in enumerate(tuples):
            if j:
                run = np.where(r == tuples[j - 1], run + 1, 1)
            weight *= (j + 1) / (run * N)
            if p > 2:
                weight[r > 0] *= 2
            fresh[1:] |= r[1:] != r[:-1]
            starts = np.flatnonzero(fresh)
            par = parent[starts]
            # Delta_y g(x) = g(x + y) conj g(x), g the row of the prefix
            shifted = index_add(p, n, reps[r[starts]][:, None], x)
            rows = rows[par[:, None], shifted] * np.conj(rows)[par]
            del shifted  # not held through the transform
            if j + 1 >= phase_depth:
                rows /= np.abs(rows)
            parent = np.cumsum(fresh) - 1
        # from depth 1 on the rows are the block's own, and the transform may
        # write into them; the squares are taken in place
        hat = _fp_transform(rows, p, n, overwrite=d > 0)
        del rows
        if hat.dtype == np.float64:
            power = np.square(hat, out=hat)
        else:
            power = hat.real**2
            power += hat.imag**2
        total += float(weight @ np.square(power, out=power).sum(axis=1))
    return total / N**4


def gowers_norm(f: FunctionTable, k: int, samples: int | None = None, seed=None) -> GowersReport:
    """The U^k norm of f: exact when `samples` is None, otherwise estimated
    from that many random parallelepipeds."""
    if k < 1:
        raise ValidationError("Gowers norms are defined for k >= 1")
    p, n = f.p, f.n
    if samples is None:
        # per orbit tuple, N derivative values or k - 2 entries, whichever is more
        N = space_size(p, n)
        cap = max(limit(), 2**64)
        cost = N if k <= 2 else _orbit_count(p, n, k, cap) * max(N, k - 2)
        charge(cost, f"exact U^{k} norm")
        power = _u_power(f.values, p, n, k)
        if not math.isfinite(power):
            raise ValidationError(f"U^{k} power is not finite; the table values overflow")
        assert power >= -1e-12, "box average must be real and nonnegative"
        power = max(power, 0.0)
        return GowersReport(
            value=power ** (1 / 2**k), power=power, k=k, p=p, n=n,
            mode="exact", cost=cost, path="orbit" if k > 2 else "direct",
        )
    from .linear_forms import cube_signs, cube_system

    cube = cube_system(p, k)
    conjugations = [int(sign < 0) for sign in cube_signs(k)]
    rep = linear_form_average(f, cube, conjugations, samples=samples, seed=seed)
    power = max(rep.value.real, 0.0)
    value = power ** (1 / 2**k)
    stderr = rep.stderr * value ** (1 - 2**k) / 2**k if power > 0 else None
    return GowersReport(
        value=value, power=power, k=k, p=p, n=n, mode="mc",
        samples=samples, stderr=stderr if stderr is None or math.isfinite(stderr) else None,
        seed=seed, cost=rep.cost, path=rep.path,
    )


# -- correlation with polynomial phases ------------------------------------------


@dataclass
class CorrelationReport:
    value: float
    best: Polynomial
    degree: int
    family_size: int

    def __float__(self) -> float:
        return self.value


def _best_in_part(values, p: int, pts, upper, free: bool, skip_zero: bool):
    """The (score, polynomial) pairs of one part of a Poly_d family that can
    still win a tie, in listing order.  Q ranges over the coefficient vectors
    of the monomials `upper`, in blocks of rows f * e_p(-Q) (twisted_rows; at
    p = 2 a sign per bit parity); the linear part ranges over every linear
    form when `free`, where one transform of f * e_p(-Q) scores them
    all, and is zero otherwise, where the row sum scores Q.  Scores within
    FLOAT_TOL of the part's maximum, relative to it, tie, and ties go to the
    least coefficient vector over the sorted monomials, the order in which the
    part is listed; `skip_zero` leaves the zero polynomial out.  A pair
    survives only if it scores above every pair listed before it, so the
    first survivor within tolerance of any larger maximum is its winner.

    A block holds _CHUNK // (4 N) rows: at p = 2 its float64 rows, and their
    transform, take 64 KB, under glibc's 128 KB mmap threshold, so blocks
    reuse the heap rather than grow it."""
    from .polynomials import Polynomial, twisted_rows

    N, n = pts.shape
    linear = [tuple(int(i == j) for j in range(n)) for i in range(n)] if free else []
    monos = upper + linear
    order = sorted(range(len(monos)), key=monos.__getitem__)
    count = p ** len(upper)
    twisted = twisted_rows(values, p, pts, upper)
    block = max(1, _CHUNK // (4 * N))
    top = -1.0
    keys, vals = np.empty((0, len(monos)), dtype=np.int64), np.empty(0)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        rows = twisted(lo, hi)  # the block's own: the transform may write into it
        if free:
            sums = _fp_transform(rows, p, n, overwrite=True)
        else:
            sums = rows.sum(axis=1, keepdims=True)
        del rows  # not held while scoring
        scores = np.abs(sums, out=sums) if sums.dtype == np.float64 else np.abs(sums)
        scores /= N
        if skip_zero and lo == 0:
            scores[0, 0] = -np.inf  # the zero polynomial leads the listing
        block_top = float(scores.max())
        if block_top < top * (1 - FLOAT_TOL):
            continue
        top = max(top, block_top)
        q, alpha = np.nonzero(scores >= top * (1 - FLOAT_TOL))
        coeffs = digits(np.arange(lo, hi), p, len(upper))  # only for blocks with survivors
        keys = np.vstack([keys, np.hstack([coeffs[q], pts[alpha, : len(linear)]])[:, order]])
        vals = np.concatenate([vals, scores[q, alpha]])
        listed = np.lexsort(keys.T[::-1])
        keys, vals = keys[listed], vals[listed]
        earlier = np.maximum.accumulate(np.concatenate([[-np.inf], vals[:-1]]))
        keep = (vals > earlier) & (vals >= top * (1 - FLOAT_TOL))
        keys, vals = keys[keep], vals[keep]
    return [
        (float(v), Polynomial.from_coefficients(p, n, sorted(monos), k))
        for k, v in zip(keys, vals)
    ]


def correlation_with_family(
    f: FunctionTable, degree: int, homogeneous: bool = False
) -> CorrelationReport:
    """sup over a Poly_d family of |<f, e_p(g)>|, attained first by `best` in
    the family's listing order.

    The family is every polynomial of degree <= `degree` (constants are
    skipped — they only rotate the inner product) or, when `homogeneous`,
    every nonzero polynomial whose monomials share one total degree
    j <= `degree`, listed by j ascending.  Both are scored in parts, each a set
    of enumerated monomials plus a rule for the linear part (see
    _best_in_part).  The degree family is one part: the monomials of degree
    2..d with the linear part free.  The homogeneous family is the linear forms
    (no enumerated monomials, linear part free) followed by one part per
    j = 2..d (the monomials of degree exactly j, linear part zero), each
    without its zero polynomial.  Ties (scores within FLOAT_TOL of the
    maximum, relative to it) keep the earlier part.  The cost is charged once
    for the family, by priced_family.
    """
    from .polynomials import priced_family

    p, n = f.p, f.n
    parts, cost, what = priced_family(p, n, degree, homogeneous)
    charge(cost, what)
    pts, values = digit_table(p, n), _real_at_two(f.values, p)
    candidates = [
        pair for upper, free in parts
        for pair in _best_in_part(values, p, pts, upper, free, homogeneous)
    ]
    best_val = max(val for val, _ in candidates)
    best = next(g for val, g in candidates if val >= best_val * (1 - FLOAT_TOL))
    size = sum(p ** (len(upper) + n * free) - homogeneous for upper, free in parts)
    return CorrelationReport(value=best_val, best=best, degree=degree, family_size=size)


# -- linear form averages ----------------------------------------------------------


@dataclass
class AverageReport:
    value: complex
    mode: str
    samples: int | None = None
    stderr: float | None = None
    seed: int | None = None
    cost: int | None = None
    path: str | None = None  # exact: "primal", "dual" or "mixed" across components; mc: "sampled"

    def __complex__(self) -> complex:
        return self.value


def _product_sum(tables: list, C: np.ndarray, p: int, n: int, keys=()):
    """Sum over assignments Z_1..Z_r in F_p^n of prod_i t_i(sum_j C_ij Z_j),
    over the grid of outer rows (Z_2..Z_r) by Z_1 = arange(N): each block
    holds max(1, _CHUNK // N) rows, and a row's Z_2..Z_r are the digits of
    its number, Z_2 the fastest, so the blocks run through the assignments
    in their flat order, Z_1 fastest.  With r = 1 there is one row and no
    outer variable, and with r = 0 one empty assignment.

    With keys, one array per key row i: the sums of the product of the other
    rows' tables (its own, which may be None, left out), split by the point
    sum_j C_ij Z_j.  A keyed block keeps every row's index and value rows and
    one product live, so it holds max(1, _CHUNK // (N (2m + 1))) rows."""
    r = C.shape[1]
    N = space_size(p, n)
    dtype = np.result_type(np.float64, *(t for t in tables if t is not None))
    total = np.zeros((len(keys), N), dtype=dtype) if keys else 0j
    w = max(r - 1, 0)  # the outer variables Z_2..Z_r
    width = 2 * len(C) + 1 if keys else 1
    x, count, block = np.arange(N), N**w, max(1, _CHUNK // (N * width))
    for lo in range(0, count, block):
        outer = digits(np.arange(lo, min(lo + block, count)), N, w)
        Z = [x, *outer.T[::-1, :, None]] if r else []
        shape = np.broadcast_shapes(*(z.shape for z in Z))
        idx = index_combination(p, n, C, Z)
        if not keys:
            acc = np.ones(shape, dtype=dtype)
            for t, i in zip(tables, idx):
                acc *= t[i]
            total += complex(acc.sum())
            continue
        idx = list(idx)
        vals = [None if t is None else t[i] for t, i in zip(tables, idx)]
        for out, i in zip(total, keys):
            others = [v for j, v in enumerate(vals) if j != i and v is not None]
            acc = np.ravel(reduce(np.multiply, others) if others else np.ones(shape))
            keyed = idx[i].ravel()
            out += np.bincount(keyed, acc.real, N)
            if acc.dtype != np.float64:
                out += 1j * np.bincount(keyed, acc.imag, N)
    return total


def _powered(values: np.ndarray, conj: bool, power: int) -> np.ndarray:
    """The table a form contributes: its values conjugated, then raised to the
    form's multiplicity."""
    if conj:
        values = np.conj(values)
    return values if power == 1 else values**power


def _average_on_side(tables: list, rows: np.ndarray, p: int, n: int, dual: bool, keys=()):
    """E prod_i t_i(L_i X) over one system: enumerated over its span on the
    primal side (N^r points), summed over the kernel {alpha : sum_i alpha_i (x)
    L_i = 0} of the transforms on the dual side (N^(m-r) points).  With keys,
    one array per key row i, x -> E[prod_{j != i} t_j(L_j X) | L_i X = x]:
    the sums are keyed by the row's value on the primal side, by its
    frequency on the dual side, where one transform of each key's sums
    finishes.  A key's table may be None; the dual side transforms the others,
    each distinct array once."""
    N = space_size(p, n)
    if dual:
        distinct = {id(t): t for t in tables if t is not None}
        hat = {i: _fp_transform(t, p, n) / N for i, t in distinct.items()}
        hats = [None if t is None else hat[id(t)] for t in tables]
        K = nullspace(rows.T, p).T
        if not keys:
            return _product_sum(hats, K, p, n)
        return [_fp_transform(s, p, n) for s in _product_sum(hats, K, p, n, keys)]
    # coordinates over a spanning subset: r point variables, of which a key
    # row, being nonzero, leaves N^(r-1) assignments at each of its values
    C = span_coordinates(rows, p)[1]
    return _product_sum(tables, C, p, n, keys) / N ** (C.shape[1] - bool(keys))


@budget()
def _exact_average(tables: list, rows: np.ndarray, p: int, n: int, what: str, keys=()):
    """The product of the averages of the connected components of the rows,
    each on its cheaper side, as (value, cost, path).  A component of m rows
    and rank r runs on the dual side when 1 < m < 2r, at cost N^(m-r) + t N
    (its kernel and one transform for each of its t distinct tables), and
    otherwise on the primal side at cost N^r, a lone row being its mean; each
    component is charged before it runs.
    With keys, the value is one array per key i: its component's keyed
    average g_i times the other components' averages, a keyed component's
    being E_x t_i(x) g_i(x) for its first key i (t_i = 1 if None).  A keyed
    component charges its span or kernel once per key, and on the dual side a
    transform per distinct table and one per key."""
    from .linear_forms import row_components

    N = space_size(p, n)
    cost, sides, parts = 0, set(), []
    real = {id(t): _real_at_two(t, p) for t in tables if t is not None}  # once per array
    for group in row_components(rows, p):
        m, r = len(group), rank(rows[group], p)
        mine = [i for i in keys if i in group]
        dual = 1 < m < 2 * r
        distinct = {id(tables[i]) for i in group if tables[i] is not None}
        transforms = len(distinct) + len(mine) if dual else 0
        part = max(len(mine), 1) * N ** (m - r if dual else r) + transforms * N
        charge(part, what)
        cost += part
        sub = [None if tables[i] is None else real[id(tables[i])] for i in group]
        got = _average_on_side(sub, rows[group], p, n, dual, [group.index(i) for i in mine])
        if mine:
            t = sub[group.index(mine[0])]
            parts.append((dict(zip(mine, got)), np.mean(got[0] if t is None else t * got[0])))
        else:
            parts.append(({}, got))
        sides.add("dual" if dual else "primal")

    def product(key):
        return math.prod((arrays.get(key, average) for arrays, average in parts), start=1.0 + 0j)

    value = [product(i) for i in keys] if keys else product(None)
    return value, cost, sides.pop() if len(sides) == 1 else "mixed"


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
    samples: int | None = None,
    seed=None,
) -> AverageReport:
    """t_L(f) = E prod_i f_i(L_i(X)), with optional per-form conjugation.

    With `samples` None the average is exact: the product of the averages of
    the connected components, each enumerated on its primal side (N^rank
    points) or its Fourier-dual side (N^(forms - rank) points and one
    transform per distinct table), as the module docstring describes.
    Otherwise it is the mean over `samples` uniform draws of X and its stderr
    (rng.mc_mean): each variable is one uniform point index, and samples * m
    points are charged before the first draw.  The
    variables are drawn sample-major, so a seeded estimate draws the same
    points whatever the block size.  Each form's values multiply in as its index row arrives, so
    a draw keeps the k variable rows, one form row, its values and the
    product live: k + 3 block-length arrays, the width that sizes the blocks
    at p = 2.  At p > 2 the width is kept at m: another width would change
    the blocks, and with them the seeded estimates.
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
    # forms that share a table, a conjugation and a multiplicity share one array
    shared = cache(lambda t, c, e: _powered(t.values, c, e))
    powered = [shared(t, c, e) for t, c, e in zip(tables, conjugations, mult)]
    if samples is None:
        value, cost, path = _exact_average(powered, arr, p, n, "linear form average")
        return AverageReport(value=value, mode="exact", cost=cost, path=path)

    def draw(rng, size):
        # contiguous variable rows: XOR on strided rows takes twice as long
        zs = np.ascontiguousarray(rng.integers(0, space_size(p, n), size=(size, system.k)).T)
        prod = np.ones(size, dtype=np.complex128)
        for t, idx in zip(powered, index_combination(p, n, arr, zs)):
            # out of place: numpy rounds an in-place complex product differently
            prod = prod * t[idx]
        return prod

    width = system.k + 3 if p == 2 else system.m
    mean, se = mc_mean(draw, samples, seed, "samples", system.m, width)
    return AverageReport(
        value=complex(mean), mode="mc", samples=samples, stderr=se, seed=seed,
        cost=samples * system.m, path="sampled",
    )


def _integer_values(f, p: int, n: int) -> np.ndarray:
    """The values mod p of a Polynomial or an integer-valued FunctionTable on
    F_p^n."""
    if not isinstance(f, FunctionTable):
        from .polynomials import Polynomial

        if not isinstance(f, Polynomial):
            raise ValidationError("expected a Polynomial or a FunctionTable")
    if (f.p, f.n) != (p, n):
        raise ValidationError("function lives on a different space")
    if not isinstance(f, FunctionTable):  # a Polynomial
        return f.value_table()
    real = f.values.real
    rounded = np.rint(real)
    if f.values.imag.any() or np.abs(real - rounded).max() > 1e-9:
        raise ValidationError("expected integer-valued table")
    return rounded.astype(np.int64) % p


def exponential_average(
    f,
    system: LinearSystem,
    beta,
    samples: int | None = None,
    seed=None,
) -> AverageReport:
    """t*(f) = E e_p(sum_i beta_i f(L_i(X))) for an F_p-valued f, a Polynomial
    or an integer-valued FunctionTable.

    Conjugation-weighted multilinear averages of the phase e_p(f) are the
    special case beta_i = +/-1: conjugating a factor flips the sign of its
    exponent.  Exact when `samples` is None, sampled otherwise, as in
    linear_form_average.
    """
    p = system.p
    beta = [int(b) % p for b in beta]
    if len(beta) != system.m:
        raise ValidationError("need one exponent per form")
    n = getattr(f, "n", None)
    vals = _integer_values(f, p, n)
    # e_p(b * f) table per distinct exponent, then an ordinary product average
    tables = {b: FunctionTable(p, n, phases(p, (b * vals) % p)) for b in set(beta)}
    return linear_form_average([tables[b] for b in beta], system, samples=samples, seed=seed)


# -- flagged averages and boundary functions -----------------------------------------


def flagged_average(f: FunctionTable, system: FlaggedSystem) -> FunctionTable:
    """The conditional average x -> E[prod_i f(L_i(X))^mult_i | flag(X) = x]:
    the keyed average of the rows [flag] + forms, factored over their
    connected components as the module docstring describes.  A flag outside
    the span of the forms is a lone component, so the result is then the
    constant t(f) at an extra cost of N."""
    from .linear_forms import FlaggedSystem

    if not isinstance(system, FlaggedSystem):
        raise ValidationError("flagged_average needs a FlaggedSystem")
    if f.p != system.p:
        raise ValidationError("table prime differs from system prime")
    rows = np.vstack([system.flag, system.as_array()])
    powered = {e: _powered(f.values, False, e) for e in set(system.multiplicities)}
    tables = [None] + [powered[e] for e in system.multiplicities]
    value = _exact_average(tables, rows, f.p, f.n, "flagged average", [0])[0]
    return FunctionTable(f.p, f.n, value[0])


def boundary_function(f: FunctionTable, system: LinearSystem) -> FunctionTable:
    """Sum over forms of the conditional average of the others given that
    form: the gradient of t_L at f, in the sense that
    d/dt t_L(f + t g)|_0 = E[g * boundary] for real f, g.  It is one keyed
    average, every form a key, as the module docstring describes."""
    if f.p != system.p:
        raise ValidationError("table prime differs from system prime")
    keys = range(system.m)
    arrays = _exact_average(
        [f.values] * system.m, system.as_array(), f.p, f.n, "boundary function", keys
    )[0]
    return FunctionTable(f.p, f.n, sum(arrays))
