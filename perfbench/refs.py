"""Reference values computed with plain numpy, independent of fpuniform.

Every exact output of a benchmarked command is compared with a value from
this module, so that a refactor of the library cannot move the reference
together with the result.  Points of F_p^n are indexed lexicographically
with x_1 most significant, which is the package's file-format contract.
"""

from __future__ import annotations

import re

import numpy as np


def digits(p: int, n: int) -> np.ndarray:
    """All points of F_p^n as an (p^n, n) array in enumeration order."""
    idx = np.arange(p**n, dtype=np.int64)
    return np.stack([(idx // p ** (n - 1 - i)) % p for i in range(n)], axis=1)


def places(p: int, n: int) -> np.ndarray:
    return p ** np.arange(n - 1, -1, -1, dtype=np.int64)


def shifted(p: int, n: int, hs: np.ndarray) -> np.ndarray:
    """(len(hs), N) array whose row j lists the index of x + hs[j] for every x."""
    N = p**n
    x = np.arange(N, dtype=np.int64)
    if p == 2:
        return np.bitwise_xor(hs[:, None], x[None, :])
    d = digits(p, n)
    return ((d[hs][:, None, :] + d[None, :, :]) % p) @ places(p, n)


# -- Gowers norms ------------------------------------------------------------------


def _box_power(batch: np.ndarray, p: int, n: int, k: int) -> np.ndarray:
    """||g||_{U^k}^{2^k} for every row g of batch, by multiplicative
    derivatives down to k = 2 and one FFT per derivative there."""
    B, N = batch.shape
    if k == 1:
        return np.abs(batch.mean(axis=1)) ** 2
    if k == 2:
        cube = batch.reshape((B,) + (p,) * n)
        hat = np.fft.fftn(cube, axes=tuple(range(1, n + 1))).reshape(B, N) / N
        return (np.abs(hat) ** 4).sum(axis=1)
    total = np.zeros(B)
    step = max(1, (1 << 20) // (B * N))
    for lo in range(0, N, step):
        perm = shifted(p, n, np.arange(lo, min(N, lo + step), dtype=np.int64))
        deriv = batch[:, perm] * np.conj(batch)[:, None, :]
        total += _box_power(deriv.reshape(-1, N), p, n, k - 1).reshape(B, -1).sum(axis=1)
    return total / N


def gowers_power(values: np.ndarray, p: int, n: int, k: int) -> float:
    """||f||_{U^k}^{2^k}, the box average, of a table on F_p^n."""
    vals = np.asarray(values, dtype=np.complex128).reshape(1, -1)
    return float(_box_power(vals, p, n, k)[0].real)


# -- linear-form averages ------------------------------------------------------------


def progression_average(values: np.ndarray, p: int, n: int, length: int) -> complex:
    """E_{x,y} prod_{i<length} f(x + i y), by enumerating every (x, y)."""
    N = p**n
    d = digits(p, n)
    pl = places(p, n)
    total = 0j
    step = max(1, (1 << 17) // N)
    for lo in range(0, N, step):
        ys = d[lo : lo + step]
        prod = np.ones((len(ys), N), dtype=np.complex128)
        for i in range(length):
            idx = ((d[None, :, :] + i * ys[:, None, :]) % p) @ pl
            prod *= values[idx]
        total += prod.sum()
    return complex(total / N**2)


def boundary_triangle(f: np.ndarray) -> np.ndarray:
    """Boundary function of {x, y, x+y} over F_2^n: each of the three forms
    conditions the other two to E_y f(y) f(x0 + y)."""
    N = len(f)
    x = np.arange(N)
    return 3.0 * (f[np.bitwise_xor(x[:, None], x[None, :])] @ f) / N


def boundary_square(f: np.ndarray) -> np.ndarray:
    """Boundary function of {x, x+y, x+z, x+y+z} over F_2^n: each corner
    conditions the other three to E_{a,b} f(x0+a) f(x0+b) f(x0+a+b)."""
    N = len(f)
    x = np.arange(N)
    xor = np.bitwise_xor(x[:, None], x[None, :])
    out = np.empty(N)
    for x0 in range(N):
        g = f[x0 ^ x]
        out[x0] = g @ f[x0 ^ xor] @ g
    return 4.0 * out / N**2


# -- testers ---------------------------------------------------------------------


def symmetrized_acceptance(bits: np.ndarray, n: int, k: int) -> float:
    """Acceptance of the symmetrized degree-(k-1) uniformity tester on an
    F_2-valued table: the parallelepiped directions are a uniform independent
    k-tuple.  Dependent tuples always accept over F_2 (every corner repeats an
    even number of times), so the box average over all tuples fixes the rest."""
    N = 2**n
    e_all = gowers_power((-1.0) ** bits, 2, n, k)
    total = float(N) ** k
    independent = float(np.prod([N - 2**i for i in range(k)]))
    e_indep = (e_all * total - (total - independent)) / independent
    return (1.0 + e_indep) / 2.0


def support_acceptance(bits: np.ndarray, support, p: int, n: int) -> float:
    """Exact acceptance of a parity decision over an explicit query support."""
    pl = places(p, n)
    total = 0.0
    for points, prob in support:
        vals = bits[np.asarray(points) @ pl]
        total += prob * float(vals.sum() % 2 == 0)
    return total


# -- polynomials -------------------------------------------------------------------


def eval_poly(terms: dict, p: int, n: int) -> np.ndarray:
    """Value table of sum coeff * prod x_i^e_i over F_p^n."""
    d = digits(p, n)
    out = np.zeros(p**n, dtype=np.int64)
    for exps, c in terms.items():
        t = np.full(p**n, int(c) % p, dtype=np.int64)
        for i, e in enumerate(exps):
            if e:
                t = (t * d[:, i] ** e) % p
        out = (out + t) % p
    return out


def parse_poly_text(text: str, n: int) -> dict:
    """Terms of a polynomial printed as `2*x1*x3^2 + 1*x2`."""
    terms: dict = {}
    text = text.strip()
    if text in ("", "0"):
        return terms
    for part in text.split("+"):
        exps = [0] * n
        coeff = 1
        for factor in part.strip().split("*"):
            m = re.fullmatch(r"x(\d+)(?:\^(\d+))?", factor.strip())
            if m:
                exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
            else:
                coeff *= int(factor)
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return terms


def poly_degree(terms: dict, p: int) -> int:
    live = [sum(e) for e, c in terms.items() if int(c) % p]
    return max(live, default=-1)


def conditional_residual(values: np.ndarray, tables: list[np.ndarray], p: int) -> np.ndarray:
    """f - E(f | level sets of the given value tables)."""
    labels = np.zeros(len(values), dtype=np.int64)
    for t in tables:
        labels = labels * p + t
    _, inv = np.unique(labels, return_inverse=True)
    counts = np.bincount(inv)
    means = (
        np.bincount(inv, weights=values.real) + 1j * np.bincount(inv, weights=values.imag)
    ) / counts
    return values - means[inv]


def _all_tables(n: int, degree: int) -> np.ndarray:
    """Value tables over F_2^n of every polynomial of degree <= degree, as
    bitmasks (bit x set when the polynomial is 1 at point x)."""
    d = digits(2, n)
    monos = [e for e in np.ndindex(*(2,) * n) if sum(e) <= degree]
    cols = np.stack([np.prod(d ** np.array(e), axis=1) for e in monos])
    coeffs = digits(2, len(monos))
    tables = (coeffs @ cols) % 2
    return tables @ (1 << np.arange(2**n, dtype=np.int64))


def f2_rank_upto2(tables: list[np.ndarray], n: int) -> int | None:
    """Rank of a collection of cubics over F_2^n (n <= 5) when it is at most
    2, else None: the least r such that some nonzero combination is a function
    of r polynomials of degree <= 2.  Brute force over bitmasks."""
    full = (1 << 2**n) - 1
    weights = 1 << np.arange(2**n, dtype=np.int64)
    quads = _all_tables(n, 2)
    best = None
    for alpha in range(1, 2 ** len(tables)):
        combo = np.zeros(2**n, dtype=np.int64)
        for i, t in enumerate(tables):
            if alpha >> i & 1:
                combo = (combo + t) % 2
        P = int(combo @ weights)
        if P in (0, full):
            return 0
        if np.any(quads == P):
            best = 1
            continue
        if best is not None:
            continue
        # P is a function of (Q1, Q2) iff it is constant on all four cells
        q1 = quads[:, None]
        q2 = quads[None, :]
        ok = np.ones((len(quads), len(quads)), dtype=bool)
        for cell in (q1 & q2, q1 & ~q2 & full, ~q1 & q2 & full, ~(q1 | q2) & full):
            hit = P & cell
            ok &= (hit == 0) | (hit == cell)
        if ok.any():
            best = 2
    return best


def quadratic_rank_f2(values: np.ndarray, n: int) -> int:
    """Rank of a quadratic over F_2^n: codimension of the translations that
    leave its value table unchanged."""
    x = np.arange(2**n)
    invariant = sum(
        1 for h in range(2**n) if np.array_equal(values[x ^ h], values)
    )
    return n - int(round(np.log2(invariant)))
