"""Rank of polynomials: the least r with P = Gamma(Q_1, ..., Q_r), deg Q_i < deg P.

For a set of polynomials the rank is the minimum over nonzero coefficient
vectors alpha of the rank of sum_i alpha_i P_i, measured against the largest
degree appearing in the support of alpha.

Two decision routes, kept deliberately separate:

* exhaustive search over tuples from Poly_{d-1}, organised around conflict
  pairs — points where P differs — encoded as bitmasks (a tuple works iff
  the AND of its masks is zero);
* a closed form for degree <= 2 via the translation-invariance subspace
  H = {h : P(x+h) = P(x) for all x}; min r equals codim H.

The search is charged to the budget as it goes; a charge the budget cannot
cover ends it with a lower bound instead of a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .config import budget, charge, fits
from .errors import ValidationError
from .field import digit_table, digits
from .linalg import nullspace, row_reduce, solve
from .polynomials import Polynomial, family_size, monomials_up_to, value_block
from .rng import _CHUNK


@dataclass(frozen=True)
class RankCertificate:
    """Witness for `rank == value`: the combination that decomposes, its
    lower-degree arguments, and the lookup table reproducing it."""

    alpha: tuple[int, ...]
    arguments: tuple[Polynomial, ...]
    gamma: dict[tuple[int, ...], int]


@dataclass
class RankReport:
    kind: str  # "exact-exhaustive" | "quadratic-closed-form" | "lower-bound-only"
    refuted_up_to: int  # rank > r verified for every 0 <= r <= this
    value: int | None  # exact rank when determined
    certificate: RankCertificate | None = None

    def rank_exceeds(self, r: int) -> bool:
        if self.value is not None:
            return self.value > r
        if r <= self.refuted_up_to:
            return True
        raise ValidationError(f"rank > {r} undecided (verified up to {self.refuted_up_to})")


def _nonzero_alphas(p: int, t: int):
    """One representative per projective class (first nonzero entry = 1), in
    the order of the digits of range(p^t)."""
    for alpha in map(tuple, digits(np.arange(p**t), p, t).tolist()):
        if next((a for a in alpha if a), None) == 1:
            yield alpha


def _combine(polys: list[Polynomial], alpha) -> Polynomial:
    out = Polynomial.zero(polys[0].p, polys[0].n)
    for a, P in zip(alpha, polys):
        if a:
            out = out + P.scale(a)
    return out


def _support_degree(polys: list[Polynomial], alpha) -> int:
    return max(P.degree for a, P in zip(alpha, polys) if a)


def _mask_charge(vals: np.ndarray, p: int, size: int) -> int:
    """size · (N + c) for the conflict masks of a function with values
    `vals` on N points against `size` candidates: c conflict pairs counted
    from the value histogram before any pair is listed."""
    N = len(vals)
    counts = np.bincount(vals, minlength=p)
    conflicts = (N * N - sum(int(k) ** 2 for k in counts)) // 2
    return size * (N + conflicts)


def _conflict_masks(vals: np.ndarray, p: int, n: int, dmax: int):
    """The monomials of Poly_dmax and, per candidate Q in ``itertools.product``
    order of its coefficients, the conflict pairs of `vals` (points where it
    differs, in ``np.triu_indices`` order) that Q fails to separate: one row
    of ceil(c/64) little-endian uint64 words per candidate, pair k at bit k.
    The candidates' value tables (polynomials.value_block) come in blocks of
    max(1, _CHUNK // N) rows, as every enumeration's rows do."""
    I, J = np.triu_indices(p**n, 1)
    conflict = vals[I] != vals[J]
    I, J = I[conflict], J[conflict]
    monos = monomials_up_to(p, n, dmax)
    count = p ** len(monos)
    value_tables = value_block(p, digit_table(p, n), monos)
    masks = np.zeros((count, -(-len(I) // 64)), dtype="<u8")
    as_bytes = masks.view(np.uint8)
    block = max(1, _CHUNK // p**n)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        tables = value_tables(lo, hi).astype(np.uint8)  # p <= 251
        packed = np.packbits(tables[:, I] == tables[:, J], axis=1, bitorder="little")
        as_bytes[lo:hi, : packed.shape[1]] = packed
    return monos, masks


def _first_disjoint_tuple(masks: np.ndarray, r: int) -> tuple[int, ...] | None:
    """The lexicographically first strictly increasing r-tuple of rows whose
    masks AND to zero, or None.  A tuple that repeats a row ANDs to the
    product of a shorter tuple, which the search at r - 1 already tried, so
    only distinct rows are combined.  The last index of each prefix is found
    by one AND over every row it may take."""

    def extend(acc: np.ndarray, lo: int, depth: int):
        if depth == 1:
            hit = np.flatnonzero(~(masks[lo:] & acc).any(axis=1))
            return (lo + int(hit[0]),) if len(hit) else None
        for i in range(lo, len(masks)):
            rest = extend(acc & masks[i], i + 1, depth - 1)
            if rest is not None:
                return (i, *rest)
        return None

    return extend(np.full(masks.shape[1], ~np.uint64(0), dtype=masks.dtype), 0, r)


def _certificate_from_tuple(P: Polynomial, alpha, Qs: tuple[Polynomial, ...]) -> RankCertificate:
    """The certificate for P = Gamma(Qs): Gamma maps each joint value of the
    arguments, in the order the labels first occur, to P's value there."""
    vals = P.value_table()
    labels = np.stack([Q.value_table() for Q in Qs], axis=1)
    uniq, first, inverse = np.unique(
        labels, axis=0, return_index=True, return_inverse=True
    )
    assert (vals[first][inverse.ravel()] == vals).all(), "separation of conflict pairs violated"
    gamma = {
        tuple(int(v) for v in uniq[k]): int(vals[first[k]]) for k in np.argsort(first)
    }
    return RankCertificate(tuple(alpha), tuple(Qs), gamma)


# -- closed form for degree <= 2 ----------------------------------------------


def quadratic_min_rank(P: Polynomial) -> tuple[int, np.ndarray]:
    """Exact min rank for deg(P) <= 2, plus independent linear forms (rows)
    that P factors through.

    P is invariant under translation by H = {h : Delta_h P = 0}; the least
    number of lower-degree arguments is codim H, achieved by linear forms
    cutting out H.  For odd p with P = x'Bx + c.x + c0 (B symmetric) this is
    rank([B; c]); for p = 2 the alternating part leaves ker B, on which the
    derivative constant phi(h) = P(h) - P(0) is linear and may add one form.
    """
    p, n = P.p, P.n
    if P.degree > 2:
        raise ValidationError("closed form requires degree <= 2")
    lin = np.zeros(n, dtype=np.int64)
    B = np.zeros((n, n), dtype=np.int64)
    for exps, c in P.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        total = sum(exps)
        if total == 1:
            lin[support[0]] = c
        elif total == 2:
            if len(support) == 1:
                B[support[0], support[0]] = c  # x_i^2 only occurs for odd p
            else:
                i, j = support
                half = c if p == 2 else c * pow(2, -1, p) % p
                B[i, j] = half
                B[j, i] = half
    if p != 2:
        stacked = np.vstack([B, lin.reshape(1, n)]) % p
        red, pivots = row_reduce(stacked, p)
        return len(pivots), red[: len(pivots)]
    red, pivots = row_reduce(B % 2, 2)
    forms = red[: len(pivots)]
    kernel = nullspace(B % 2, 2)
    c0 = P.evaluate((0,) * n)
    phi = np.array([(P.evaluate(h) - c0) % 2 for h in kernel], dtype=np.int64)
    if phi.any():
        # extend phi from ker B to a form on the whole space
        ell = solve(kernel, phi, 2)
        assert ell is not None, "kernel basis rows are independent"
        forms = np.vstack([forms, ell.reshape(1, n)]) if len(forms) else ell.reshape(1, n)
    return len(forms), forms % 2


# -- public entry --------------------------------------------------------------


@budget()
def polynomial_rank(polys, r_max: int = 2, method: str = "auto") -> RankReport:
    """Rank report for a polynomial or a collection of polynomials.

    Verifies rank > r for r = 0, 1, ... in turn, stopping when a
    decomposition appears (exact value plus certificate) or r_max is
    exhausted.  With method="auto", combinations of support degree 2 are
    decided in closed form and everything else by exhaustive search;
    method="exhaustive" forces the search route throughout (the two routes
    are cross-checked in the test suite, not merged).

    The work is charged to the budget: each searched combination's conflict
    masks once (see `_mask_charge`), C(R, r) · ceil(c/64) for its search at
    rank r over R distinct masks of c bits, and N · (r + 1) for a
    certificate.  A search charge that does not fit ends the report at
    lower-bound-only; a certificate that does not fit is left None.
    """
    if isinstance(polys, Polynomial):
        polys = [polys]
    polys = list(polys)
    if not polys:
        raise ValidationError("empty polynomial collection")
    if method not in ("auto", "exhaustive"):
        raise ValidationError(f"unknown method {method!r}")
    p, n = polys[0].p, polys[0].n
    for P in polys:
        if (P.p, P.n) != (p, n):
            raise ValidationError("polynomials live on different spaces")
    if r_max < 0:
        raise ValidationError("r_max must be >= 0")

    combos = [
        (alpha, _combine(polys, alpha), _support_degree(polys, alpha))
        for alpha in _nonzero_alphas(p, len(polys))
    ]
    for alpha, P_alpha, _ in combos:
        if P_alpha.is_constant():
            cert = RankCertificate(tuple(alpha), (), {(): P_alpha.evaluate((0,) * n)})
            return RankReport("exact-exhaustive", -1, 0, cert)
    # a nonconstant affine combination is never a function of degree-0
    # arguments, so only the others can end the search
    live = [c for c in combos if c[2] >= 2]
    if not live:
        return RankReport("exact-exhaustive", r_max, None)
    # closed-form combinations: min rank and the linear forms achieving it
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    closed = {}
    for i, (_, P_alpha, d) in enumerate(live):
        if d == 2 and method == "auto":
            min_r, forms = quadratic_min_rank(P_alpha)
            closed[i] = min_r, tuple(Polynomial.from_coefficients(p, n, units, f) for f in forms)

    def paid(cost: int) -> bool:
        """Charge `cost` if it fits, and say whether it did."""
        if fits(cost):
            charge(cost, "rank search")
            return True
        return False

    def certified(alpha, P_alpha, args) -> RankCertificate | None:
        if paid(p**n * (len(args) + 1)):
            return _certificate_from_tuple(P_alpha, alpha, args)
        return None

    # every live combination decomposes through its n coordinates, so the
    # loop returns by r = n however large r_max is
    searches: dict[int, tuple] = {}
    for r in range(1, r_max + 1):
        for i, (alpha, P_alpha, d) in enumerate(live):
            if i in closed:
                min_r, args = closed[i]
                if min_r <= r:
                    cert = certified(alpha, P_alpha, args)
                    return RankReport("quadratic-closed-form", r - 1, min_r, cert)
                continue
            if i not in searches:
                # N per candidate bounds the mask charge from below, so a space
                # too large for what is left is refused before P is evaluated
                # on it (and before the family is listed, when N alone is)
                N = p**n
                if not fits(N) or not fits((size := family_size(p, n, d - 1)) * N):
                    return RankReport("lower-bound-only", r - 1, None)
                vals = P_alpha.value_table()
                if not paid(_mask_charge(vals, p, size)):
                    return RankReport("lower-bound-only", r - 1, None)
                monos, masks = _conflict_masks(vals, p, n, d - 1)
                # identical masks are interchangeable; keep the first of each
                first = np.sort(np.unique(masks, axis=0, return_index=True)[1])
                searches[i] = monos, first, masks[first]
            monos, first, reps = searches[i]
            if not paid(comb(len(reps), r) * reps.shape[1]):
                return RankReport("lower-bound-only", r - 1, None)
            found = _first_disjoint_tuple(reps, r)
            if found is not None:
                args = tuple(
                    Polynomial.from_coefficients(p, n, monos, digits(first[j], p, len(monos)))
                    for j in found
                )
                cert = certified(alpha, P_alpha, args)
                return RankReport("exact-exhaustive", r - 1, r, cert)

    # every r <= r_max refuted; quadratic combinations still pin the value
    # when no harder combination is in play
    if closed and len(closed) == len(live):
        i = min(closed, key=lambda j: closed[j][0])
        alpha, P_alpha, _ = live[i]
        min_r, args = closed[i]
        cert = certified(alpha, P_alpha, args)
        return RankReport("quadratic-closed-form", r_max, min_r, cert)
    kind = "quadratic-closed-form" if closed else "exact-exhaustive"
    return RankReport(kind, r_max, None)
