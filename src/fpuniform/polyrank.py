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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .config import (
    RANK_FAMILY_CAP,
    RANK_POINT_CAP,
    RANK_RMAX_CAP,
    RANK_TUPLE_CAP,
)
from .errors import ValidationError
from .field import digit_table
from .linalg import nullspace, row_reduce, solve
from .polynomials import Polynomial, coefficient_block, monomial_values, monomials_up_to


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
    checks: dict[int, bool] = field(default_factory=dict)  # r -> (rank > r)
    certificate: RankCertificate | None = None

    def rank_exceeds(self, r: int) -> bool:
        if self.value is not None:
            return self.value > r
        if r <= self.refuted_up_to:
            return True
        raise ValidationError(f"rank > {r} undecided (verified up to {self.refuted_up_to})")


#: Candidates per block when building conflict masks.
_BLOCK = 4096


class _SearchSpaceExceeded(Exception):
    pass


def _nonzero_alphas(p: int, t: int):
    """One representative per projective class (first nonzero entry = 1)."""
    for alpha in product(range(p), repeat=t):
        nz = next((a for a in alpha if a), None)
        if nz == 1:
            yield alpha


def _combine(polys: list[Polynomial], alpha) -> Polynomial:
    out = Polynomial.zero(polys[0].p, polys[0].n)
    for a, P in zip(alpha, polys):
        if a:
            out = out + P.scale(a)
    return out


def _support_degree(polys: list[Polynomial], alpha) -> int:
    return max(P.degree for a, P in zip(alpha, polys) if a)


def _conflict_masks(P: Polynomial, dmax: int):
    """The monomials of Poly_dmax and, per candidate Q in ``itertools.product``
    order of its coefficients, the bitmask of conflict pairs of P (points
    where P differs) that Q fails to separate."""
    p, n = P.p, P.n
    N = p**n
    if N > RANK_POINT_CAP:
        raise _SearchSpaceExceeded(f"p^n = {N} > {RANK_POINT_CAP}")
    vals = P.value_table()
    I, J = np.triu_indices(N, 1)
    conflict = vals[I] != vals[J]
    I, J = I[conflict], J[conflict]
    monos = monomials_up_to(p, n, dmax)
    count = p ** len(monos)
    if count > RANK_FAMILY_CAP:
        raise _SearchSpaceExceeded(f"|Poly_{dmax}| = {count} too large")
    mon_values = monomial_values(p, digit_table(p, n), monos)
    masks: list[int] = []
    for lo in range(0, count, _BLOCK):
        coeffs = coefficient_block(p, len(monos), lo, min(lo + _BLOCK, count))
        tables = (coeffs @ mon_values.T % p).astype(np.uint8)  # p <= 251
        packed = np.packbits(tables[:, I] == tables[:, J], axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return monos, masks


def _certificate_from_tuple(
    P: Polynomial, alpha, Qs: tuple[Polynomial, ...]
) -> RankCertificate:
    vals = P.value_table()
    qvals = [Q.value_table() for Q in Qs]
    gamma: dict[tuple[int, ...], int] = {}
    for idx in range(len(vals)):
        label = tuple(int(qv[idx]) for qv in qvals)
        prev = gamma.setdefault(label, int(vals[idx]))
        assert prev == int(vals[idx]), "separation of conflict pairs violated"
    return RankCertificate(tuple(alpha), tuple(Qs), gamma)


def _expressible_exhaustive(P: Polynomial, r: int, dmax: int):
    """Arguments (Q_1..Q_r) from Poly_dmax that P factors through, or None.
    Raises _SearchSpaceExceeded past the desk-scale caps."""
    if P.is_constant():
        return ()
    if r == 0 or dmax < 0:
        return None
    if r > RANK_RMAX_CAP:
        raise _SearchSpaceExceeded(f"r = {r} > {RANK_RMAX_CAP}")
    monos, masks = _conflict_masks(P, dmax)
    if len(masks) ** r > RANK_TUPLE_CAP:
        raise _SearchSpaceExceeded("tuple space too large")

    def candidates(*idx: int) -> tuple[Polynomial, ...]:
        rows = (coefficient_block(P.p, len(monos), i, i + 1)[0] for i in idx)
        return tuple(Polynomial.from_coefficients(P.p, P.n, monos, c) for c in rows)

    # identical masks are interchangeable; keep one representative each
    reps: list[tuple[int, int]] = []
    seen: set[int] = set()
    for i, m in enumerate(masks):
        if m not in seen:
            seen.add(m)
            reps.append((m, i))
    if r == 1:
        for m, i in reps:
            if m == 0:
                return candidates(i)
        return None
    for a in range(len(reps)):
        ma, ia = reps[a]
        if ma == 0:
            return candidates(ia, ia)
        for b in range(a, len(reps)):
            mb, ib = reps[b]
            if ma & mb == 0:
                return candidates(ia, ib)
    return None


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


def _linear_form_polys(p: int, n: int, forms: np.ndarray) -> tuple[Polynomial, ...]:
    out = []
    for row in forms:
        terms = {}
        for i, c in enumerate(row):
            if c % p:
                exps = [0] * n
                exps[i] = 1
                terms[tuple(exps)] = int(c)
        out.append(Polynomial(p, n, terms))
    return tuple(out)


# -- public entry --------------------------------------------------------------


def polynomial_rank(polys, r_max: int = RANK_RMAX_CAP, method: str = "auto") -> RankReport:
    """Rank report for a polynomial or a collection of polynomials.

    Verifies rank > r for r = 0, 1, ... in turn, stopping when a
    decomposition appears (exact value plus certificate) or r_max is
    exhausted.  With method="auto", combinations of support degree 2 are
    decided in closed form and everything else by exhaustive search;
    method="exhaustive" forces the search route throughout (the two routes
    are cross-checked in the test suite, not merged).  Past the search caps
    the report degrades to lower-bound-only rather than guessing.
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

    used_closed_form = False
    checks: dict[int, bool] = {}
    for r in range(r_max + 1):
        for alpha, P_alpha, d in combos:
            if P_alpha.is_constant():
                checks[r] = False
                return RankReport(
                    kind="exact-exhaustive",
                    refuted_up_to=r - 1,
                    value=0,
                    checks=checks,
                    certificate=RankCertificate(
                        tuple(alpha), (), {(): P_alpha.evaluate((0,) * n)}
                    ),
                )
            if d == 1:
                # nonconstant affine combination: functions of degree-0
                # arguments are constants, so no r ever suffices
                continue
            if d == 2 and method == "auto":
                used_closed_form = True
                min_r, forms = quadratic_min_rank(P_alpha)
                if min_r <= r:
                    checks[r] = False
                    cert = None
                    if p**n <= RANK_POINT_CAP:
                        cert = _certificate_from_tuple(
                            P_alpha, alpha, _linear_form_polys(p, n, forms)
                        )
                    return RankReport(
                        kind="quadratic-closed-form",
                        refuted_up_to=r - 1,
                        value=min_r,
                        checks=checks,
                        certificate=cert,
                    )
                continue
            try:
                found = _expressible_exhaustive(P_alpha, r, d - 1)
            except _SearchSpaceExceeded:
                return RankReport(
                    kind="lower-bound-only",
                    refuted_up_to=r - 1,
                    value=None,
                    checks=checks,
                )
            if found is not None:
                checks[r] = False
                return RankReport(
                    kind="exact-exhaustive",
                    refuted_up_to=r - 1,
                    value=r,
                    checks=checks,
                    certificate=_certificate_from_tuple(P_alpha, alpha, found),
                )
        checks[r] = True

    # every r <= r_max refuted; quadratic combinations still pin the value
    # when no harder combination is in play
    exact = None
    quads = [Pa for _, Pa, d in combos if d == 2]
    if method == "auto" and quads and all(d <= 2 for _, _, d in combos):
        exact = min(quadratic_min_rank(Pa)[0] for Pa in quads)
        used_closed_form = True
    return RankReport(
        kind="quadratic-closed-form" if used_closed_form else "exact-exhaustive",
        refuted_up_to=r_max,
        value=exact,
        checks=checks,
    )
