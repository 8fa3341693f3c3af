"""Rank reports, cross-validated three ways: exhaustive tuple search,
the quadratic closed form, and a brute translation-invariance scan."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform.errors import ValidationError
from fpuniform.linalg import rank as mat_rank, row_reduce
from fpuniform.field import enumerate_vectors
from fpuniform.polynomials import Polynomial, monomials_up_to
from fpuniform.polyrank import (
    RankReport,
    _conflict_masks,
    polynomial_rank,
    quadratic_min_rank,
)


def invariance_space(P):
    """Basis (rows) of {h : P(x+h) = P(x) identically}, by a scan over every
    direction h."""
    zero = Polynomial.zero(P.p, P.n)
    rows = [h for h in enumerate_vectors(P.p, P.n) if P.additive_derivative(h) == zero]
    red, pivots = row_reduce(np.array(rows, dtype=np.int64).reshape(len(rows), P.n), P.p)
    return red[: len(pivots)]


def oracle_min_rank(P, dmax, r_cap):
    """Independent brute force: try every tuple of candidate arguments and
    check P is constant on their joint level sets."""
    p, n = P.p, P.n
    if P.is_constant():
        return 0
    N = p**n
    vals = P.value_table()
    monos = monomials_up_to(p, n, dmax)
    tables = sorted(
        {
            tuple(int(v) for v in Polynomial.from_coefficients(p, n, monos, cs).value_table())
            for cs in product(range(p), repeat=len(monos))
        }
    )
    for r in range(1, r_cap + 1):
        for combo in product(range(len(tables)), repeat=r):
            labels = {}
            ok = True
            for idx in range(N):
                key = tuple(tables[q][idx] for q in combo)
                v = int(vals[idx])
                if labels.setdefault(key, v) != v:
                    ok = False
                    break
            if ok:
                return r
    return None


def check_certificate(report, polys):
    cert = report.certificate
    assert cert is not None
    combined = Polynomial.zero(polys[0].p, polys[0].n)
    for a, P in zip(cert.alpha, polys):
        combined = combined + P.scale(a)
    d = max(P.degree for a, P in zip(cert.alpha, polys) if a)
    assert len(cert.arguments) <= max(report.value, len(cert.arguments))
    for Q in cert.arguments:
        assert Q.degree <= d - 1
    from fpuniform.field import enumerate_vectors

    for x in enumerate_vectors(combined.p, combined.n):
        label = tuple(Q.evaluate(x) for Q in cert.arguments)
        assert cert.gamma[label] == combined.evaluate(x)


@pytest.mark.parametrize(
    "p, n, dmax",
    [(2, 1, 0), (2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1)],
)
def test_conflict_masks_match_pairwise_loop(p, n, dmax):
    monos_P = monomials_up_to(p, n, dmax + 1)
    coeffs = np.random.default_rng(10 * p + n).integers(0, p, size=len(monos_P))
    P = Polynomial.from_coefficients(p, n, monos_P, coeffs)
    points = enumerate_vectors(p, n)
    vals = [P.evaluate(x) for x in points]
    pairs = [
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if vals[i] != vals[j]
    ]
    monos, masks = _conflict_masks(P, dmax)
    assert monos == monomials_up_to(p, n, dmax)
    expected = []
    for cs in product(range(p), repeat=len(monos)):
        Q = Polynomial.from_coefficients(p, n, monos, cs)
        qv = [Q.evaluate(x) for x in points]
        expected.append(sum(1 << k for k, (i, j) in enumerate(pairs) if qv[i] == qv[j]))
    assert masks == expected


def test_product_rank_f2_golden():
    P = Polynomial(2, 2, {(1, 1): 1})
    report = polynomial_rank(P, r_max=2)
    assert report.kind == "quadratic-closed-form"
    assert report.value == 2
    assert report.checks == {0: True, 1: True, 2: False}
    check_certificate(report, [P])


def test_product_rank_f2_exhaustive_route_agrees():
    P = Polynomial(2, 2, {(1, 1): 1})
    report = polynomial_rank(P, r_max=2, method="exhaustive")
    assert report.kind == "exact-exhaustive"
    assert report.value == 2
    check_certificate(report, [P])


def test_product_rank_f3_golden():
    # a single product of two independent linear forms already has rank 2:
    # its level sets have sizes not cut out by any one lower-degree map
    P = Polynomial(3, 2, {(1, 1): 1})
    for method in ("auto", "exhaustive"):
        report = polynomial_rank(P, r_max=2, method=method)
        assert report.value == 2, method
    assert oracle_min_rank(P, 1, 2) == 2


def test_nondegenerate_quadratic_rank_equals_dimension():
    # sum of squares over F_3^n: invariance space is trivial
    for n in (1, 2, 3):
        terms = {}
        for i in range(n):
            e = [0] * n
            e[i] = 2
            terms[tuple(e)] = 1
        P = Polynomial(3, n, terms)
        r, forms = quadratic_min_rank(P)
        assert r == n
        assert len(forms) == n


def test_kernel_correction_case_f2():
    # x1x2 + x3: the alternating part misses x3, the affine correction adds it
    P = Polynomial(2, 3, {(1, 1, 0): 1, (0, 0, 1): 1})
    r, forms = quadratic_min_rank(P)
    assert r == 3
    assert oracle_min_rank(P, 1, 3) == 3
    report = polynomial_rank(P, r_max=2)
    assert report.value == 3
    assert report.checks == {0: True, 1: True, 2: True}
    assert report.rank_exceeds(2)


def test_cubic_product_rank_golden():
    # x1x2x3 over F_2^3 factors through two quadratics but not one
    P = Polynomial(2, 3, {(1, 1, 1): 1})
    report = polynomial_rank(P, r_max=2)
    assert report.kind == "exact-exhaustive"
    assert report.value == 2
    check_certificate(report, [P])
    assert oracle_min_rank(P, 2, 2) == 2


@st.composite
def quadratics(draw):
    p, n = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    monos = monomials_up_to(p, n, 2)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
    return Polynomial.from_coefficients(p, n, monos, coeffs)


@given(quadratics())
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_invariance_scan(P):
    if P.degree < 1:
        return
    r, forms = quadratic_min_rank(P)
    H = invariance_space(P)
    assert r == P.n - len(H)
    # the forms must vanish exactly on H
    if len(forms) and len(H):
        prod_ = (np.asarray(H) @ np.asarray(forms).T) % P.p
        assert not prod_.any()
    assert mat_rank(np.asarray(forms).reshape(len(forms), P.n), P.p) == r


@given(quadratics())
@settings(max_examples=25, deadline=None)
def test_closed_form_matches_exhaustive_oracle(P):
    if P.degree != 2:
        return
    r, _ = quadratic_min_rank(P)
    brute = oracle_min_rank(P, 1, 2)
    if brute is None:
        assert r > 2
    else:
        assert r == brute


def test_set_rank_detects_expressible_combination():
    # {x1x2, x1x2 + x3}: the difference is linear, hence expressible at r=1
    A = Polynomial(2, 3, {(1, 1, 0): 1})
    B = Polynomial(2, 3, {(1, 1, 0): 1, (0, 0, 1): 1})
    report = polynomial_rank([A, B], r_max=2)
    assert report.value == 1
    assert report.certificate.alpha == (1, 1)


def test_set_rank_of_independent_products():
    A = Polynomial(2, 4, {(1, 1, 0, 0): 1})
    B = Polynomial(2, 4, {(0, 0, 1, 1): 1})
    report = polynomial_rank([A, B], r_max=1)
    assert report.checks == {0: True, 1: True}
    assert report.value == 2  # every combination is a rank-2 quadratic


def test_constant_poly_rank_zero():
    report = polynomial_rank(Polynomial.constant(3, 2, 1), r_max=2)
    assert report.value == 0
    assert report.certificate.gamma == {(): 1}


def test_zero_poly_rank_zero():
    report = polynomial_rank(Polynomial.zero(2, 2), r_max=2)
    assert report.value == 0


def test_linear_poly_never_expressible():
    report = polynomial_rank(Polynomial.variable(2, 2, 0), r_max=2)
    assert report.value is None
    assert report.refuted_up_to == 2
    assert report.rank_exceeds(2)
    with pytest.raises(ValidationError):
        report.rank_exceeds(3)


def test_lower_bound_only_past_caps():
    # r = 3 exceeds the tuple cap for the exhaustive route
    P = Polynomial(2, 3, {(1, 1, 1): 1, (1, 0, 0): 1})
    report = polynomial_rank(P, r_max=5, method="exhaustive")
    if report.value is None:
        assert report.kind == "lower-bound-only"
        assert report.refuted_up_to >= 1


def test_rank_validation():
    with pytest.raises(ValidationError):
        polynomial_rank([])
    with pytest.raises(ValidationError):
        polynomial_rank(
            [Polynomial.variable(2, 2, 0), Polynomial.variable(3, 2, 0)]
        )
    with pytest.raises(ValidationError):
        polynomial_rank(Polynomial.variable(2, 2, 0), r_max=-1)
    with pytest.raises(ValidationError):
        quadratic_min_rank(Polynomial(2, 3, {(1, 1, 1): 1}))


def test_report_is_plain_dataclass():
    report = RankReport(kind="exact-exhaustive", refuted_up_to=0, value=1)
    assert report.rank_exceeds(0)
    assert not report.rank_exceeds(1)
