"""Rank reports, cross-validated three ways: exhaustive tuple search,
the quadratic closed form, and a brute translation-invariance scan."""

from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform import polyrank
from fpuniform.config import budget
from fpuniform.errors import ValidationError
from fpuniform.linalg import rank as mat_rank, row_reduce
from fpuniform.field import enumerate_vectors, index_add
from fpuniform.polynomials import Polynomial, monomials_up_to
from fpuniform.polyrank import (
    RankReport,
    _conflict_masks,
    _first_disjoint_tuple,
    polynomial_rank,
    quadratic_min_rank,
)


def invariance_space(P):
    """Basis (rows) of {h : P(x+h) = P(x) identically}, by a scan over every
    direction h of the value table."""
    vals, x = P.value_table(), np.arange(P.p**P.n)
    rows = [h for i, h in enumerate(enumerate_vectors(P.p, P.n))
            if np.array_equal(vals[index_add(P.p, P.n, x, i)], vals)]
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
    from fpuniform.field import enumerate_vectors, index_add

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
    monos, packed = _conflict_masks(P.value_table(), p, n, dmax)
    assert monos == monomials_up_to(p, n, dmax)
    assert packed.shape[1] == -(-len(pairs) // 64)
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    expected = []
    for cs in product(range(p), repeat=len(monos)):
        Q = Polynomial.from_coefficients(p, n, monos, cs)
        qv = [Q.evaluate(x) for x in points]
        expected.append(sum(1 << k for k, (i, j) in enumerate(pairs) if qv[i] == qv[j]))
    assert masks == expected


@pytest.mark.parametrize("p, n, dmax", [(2, 3, 2), (3, 2, 2), (5, 2, 1)])
def test_conflict_masks_do_not_depend_on_the_block(monkeypatch, p, n, dmax):
    # blocks of one candidate, of 7 (the last one partial) and of all of them
    monos_P = monomials_up_to(p, n, dmax + 1)
    coeffs = np.random.default_rng(p + n).integers(0, p, size=len(monos_P))
    vals = Polynomial.from_coefficients(p, n, monos_P, coeffs).value_table()
    count = p ** len(monomials_up_to(p, n, dmax))
    results = []
    for rows in (1, 7, count):
        monkeypatch.setattr(polyrank, "_CHUNK", rows * p**n)
        results.append(_conflict_masks(vals, p, n, dmax))
    for monos, masks in results[1:]:
        assert monos == results[0][0] and np.array_equal(masks, results[0][1])


# x1x2 on F_2^2 and x1x2 + x3x4 on F_2^4 are nondegenerate: full rank
FULL_RANK_F2 = [
    (Polynomial(2, 2, {(1, 1): 1}), 2),
    (Polynomial(2, 4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}), 4),
]


def test_product_rank_f2_golden():
    for P, rank in FULL_RANK_F2:
        report = polynomial_rank(P, r_max=rank)
        assert report.kind == "quadratic-closed-form"
        assert report.value == rank
        assert report.refuted_up_to == rank - 1
        check_certificate(report, [P])


def test_product_rank_f2_exhaustive_route_agrees():
    for P, rank in FULL_RANK_F2:
        report = polynomial_rank(P, r_max=rank, method="exhaustive")
        assert report.kind == "exact-exhaustive"
        assert report.value == rank
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
    assert report.refuted_up_to == 2
    assert report.rank_exceeds(2)
    check_certificate(report, [P])
    # the search route confirms a rank above 2 once r_max lets it
    report = polynomial_rank(P, r_max=3, method="exhaustive")
    assert (report.kind, report.value, report.refuted_up_to) == ("exact-exhaustive", 3, 2)
    check_certificate(report, [P])


def test_cubic_product_rank_golden():
    # x1x2x3 over F_2^3 factors through two quadratics but not one
    P = Polynomial(2, 3, {(1, 1, 1): 1})
    report = polynomial_rank(P, r_max=2)
    assert report.kind == "exact-exhaustive"
    assert report.value == 2
    check_certificate(report, [P])
    assert oracle_min_rank(P, 2, 2) == 2


def test_tuple_search_combines_distinct_masks():
    # a repeated mask ANDs to a product the r - 1 search already tried, so
    # only strictly increasing tuples are scanned, even where a repeat would
    # AND to zero
    masks = np.array([[0], [6], [1], [3]], dtype="<u8")
    assert _first_disjoint_tuple(masks, 2) == (0, 1)
    assert _first_disjoint_tuple(masks[:1], 2) is None
    assert _first_disjoint_tuple(masks[1:], 3) == (0, 1, 2)
    assert _first_disjoint_tuple(masks[1:], 4) is None


def test_cubic_certificate_follows_the_search_order():
    # the first strictly increasing pair of distinct masks, each mask standing for
    # its first candidate in coefficient order, and Gamma listed in the order
    # its labels first occur among the points
    P = Polynomial(2, 4, {
        (0, 0, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 1, 0): 1, (1, 0, 0, 1): 1, (1, 0, 1, 0): 1,
        (1, 0, 1, 1): 1, (1, 1, 0, 0): 1, (1, 1, 0, 1): 1, (1, 1, 1, 0): 1,
    })
    report = polynomial_rank(P, r_max=2)
    assert (report.kind, report.value) == ("exact-exhaustive", 2)
    cert = report.certificate
    assert [Q.to_text() for Q in cert.arguments] == [
        "1*x1*x4 + 1*x1*x3", "1*x4 + 1*x3 + 1*x1*x3 + 1*x1*x2"
    ]
    assert list(cert.gamma.items()) == [((0, 0), 1), ((0, 1), 0), ((1, 1), 1), ((1, 0), 1)]
    check_certificate(report, [P])


def test_quadratic_certificate_past_64_points():
    rng = np.random.default_rng(8)
    monos = monomials_up_to(2, 8, 2)
    P = Polynomial.from_coefficients(2, 8, monos, rng.integers(0, 2, size=len(monos)))
    report = polynomial_rank(P, r_max=2)
    assert report.kind == "quadratic-closed-form"
    assert report.value == quadratic_min_rank(P)[0] > 2
    check_certificate(report, [P])
    # the certificate costs N · (r + 1) points and is left out past the budget
    charge = 256 * (report.value + 1)
    with budget(charge):
        assert polynomial_rank(P, r_max=2).certificate == report.certificate
    with budget(charge - 1):
        bare = polynomial_rank(P, r_max=2)
    assert (bare.value, bare.certificate) == (report.value, None)


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
    # every drawn space has n <= 3, so the search decides the rank at r_max = 3
    assert polynomial_rank(P, r_max=3, method="exhaustive").value == r


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
    assert report.refuted_up_to == 1
    assert report.value == 2  # every combination is a rank-2 quadratic


def test_constant_poly_rank_zero():
    report = polynomial_rank(Polynomial(3, 2, {(0, 0): 1}), r_max=2)
    assert report.value == 0
    assert report.certificate.gamma == {(): 1}


def test_zero_poly_rank_zero():
    report = polynomial_rank(Polynomial.zero(2, 2), r_max=2)
    assert report.value == 0


def test_linear_poly_never_expressible():
    report = polynomial_rank(Polynomial(2, 2, {(1, 0): 1}), r_max=2)
    assert report.value is None
    assert report.refuted_up_to == 2
    assert report.rank_exceeds(2)
    with pytest.raises(ValidationError):
        report.rank_exceeds(3)
    # affine combinations refute every r at once, with no charge
    pair = [Polynomial(2, 3, {(1, 0, 0): 1, (0, 1, 0): 1}), Polynomial(2, 3, {(0, 0, 1): 1})]
    with budget(1):
        report = polynomial_rank(pair, r_max=10**12)
    assert (report.value, report.refuted_up_to) == (None, 10**12)


def test_lower_bound_only_past_the_budget():
    # x1x2x3 + x1 on F_2^3 has rank 2.  Its search charges 2^7 · (8 + 15) =
    # 2944 for the masks (7 monomials of degree <= 2, 15 conflict pairs),
    # then C(64, r) over its 64 distinct one-word masks at rank r, and 8 · 3
    # for the certificate.
    P = Polynomial(2, 3, {(1, 1, 1): 1, (1, 0, 0): 1})
    masks, r1, r2, cert = 2944, 64, 2016, 24
    for limit, refuted in ((masks - 1, 0), (masks + r1 - 1, 0), (masks + r1 + r2 - 1, 1)):
        with budget(limit):
            report = polynomial_rank(P, r_max=5, method="exhaustive")
        assert (report.kind, report.value, report.certificate) == ("lower-bound-only", None, None)
        assert report.refuted_up_to == refuted, limit
        assert report.rank_exceeds(refuted)
        with pytest.raises(ValidationError):
            report.rank_exceeds(refuted + 1)
    with budget(masks + r1 + r2):
        report = polynomial_rank(P, r_max=5, method="exhaustive")
    assert (report.kind, report.value, report.certificate) == ("exact-exhaustive", 2, None)
    with budget(masks + r1 + r2 + cert):
        report = polynomial_rank(P, r_max=5, method="exhaustive")
    assert report.value == 2
    check_certificate(report, [P])


def test_space_past_the_budget_is_refused_before_evaluation(monkeypatch):
    # x1x2x3 on F_2^25: the masks cost at least 2^326 · 2^25, so any budget
    # refuses them without a digit table of the space being built
    P = Polynomial(2, 25, {(1, 1, 1) + (0,) * 22: 1})

    def no_table(*args):
        raise AssertionError("the space was enumerated")

    monkeypatch.setattr("fpuniform.polyrank.digit_table", no_table)
    monkeypatch.setattr("fpuniform.polynomials.digit_table", no_table)
    for limit in (None, 2**60):
        with budget(limit):
            report = polynomial_rank(P)
        assert (report.kind, report.value, report.refuted_up_to) == ("lower-bound-only", None, 0)


def test_explicit_budget_bounds_the_evaluation(monkeypatch):
    # with a default budget below N, an explicit budget still lets the masks
    # and the certificates evaluate on the space
    monkeypatch.setattr("fpuniform.config.DEFAULT_BUDGET", 8)
    cubic = Polynomial(2, 4, {(1, 1, 1, 0): 1})
    quad = Polynomial(2, 4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})
    with budget(10**6):
        cubic_report = polynomial_rank(cubic)
    with budget(10**6):
        quad_report = polynomial_rank(quad, r_max=4)
    monkeypatch.undo()  # the replay below enumerates at the default budget
    assert (cubic_report.kind, cubic_report.value) == ("exact-exhaustive", 2)
    check_certificate(cubic_report, [cubic])
    assert (quad_report.kind, quad_report.value) == ("quadratic-closed-form", 4)
    check_certificate(quad_report, [quad])


def test_search_charge_counts_mask_words():
    # x1x2 + x3x4 + x5 on F_2^5 has rank 5 and 16 · 16 = 256 conflict pairs,
    # so 4 words per mask: 2^6 · (32 + 256) = 18,432 for the masks, then
    # C(32, r) · 4 at rank r over its 32 distinct masks
    P = Polynomial(2, 5, {(1, 1, 0, 0, 0): 1, (0, 0, 1, 1, 0): 1, (0, 0, 0, 0, 1): 1})
    spent = 18432
    for r in range(1, 6):
        search = comb(32, r) * 4
        with budget(spent + search - 1):
            report = polynomial_rank(P, r_max=5, method="exhaustive")
        assert (report.kind, report.refuted_up_to) == ("lower-bound-only", r - 1)
        spent += search
    with budget(spent + 32 * 6):
        report = polynomial_rank(P, r_max=5, method="exhaustive")
    assert (report.kind, report.value, report.refuted_up_to) == ("exact-exhaustive", 5, 4)
    check_certificate(report, [P])


def test_rank_validation():
    with pytest.raises(ValidationError):
        polynomial_rank([])
    with pytest.raises(ValidationError):
        polynomial_rank(
            [Polynomial(2, 2, {(1, 0): 1}), Polynomial(3, 2, {(1, 0): 1})]
        )
    with pytest.raises(ValidationError):
        polynomial_rank(Polynomial(2, 2, {(1, 0): 1}), r_max=-1)
    with pytest.raises(ValidationError):
        quadratic_min_rank(Polynomial(2, 3, {(1, 1, 1): 1}))


def test_report_is_plain_dataclass():
    report = RankReport(kind="exact-exhaustive", refuted_up_to=0, value=1)
    assert report.rank_exceeds(0)
    assert not report.rank_exceeds(1)
