import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform.errors import FormatError, ValidationError
from fpuniform.field import digit_table, enumerate_vectors, index_add
from fpuniform.polynomials import (
    BiasResult,
    Polynomial,
    bias,
    coefficient_block,
    family_size,
    monomial_values,
    monomials_up_to,
)


@st.composite
def polys(draw, max_n=3, primes=(2, 3, 5)):
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    monos = monomials_up_to(p, n, min(p - 1, 3))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
    return Polynomial.from_coefficients(p, n, monos, coeffs)


def test_zero_degree_sentinel():
    assert Polynomial.zero(3, 2).degree == -1
    assert Polynomial.constant(3, 2, 2).degree == 0
    assert Polynomial.constant(3, 2, 3).degree == -1  # 3 = 0 mod 3


def test_term_normalization():
    P = Polynomial(3, 2, {(1, 0): 3, (0, 1): 4})
    assert P.terms == {(0, 1): 1}


def test_exponent_validation():
    with pytest.raises(ValidationError):
        Polynomial(2, 2, {(2, 0): 1})
    with pytest.raises(ValidationError):
        Polynomial(3, 2, {(1,): 1})


def test_string_exponent_key_refused():
    # "11" is not read digit by digit as the exponents (1, 1)
    with pytest.raises(ValidationError, match="string"):
        Polynomial(2, 2, {"11": 1})
    with pytest.raises(ValidationError, match="string"):
        Polynomial(3, 2, {(1, 0): 1, "20": 2})


def test_immutability():
    P = Polynomial(3, 2, {(1, 0): 1})
    with pytest.raises(AttributeError):
        P.p = 5


@given(polys(), st.data())
@settings(max_examples=25, deadline=None)
def test_deg_plus_one_derivatives_vanish(P, data):
    # each difference x -> P(x + h) - P(x) drops the degree, so d + 1 of them
    # in any directions leave the zero table
    x = np.arange(P.p**P.n)
    out = P.value_table()
    for _ in range(max(P.degree, 0) + 1):
        h = data.draw(st.integers(0, P.p**P.n - 1))
        out = (out[index_add(P.p, P.n, x, h)] - out) % P.p
    assert not out.any()


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_product_matches_pointwise(P, Q):
    if (P.p, P.n) != (Q.p, Q.n):
        return
    R = P * Q
    assert all(e < P.p for exps in R.terms for e in exps)
    pv, qv, rv = P.value_table(), Q.value_table(), R.value_table()
    assert np.array_equal(rv, (pv * qv) % P.p)


def test_fermat_reduction():
    x = Polynomial(2, 1, {(1,): 1})
    assert (x * x).terms == x.terms  # x^2 = x over F_2
    y = Polynomial(3, 1, {(2,): 1})
    assert (y * y).terms == {(2,): 1}  # x^4 = x^2 over F_3


@given(polys())
@settings(max_examples=40, deadline=None)
def test_value_table_matches_evaluate(P):
    table = P.value_table()
    for idx, x in enumerate(enumerate_vectors(P.p, P.n)):
        assert table[idx] == P.evaluate(x)
    pts = digit_table(P.p, P.n)
    assert np.array_equal(P.values_at(pts), table)


@pytest.mark.parametrize("p, m", [(2, 0), (2, 5), (3, 3), (5, 2)])
def test_coefficient_block_matches_product(p, m):
    rows = [list(r) for r in itertools.product(range(p), repeat=m)]
    assert coefficient_block(p, m, 0, len(rows)).tolist() == rows
    lo, hi = len(rows) // 3, 2 * len(rows) // 3 + 1
    assert coefficient_block(p, m, lo, hi).tolist() == rows[lo:hi]
    assert coefficient_block(p, m, lo, lo).shape == (0, m)


@pytest.mark.parametrize("p, n, d", [(2, 3, 3), (3, 2, 4), (5, 2, 3)])
def test_monomial_values_match_evaluate(p, n, d):
    monos = monomials_up_to(p, n, d)
    # unreduced coordinates are read mod p
    pts = np.random.default_rng(p * n).integers(-2 * p, 2 * p, size=(20, n))
    table = monomial_values(p, pts, monos)
    assert table.shape == (20, len(monos))
    for j, exps in enumerate(monos):
        mono = Polynomial(p, n, {exps: 1})
        assert table[:, j].tolist() == [mono.evaluate(x) for x in pts]
    assert monomial_values(p, pts, []).shape == (20, 0)


def test_homogeneous_flag():
    assert Polynomial(3, 2, {(1, 1): 1, (2, 0): 2}).is_homogeneous()
    assert not Polynomial(3, 2, {(1, 1): 1, (1, 0): 2}).is_homogeneous()
    assert Polynomial.zero(3, 2).is_homogeneous()


def test_text_round_trip():
    P = Polynomial(3, 2, {(1, 1): 1, (0, 2): 2})
    assert P.to_text() == "2*x2^2 + 1*x1*x2"
    assert Polynomial.from_text(3, 2, P.to_text()) == P
    assert Polynomial.from_text(3, 2, "0") == Polynomial.zero(3, 2)
    assert Polynomial.from_text(2, 2, "x1*x2 + 1") == Polynomial(
        2, 2, {(1, 1): 1, (0, 0): 1}
    )


def test_text_rejects_garbage():
    with pytest.raises(FormatError):
        Polynomial.from_text(3, 2, "x3")
    with pytest.raises(FormatError):
        Polynomial.from_text(3, 2, "1*y2")


def test_json_round_trip():
    P = Polynomial(5, 3, {(1, 2, 0): 4, (0, 0, 1): 1})
    obj = P.to_json_dict()
    assert obj["schema"] == "fpuniform/v1"
    assert Polynomial.from_json_dict(obj) == P


def test_json_error_pointer():
    with pytest.raises(FormatError) as exc:
        Polynomial.from_json_dict({"p": 3, "n": 2, "terms": [{"exps": [1]}]})
    assert "/terms/0" in str(exc.value)


def test_monomials_up_to():
    assert monomials_up_to(2, 2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert [e for e in monomials_up_to(3, 2, 2) if sum(e) == 2] == [(0, 2), (1, 1), (2, 0)]
    # exponent cap: no x^2 over F_2 even at degree 2
    assert monomials_up_to(2, 2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert family_size(2, 2, 1) == 8


def test_bias_product_golden():
    # e_2(x1x2) averages to (3 - 1)/4 over F_2^2
    P = Polynomial(2, 2, {(1, 1): 1})
    assert math.isclose(float(bias(P)), 0.5, abs_tol=1e-12)


def test_bias_linear_is_zero():
    P = Polynomial(5, 2, {(1, 0): 3})
    assert float(bias(P)) < 1e-12


def test_bias_constant_is_one():
    P = Polynomial(3, 2, {(0, 0): 2})
    assert math.isclose(float(bias(P)), 1.0, abs_tol=1e-12)


@given(polys(max_n=2))
@settings(max_examples=30, deadline=None)
def test_bias_invariant_under_constants(P):
    shifted = P + Polynomial.constant(P.p, P.n, 1)
    assert math.isclose(float(bias(P)), float(bias(shifted)), abs_tol=1e-12)


def test_bias_mc_tracks_exact():
    P = Polynomial(3, 3, {(1, 1, 0): 1, (0, 0, 2): 2})
    exact = float(bias(P))
    est = bias(P, samples=20000, seed=7)
    assert isinstance(est, BiasResult)
    assert est.stderr is not None
    assert abs(est.value - exact) < 5 * est.stderr + 1e-3


def test_bias_mc_needs_samples():
    P = Polynomial(2, 2, {(1, 1): 1})
    with pytest.raises(ValidationError, match="samples"):
        bias(P, samples=0)
