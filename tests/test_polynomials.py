import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform.errors import FormatError, ValidationError
from fpuniform.field import digit_table, digits, enumerate_vectors, index_add
from fpuniform.polynomials import (
    Polynomial,
    family_size,
    monomial_values,
    monomials_up_to,
    twisted_rows,
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
    assert Polynomial(3, 2, {(0, 0): 2}).degree == 0
    assert Polynomial(3, 2, {(0, 0): 3}).degree == -1  # 3 = 0 mod 3


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


@given(polys())
@settings(max_examples=40, deadline=None)
def test_value_table_matches_evaluate(P):
    table = P.value_table()
    for idx, x in enumerate(enumerate_vectors(P.p, P.n)):
        assert table[idx] == P.evaluate(x)
    pts = digit_table(P.p, P.n)
    assert np.array_equal(P.values_at(pts), table)


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


@pytest.mark.parametrize(
    "p, n, d, kind", [(2, 3, 2, "real"), (2, 4, 2, "real"), (2, 3, 2, "complex"), (2, 2, 0, "real"),
                      (3, 2, 2, "real"), (3, 1, 2, "complex")],
)
def test_twisted_rows_match_each_polynomial(p, n, d, kind):
    # row t is e_p(-Q_t) * values, Q_t the t-th coefficient vector over the
    # monomials in itertools.product order (first monomial most significant),
    # in blocks that split the listing; at p = 2 exactly +-values, in their dtype
    monos = [e for e in monomials_up_to(p, n, d) if any(e)]
    rng = np.random.default_rng(10 * p + n)
    values = rng.normal(size=p**n) + (1j * rng.normal(size=p**n) if kind == "complex" else 0)
    rows = twisted_rows(values, p, digit_table(p, n), monos)
    count = p ** len(monos)
    got = np.vstack([rows(lo, min(lo + 7, count)) for lo in range(0, count, 7)])
    for t, coeffs in enumerate(itertools.product(range(p), repeat=len(monos))):
        q = Polynomial.from_coefficients(p, n, monos, coeffs).value_table()
        if p == 2:
            assert got.dtype == values.dtype
            assert np.array_equal(got[t], np.where(q == 1, -values, values))
        else:
            assert np.allclose(got[t], np.exp(-2j * np.pi * q / p) * values, atol=1e-12)


@pytest.mark.parametrize("m", [8, 9, 16, 17, 32, 33])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_twisted_rows_at_two_flip_sign_bits(m, kind):
    # rows at p = 2 bit for bit against np.where(parity, -f, f), with m
    # monomials on both sides of the 8-, 16- and 32-bit index types, in blocks
    # at the start, across the top bit and at the end of the 2^m listing;
    # +-0.0 in both words of a complex value keep their sign bits
    n = 6
    monos = monomials_up_to(2, n, n)[1 : m + 1]
    pts = digit_table(2, n)
    rng = np.random.default_rng(m)
    values = rng.normal(size=2**n) + (0j if kind == "complex" else 0.0)
    values.real[:4] = [0.0, -0.0, 0.0, -0.0]
    if kind == "complex":
        values.imag[:] = rng.normal(size=2**n)
        values.imag[:4] = [0.0, 0.0, -0.0, -0.0]
    rows = twisted_rows(values, 2, pts, monos)
    table = monomial_values(2, pts, monos)
    top = 2**m
    for lo, hi in [(0, 6), (top // 2 - 3, top // 2 + 3), (top - 6, top)]:
        parity = digits(np.arange(lo, hi), 2, m) @ table.T % 2
        want = np.where(parity == 1, -values, values)
        got = rows(lo, hi)
        assert got.dtype == values.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

