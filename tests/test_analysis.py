"""Checks for Gowers norms, linear-form averages, and conditional averages.

Every nontrivial exact value is cross-checked against a direct enumeration
oracle written from the defining formulas, with no shared code paths.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform.analysis import (
    boundary_function,
    correlation_with_family,
    exponential_average,
    fourier_transform,
    gowers_norm,
    inner_product,
    inverse_fourier,
    linear_form_average,
    flagged_average,
)
from fpuniform.errors import BudgetExceededError, ValidationError
from fpuniform.field import enumerate_vectors, index_of
from fpuniform.linear_forms import (
    FlaggedSystem,
    LinearSystem,
    arithmetic_progression_system,
    cube_system,
)
from fpuniform.polynomials import Polynomial
from fpuniform.tables import (
    FunctionTable,
    character_table,
    phase_table,
    random_real_table,
    random_unit_table,
)


# ---------------------------------------------------------------- oracles

def u_norm_direct(f, k):
    """Box-average definition: average of conjugated values over all corners."""
    p, n = f.p, f.n
    points = enumerate_vectors(p, n)
    total = 0.0
    for box in itertools.product(points, repeat=k + 1):
        x, ys = box[0], box[1:]
        prod = 1.0
        for mask in range(1 << k):
            pt = list(x)
            bits = 0
            for i in range(k):
                if mask >> i & 1:
                    bits += 1
                    pt = [(a + b) % p for a, b in zip(pt, ys[i])]
            v = f.values[index_of(p, tuple(pt))]
            prod *= v if bits % 2 == k % 2 else np.conjugate(v)
        total += prod
    avg = total / p ** (n * (k + 1))
    return max(avg.real, 0.0) ** (1.0 / 2**k)


def t_direct(fs, system):
    p, n = fs[0].p, fs[0].n
    total = 0.0
    for xs in itertools.product(enumerate_vectors(p, n), repeat=system.k):
        prod = 1.0
        for f, form in zip(fs, system.forms):
            pt = tuple(sum(c * x[j] for c, x in zip(form, xs)) % p for j in range(n))
            prod *= f.values[index_of(p, pt)]
        total += prod
    return total / p ** (n * system.k)


def flagged_direct(f, fsys):
    """Conditional product average computed by raw enumeration over inputs."""
    p, n = f.p, f.n
    sums = np.zeros(p**n, dtype=complex)
    counts = np.zeros(p**n, dtype=float)
    for xs in itertools.product(enumerate_vectors(p, n), repeat=fsys.k):
        def at(form):
            return tuple(sum(c * x[j] for c, x in zip(form, xs)) % p for j in range(n))
        key = index_of(p, at(fsys.flag))
        prod = 1.0
        for form, mult in zip(fsys.forms, fsys.multiplicities):
            prod *= f.values[index_of(p, at(form))] ** mult
        sums[key] += prod
        counts[key] += 1
    vals = np.where(counts > 0, sums / np.maximum(counts, 1), 0)
    return vals


# ---------------------------------------------------------------- gowers

def test_u1_is_mean_modulus():
    f = random_unit_table(3, 1, seed=0)
    assert float(gowers_norm(f, 1)) == pytest.approx(abs(f.mean()), abs=1e-12)


def test_u2_of_bilinear_phase():
    f = phase_table(Polynomial(2, 2, {(1, 1): 1}))
    assert float(gowers_norm(f, 2)) == pytest.approx(2 ** -0.5, abs=1e-12)
    assert float(gowers_norm(f, 3)) == pytest.approx(1.0, abs=1e-12)


def test_gowers_constant_and_character():
    one = FunctionTable.constant(3, 2, 1.0)
    for k in (1, 2, 3):
        assert float(gowers_norm(one, k)) == pytest.approx(1.0, abs=1e-12)
    chi = character_table(3, 2, (1, 2))
    assert float(gowers_norm(chi, 2)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p,n,k", [(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 3), (2, 2, 3)])
def test_gowers_matches_direct(p, n, k):
    f = random_unit_table(p, n, seed=13 * p + n + k)
    got = float(gowers_norm(f, k))
    assert got == pytest.approx(u_norm_direct(f, k), abs=1e-10)


def test_gowers_monotone_and_bounded():
    for seed in range(4):
        f = random_unit_table(2, 3, seed=seed)
        u2 = float(gowers_norm(f, 2))
        u3 = float(gowers_norm(f, 3))
        assert 0 <= u2 <= u3 <= 1 + 1e-12


def test_gowers_phase_invariance():
    # multiplying by a phase of degree < k leaves the U^k norm unchanged
    f = random_unit_table(3, 2, seed=21)
    low = phase_table(Polynomial(3, 2, {(1, 0): 2, (0, 1): 1}))
    g = f * low
    assert float(gowers_norm(g, 2)) == pytest.approx(float(gowers_norm(f, 2)), abs=1e-12)
    quad = phase_table(Polynomial(3, 2, {(2, 0): 1, (1, 1): 1}))
    h = f * quad
    assert float(gowers_norm(h, 3)) == pytest.approx(float(gowers_norm(f, 3)), abs=1e-10)


def test_gowers_budget_and_validation():
    big = FunctionTable.constant(2, 8, 1.0)
    with pytest.raises(BudgetExceededError):
        gowers_norm(big, 3)
    f = FunctionTable.constant(2, 1, 1.0)
    with pytest.raises(ValidationError):
        gowers_norm(f, 0)
    with pytest.raises(ValidationError):
        gowers_norm(f, 2, mode="sideways")
    with pytest.raises(ValidationError):
        gowers_norm(f, 2, mode="mc")  # samples required


def test_gowers_mc_tracks_exact():
    f = random_unit_table(2, 4, seed=5)
    exact = float(gowers_norm(f, 2))
    rep = gowers_norm(f, 2, mode="mc", samples=4000, seed=5)
    assert rep.stderr is not None and rep.stderr > 0
    assert abs(float(rep) - exact) < 5 * rep.stderr
    again = gowers_norm(f, 2, mode="mc", samples=4000, seed=5)
    assert float(rep) == float(again)


def test_gowers_mc_large_instance_runs():
    f = random_unit_table(2, 8, seed=1)
    rep = gowers_norm(f, 3, mode="mc", samples=500, seed=2)
    assert 0 <= float(rep) <= 1.2


# ---------------------------------------------------------------- fourier

def test_fourier_of_character_is_dirac():
    chi = character_table(3, 2, (2, 1))
    fhat = fourier_transform(chi)
    spike = index_of(3, (2, 1))
    assert fhat[spike] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(fhat, spike)
    assert np.max(np.abs(others)) < 1e-12


def test_parseval_and_inversion():
    for seed in range(3):
        f = random_unit_table(2, 3, seed=seed)
        fhat = fourier_transform(f)
        assert np.sum(np.abs(fhat) ** 2) == pytest.approx(np.mean(np.abs(f.values) ** 2), abs=1e-10)
        back = inverse_fourier(f.p, f.n, fhat)
        assert np.allclose(back.values, f.values, atol=1e-12)


def test_inner_product():
    f = random_unit_table(2, 2, seed=1)
    g = random_unit_table(2, 2, seed=2)
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)
    assert inner_product(f, g) == pytest.approx(np.conjugate(inner_product(g, f)), abs=1e-12)


# ---------------------------------------------------------------- correlation

def test_linear_family_recovers_character():
    chi = character_table(2, 2, (1, 0))
    rep = correlation_with_family(chi, degree=1)
    assert float(rep) == pytest.approx(1.0, abs=1e-12)
    assert rep.best.degree == 1
    assert rep.best.terms == {(1, 0): 1}


def test_quadratic_family_recovers_phase():
    f = phase_table(Polynomial(3, 1, {(2,): 1}))
    rep = correlation_with_family(f, degree=2)
    assert float(rep) == pytest.approx(1.0, abs=1e-12)
    assert rep.best.terms == {(2,): 1}
    assert rep.family_size == 9  # nonconstant part of coefficient space, 3^2


def test_explicit_polys_match_degree_path():
    f = random_unit_table(2, 2, seed=6)
    by_degree = correlation_with_family(f, degree=1)
    all_linear = [
        Polynomial(2, 2, {exps: c for exps, c in zip([(1, 0), (0, 1)], coeffs) if c})
        for coeffs in itertools.product(range(2), repeat=2)
    ]
    by_list = correlation_with_family(f, polys=all_linear)
    assert float(by_list) == pytest.approx(float(by_degree), abs=1e-12)


def test_inverse_u2_lower_bound():
    # the largest Fourier coefficient is at least the square of the U^2 norm
    for seed in range(5):
        f = random_unit_table(2, 3, seed=seed)
        u2 = float(gowers_norm(f, 2))
        u1 = float(correlation_with_family(f, degree=1))
        assert u1 >= u2**2 - 1e-12


def test_correlation_mc_is_lower_bound():
    f = phase_table(Polynomial(3, 1, {(2,): 1}))
    family = [
        Polynomial(3, 1, {exps: c for exps, c in zip([(1,), (2,)], coeffs) if c})
        for coeffs in itertools.product(range(3), repeat=2)
        if any(coeffs)
    ]
    rep = correlation_with_family(f, polys=family, mode="mc", samples=200, seed=0)
    assert float(rep) <= 1.0 + 5 * (rep.stderr + 1e-12)
    assert float(rep) > 0.5
    assert rep.best.terms == {(2,): 1}


def test_correlation_validation():
    f = random_unit_table(3, 1, seed=0)
    with pytest.raises(ValidationError):
        correlation_with_family(f, degree=3)  # degree must stay below p
    with pytest.raises(ValidationError):
        correlation_with_family(f, degree=0)
    with pytest.raises(ValidationError):
        correlation_with_family(f)
    with pytest.raises(ValidationError):
        correlation_with_family(f, degree=1, polys=[Polynomial.zero(3, 1)])
    with pytest.raises(ValidationError):
        correlation_with_family(f, degree=2, mode="mc", samples=10)
    with pytest.raises(BudgetExceededError):
        correlation_with_family(random_unit_table(5, 4, seed=0), degree=3)


# ---------------------------------------------------------------- averages

def test_ap3_average_of_quadratic_phase():
    f = phase_table(Polynomial(3, 1, {(2,): 1}))
    system = arithmetic_progression_system(3, 3)
    # x^2 + (x+y)^2 + (x+2y)^2 = 2y^2 mod 3, so the average is a Gauss sum
    val = complex(linear_form_average(f, system))
    direct = t_direct([f] * 3, system)
    assert val == pytest.approx(direct, abs=1e-12)
    assert abs(val) == pytest.approx(3 ** -0.5, abs=1e-12)


@pytest.mark.parametrize(
    "p,n,forms",
    [
        (2, 2, [(1, 0), (0, 1), (1, 1)]),
        (3, 1, [(1, 0), (1, 1), (1, 2)]),
        (2, 2, [(1, 0), (0, 1)]),
    ],
)
def test_average_matches_direct(p, n, forms):
    k = len(forms[0])
    system = LinearSystem(p, k, forms)
    fs = [random_unit_table(p, n, seed=40 + i) for i in range(len(forms))]
    got = complex(linear_form_average(fs, system))
    assert got == pytest.approx(t_direct(fs, system), abs=1e-12)


def test_average_with_conjugation():
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    fs = [random_unit_table(2, 2, seed=50 + i) for i in range(3)]
    got = complex(linear_form_average(fs, system, conjugations=(False, True, False)))
    direct = t_direct([fs[0], fs[1].conjugate(), fs[2]], system)
    assert got == pytest.approx(direct, abs=1e-12)


def test_average_tensor_multiplicativity():
    system = arithmetic_progression_system(3, 3)
    f = random_unit_table(3, 1, seed=3)
    g = random_unit_table(3, 1, seed=4)
    lhs = complex(linear_form_average(f.tensor_product(g), system))
    rhs = complex(linear_form_average(f, system)) * complex(linear_form_average(g, system))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_average_component_factoring_consistent():
    # two independent forms split into singleton components
    system = LinearSystem(2, 2, [(1, 0), (0, 1)])
    f = random_unit_table(2, 3, seed=8)
    fast = complex(linear_form_average(f, system))
    assert fast == pytest.approx(t_direct([f, f], system), abs=1e-12)
    assert fast == pytest.approx(f.mean() ** 2, abs=1e-12)


def test_average_gcs_bound():
    # |t_L(f)| is controlled by the Gowers norm of order cs+1 (here cs = 1)
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    for seed in range(4):
        f = random_unit_table(2, 3, seed=seed)
        t = abs(complex(linear_form_average(f, system)))
        u2 = float(gowers_norm(f, 2))
        assert t <= u2 + 1e-10


def test_average_budget():
    # {x, y, z, x+y+z} is connected, so its honest cost is 2^(12 * 3)
    f = FunctionTable.constant(2, 12, 1.0)
    system = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    with pytest.raises(BudgetExceededError):
        linear_form_average(f, system)


def test_average_mc_tracks_exact():
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    f = random_unit_table(2, 4, seed=11)
    exact = complex(linear_form_average(f, system))
    rep = linear_form_average(f, system, mode="mc", samples=3000, seed=11)
    assert abs(complex(rep) - exact) < 5 * rep.stderr


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gowers_mc_is_cube_system_average(p, n, k):
    f = random_unit_table(p, n, seed=p + k)
    conj = [(k - bin(mask).count("1")) % 2 for mask in range(2**k)]
    for samples in (1, 257):
        rep = gowers_norm(f, k, mode="mc", samples=samples, seed=9)
        avg = linear_form_average(
            f, cube_system(p, k), conj, mode="mc", samples=samples, seed=9
        )
        assert rep.power == max(avg.value.real, 0.0)
        assert rep.cost == avg.cost == samples * 2**k


def test_average_validation():
    f = random_unit_table(2, 2, seed=0)
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValidationError):
        linear_form_average([f, f], system)  # wrong count
    with pytest.raises(ValidationError):
        linear_form_average(f, system, conjugations=(True,))
    g = random_unit_table(3, 2, seed=0)
    with pytest.raises(ValidationError):
        linear_form_average(g, system)  # field mismatch


# ------------------------------------------------------- exponential sums

def test_exponential_average_bridge():
    # e_p(beta . f(L(x))) with beta = +/-1 agrees with the product average of
    # the phase table and its conjugates
    P = Polynomial(2, 2, {(1, 1): 1, (1, 0): 1})
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    lhs = complex(exponential_average(P, system, beta=(1, 1, 1)))
    f = phase_table(P)
    rhs = complex(linear_form_average(f, system))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # beta reduces mod p, so beta_i = 2 over F_2 turns that factor constant
    lhs2 = complex(exponential_average(P, system, beta=(1, 2, 1)))
    one = FunctionTable.constant(2, 2, 1.0)
    rhs2 = complex(linear_form_average([f, one, f], system))
    assert lhs2 == pytest.approx(rhs2, abs=1e-12)


def test_exponential_average_signs():
    P = Polynomial(3, 1, {(2,): 1})
    system = arithmetic_progression_system(3, 3)
    f = phase_table(P)
    lhs = complex(exponential_average(P, system, beta=(1, 2, 1)))
    rhs = complex(linear_form_average([f, f.conjugate(), f], system))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_exponential_average_zero_beta():
    P = Polynomial(3, 1, {(2,): 1})
    system = arithmetic_progression_system(3, 3)
    assert complex(exponential_average(P, system, beta=(0, 0, 0))) == pytest.approx(1.0)


def test_exponential_average_accepts_integer_table():
    system = LinearSystem(2, 1, [(1,)])
    tab = FunctionTable(2, 1, [0, 1])
    val = complex(exponential_average(tab, system, beta=(1,)))
    assert val == pytest.approx(0.0, abs=1e-12)  # (1 + e_2(1))/2
    with pytest.raises(ValidationError):
        exponential_average(random_unit_table(2, 1, seed=0), system, beta=(1,))


# ------------------------------------------------------ flagged averages

def test_flagged_identity_form():
    f = random_unit_table(2, 2, seed=14)
    fsys = FlaggedSystem(2, 2, [(1, 0)], (1, 0))
    g = flagged_average(f, fsys)
    assert np.allclose(g.values, f.values, atol=1e-14)


def test_flagged_multiplicity_squares():
    f = random_unit_table(2, 2, seed=15)
    fsys = FlaggedSystem(2, 2, [(1, 0)], (1, 0), multiplicities=(2,))
    g = flagged_average(f, fsys)
    assert np.allclose(g.values, f.values**2, atol=1e-14)


def test_flagged_flag_outside_span_gives_constant():
    f = random_unit_table(2, 2, seed=16)
    fsys = FlaggedSystem(2, 2, [(1, 0)], (0, 1))
    g = flagged_average(f, fsys)
    assert np.allclose(g.values, f.mean(), atol=1e-14)


@pytest.mark.parametrize(
    "p,n,forms,flag",
    [
        (2, 2, [(0, 1), (1, 1)], (1, 0)),
        (3, 1, [(1, 1), (1, 2)], (1, 0)),
        (2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], (0, 0, 1)),
    ],
)
def test_flagged_matches_direct(p, n, forms, flag):
    f = random_unit_table(p, n, seed=60 + n)
    fsys = FlaggedSystem(p, len(forms[0]), forms, flag)
    got = flagged_average(f, fsys)
    assert np.allclose(got.values, flagged_direct(f, fsys), atol=1e-12)


def test_flagged_product_identity():
    # pointwise product of two conditional averages equals the conditional
    # average of the combined system on disjoint blocks
    from fpuniform.linear_forms import flagged_product

    a = FlaggedSystem(2, 2, [(0, 1), (1, 1)], (1, 0))
    b = FlaggedSystem(2, 1, [(1,)], (1,), multiplicities=(2,))
    f = random_unit_table(2, 2, seed=17)
    combined = flagged_product(a, b)
    lhs = flagged_average(f, a) * flagged_average(f, b)
    rhs = flagged_average(f, combined)
    assert np.allclose(lhs.values, rhs.values, atol=1e-12)


# ---------------------------------------------------------------- boundary

def test_boundary_single_form_is_constant_one():
    f = random_unit_table(2, 2, seed=18)
    g = boundary_function(f, LinearSystem(2, 1, [(1,)]))
    assert np.allclose(g.values, 1.0, atol=1e-14)


def test_boundary_two_forms_golden():
    # removing either form from {x, x+y} leaves a single form independent of
    # the removed one, so both terms contribute the plain mean
    f = random_real_table(2, 2, seed=19)
    g = boundary_function(f, LinearSystem(2, 2, [(1, 0), (1, 1)]))
    assert np.allclose(g.values, 2 * f.mean(), atol=1e-14)


def boundary_direct(f, system):
    total = np.zeros(f.p**f.n, dtype=complex)
    for i in range(system.m):
        rest, removed = system.without(i)
        if rest is None:
            total += 1.0
        else:
            fsys = FlaggedSystem(system.p, system.k, rest.forms, removed)
            total += flagged_direct(f, fsys)
    return total


@pytest.mark.parametrize(
    "p,n,forms",
    [
        (2, 2, [(1, 0), (0, 1), (1, 1)]),
        (3, 1, [(1, 0), (1, 1), (1, 2)]),
    ],
)
def test_boundary_matches_direct(p, n, forms):
    f = random_unit_table(p, n, seed=70 + n)
    system = LinearSystem(p, len(forms[0]), forms)
    got = boundary_function(f, system)
    assert np.allclose(got.values, boundary_direct(f, system), atol=1e-12)


def test_boundary_is_derivative_of_average():
    # d/dt t_L(f + t g) at t=0 equals E[g * boundary] for real f and g
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    f = random_real_table(2, 2, seed=20, low=0.2, high=0.8)
    g = random_real_table(2, 2, seed=21, low=-1.0, high=1.0)
    h = 1e-6
    plus = complex(linear_form_average(f + h * g, system)).real
    minus = complex(linear_form_average(f + (-h) * g, system)).real
    numeric = (plus - minus) / (2 * h)
    bdry = boundary_function(f, system)
    analytic = np.mean(g.values * bdry.values).real
    assert numeric == pytest.approx(analytic, abs=1e-6)


@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_flagged_mean_consistency(seed):
    # averaging the conditional average against the flag marginal recovers
    # the unconditional product average
    f = random_unit_table(2, 2, seed=seed)
    forms = [(0, 1), (1, 1)]
    fsys = FlaggedSystem(2, 2, forms, (1, 0))
    g = flagged_average(f, fsys)
    t = complex(linear_form_average(f, LinearSystem(2, 2, forms)))
    assert g.mean() == pytest.approx(t, abs=1e-12)
