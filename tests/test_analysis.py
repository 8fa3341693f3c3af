"""Checks for Gowers norms, linear-form averages, and conditional averages.

Every nontrivial exact value is cross-checked against a direct enumeration
oracle written from the defining formulas, with no shared code paths.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpuniform import analysis, config
from fpuniform import rng as rng_module
from fpuniform.analysis import (
    _average_on_side,
    _best_in_part,
    _fp_transform,
    _u_power,
    boundary_function,
    correlation_with_family,
    exponential_average,
    fourier_transform,
    gowers_norm,
    inner_product,
    linear_form_average,
    flagged_average,
)
from fpuniform.config import FLOAT_TOL, budget
from fpuniform.errors import BudgetExceededError, ValidationError
from fpuniform.field import (
    digit_table,
    enumerate_vectors,
    index_combination,
    index_of,
    place_values,
)
from fpuniform.linear_forms import (
    FlaggedSystem,
    LinearSystem,
    arithmetic_progression_system,
    connected_components,
    cube_system,
)
from fpuniform.polynomials import Polynomial, monomials_up_to
from fpuniform.rng import as_rng
from fpuniform.tables import (
    FunctionTable,
    phase_table,
    random_real_table,
    random_unit_table,
)
from fpuniform.testers import DistributionalFunction


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


def ledger_totals(fn, *args):
    """fn(*args) in a ledger of its own, and the ledger's running total after
    each charge that `analysis` makes."""
    totals = []

    def spy(cost, what):
        config.charge(cost, what)
        totals.append(totals[-1] + cost if totals else cost)

    limit = config.DEFAULT_BUDGET
    with pytest.MonkeyPatch.context() as mp, budget(limit):
        mp.setattr(analysis, "charge", spy)
        got = fn(*args)
        # the ledger holds the last total: exactly that much of it is spent
        assert config.fits(limit - totals[-1]) and not config.fits(limit - totals[-1] + 1)
    return got, totals


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
    assert float(gowers_norm(f, 1)) == pytest.approx(abs(f.values.mean()), abs=1e-12)


def test_u2_of_bilinear_phase():
    f = phase_table(Polynomial(2, 2, {(1, 1): 1}))
    assert float(gowers_norm(f, 2)) == pytest.approx(2 ** -0.5, abs=1e-12)
    assert float(gowers_norm(f, 3)) == pytest.approx(1.0, abs=1e-12)


def test_gowers_constant_and_character():
    one = FunctionTable.constant(3, 2, 1.0)
    for k in (1, 2, 3):
        assert float(gowers_norm(one, k)) == pytest.approx(1.0, abs=1e-12)
    chi = phase_table(Polynomial(3, 2, {(1, 0): 1, (0, 1): 2}))
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
    # exact U^4 costs C(N + 1, 2) * N derivative values, one row per orbit:
    # about 6.7e7 here
    big = FunctionTable.constant(2, 9, 1.0)
    with pytest.raises(BudgetExceededError):
        gowers_norm(big, 4)
    f = FunctionTable.constant(2, 1, 1.0)
    with pytest.raises(ValidationError):
        gowers_norm(f, 0)
    for samples in (0, -1):
        with pytest.raises(ValidationError, match="samples"):
            gowers_norm(f, 2, samples=samples)


@pytest.mark.parametrize(
    "p,n,k",
    [
        (2, 2, 4), (2, 1, 5), (3, 1, 4), (5, 1, 3), (2, 2, 3),
        (2, 2, 5), (3, 2, 3), (3, 1, 5), (5, 1, 4), (5, 1, 5),
    ],
)
def test_batched_u_power_matches_direct(p, n, k, monkeypatch):
    # k = 3..5 at p = 2, 3, 5 on a complex table of varying modulus, with the
    # orbit tuples in one block and in two blocks whose last is partial
    rng = np.random.default_rng(100 * p + 10 * n + k)
    f = FunctionTable(p, n, rng.normal(size=p**n) + 1j * rng.normal(size=p**n))
    want = u_norm_direct(f, k)
    assert _u_power(f.values, p, n, k) ** (1 / 2**k) == pytest.approx(want, rel=1e-10)
    count = analysis._orbit_count(p, n, k, 2**64)
    assert count >= 3
    monkeypatch.setattr(analysis, "_CHUNK", (count // 2 + 1) * p**n)
    assert _u_power(f.values, p, n, k) ** (1 / 2**k) == pytest.approx(want, rel=1e-10)


def box_power_f2(values, k):
    """||f||_{U^k}^{2^k} of a real f on F_2^n from the box average with its last
    direction summed out, E_{y_1..y_{k-1}} (E_x prod_omega f(x + omega.y))^2:
    the products are built one direction at a time by XOR, with no transform."""
    N = len(values)
    x = np.arange(N)
    shift = x[:, None] ^ x[None, :]
    total = 0.0
    for y1 in range(N):
        rows = (values[x ^ y1] * values)[None, :]
        for _ in range(k - 2):
            rows = (rows[:, shift] * rows[:, None, :]).reshape(-1, N)
        total += float(np.square(rows.mean(axis=1)).sum())
    return total / N ** (k - 1)


def spy_transform_dtypes(monkeypatch):
    """The dtypes of the arrays _fp_transform receives, as they arrive."""
    seen, transform = [], analysis._fp_transform

    def spy(values, *args, **kwargs):
        seen.append(np.asarray(values).dtype)
        return transform(values, *args, **kwargs)

    monkeypatch.setattr(analysis, "_fp_transform", spy)
    return seen


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_u_power_of_real_table_at_two_matches_box_average(n, k, monkeypatch):
    # the float64 route; n = 5 fills one digit group of the transform (b = 5),
    # n = 4 and 6 sit next to it
    f = random_real_table(2, n, seed=10 * n + k)
    want = box_power_f2(f.values.real, k)
    if n <= 2 or (n == 3 and k == 3):
        assert want == pytest.approx(u_norm_direct(f, k) ** 2**k, rel=1e-12)
    seen = spy_transform_dtypes(monkeypatch)
    assert _u_power(f.values, 2, n, k) == pytest.approx(want, rel=1e-12)
    assert seen and set(seen) == {np.dtype(np.float64)}


@pytest.mark.parametrize("p,n,k", [(2, 2, 4), (2, 3, 3), (3, 2, 4), (5, 1, 5), (7, 1, 4)])
def test_orbit_count_is_the_number_of_orbits(p, n, k):
    # orbits of (y_1..y_{k-2}) under permutations and y_i -> -y_i, by brute force
    N = p**n
    neg = next(index_combination(p, n, [[-1]], [np.arange(N)]))
    orbits = {
        tuple(sorted(min(y, int(neg[y])) for y in ys))
        for ys in itertools.product(range(N), repeat=k - 2)
    }
    assert analysis._orbit_count(p, n, k, 2**64) == len(orbits)
    rep = gowers_norm(random_unit_table(p, n, seed=k), k)
    assert rep.cost == N * len(orbits) and rep.path == "orbit"


def test_gowers_huge_k_is_charged_its_entries():
    # on F_2^1 the orbit tuples are few (k - 1 of them) but long: each is
    # charged its k - 2 entries, so a huge k is refused at once
    one = FunctionTable.constant(2, 1, 1.0)
    rep = gowers_norm(one, 200)
    assert rep.value == 1.0 and rep.cost == 199 * 198
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        gowers_norm(one, 100000)
    with pytest.raises(BudgetExceededError):
        gowers_norm(random_unit_table(2, 10, seed=0), 10**6)
    assert time.perf_counter() - start < 1.0


def test_gowers_unit_table_at_large_k_is_finite():
    # a derivative row of depth j is a product of 2^j unit values, whose
    # rounding compounded into "U^200 power is not finite" while U^60 was 1.0
    f = random_unit_table(2, 1, seed=1)
    assert abs(gowers_norm(f, 200).value - 1) <= 1e-9
    # U^k stays nondecreasing and at most 1 across the depth where rows are
    # divided by their modulus (13), and a quadratic phase keeps U^k = 1
    g = random_unit_table(3, 1, seed=2)
    values = [gowers_norm(g, k).value for k in range(10, 20)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] <= 1 + 1e-12
    quad = phase_table(Polynomial(3, 2, {(1, 1): 1, (2, 0): 2}))
    assert abs(gowers_norm(quad, 16).value - 1) <= 1e-9


def test_orbit_count_stops_above_its_cap():
    exact = math.comb(2**10 + 97, 98)
    assert analysis._orbit_count(2, 10, 100, 2**10000) == exact
    bound = analysis._orbit_count(2, 10, 100, 2**64)
    assert 2**64 < bound < exact


def test_gowers_path_names_the_algorithm():
    f = random_unit_table(3, 2, seed=4)
    assert [gowers_norm(f, k).path for k in (1, 2, 3)] == ["direct", "direct", "orbit"]
    assert [gowers_norm(f, k).cost for k in (1, 2, 3)] == [9, 9, 9 * 5]
    assert gowers_norm(f, 3, samples=10).path == "sampled"


def test_gowers_mc_tracks_exact():
    f = random_unit_table(2, 4, seed=5)
    exact = float(gowers_norm(f, 2))
    rep = gowers_norm(f, 2, samples=4000, seed=5)
    assert rep.stderr is not None and rep.stderr > 0
    assert abs(float(rep) - exact) < 5 * rep.stderr
    again = gowers_norm(f, 2, samples=4000, seed=5)
    assert float(rep) == float(again)


def test_gowers_mc_large_instance_runs():
    f = random_unit_table(2, 8, seed=1)
    rep = gowers_norm(f, 3, samples=500, seed=2)
    assert 0 <= float(rep) <= 1.2


# ---------------------------------------------------------------- fourier

def test_fourier_of_character_is_dirac():
    chi = phase_table(Polynomial(3, 2, {(1, 0): 2, (0, 1): 1}))
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
        # f(x) = sum_alpha f_hat(alpha) e_p(alpha . x), by the exponent matrix
        back = naive_dft(fhat, f.p, f.n, inverse=True)
        assert np.allclose(back, f.values, atol=1e-12)


def test_fourier_transform_is_complex_for_real_tables():
    # the report prints [re, im] pairs, so a real table at p = 2 still
    # gives complex128, equal to the real transform
    f = random_real_table(2, 6, seed=2)
    fhat = fourier_transform(f)
    assert fhat.dtype == np.complex128 and not fhat.imag.any()
    assert np.allclose(fhat, naive_dft(f.values, 2, 6, inverse=False) / 64, atol=1e-12)


def test_fourier_transform_charges_its_points():
    f = random_unit_table(5, 2, seed=1)
    with pytest.raises(BudgetExceededError) as exc, budget(24):
        fourier_transform(f)
    assert (exc.value.cost, exc.value.budget) == (25, 24)
    with budget(25):
        hat = fourier_transform(f)
    assert np.array_equal(hat, fourier_transform(f))


def naive_dft(rows, p, n, inverse):
    """sum_x rows(x) e_p(-+alpha . x) by the N x N matrix of exponents alpha . x,
    built in column blocks, with indices in enumeration order."""
    digits = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    digits = digits.reshape(p**n, n)
    roots = np.exp((2j if inverse else -2j) * np.pi * np.arange(p) / p)
    out = np.empty(rows.shape, dtype=np.complex128)
    for lo in range(0, p**n, 128):
        out[..., lo : lo + 128] = rows @ roots[digits @ digits[lo : lo + 128].T % p]
    return out


TRANSFORM_CASES = [
    (p, n)
    for p in (2, 3, 5, 7, 11, 13, 97, 101)
    for n in range(6)
    if p**n <= 2500
] + [(2, 7), (2, 10), (3, 6)]


@pytest.mark.parametrize("p,n", TRANSFORM_CASES)
def test_fp_transform_matches_naive_dft(p, n):
    # digit groups of every size, partial groups included, on both sides of
    # the cross-over to fftn; 1-D and batched, real and complex input; a
    # transform that may overwrite its input gives the same bits
    N = p**n
    rng = np.random.default_rng(p + 7 * n)
    real = rng.normal(size=(3, N))
    for rows in (real, real + 1j * rng.normal(size=(3, N))):
        want = naive_dft(rows, p, n, inverse=False)
        scale = np.abs(want).max()
        got = _fp_transform(rows, p, n)
        # real input stays real only at p = 2, where every character is +-1
        assert got.dtype == (np.float64 if p == 2 and rows is real else np.complex128)
        assert np.abs(got - want).max() <= 1e-12 * scale
        assert np.array_equal(_fp_transform(rows.copy(), p, n, overwrite=True), got)
        assert np.abs(_fp_transform(rows[1], p, n) - want[1]).max() <= 1e-12 * scale


@pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 4), (3, 0), (3, 3), (5, 2)])
def test_fp_transform_matches_fftn(p, n):
    rng = np.random.default_rng(p + 7 * n)
    rows = rng.normal(size=(5, p**n)) + 1j * rng.normal(size=(5, p**n))
    cube = rows.reshape((5,) + (p,) * n)
    axes = tuple(range(1, n + 1))
    want = np.fft.fftn(cube, axes=axes).reshape(5, -1)
    assert np.allclose(_fp_transform(rows, p, n), want, atol=1e-12)
    assert np.allclose(_fp_transform(rows[0], p, n), want[0], atol=1e-12)


def test_inner_product():
    f = random_unit_table(2, 2, seed=1)
    g = random_unit_table(2, 2, seed=2)
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)
    assert inner_product(f, g) == pytest.approx(np.conjugate(inner_product(g, f)), abs=1e-12)


# ---------------------------------------------------------------- correlation

def nonconstant_family(p, n, d):
    """Every coefficient vector over the nonconstant monomials of degree <= d,
    in the order the degree path lists them."""
    monos = [e for e in monomials_up_to(p, n, d) if any(e)]
    return [
        Polynomial.from_coefficients(p, n, monos, coeffs)
        for coeffs in itertools.product(range(p), repeat=len(monos))
    ]


def homogeneous_family(p, n, d):
    """Every nonzero polynomial whose monomials share one total degree j <= d,
    j ascending, each j in coefficient order over its sorted monomials."""
    out = []
    for j in range(1, d + 1):
        monos = [e for e in itertools.product(range(p), repeat=n) if sum(e) == j]
        out.extend(
            Polynomial.from_coefficients(p, n, monos, coeffs)
            for coeffs in itertools.product(range(p), repeat=len(monos))
            if any(coeffs)
        )
    return out


def best_in_list(f, polys):
    """Reference scorer: the first maximizer of |<f, e_p(g)>| in list order,
    each g scored by its own phase table; returns (value, polynomial)."""
    best_val, best_g = -1.0, None
    for g in polys:
        phase = np.exp(2j * np.pi * g.value_table() / f.p)
        val = abs(np.vdot(phase, f.values)) / len(f.values)
        if val > best_val:
            best_val, best_g = val, g
    return best_val, best_g


def test_linear_family_recovers_character():
    chi = phase_table(Polynomial(2, 2, {(1, 0): 1}))
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


@pytest.mark.parametrize(
    "p, n, d, table",
    [
        (2, 2, 1, random_unit_table),
        (2, 3, 2, random_unit_table),
        (3, 2, 2, random_unit_table),
        (3, 2, 2, random_real_table),
        (2, 3, 3, random_unit_table),
        (5, 1, 2, random_unit_table),
    ],
)
def test_explicit_polys_match_degree_path(p, n, d, table):
    # the degree path (enumerate degree >= 2, FFT over the linear part)
    # against every nonconstant coefficient vector scored one by one
    f = table(p, n, seed=6)
    by_degree = correlation_with_family(f, degree=d)
    family = nonconstant_family(p, n, d)
    by_list = best_in_list(f, family)[0]
    assert float(by_degree) == pytest.approx(by_list, abs=1e-12)
    assert by_degree.family_size == len(family)
    attained = abs(inner_product(f, phase_table(by_degree.best)))
    assert attained == pytest.approx(float(by_degree), abs=1e-12)


@pytest.mark.parametrize("n, d", [(2, 1), (5, 1), (6, 1), (2, 2), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_real_table_at_two_correlation_matches_enumeration(n, d):
    # the bit-parity scorer on float64 rows against every polynomial of the
    # family scored by its own phase table, value and first maximizer
    f = random_real_table(2, n, seed=n + 10 * d)
    rep = correlation_with_family(f, degree=d)
    value, best = best_in_list(f, nonconstant_family(2, n, d))
    assert float(rep) == pytest.approx(value, abs=1e-12)
    assert rep.best == best


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 2), (3, 4), (4, 4), (4, 7)])
def test_degree_path_breaks_exact_ties_in_listing_order(n, seed):
    # a +-1 table on F_2^n scores exactly, with many ties; the winner is the
    # first tied polynomial of the family's listing, as on the explicit path
    signs = np.where(random_real_table(2, n, seed=seed).values > 0, 1.0, -1.0)
    f = FunctionTable(2, n, signs, codomain="real")
    by_list = best_in_list(f, nonconstant_family(2, n, 2))[1]
    assert correlation_with_family(f, degree=2).best == by_list


@pytest.mark.parametrize("p, n, d", [(3, 2, 2), (3, 3, 2), (5, 2, 2)])
def test_degree_path_ties_within_float_tolerance(p, n, d):
    # for a real table g and -g score the same in exact arithmetic, and
    # summation order alone separates them; scores within FLOAT_TOL of the
    # maximum, relative to it, tie, and the first in listing order wins
    monos = [e for e in monomials_up_to(p, n, d) if any(e)]
    coeffs = np.array(list(itertools.product(range(p), repeat=len(monos))))
    pts = np.array(list(itertools.product(range(p), repeat=n)))
    values = coeffs @ np.prod(pts[:, None, :] ** np.array(monos), axis=2).T % p
    phases = np.exp(2j * np.pi * values / p)
    for seed in range(20):
        f = random_real_table(p, n, seed=seed)
        scores = np.abs(phases.conj() @ f.values) / len(f.values)
        first = np.flatnonzero(scores >= scores.max() * (1 - FLOAT_TOL))[0]
        best = Polynomial.from_coefficients(p, n, monos, coeffs[first])
        assert correlation_with_family(f, degree=d).best == best


def mean_dominated_table(p, n, seed):
    # the zero polynomial scores |mean| ~ 1 here, above every nonzero member
    return FunctionTable(p, n, 1.0 + 0.1 * random_unit_table(p, n, seed=seed).values)


@pytest.mark.parametrize(
    "p, n, d, table",
    [
        (2, 3, 2, random_unit_table),
        (2, 4, 3, random_real_table),
        (2, 3, 2, mean_dominated_table),
        (3, 2, 2, random_unit_table),
        (3, 2, 3, random_real_table),
        (3, 2, 2, mean_dominated_table),
        (5, 1, 3, random_unit_table),
        (5, 2, 2, random_real_table),
        (5, 2, 2, mean_dominated_table),
    ],
)
def test_homogeneous_family_matches_listing(p, n, d, table):
    f = table(p, n, seed=3)
    family = homogeneous_family(p, n, d)
    rep = correlation_with_family(f, d, homogeneous=True)
    assert float(rep) == pytest.approx(best_in_list(f, family)[0], abs=1e-12)
    assert rep.family_size == len(family)
    assert rep.best in family
    attained = abs(inner_product(f, phase_table(rep.best)))
    assert attained == pytest.approx(float(rep), abs=1e-12)


@pytest.mark.parametrize("n, d, seed", [(3, 2, 1), (3, 2, 3), (4, 2, 2), (4, 3, 6), (5, 2, 10)])
def test_homogeneous_family_breaks_ties_in_listing_order(n, d, seed):
    # +-1 tables on F_2^n score exactly; each case has maximizers of two
    # different degrees, so the winner must come from the earlier part
    signs = np.where(random_real_table(2, n, seed=seed).values > 0, 1.0, -1.0)
    f = FunctionTable(2, n, signs, codomain="real")
    family = homogeneous_family(2, n, d)
    top, first = best_in_list(f, family)
    tied = [g for g in family if abs(abs(inner_product(f, phase_table(g))) - top) < 1e-12]
    assert len({g.degree for g in tied}) >= 2
    assert correlation_with_family(f, d, homogeneous=True).best == first


def part_survivors(f, upper, free, skip_zero):
    """Reference for _best_in_part: every polynomial of the part in listing
    order (coefficient vectors over the sorted monomials, the linear ones
    only when `free`), each scored by its own phase table; a pair survives
    when it scores above every pair listed before it and within FLOAT_TOL of
    the part's maximum, relative to it."""
    n = f.n
    linear = [tuple(int(i == j) for j in range(n)) for i in range(n)] if free else []
    monos = sorted(upper + linear)
    listed = [
        (abs(inner_product(f, phase_table(g))), g)
        for coeffs in itertools.product(range(f.p), repeat=len(monos))
        if any(coeffs) or not skip_zero
        for g in [Polynomial.from_coefficients(f.p, n, monos, coeffs)]
    ]
    top = max(s for s, _ in listed)
    out, earlier = [], -math.inf
    for s, g in listed:
        if s > earlier and s >= top * (1 - FLOAT_TOL):
            out.append((s, g))
        earlier = max(earlier, s)
    return out


@pytest.mark.parametrize("free, seed", [(True, 5), (False, 12)])
def test_scorer_survivors_from_several_blocks(free, seed, monkeypatch):
    # the degree family's part (linear part free) and a homogeneous part
    # (degree exactly 2, zero left out) on F_2^4, in blocks of 4 of the 64
    # coefficient vectors: a +-1 table nudged by 1e-13 has maximizers that
    # tie within FLOAT_TOL yet score apart by far more than rounding, so the
    # survivors come from several blocks, the first not from block 0, and
    # each block's coefficient vectors must be its own
    n = 4
    upper = [e for e in monomials_up_to(2, n, 2) if sum(e) == 2]
    signs = np.where(random_real_table(2, n, seed=seed).values > 0, 1.0, -1.0)
    nudge = 1 + 1e-13 * random_real_table(2, n, seed=seed + 100).values.real
    f = FunctionTable(2, n, signs * nudge, codomain="real")
    want = part_survivors(f, upper, free, not free)
    monkeypatch.setattr(analysis, "_CHUNK", 16 * 2**n)  # blocks of _CHUNK // (4 N) = 4
    got = _best_in_part(np.ascontiguousarray(f.values.real), 2, digit_table(2, n), upper,
                        free, not free)
    assert [g for _, g in got] == [g for _, g in want]
    assert [s for s, _ in got] == pytest.approx([s for s, _ in want], rel=1e-14)
    blocks = [int("".join(str(g.terms.get(e, 0)) for e in upper), 2) // 4 for _, g in want]
    assert len(set(blocks)) >= 3 and blocks[0] > 0


def test_inverse_u2_lower_bound():
    # the largest Fourier coefficient is at least the square of the U^2 norm
    for seed in range(5):
        f = random_unit_table(2, 3, seed=seed)
        u2 = float(gowers_norm(f, 2))
        u1 = float(correlation_with_family(f, degree=1))
        assert u1 >= u2**2 - 1e-12


def test_correlation_validation():
    f = random_unit_table(3, 1, seed=0)
    with pytest.raises(ValidationError):
        correlation_with_family(f, degree=3)  # degree must stay below p
    with pytest.raises(ValidationError):
        correlation_with_family(f, degree=0)
    with pytest.raises(BudgetExceededError):
        correlation_with_family(random_unit_table(5, 4, seed=0), degree=3)
    # the homogeneous family is charged as a whole: 16 points for the linear
    # forms plus 2^6 * 16 for the quadratics, each part alone within 1030
    with pytest.raises(BudgetExceededError) as exc, budget(1030):
        correlation_with_family(random_unit_table(2, 4, seed=0), 2, homogeneous=True)
    assert exc.value.cost == 1040


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
    direct = t_direct([fs[0], FunctionTable(2, 2, np.conj(fs[1].values)), fs[2]], system)
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
    assert fast == pytest.approx(f.values.mean() ** 2, abs=1e-12)


def test_average_gcs_bound():
    # |t_L(f)| is controlled by the Gowers norm of order cs+1 (here cs = 1)
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    for seed in range(4):
        f = random_unit_table(2, 3, seed=seed)
        t = abs(complex(linear_form_average(f, system)))
        u2 = float(gowers_norm(f, 2))
        assert t <= u2 + 1e-10


def test_average_budget():
    # AP4 is connected with m = 4 forms of rank 2, so both its primal and its
    # dual side cost N^2 = 5^12 points
    f = FunctionTable.constant(5, 6, 1.0)
    with pytest.raises(BudgetExceededError):
        linear_form_average(f, arithmetic_progression_system(5, 4))


def test_average_mc_tracks_exact():
    system = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    f = random_unit_table(2, 4, seed=11)
    exact = complex(linear_form_average(f, system))
    rep = linear_form_average(f, system, samples=3000, seed=11)
    assert abs(complex(rep) - exact) < 5 * rep.stderr


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gowers_mc_is_cube_system_average(p, n, k):
    f = random_unit_table(p, n, seed=p + k)
    conj = [(k - bin(mask).count("1")) % 2 for mask in range(2**k)]
    for samples in (1, 257):
        rep = gowers_norm(f, k, samples=samples, seed=9)
        avg = linear_form_average(
            f, cube_system(p, k), conj, samples=samples, seed=9
        )
        assert rep.power == max(avg.value.real, 0.0)
        assert rep.cost == avg.cost == samples * 2**k


def mc_reference(tables, system, conj, samples, seed, step):
    """The digit-arithmetic sampler: per block of `step` samples one
    sample-major (size, k) draw of uniform point indices, expanded to their
    digits; every form's points summed digit by digit, reduced and read as
    indices, and its values gathered from the conjugated and powered tables.
    Returns the sum of the block sums over the count, the two-pass stderr
    about the shifted mean x_0 + mean(x - x_0) (exactly 0 when every draw is
    equal, as in rng.mc_mean), the variables' indices and the forms'."""
    p, n = system.p, tables[0].n
    arr, places = system.as_array(), place_values(p, n)
    powered = [
        (np.conj(t.values) if c else t.values) ** m
        for t, c, m in zip(tables, conj, system.multiplicities)
    ]
    rng = as_rng(seed)
    blocks, var_idx, form_idx = [], [], []
    for lo in range(0, samples, step):
        zs = rng.integers(0, p**n, size=(min(step, samples - lo), system.k)).T
        xs = zs[:, :, None] // places % p
        assert np.array_equal(xs @ places, zs)
        acc = np.ones(xs.shape[1], dtype=np.complex128)
        idxs = []
        for i in range(system.m):
            pt = np.zeros(xs.shape[1:], dtype=np.int64)
            for j in range(system.k):
                pt += int(arr[i, j]) * xs[j]
            idxs.append(np.remainder(pt, p) @ places)
            acc = acc * powered[i][idxs[-1]]
        blocks.append(acc)
        var_idx.append(xs @ places)
        form_idx.append(np.array(idxs))
    draws = np.concatenate(blocks)
    mean = sum(block.sum() for block in blocks) / samples
    centre = draws[0] + (draws - draws[0]).mean()
    se = math.sqrt(np.mean(np.abs(draws - centre) ** 2) / samples)
    return complex(mean), se, np.hstack(var_idx), np.hstack(form_idx)


@st.composite
def sampled_systems(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    form = st.tuples(*[st.integers(0, p - 1)] * k).filter(any)
    forms = draw(st.lists(form, min_size=1, max_size=5, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(forms), max_size=len(forms)))
    conj = draw(st.lists(st.integers(0, 1), min_size=len(forms), max_size=len(forms)))
    return n, FlaggedSystem(p, k, forms, forms[0], mults), conj


@given(sampled_systems(), st.sampled_from([1, 7, 23]), st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_index_sampler_matches_digit_sampler(case, samples, seed):
    n, system, conj = case
    p = system.p
    fs = [random_unit_table(p, n, seed=seed + i) for i in range(system.m)]
    # a block holds _CHUNK // width draws: at p = 2 a draw keeps the k
    # variable rows and three more, at p > 2 the m form rows
    step = max(1, 5 // (system.k + 3 if p == 2 else system.m))
    want, want_se, var_idx, form_idx = mc_reference(fs, system, conj, samples, seed, step)
    seen = []

    def recorded(*args):
        seen.append((args[-1], np.stack(list(index_combination(*args)))))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "_CHUNK", 5)  # 7 and 23 samples span several blocks
        mp.setattr(analysis, "index_combination", recorded)
        rep = linear_form_average(fs, system, conj, samples=samples, seed=seed)
    assert len(seen) == -(-samples // step)
    assert np.array_equal(np.hstack([zs for zs, _ in seen]), var_idx)
    assert np.array_equal(np.hstack([idx for _, idx in seen]), form_idx)
    if p == 2:
        assert rep.value == want
    else:
        assert abs(rep.value - want) <= 1e-15 * abs(want)
    assert abs(rep.stderr - want_se) <= 1e-12 * want_se


@pytest.mark.parametrize(
    "p,n,system",
    [(2, 5, cube_system(2, 3)), (5, 2, arithmetic_progression_system(5, 4)),
     (3, 2, cube_system(3, 2))],
    ids=["U3-F2", "AP4-F5", "U2-F3"],
)
def test_seeded_average_does_not_depend_on_the_block_size(p, n, system):
    # the variables are drawn sample-major, so blocks of one draw and blocks
    # of 2^15 // width draws take the same points from the stream; on
    # densities with values in [1/2, 1] the sums see no cancellation, so only
    # their order of summation separates the two estimates
    fs = [random_real_table(p, n, seed=i, low=0.5, high=1.0) for i in range(system.m)]
    runs = []
    for chunk in (5, rng_module._CHUNK):
        seen = []

        def recorded(*args):
            seen.append(args[-1])
            return index_combination(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng_module, "_CHUNK", chunk)
            mp.setattr(analysis, "index_combination", recorded)
            rep = linear_form_average(fs, system, samples=300, seed=4)
        runs.append((len(seen), np.hstack(seen), rep.value))
    (many, zs, value), (one, zs_default, value_default) = runs
    assert many == -(-300 // max(1, 5 // (system.k + 3 if p == 2 else system.m))) and one == 1
    assert np.array_equal(zs, zs_default)
    assert abs(value - value_default) <= 1e-15 * abs(value_default)


# small spaces keep the direct enumeration of (F_p^n)^k cheap
SPACES = [(2, 1), (2, 2), (3, 1), (5, 1)]


@st.composite
def flagged_systems(draw):
    p, n = draw(st.sampled_from(SPACES))
    k = draw(st.integers(1, 3))
    form = st.tuples(*[st.integers(0, p - 1)] * k).filter(any)
    forms = draw(st.lists(form, min_size=1, max_size=4, unique=True))
    flag = draw(st.one_of(form, st.sampled_from(forms)))  # a member half the time
    mults = draw(st.lists(st.integers(1, 3), min_size=len(forms), max_size=len(forms)))
    conj = draw(st.lists(st.integers(0, 1), min_size=len(forms), max_size=len(forms)))
    return n, FlaggedSystem(p, k, forms, flag, mults), conj


def _powered_tables(fs, system, conj):
    return [
        FunctionTable(f.p, f.n, (np.conj(f.values) if c else f.values) ** m)
        for f, c, m in zip(fs, conj, system.multiplicities)
    ]


# block sizes for the (outer rows x N) grid of _product_sum: one row of N >
# _CHUNK points per block (1), rows of 2 and 3 points in multi-row blocks
# that divide the rows (5) or leave a partial last block (7)
GRID_CHUNKS = (1, 5, 7)
# two independent forms and a flag outside their span on F_5: the dual side
# sums over the one empty assignment (r = 0), keyed or not, and the primal
# side over one-row blocks; three forms in general position and their sum on
# F_3: 9 outer rows in blocks of 2, and r = 1 on the dual side
GRID_SYSTEMS = [
    (1, FlaggedSystem(5, 3, [(1, 0, 0), (0, 1, 2)], (0, 0, 1), (1, 2)), [0, 1]),
    (1, FlaggedSystem(3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], (1, 1, 0), (1, 1, 1, 2)),
     [1, 0, 0, 1]),
]


@given(flagged_systems(), st.integers(0, 1000))
@example(GRID_SYSTEMS[0], 0)
@example(GRID_SYSTEMS[1], 0)
@settings(max_examples=60, deadline=None)
def test_dual_and_primal_sides_match_direct(case, seed):
    n, system, conj = case
    p = system.p
    fs = [random_unit_table(p, n, seed=seed + i) for i in range(system.m)]
    powered = _powered_tables(fs, system, conj)
    want = t_direct(powered, system)
    got = complex(linear_form_average(fs, system, conjugations=conj))
    assert got == pytest.approx(want, abs=1e-12)
    # both sides on the whole system and on each component, with block sizes
    # that split the enumeration
    tables = [t.values for t in powered]
    arr = system.as_array()
    for chunk in GRID_CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_CHUNK", chunk)
            for dual in (False, True):
                got = _average_on_side(tables, arr, p, n, dual)
                assert got == pytest.approx(want, abs=1e-12)
                value = 1.0
                for group in connected_components(system):
                    sub = [tables[i] for i in group]
                    value *= _average_on_side(sub, arr[group], p, n, dual)
                assert value == pytest.approx(want, abs=1e-12)


@given(flagged_systems(), st.integers(0, 1000))
@example(GRID_SYSTEMS[0], 0)
@example(GRID_SYSTEMS[1], 0)
@settings(max_examples=60, deadline=None)
def test_flagged_sides_match_direct(case, seed):
    n, system, _ = case
    p = system.p
    f = random_unit_table(p, n, seed=seed)
    want = flagged_direct(f, system)
    assert np.allclose(flagged_average(f, system).values, want, atol=1e-12)
    # both sides on the keyed rows [flag] + forms, whether the flag lies
    # outside the span, equals a form or neither, with block sizes that split
    # the enumeration
    rows = np.vstack([system.flag, system.as_array()])
    tables = [f.values**m for m in system.multiplicities]
    for chunk in GRID_CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_CHUNK", chunk)
            for dual in (False, True):
                got = _average_on_side([None, *tables], rows, p, n, dual, [0])[0]
                assert np.allclose(got, want, atol=1e-12)


@given(flagged_systems(), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_real_tables_match_direct_on_every_side(case, seed):
    # real tables: float64 kernels at p = 2, complex ones above it; primal,
    # dual and keyed sums, flagged averages and boundary functions against
    # the primal enumeration
    n, system, conj = case
    p = system.p
    dtype = np.float64 if p == 2 else np.complex128
    fs = [random_real_table(p, n, seed=seed + i) for i in range(system.m)]
    powered = _powered_tables(fs, system, conj)
    want = t_direct(powered, system)
    assert complex(linear_form_average(fs, system, conjugations=conj)) == pytest.approx(
        want, abs=1e-12
    )
    tables = [analysis._real_at_two(t.values, p) for t in powered]
    assert {t.dtype for t in tables} == {np.dtype(dtype)}
    f = fs[0]
    flagged = flagged_direct(f, system)
    assert np.allclose(flagged_average(f, system).values, flagged, atol=1e-12)
    rows = np.vstack([system.flag, system.as_array()])
    keyed = [analysis._real_at_two(f.values**m, p) for m in system.multiplicities]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_CHUNK", 5)
        for dual in (False, True):
            got = _average_on_side(tables, system.as_array(), p, n, dual)
            assert got == pytest.approx(want, abs=1e-12)
            got = _average_on_side([None, *keyed], rows, p, n, dual, [0])[0]
            assert got.dtype == dtype and np.allclose(got, flagged, atol=1e-12)
    plain = LinearSystem(p, system.k, system.forms)
    assert np.allclose(boundary_function(f, plain).values, boundary_direct(f, plain), atol=1e-12)


def test_real_route_matches_complex_route(monkeypatch):
    # the same real tables through the float64 kernels and, with the helper
    # made the identity, through the complex ones: U^k, the Poly_2 search,
    # primal, dual and flagged averages and a boundary function
    f = random_real_table(2, 6, seed=3)
    g = FunctionTable(2, 6, f.values)  # codomain complex, values real
    dual = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)])
    ap = arithmetic_progression_system(2, 2)
    fsys = FlaggedSystem(2, 3, [(0, 1, 0), (1, 1, 0), (0, 0, 1)], (1, 0, 0), (1, 2, 1))

    def run(table):
        rep = correlation_with_family(table, degree=2)
        values = [
            gowers_norm(table, 3).power, gowers_norm(table, 4).power, rep.value,
            complex(linear_form_average(table, dual)),
            complex(linear_form_average(table, ap, conjugations=(1, 0))),
        ]
        arrays = [flagged_average(table, fsys).values, boundary_function(table, dual).values]
        return rep.best, values, arrays

    seen = spy_transform_dtypes(monkeypatch)
    real = [run(f), run(g)]
    assert set(seen) == {np.dtype(np.float64)}
    seen.clear()
    monkeypatch.setattr(analysis, "_real_at_two", lambda values, p: values)
    cplx = run(f)
    assert set(seen) == {np.dtype(np.complex128)}
    for best, values, arrays in real:
        assert best == cplx[0]
        assert values == pytest.approx(cplx[1], rel=1e-12, abs=1e-14)
        for a, b in zip(arrays, cplx[2]):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_real_at_two_decides_from_the_values():
    real = random_real_table(2, 3, seed=1).values
    out = analysis._real_at_two(real, 2)
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert np.array_equal(out, real.real)
    # complex values at p = 2 and real values above it are left as they are
    for values, p in [(random_unit_table(2, 3, seed=1).values, 2), (real[:3], 3)]:
        assert analysis._real_at_two(values, p) is values
    assert analysis._real_at_two(random_real_table(3, 2, seed=1).values, 3).dtype == np.complex128


def test_phase_tables_at_two_take_the_float64_kernels(monkeypatch):
    # e_2 is exactly +-1: a phase table, the e_2(beta f) tables of an
    # exponential average and the character moments a_c of a distributional
    # function have imaginary parts that are exactly zero
    P = Polynomial(2, 3, {(1, 1, 0): 1, (0, 1, 1): 1, (0, 0, 1): 1})
    gamma = DistributionalFunction.lift(random_real_table(2, 3, seed=0, low=0.0, high=1.0))
    averaged = []
    monkeypatch.setattr(
        analysis, "linear_form_average", lambda tables, *args, **kw: averaged.extend(tables)
    )
    exponential_average(P, LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)]), beta=(1, 0, 1))
    tables = [phase_table(P), gamma.a_c(0), gamma.a_c(1), *averaged]
    assert len(tables) == 6
    for t in tables:
        assert analysis._real_at_two(t.values, 2).dtype == np.float64
    assert np.array_equal(phase_table(P).values, np.exp(1j * np.pi * P.value_table()).real)
    assert np.array_equal(gamma.a_c(1).values, gamma.table @ [1, -1])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gowers_of_phase_table_at_two_matches_complex_route(k):
    P = Polynomial(2, 5, {(1, 1, 1, 0, 0): 1, (0, 0, 1, 1, 0): 1, (1, 0, 0, 0, 1): 1})
    f = phase_table(P)
    g = FunctionTable(2, 5, np.exp(1j * np.pi * P.value_table()))  # about 1e-16 imaginary
    assert g.values.imag.any()
    assert gowers_norm(f, k).power == pytest.approx(gowers_norm(g, k).power, rel=1e-12)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (5, 1)])
def test_flagged_factors_over_components_the_flag_misses(p, n):
    # the flag x meets only {y, x+y}; {z, w, z+w} and {u} are constants
    forms = [(0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 0),
             (0, 0, 0, 1, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 1)]
    fsys = FlaggedSystem(p, 5, forms, (1, 0, 0, 0, 0), multiplicities=(2, 1, 1, 3, 1, 1))
    f = random_unit_table(p, n, seed=23)
    N = p**n
    got, totals = ledger_totals(flagged_average, f, fsys)
    assert np.allclose(got.values, flagged_direct(f, fsys), atol=1e-12)
    # [x, y, x+y] runs dual at N + 3N (the tables f^2 and f, and the key);
    # {z, w, z+w} at N + 2N (its tables f and f^3); {u} is its mean at N
    assert totals == [4 * N, 7 * N, 8 * N]
    with budget(8 * N):
        flagged_average(f, fsys)
    with pytest.raises(BudgetExceededError), budget(8 * N - 1):
        flagged_average(f, fsys)


def test_empty_kernel_dual_side_is_product_of_means():
    # independent forms: m = r, so the kernel is {0} and the dual side reads
    # each transform at alpha = 0
    fs = [random_unit_table(3, 2, seed=s) for s in (1, 2)]
    forms = np.array([(1, 0), (0, 1)])
    got = _average_on_side([f.values for f in fs], forms, 3, 2, dual=True)
    assert got == pytest.approx(fs[0].values.mean() * fs[1].values.mean(), abs=1e-12)


def test_average_reports_side_and_cost():
    f = random_unit_table(5, 2, seed=3)
    # the dual side charges its kernel, N^(m-r), and one transform of N points
    # per distinct table: the three forms share f, so one
    rep = linear_form_average(f, arithmetic_progression_system(5, 3))
    assert (rep.path, rep.cost) == ("dual", 25 + 25)
    # a tie (AP4: m = 4, r = 2) runs the primal side
    rep = linear_form_average(f, arithmetic_progression_system(5, 4))
    assert (rep.path, rep.cost) == ("primal", 25**2)
    # {x, y, x+y} is dual at cost 2N; the lone form z is its mean, primal at N
    system = LinearSystem(5, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    rep = linear_form_average(f, system)
    assert (rep.path, rep.cost) == ("mixed", 2 * 25 + 25)
    # {x, 2x} ties at N and runs primal beside the dual {y, z, y+z}
    system = LinearSystem(5, 3, [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)])
    rep = linear_form_average(f, system)
    assert (rep.path, rep.cost) == ("mixed", 25 + 2 * 25)
    assert linear_form_average(f, system, samples=3).path == "sampled"


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
    rhs = complex(linear_form_average([f, FunctionTable(3, 1, np.conj(f.values)), f], system))
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
    assert np.allclose(g.values, f.values.mean(), atol=1e-14)


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
    assert np.allclose(g.values, 2 * f.values.mean(), atol=1e-14)


def boundary_direct(f, system):
    """One flagged average per form, the others conditioned on it: the
    boundary function form by form, by raw enumeration."""
    total = np.zeros(f.p**f.n, dtype=complex)
    for i, removed in enumerate(system.forms):
        rest = system.forms[:i] + system.forms[i + 1:]
        if not rest:
            total += 1.0  # the empty product conditions to the constant one
        else:
            total += flagged_direct(f, FlaggedSystem(system.p, system.k, rest, removed))
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


# the derivative identity at each prime: connected dual systems, a primal tie
# (AP4: m = 2r), two dual components, and a dual component beside a primal
# one ({z, 2z}) or a lone form
DERIVATIVE_SYSTEMS = [
    (2, 2, LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])),
    (2, 1, LinearSystem(2, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                               (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)])),
    (3, 2, arithmetic_progression_system(3, 3)),
    (3, 1, LinearSystem(3, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, 2)])),
    (5, 1, arithmetic_progression_system(5, 4)),
    (5, 1, LinearSystem(5, 3, [(1, 0, 0), (0, 1, 0), (1, 2, 0), (0, 0, 1)])),
]


def test_boundary_is_derivative_of_average():
    # d/dt t_L(f + t g) at t=0 equals E[g * boundary] for real f and g
    h = 1e-6
    for p, n, system in DERIVATIVE_SYSTEMS:
        f = random_real_table(p, n, seed=20, low=0.2, high=0.8)
        g = random_real_table(p, n, seed=21, low=-1.0, high=1.0)
        plus = complex(linear_form_average(f + h * g, system))
        minus = complex(linear_form_average(f + (-h) * g, system))
        numeric = (plus - minus) / (2 * h)
        bdry = boundary_function(f, system)
        analytic = np.mean(g.values * bdry.values)
        assert numeric == pytest.approx(analytic, abs=1e-6), (p, n, system.forms)


@given(flagged_systems(), st.integers(0, 1000))
@example(GRID_SYSTEMS[0], 0)
@example(GRID_SYSTEMS[1], 0)
@settings(max_examples=30, deadline=None)
def test_boundary_matches_direct_at_every_block_size(case, seed):
    # one keyed pass over every form against one raw flagged enumeration per
    # form, on unit and real tables, with block sizes that split the pass
    n, fsys, _ = case
    p = fsys.p
    system = LinearSystem(p, fsys.k, fsys.forms)
    for f in (random_unit_table(p, n, seed=seed), random_real_table(p, n, seed=seed)):
        want = boundary_direct(f, system)
        for chunk in GRID_CHUNKS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "_CHUNK", chunk)
                got = boundary_function(f, system).values
            assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1)])
def test_boundary_charges_each_key(p, n):
    # {x, y, x+y} runs dual: its kernel once per key, N each, and one
    # transform of its one table f and one per key, 4N; the six forms over
    # {z, w, v} tie (m = 2r) and run primal, their span once per key, 6 N^3;
    # the lone form u runs primal, keyed, at N.  The budget is charged once
    # per component.
    forms = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0),
             (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0),
             (0, 0, 1, 1, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 1, 1, 1, 0),
             (0, 0, 0, 0, 0, 1)]
    system = LinearSystem(p, 6, forms)
    f = random_real_table(p, n, seed=24)
    N = p**n
    got, totals = ledger_totals(boundary_function, f, system)
    assert totals == [7 * N, 7 * N + 6 * N**3, 8 * N + 6 * N**3]
    if p < 5:  # the oracle enumerates N^6 assignments per form
        assert np.allclose(got.values, boundary_direct(f, system), atol=1e-12)
    with budget(8 * N + 6 * N**3):
        boundary_function(f, system)
    with pytest.raises(BudgetExceededError), budget(8 * N + 6 * N**3 - 1):
        boundary_function(f, system)


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
    assert g.values.mean() == pytest.approx(t, abs=1e-12)
