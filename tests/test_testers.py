import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from fpuniform.analysis import gowers_norm
from fpuniform.errors import BudgetExceededError, FormatError, ValidationError
from fpuniform.field import digit_table, place_values, random_affine, space_size
from fpuniform.linalg import rank
from fpuniform.linear_forms import LinearSystem, arithmetic_progression_system, cube_system
from fpuniform.polynomials import Polynomial
from fpuniform.rng import as_rng
from fpuniform.tables import FunctionTable, random_real_table
from fpuniform.testers import (
    DistributionalFunction,
    TesterSpec,
    basis_forms,
    extract_linear_form_profile,
    find_testing_degree,
    interior_experiment,
    run_tester,
    symmetrize_tester,
    uniformity_test,
    uniformity_tester_spec,
)

TRI = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])


def field_table(p, n, values):
    return FunctionTable(p, n, values, codomain="real")


def poly_table(p, n, terms):
    return field_table(p, n, Polynomial(p, n, terms).value_table())


# ---------------------------------------------------------- distributional

def test_distributional_validation():
    with pytest.raises(ValidationError):
        DistributionalFunction(2, 1, [[0.5, 0.5]])  # wrong row count
    with pytest.raises(ValidationError):
        DistributionalFunction(2, 1, [[0.7, 0.4], [0.5, 0.5]])  # row sum 1.1
    with pytest.raises(ValidationError):
        DistributionalFunction(2, 1, [[1.2, -0.2], [0.5, 0.5]])
    g = DistributionalFunction.uniform(3, 1)
    with pytest.raises(AttributeError):
        g.p = 5


def test_lift_rejects_bad_tables():
    with pytest.raises(ValidationError):
        DistributionalFunction.lift(FunctionTable(2, 1, [1.0, -1.0]))  # unit codomain
    with pytest.raises(ValidationError):
        DistributionalFunction.lift(field_table(2, 1, [0.5, 1.5]))


def test_lift_character_moment_identity():
    # a_c o Gamma_F == F pointwise for every c != 0, and exactly
    for p in (2, 3, 5):
        F = random_real_table(p, 2, seed=p, low=0.0, high=1.0)
        gamma = DistributionalFunction.lift(F)
        for c in range(1, p):
            back = gamma.a_c(c)
            assert np.abs(back.values - F.values.real).max() < 1e-12
    # c = 0 gives the constant 1
    assert np.abs(gamma.a_c(0).values - 1.0).max() < 1e-12


def test_lift_of_real_table_algebra():
    # a product or sum of real tables keeps the real codomain that lift reads
    F = random_real_table(3, 2, seed=7, low=0.0, high=1.0)
    G = random_real_table(3, 2, seed=8, low=0.0, high=1.0)
    for H in (F * 0.5, 0.5 * F, F * G, (F + G) * 0.5, F - F * G):
        back = DistributionalFunction.lift(H).a_c(1)
        assert np.abs(back.values - H.values.real).max() < 1e-12
    with pytest.raises(ValidationError, match="real-valued"):
        DistributionalFunction.lift(F * 0.5j)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 10**6))
def test_lift_identity_property(p, seed):
    F = random_real_table(p, 1, seed=seed, low=0.0, high=1.0)
    back = DistributionalFunction.lift(F).a_c(1)
    assert np.abs(back.values - F.values.real).max() < 1e-12


def test_uniform_gamma_kills_averages():
    gamma = DistributionalFunction.uniform(2, 3)
    for c in (1,):
        assert np.abs(gamma.a_c(c).values).max() < 1e-12
    val = complex(gamma.t_star(TRI, (1, 1, 0)))
    assert abs(val) < 1e-12


def test_dirac_embedding_matches_deterministic():
    rng = np.random.default_rng(12)
    f = field_table(3, 2, rng.integers(0, 3, size=9))
    gamma = DistributionalFunction.from_function(f)
    assert np.abs(gamma.table.sum(axis=1) - 1.0).max() == 0.0
    ap3 = arithmetic_progression_system(3, 3)
    direct = complex(DistributionalFunction.from_function(f).t_star(ap3, (1, 1, 1)))
    # same average through the character tables by hand
    chars = [np.exp(2j * np.pi * f.values.real / 3)] * 3
    from fpuniform.analysis import linear_form_average

    ref = complex(
        linear_form_average([FunctionTable(3, 2, c) for c in chars], ap3)
    )
    assert abs(direct - ref) < 1e-12


def test_sample_function_is_field_valued_and_seeded():
    F = random_real_table(2, 3, seed=1, low=0.0, high=1.0)
    gamma = DistributionalFunction.lift(F)
    s1 = gamma.sample_function(5)
    s2 = gamma.sample_function(5)
    assert np.array_equal(s1.values, s2.values)
    assert set(np.unique(s1.values.real)) <= {0.0, 1.0}
    # a point-mass distribution samples deterministically
    ones = DistributionalFunction.lift(field_table(2, 2, [1, 1, 1, 1]))
    assert np.abs(ones.sample_function(9).values).max() == 0.0


def test_t_star_validates_beta_length():
    gamma = DistributionalFunction.uniform(2, 2)
    with pytest.raises(ValidationError):
        gamma.t_star(TRI, (1, 1))


def test_t_star_mc_tracks_exact():
    gamma = DistributionalFunction.lift(random_real_table(2, 4, seed=4, low=0.0, high=1.0))
    exact = complex(gamma.t_star(TRI, (1, 1, 1))).real
    mc = gamma.t_star(TRI, (1, 1, 1), samples=20000, seed=6)
    assert abs(complex(mc).real - exact) < max(4 * mc.stderr, 1e-3)


def test_distributional_concentration_small():
    # sampled functions' averages sit within 0.1 of t*(Gamma) for almost all
    # seeds once p^n = 256
    F = random_real_table(2, 8, seed=0, low=0.0, high=1.0)
    gamma = DistributionalFunction.lift(F)
    t_gamma = complex(gamma.t_star(TRI, (1, 1, 1))).real
    assert t_gamma == pytest.approx(0.15450333923157844, abs=1e-12)
    fails = 0
    for s in range(20):
        f = gamma.sample_function(s)
        t_f = complex(
            DistributionalFunction.from_function(f).t_star(TRI, (1, 1, 1))
        ).real
        if abs(t_f - t_gamma) > 0.1:
            fails += 1
    assert fails <= 2  # seed 0..19 gives exactly 1


# ---------------------------------------------------------- tester specs

def test_tester_spec_validation():
    with pytest.raises(ValidationError):
        TesterSpec(2, 0, [1])
    with pytest.raises(ValidationError):
        TesterSpec(2, 2, [1, 0, 1])  # needs p^q = 4 entries
    with pytest.raises(ValidationError):
        TesterSpec(2, 10**10, [1, 0], base_support=[(np.zeros((1, 2)), 1.0)])
    with pytest.raises(ValidationError):
        TesterSpec(2, 1, [1, 2], base_support=[(np.zeros((1, 2)), 1.0)])
    with pytest.raises(ValidationError):
        TesterSpec(2, 1, [1, 0], theta_minus=0.5, theta_plus=0.5,
                   base_support=[(np.zeros((1, 2)), 1.0)])
    with pytest.raises(ValidationError):
        TesterSpec(2, 1, [1, 0], epsilon=0.5, base_support=[(np.zeros((1, 2)), 1.0)])
    with pytest.raises(ValidationError):
        TesterSpec(2, 1, [1, 0], epsilon=0.2, delta=0.3,
                   base_support=[(np.zeros((1, 2)), 1.0)])
    with pytest.raises(ValidationError):
        TesterSpec(2, 1, [1, 0])  # no support
    with pytest.raises(ValidationError):
        TesterSpec(2, 1, [1, 0], base_support=[(np.zeros((1, 2)), 0.5)])
    with pytest.raises(ValidationError):
        TesterSpec(2, 2, [1, 0, 0, 1], base_support=[(np.zeros((1, 2)), 1.0)])
    spec = uniformity_tester_spec(2, 2, 1)
    with pytest.raises(AttributeError):
        spec.q = 7


def test_tester_spec_refuses_fractional_points():
    # [0.7, 1.2] is not truncated to the point [0, 1]
    with pytest.raises(ValidationError, match="support point"):
        TesterSpec(2, 1, [0, 1], base_support=[([[0.7, 1.2]], 1.0)])
    for ragged in ([0, 1], [[0, 1], [1]], "01"):
        with pytest.raises(ValidationError, match="q query vectors"):
            TesterSpec(2, 2, [0, 1, 1, 0], base_support=[(ragged, 1.0)])
    # numbers equal to integers are those integers, reduced mod p
    spec = TesterSpec(3, 1, [0, 1, 1], base_support=[([[4.0, np.int64(-1)]], 1.0)])
    assert spec.base_support[0][0].tolist() == [[1, 2]]


def test_uniformity_spec_shape():
    spec = uniformity_tester_spec(2, 3, 1)
    assert spec.q == 4
    assert spec.theta_minus == 0.5 and spec.theta_plus == 1.0
    assert spec.decision_table.sum() == 8  # half the labels have zero XOR-sum
    [(pts, prob)] = spec.base_support
    assert prob == 1.0 and pts.shape == (4, 3)
    # corners of the parallelepiped on the first two coordinates
    assert sorted(map(tuple, pts.tolist())) == [
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0),
    ]
    with pytest.raises(ValidationError):
        uniformity_tester_spec(2, 2, 0)
    with pytest.raises(ValidationError):
        uniformity_tester_spec(2, 1, 2)  # needs n >= 3


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [1, 2])
def test_uniformity_spec_is_the_cube(p, d):
    # the base tuple's basis forms are the cube system's forms, in its order
    [(pts, _)] = uniformity_tester_spec(p, d + 2, d).base_support
    assert basis_forms(pts, p).tolist() == [list(f) for f in cube_system(p, d + 1).forms]


def test_tester_spec_json_round_trip():
    spec = uniformity_tester_spec(3, 2, 1, epsilon=0.4, delta=0.1)
    obj = spec.to_json_dict()
    assert obj["kind"] == "tester"
    back = TesterSpec.from_json_dict(obj)
    assert back.p == spec.p and back.q == spec.q
    assert np.array_equal(back.decision_table, spec.decision_table)
    assert (back.theta_minus, back.theta_plus) == (spec.theta_minus, spec.theta_plus)
    assert (back.epsilon, back.delta) == (0.4, 0.1)
    assert np.array_equal(back.base_support[0][0], spec.base_support[0][0])


def test_tester_spec_json_errors():
    obj = uniformity_tester_spec(2, 2, 1).to_json_dict()
    bad = dict(obj)
    bad.pop("support")
    with pytest.raises(FormatError) as exc:
        TesterSpec.from_json_dict(bad)
    assert exc.value.pointer == "/support"
    bad = dict(obj, schema="fpuniform/v9")
    with pytest.raises(FormatError) as exc:
        TesterSpec.from_json_dict(bad)
    assert exc.value.pointer == "/schema"
    bad = dict(obj, support=[{"points": [[0, 0]]}])
    with pytest.raises(FormatError) as exc:
        TesterSpec.from_json_dict(bad)
    assert exc.value.pointer == "/support/0"
    bad = dict(obj, thresholds=[0.9, 0.1])
    with pytest.raises(FormatError):
        TesterSpec.from_json_dict(bad)


def test_symmetrized_spec_does_not_serialize():
    sym = symmetrize_tester(uniformity_tester_spec(2, 2, 1))
    with pytest.raises(ValidationError):
        sym.to_json_dict()


# ---------------------------------------------------------- running testers

def test_trivial_decisions():
    pt = np.zeros((2, 2), dtype=int)
    always = TesterSpec(2, 2, [1, 1, 1, 1], base_support=[(pt, 1.0)])
    never = TesterSpec(2, 2, [0, 0, 0, 0], base_support=[(pt, 1.0)])
    f = field_table(2, 2, [0, 1, 1, 0])
    assert run_tester(always, f, trials=50, seed=0).acceptance == 1.0
    assert run_tester(never, f, trials=50, seed=0).acceptance == 0.0
    assert run_tester(always, f).acceptance == 1.0


def test_exact_mode_reads_the_support():
    spec = uniformity_tester_spec(2, 2, 1)
    lin = poly_table(2, 2, {(1, 0): 1})
    quad = poly_table(2, 2, {(1, 1): 1})
    # the standard parallelepiped's alternating sum vanishes on degree <= 1
    assert run_tester(spec, lin).acceptance == 1.0
    assert run_tester(spec, quad).acceptance == 0.0
    rep = run_tester(spec, lin)
    assert rep.mode == "exact" and rep.trials is None


def test_run_tester_validation():
    spec = uniformity_tester_spec(2, 2, 1)
    f = field_table(2, 2, [0, 1, 1, 0])
    with pytest.raises(ValidationError):
        run_tester(spec, field_table(3, 1, [0, 1, 2]), trials=5)
    for trials in (0, -3):
        with pytest.raises(ValidationError, match="trials"):
            run_tester(spec, f, trials=trials)
    # support living in the wrong dimension
    with pytest.raises(ValidationError):
        run_tester(spec, field_table(2, 3, np.zeros(8)))


def test_estimate_reports_stderr():
    spec = symmetrize_tester(uniformity_tester_spec(2, 3, 1))
    f = field_table(2, 3, np.random.default_rng(3).integers(0, 2, size=8))
    rep = run_tester(spec, f, trials=400, seed=7)
    assert rep.mode == "mc" and rep.trials == 400
    assert 0.0 <= rep.acceptance <= 1.0
    assert rep.stderr == pytest.approx(
        np.sqrt(rep.acceptance * (1 - rep.acceptance) / 400)
    )
    again = run_tester(spec, f, trials=400, seed=7)
    assert again.acceptance == rep.acceptance


def test_linear_vs_random_acceptance_gap():
    # the symmetrized 4-query pattern always accepts affine-linear f, and
    # accepts a random table about half the time
    spec = symmetrize_tester(uniformity_tester_spec(2, 5, 1))
    lin = poly_table(2, 5, {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0): 1})
    rnd = field_table(2, 5, np.random.default_rng(9).integers(0, 2, size=32))
    a_lin = run_tester(spec, lin, trials=2000, seed=2).acceptance
    a_rnd = run_tester(spec, rnd, trials=2000, seed=2).acceptance
    assert a_lin == 1.0
    assert a_lin - a_rnd >= 0.3


# ---------------------------------------------------------- symmetrization

def test_symmetrize_preserves_arity_and_flags():
    spec = uniformity_tester_spec(2, 3, 1)
    sym = symmetrize_tester(spec)
    assert sym.q == spec.q and sym.p == spec.p
    assert sym.symmetrized and not spec.symmetrized
    assert np.array_equal(sym.decision_table, spec.decision_table)
    qs = sym.index_sampler(3)[0](np.random.default_rng(2), 11)
    assert qs.shape == (11, 4) and qs.min() >= 0 and qs.max() < 2**3


def test_symmetrized_acceptance_is_affine_invariant():
    spec = symmetrize_tester(uniformity_tester_spec(2, 5, 1))
    f = field_table(2, 5, np.random.default_rng(9).integers(0, 2, size=32))
    moved = f.apply_affine(random_affine(2, 5, 77))
    r1 = run_tester(spec, f, trials=4000, seed=3)
    r2 = run_tester(spec, moved, trials=4000, seed=4)
    assert abs(r1.acceptance - r2.acceptance) <= 3 * (r1.stderr + r2.stderr)


def test_symmetrizing_twice_changes_nothing():
    spec = symmetrize_tester(uniformity_tester_spec(2, 5, 1))
    twice = symmetrize_tester(spec)
    f = field_table(2, 5, np.random.default_rng(9).integers(0, 2, size=32))
    r1 = run_tester(spec, f, trials=4000, seed=3)
    r3 = run_tester(twice, f, trials=4000, seed=5)
    assert abs(r1.acceptance - r3.acceptance) <= 3 * (r1.stderr + r3.stderr)
    # the second symmetrization draws from the same base support
    assert run_tester(twice, f, trials=4000, seed=3).acceptance == r1.acceptance


def orbit_reference(spec, f):
    """Acceptance averaged over every affine map x -> Mx + b of F_p^n, with
    GL(n) found by testing the rank of every n x n matrix."""
    p, n = spec.p, f.n
    vals = f.values.real.astype(np.int64)
    places = place_values(p, n)
    mats = [
        m for m in (np.array(e).reshape(n, n) for e in itertools.product(range(p), repeat=n * n))
        if rank(m, p) == n
    ]
    total = 0.0
    for pts, prob in spec.base_support:
        images = np.array([(pts @ m.T + b) % p for m in mats for b in digit_table(p, n)])
        total += prob * spec.decide(vals[images @ places]).mean()
    return total


def orbit_supports(p, n, rng):
    """Query triples with repeated points, of rank 0, and of mixed ranks."""
    a, b, c = rng.integers(0, p, size=(3, n))
    out = [
        [(np.array([a, a, a]), 1.0)],  # rank 0
        [(np.array([a, b, a]), 1.0)],  # a repeated point
        [(np.array([a, b, c]), 1.0)],
        [(np.array([a, a, a]), 0.25), (np.array([b, c, (2 * c - b) % p]), 0.75)],
    ]
    if n >= 2:
        e1, e2 = np.eye(n, dtype=np.int64)[:2]
        out.append([(np.array([a, (a + e1) % p, (a + e2) % p]), 0.4),
                    (np.array([b, (b + e1) % p, b]), 0.6)])  # ranks 2 and 1
    return out


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_exact_orbit_matches_gl_enumeration(p, n):
    rng = np.random.default_rng(10 * p + n)
    f = field_table(p, n, rng.integers(0, p, size=p**n))
    for support in orbit_supports(p, n, rng):
        decision = rng.integers(0, 2, size=p**3)
        spec = symmetrize_tester(TesterSpec(p, 3, decision, base_support=support))
        got = run_tester(spec, f).acceptance
        assert got == pytest.approx(orbit_reference(spec, f), abs=1e-12)


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 2)])
def test_sampled_orbit_matches_exact_orbit(p, n):
    rng = np.random.default_rng(20 * p + n)
    f = field_table(p, n, rng.integers(0, p, size=p**n))
    for support in orbit_supports(p, n, rng):
        decision = rng.integers(0, 2, size=p**3)
        spec = symmetrize_tester(TesterSpec(p, 3, decision, base_support=support))
        exact = run_tester(spec, f).acceptance
        rep = run_tester(spec, f, trials=20000, seed=p + n)
        assert abs(rep.acceptance - exact) <= 4 * rep.stderr + 1e-12


def test_support_estimate_reads_picked_tuples():
    # draws are support indices gathered by the picks, the same stream and
    # queries as picking (count, q, n) point arrays
    p, n, q = 3, 3, 4
    rng = np.random.default_rng(4)
    support = [(rng.integers(0, p, size=(q, n)), w) for w in (0.2, 0.3, 0.5)]
    spec = TesterSpec(p, q, rng.integers(0, 2, size=p**q), base_support=support)
    f = field_table(p, n, rng.integers(0, p, size=p**n))
    trials = 5000
    picks = as_rng(7).choice(3, size=trials, p=[0.2, 0.3, 0.5])
    points = np.stack([pts for pts, _ in support])[picks]
    drawn = spec.index_sampler(n)[0](as_rng(7), trials)
    assert np.array_equal(drawn, points @ place_values(p, n))
    want = spec.decide(f.values.real.astype(np.int64)[points @ place_values(p, n)]).mean()
    assert run_tester(spec, f, trials=trials, seed=7).acceptance == want


def test_exact_symmetrized_orbit_average():
    # the whole orbit of F_2^2; affine-linear f is accepted always
    spec = symmetrize_tester(uniformity_tester_spec(2, 2, 1))
    lin = poly_table(2, 2, {(1, 0): 1})
    assert run_tester(spec, lin).acceptance == 1.0
    # a rank-2 tuple's orbit costs N^3 q: 2^20 points at n = 6, 2^29 at n = 9
    assert run_tester(
        symmetrize_tester(uniformity_tester_spec(2, 6, 1)),
        field_table(2, 6, np.zeros(64)),
    ).acceptance == 1.0
    with pytest.raises(BudgetExceededError):
        run_tester(
            symmetrize_tester(uniformity_tester_spec(2, 9, 1)),
            field_table(2, 9, np.zeros(512)),
        )


# ---------------------------------------------------------- linear-form profiles

def test_profile_of_the_four_query_pattern():
    spec = uniformity_tester_spec(2, 2, 1)
    [entry] = extract_linear_form_profile(spec, 2)
    assert entry.system.forms == ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))
    assert entry.weight == 1.0
    # the decision map's Fourier mass sits on beta = 0 and beta = (1,1,1,1)
    nz = {i: c for i, c in enumerate(entry.gamma_hat) if abs(c) > 1e-12}
    assert set(nz) == {0, 15}
    assert nz[0] == pytest.approx(0.5) and nz[15] == pytest.approx(0.5)
    # the characters of F_2 are real, so a real decision map's coefficients
    # are float64 there and complex above p = 2
    assert entry.gamma_hat.dtype == np.float64
    [entry3] = extract_linear_form_profile(uniformity_tester_spec(3, 2, 1), 2)
    assert entry3.gamma_hat.dtype == np.complex128
    assert entry.merged_beta[(0, 0, 0, 0)] == (0, 0, 0, 0)
    assert entry.merged_beta[(1, 1, 1, 1)] == (1, 1, 1, 1)
    # every emitted form is homogeneous with leading coefficient 1
    assert all(form[0] == 1 for form in entry.system.forms)


def test_profile_single_query_is_one_form():
    spec = TesterSpec(2, 1, [1, 0], base_support=[(np.zeros((1, 3), dtype=int), 1.0)])
    [entry] = extract_linear_form_profile(spec, 3)
    assert entry.system.forms == ((1,),) and entry.system.k == 1


def test_profile_merges_repeated_queries():
    # two identical queries fold their beta weights mod p
    pt = np.zeros((2, 2), dtype=int)
    spec = TesterSpec(2, 2, [1, 0, 0, 1], base_support=[(pt, 1.0)])
    [entry] = extract_linear_form_profile(spec, 2)
    assert entry.system.forms == ((1,),)
    assert entry.merged_beta[(1, 1)] == (0,)
    assert entry.merged_beta[(1, 0)] == (1,)


# ---------------------------------------------------------- the uniformity test

def test_polynomial_phases_pass_at_their_degree():
    quad = poly_table(2, 4, {(1, 1, 0, 0): 1})
    rep = uniformity_test(quad, 2, 500, seed=3)
    assert rep.estimate == 1.0 and rep.accept
    lin = poly_table(3, 2, {(1, 0): 2, (0, 1): 1})
    assert uniformity_test(lin, 1, 300, seed=1).estimate == pytest.approx(1.0)


def test_query_count_audit():
    f = poly_table(2, 4, {(1, 1, 0, 0): 1})
    for d in (1, 2, 3):
        rep = uniformity_test(f, d, 25, seed=0)
        assert rep.queries_per_sample == 2 ** (d + 1)
        assert rep.points_queried == 25 * 2 ** (d + 1)


def test_estimate_tracks_exact_norm_power():
    quad = poly_table(2, 4, {(1, 1, 0, 0): 1})
    phase = FunctionTable(2, 4, np.exp(1j * np.pi * quad.values.real))
    exact = float(gowers_norm(phase, 2)) ** 4
    assert exact == pytest.approx(0.25)
    good = sum(
        abs(uniformity_test(quad, 1, 400, seed=s).estimate - exact) <= 4 / np.sqrt(400)
        for s in range(20)
    )
    assert good >= 19


def test_uniformity_test_separates_random_functions():
    rnd = field_table(2, 4, np.random.default_rng(11).integers(0, 2, size=16))
    rep = uniformity_test(rnd, 1, 4000, seed=7)
    assert rep.estimate < 0.5 and not rep.accept


def test_uniformity_test_validation():
    f = poly_table(2, 2, {(1, 0): 1})
    with pytest.raises(ValidationError):
        uniformity_test(f, 0, 10)
    with pytest.raises(ValidationError):
        uniformity_test(f, 1, 0)
    for threshold in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match="threshold"):
            uniformity_test(f, 1, 10, threshold=threshold)


def test_acceptance_ranks_like_the_exact_norm():
    # the tester's acceptance and the exact U^2 power induce nearly the same
    # ordering on random functions
    p, n = 2, 5
    spec = uniformity_tester_spec(p, n, 1)
    accs, exacts = [], []
    rng = np.random.default_rng(31)
    for i in range(50):
        fv = rng.integers(0, p, size=space_size(p, n))
        accs.append(
            run_tester(
                symmetrize_tester(spec),
                field_table(p, n, fv),
                trials=16000,
                seed=i,
            ).acceptance
        )
        phase = FunctionTable(p, n, np.exp(2j * np.pi * fv / p))
        exacts.append(float(gowers_norm(phase, 2)) ** 4)
    assert spearmanr(accs, exacts).statistic > 0.8


def test_find_testing_degree_prefers_the_right_degree():
    quad = poly_table(2, 4, {(1, 1, 0, 0): 1})
    res = find_testing_degree([quad], 2, 4, 2, samples=2000, seed=0)
    assert res["heuristic"] is True
    assert res["best_degree"] == 2
    assert res["separations"][2] > 0.5 > res["separations"][1]
    assert res == find_testing_degree([quad], 2, 4, 2, samples=2000, seed=0)
    with pytest.raises(ValidationError):
        find_testing_degree([], 2, 4, 2)


# ---------------------------------------------------------- interior experiment

def test_interior_single_form_gram():
    rep = interior_experiment([LinearSystem(2, 1, [(1,)])], 2, 2, trials=5, seed=1)
    assert rep.independent and rep.trials_run == 1
    assert rep.gram == pytest.approx(np.array([[1.0]]))
    assert rep.min_singular_value == pytest.approx(1.0)


def test_interior_finds_witness_for_ap3_and_segment():
    ap3 = arithmetic_progression_system(3, 3)
    two = LinearSystem(3, 2, [(1, 0), (1, 1)])
    rep = interior_experiment([ap3, two], 3, 3, trials=50, seed=0)
    assert rep.independent and rep.trials_run == 1
    assert rep.min_singular_value == pytest.approx(0.004854778246066949)
    w = rep.witness.values.real
    assert w.min() > 0.0 and w.max() < 1.0
    # gram is symmetric PSD
    assert np.abs(rep.gram - rep.gram.T).max() < 1e-12
    assert np.linalg.eigvalsh(rep.gram).min() > -1e-9
    assert rep.independent is True and rep.trials_run == 1


def test_interior_rejects_isomorphic_pair():
    ap3 = arithmetic_progression_system(3, 3)
    padded = LinearSystem(3, 3, [(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    with pytest.raises(ValidationError) as exc:
        interior_experiment([ap3, padded], 3, 3, trials=5, seed=0)
    assert "isomorphic" in str(exc.value)


def test_interior_rejects_mixed_components():
    mixed = LinearSystem(2, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    with pytest.raises(ValidationError) as exc:
        interior_experiment([mixed], 2, 3, trials=5, seed=0)
    assert "components" in str(exc.value)


def test_interior_rejects_power_degeneracy():
    # {x} and {x, y} reduce to the same single form; their averages trace the
    # curve (t, t^2), which has empty interior
    single = LinearSystem(2, 2, [(1, 0)])
    double = LinearSystem(2, 2, [(1, 0), (0, 1)])
    with pytest.raises(ValidationError):
        interior_experiment([single, double], 2, 2, trials=5, seed=0)


def test_interior_validation_and_threshold():
    with pytest.raises(ValidationError):
        interior_experiment([], 2, 2)
    with pytest.raises(ValidationError):
        interior_experiment([LinearSystem(3, 1, [(1,)])], 2, 2)
    for trials in (0, -2):
        with pytest.raises(ValidationError, match="trials"):
            interior_experiment([LinearSystem(2, 1, [(1,)])], 2, 2, trials=trials)
    # the 2^40-point table is charged against the budget before it is drawn
    with pytest.raises(BudgetExceededError) as exc:
        interior_experiment([LinearSystem(2, 1, [(1,)])], 2, 40)
    assert exc.value.cost == 2**40
    # three boundary functions on F_2^1 span at most its 2 dimensions, so no
    # trial passes the threshold and every trial runs
    single = LinearSystem(2, 1, [(1,)])
    triangle = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])
    square = LinearSystem(2, 3, [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])
    rep = interior_experiment([single, triangle, square], 2, 1, trials=3, seed=1)
    assert not rep.independent and rep.trials_run == 3
    assert rep.min_singular_value == pytest.approx(0.0, abs=1e-12)


def test_interior_refuses_huge_n_without_building_p_to_the_n():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as exc:
            interior_experiment([LinearSystem(3, 1, [(1,)])], 3, 10**10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stated cost is a lower bound on 3^(10^10), which is never built
    assert exc.value.budget < exc.value.cost and peak < 2**20
