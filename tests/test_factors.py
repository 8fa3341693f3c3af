import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpuniform import factors
from fpuniform.analysis import gowers_norm, inner_product, linear_form_average
from fpuniform.errors import BudgetExceededError, ValidationError
from fpuniform.factors import (
    PolynomialFactor,
    conditional_expectation,
    decompose,
)
from fpuniform.linear_forms import LinearSystem
from fpuniform.polynomials import Polynomial
from fpuniform.tables import (
    FunctionTable,
    phase_table,
    random_real_table,
    random_unit_table,
)


X1 = Polynomial(2, 2, {(1, 0): 1})


def two_poly_factor():
    return PolynomialFactor(
        2, 3, [Polynomial(2, 3, {(1, 1, 0): 1}), Polynomial(2, 3, {(0, 0, 1): 1})]
    )


# ---------------------------------------------------------------- structure

def test_atoms_partition_domain():
    # a point's label encodes its value tuple, so equal labels are one atom
    B = two_poly_factor()
    assert B.atom_count() == len(set(B.labels.tolist())) <= B.label_space == 4
    tuples = [tuple(int(q.value_table()[i]) for q in B.defining) for i in range(8)]
    for i in range(8):
        for j in range(8):
            assert (B.labels[i] == B.labels[j]) == (tuples[i] == tuples[j])


def test_trivial_factor_single_atom():
    B = PolynomialFactor(3, 2, ())
    assert B.complexity == 0 and B.atom_count() == 1 and B.defining == ()


def test_factor_validation():
    with pytest.raises(ValidationError):
        PolynomialFactor(2, 2, [Polynomial(3, 2, {(1, 0): 1})])
    with pytest.raises(ValidationError):
        PolynomialFactor(2, 2, ["x1"])
    with pytest.raises(AttributeError):
        two_poly_factor().p = 5


def test_factor_rank_delegates():
    B = PolynomialFactor(2, 3, [Polynomial(2, 3, {(1, 1, 0): 1, (0, 0, 1): 1})])
    assert B.rank().value == 3
    with pytest.raises(ValidationError):
        PolynomialFactor(2, 2, ()).rank()


# ------------------------------------------------- conditional expectation

def test_conditional_expectation_golden():
    B = PolynomialFactor(2, 2, [X1])
    f = FunctionTable(2, 2, [1.0, 0.0, 0.0, 0.0], codomain="real")  # the point (0, 0)
    out = conditional_expectation(f, B)
    assert out.values.tolist() == [0.5, 0.5, 0.0, 0.0]


def conditional_direct(f, B):
    """Group points by raw polynomial value tuples — dict route, no bincount."""
    groups = {}
    for i in range(len(f.values)):
        key = tuple(int(q.value_table()[i]) for q in B.defining)
        groups.setdefault(key, []).append(i)
    out = np.empty_like(f.values)
    for idx in groups.values():
        out[idx] = f.values[idx].mean()
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conditional_expectation_matches_direct(seed):
    f = random_unit_table(2, 3, seed=seed)
    B = two_poly_factor()
    assert np.allclose(conditional_expectation(f, B).values, conditional_direct(f, B))


def test_projection_properties():
    f = random_unit_table(2, 3, seed=3)
    B = two_poly_factor()
    h = conditional_expectation(f, B)
    assert np.allclose(conditional_expectation(h, B).values, h.values)  # idempotent
    assert h.values.mean() == pytest.approx(f.values.mean(), abs=1e-12)  # tower
    l2 = lambda t: np.mean(np.abs(t.values) ** 2)
    assert l2(f) == pytest.approx(l2(h) + l2(f - h), abs=1e-9)  # Pythagoras


def test_measurable_fixed_point():
    B = PolynomialFactor(2, 2, [X1])
    g = FunctionTable(2, 2, [3.0, 3.0, -1.0, -1.0], codomain="real")
    assert np.allclose(conditional_expectation(g, B).values, g.values)
    assert conditional_expectation(g, B).codomain == "real"


@given(st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_projection_orthogonality(seed):
    # <f, g> = <E(f|B), g> for any B-measurable g
    rng = np.random.default_rng(seed)
    f = random_unit_table(2, 3, seed=seed)
    B = two_poly_factor()
    gamma = rng.normal(size=B.label_space) + 1j * rng.normal(size=B.label_space)
    g = FunctionTable(2, 3, gamma[B.labels])
    h = conditional_expectation(f, B)
    assert inner_product(f, g) == pytest.approx(inner_product(h, g), abs=1e-12)


# ---------------------------------------------------------------- decompose

def test_decompose_bilinear_phase_recovered():
    f = phase_table(Polynomial(2, 4, {(1, 1, 0, 0): 1}))
    rep = decompose(f, 2, 0.01)
    assert not rep.flagged
    assert rep.rounds == 1
    assert rep.factor.defining == (Polynomial(2, 4, {(1, 1, 0, 0): 1}),)
    assert np.abs(rep.residual.values).max() == pytest.approx(0.0, abs=1e-12)


def test_decompose_constant():
    rep = decompose(FunctionTable.constant(2, 4, 0.3), 2, 1e-9)
    assert rep.rounds == 0 and rep.complexity == 0 and not rep.flagged
    assert np.allclose(rep.projection.values, 0.3)


def test_decompose_zero_rounds_when_already_uniform():
    f = phase_table(Polynomial(2, 4, {(1, 1, 0, 0): 1}))
    rep = decompose(f, 1, 0.8)
    assert rep.rounds == 0 and not rep.flagged
    assert rep.achieved_norm <= 0.8


def test_decompose_postcondition_random():
    for seed in range(3):
        f = random_unit_table(2, 4, seed=seed)
        rep = decompose(f, 2, 0.25)
        resid_norm = float(gowers_norm(f - conditional_expectation(f, rep.factor), 3))
        assert rep.flagged or resid_norm <= 0.25 + 1e-12
        assert rep.achieved_norm == pytest.approx(resid_norm, abs=1e-12)


def test_decompose_keeps_a_real_table_real():
    # f - E(f|B) of a real f is real, so the residual and projection are too
    rep = decompose(random_real_table(2, 4, seed=1), 1, 0.3)
    assert rep.rounds >= 1
    assert rep.residual.codomain == rep.projection.codomain == "real"


def test_decompose_round_cap_flags(monkeypatch):
    monkeypatch.setattr(factors, "DECOMPOSE_ROUND_CAP", 2)
    rep = decompose(random_unit_table(2, 4, seed=0), 2, 1e-9)
    assert rep.flagged is True and rep.rounds == 2
    assert rep.achieved_norm > 1e-9
    assert len(rep.history) == rep.rounds + 1


def test_decompose_energy_monotone():
    rep = decompose(random_unit_table(2, 4, seed=1), 2, 0.25)
    # each added polynomial weakly shrank the uniformity norm of the residual
    assert all(b <= a + 1e-9 for a, b in zip(rep.history, rep.history[1:]))


def test_decompose_homogeneous_only():
    rep = decompose(random_unit_table(2, 4, seed=0), 2, 0.4, homogeneous_only=True)
    assert not rep.flagged
    assert all(q.is_homogeneous() for q in rep.factor.defining)


def test_decompose_rank_floor_reported():
    rep = decompose(random_unit_table(2, 4, seed=0), 2, 0.25, rank_floor=1)
    assert rep.rank_floor == 1
    assert rep.rank_meets_floor is True
    # the rank check shares the budget: x1x2x3 + x4 fits the degree-3 search
    # but not its r = 1 conflict masks (2^11 · (16 + 64) = 163,840 points)
    cubic = phase_table(Polynomial(2, 4, {(1, 1, 1, 0): 1, (0, 0, 0, 1): 1}))
    rep = decompose(cubic, 3, 0.1, rank_floor=2, budget=163839)
    assert rep.complexity == 1 and rep.rank_meets_floor is None
    assert decompose(cubic, 3, 0.1, rank_floor=2).rank_meets_floor is True


def test_decompose_prices_its_family_before_round_0(monkeypatch):
    # the homogeneous family of degree <= 3 on F_3^5 costs about 5e16 points;
    # it is refused before the round-0 U^4 norm runs, even for a table that
    # is already within delta
    def fail(*args, **kwargs):
        raise AssertionError("gowers_norm ran before the family was priced")

    monkeypatch.setattr(factors, "gowers_norm", fail)
    with pytest.raises(BudgetExceededError):
        decompose(random_unit_table(3, 5, seed=0), 3, 0.3, homogeneous_only=True)
    with pytest.raises(BudgetExceededError):
        decompose(FunctionTable.constant(2, 4, 0.0), 2, 0.5, budget=10)


def test_decompose_validation():
    f = random_unit_table(2, 4, seed=0)
    with pytest.raises(ValidationError):
        decompose(f, 0, 0.5)
    with pytest.raises(ValidationError):
        decompose(f, 5, 0.5)  # beyond the reduced-exponent degree range
    with pytest.raises(ValidationError):
        decompose(f, 2, -0.1)
    for delta in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="delta"):
            decompose(f, 2, delta)


# ---------------------------------------------------------------- hybrid

def test_hybrid_average_invariance_observed():
    # g = Gamma(P) and its hybrid h = Gamma(Q) for matched-degree full-rank
    # quadratics P, Q: on a homogeneous system the two averages agree far
    # more tightly than any a-priori bound requires
    P = Polynomial(3, 3, {(2, 0, 0): 1, (0, 1, 1): 1})
    Q = Polynomial(3, 3, {(0, 2, 0): 1, (1, 0, 1): 2})
    BA = PolynomialFactor(3, 3, [P])
    BB = PolynomialFactor(3, 3, [Q])
    assert BA.rank().value == 3 and BB.rank().value == 3
    rng = np.random.default_rng(7)
    gamma = rng.uniform(-1, 1, 3)
    g = FunctionTable(3, 3, gamma[P.value_table()], codomain="real")
    h = FunctionTable(3, 3, gamma[Q.value_table()], codomain="real")
    system = LinearSystem(3, 2, [(1, 0), (0, 1), (1, 1), (1, 2)])
    ta = complex(linear_form_average(g, system)).real
    tb = complex(linear_form_average(h, system)).real
    assert abs(ta - tb) < 0.01  # observed 1.4e-17 for this pair
