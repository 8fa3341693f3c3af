"""The value types are frozen dataclasses: systems and polynomials compare by
value, types that hold arrays by identity, and no field can be reassigned."""

from dataclasses import fields

import numpy as np
import pytest

from fpuniform.factors import PolynomialFactor
from fpuniform.field import AffineMap
from fpuniform.linear_forms import FlaggedSystem, LinearSystem
from fpuniform.polynomials import Polynomial
from fpuniform.tables import FunctionTable
from fpuniform.testers import DistributionalFunction, TesterSpec, uniformity_tester_spec

TRI = [(1, 0), (0, 1), (1, 1)]
TABLE = FunctionTable(2, 1, [1.0, -1.0])
SPEC = uniformity_tester_spec(2, 2, 1)
GAMMA = DistributionalFunction.uniform(2, 1)
XY = Polynomial(2, 2, {(1, 1): 1})
FACTOR = PolynomialFactor(2, 2, [XY])


def _relabelled(factor: PolynomialFactor) -> PolynomialFactor:
    # the same defining polynomials with other labels
    copy = PolynomialFactor(factor.p, factor.n, factor.defining)
    object.__setattr__(copy, "labels", factor.labels + 1)
    return copy


@pytest.mark.parametrize(
    "a, b, equal",
    [
        # terms in another order, coefficients not reduced mod p, a zero term
        (Polynomial(3, 2, {(1, 0): 1, (0, 2): 2}), Polynomial(3, 2, {(0, 2): 5, (1, 0): 4}), True),
        (Polynomial(3, 2, {(1, 0): 1, (1, 1): 0}), Polynomial(3, 2, {(1, 0): 1}), True),
        (Polynomial(3, 2, {(1, 0): 1}), Polynomial(3, 2, {(1, 0): 2}), False),
        (LinearSystem(3, 2, TRI), LinearSystem(3, 2, [(4, 0), (0, -2), (1, 1)]), True),
        (LinearSystem(3, 2, TRI), LinearSystem(3, 2, [(0, 1), (1, 0), (1, 1)]), False),
        (FlaggedSystem(2, 2, TRI, (1, 1)), FlaggedSystem(2, 2, TRI, (3, 1), [1, 1, 1]), True),
        (FlaggedSystem(2, 2, TRI, (1, 1)), FlaggedSystem(2, 2, TRI, (1, 1), [1, 2, 1]), False),
        (FlaggedSystem(2, 2, TRI, (1, 1)), LinearSystem(2, 2, TRI), False),
        (LinearSystem(2, 2, TRI), FlaggedSystem(2, 2, TRI, (1, 1)), False),
        # types that hold arrays are equal only to themselves
        (TABLE, TABLE, True),
        (TABLE, FunctionTable(2, 1, [1.0, -1.0]), False),
        (SPEC, SPEC, True),
        (SPEC, uniformity_tester_spec(2, 2, 1), False),
        (GAMMA, GAMMA, True),
        (GAMMA, DistributionalFunction.uniform(2, 1), False),
        # a factor is its defining list; its labels do not take part
        (FACTOR, _relabelled(FACTOR), True),
        (FACTOR, PolynomialFactor(2, 2, [XY, Polynomial(2, 2, {(1, 0): 1})]), False),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, bool) else str(v),
)
def test_value_semantics(a, b, equal):
    assert (a == b) is equal and (a != b) is not equal
    if equal:
        assert hash(a) == hash(b)


#: (type, field) pairs whose reassignment an older unit test already checks
CHECKED_ELSEWHERE = {
    ("Polynomial", "p"), ("FunctionTable", "p"), ("DistributionalFunction", "p"),
    ("TesterSpec", "q"), ("PolynomialFactor", "p"),
}

VALUES = [
    LinearSystem(2, 2, TRI), FlaggedSystem(2, 2, TRI, (1, 1)), XY, TABLE, SPEC, GAMMA, FACTOR,
    AffineMap(2, 2, np.eye(2, dtype=np.int64), np.zeros(2, dtype=np.int64)),
]


@pytest.mark.parametrize(
    "value, name",
    [
        pytest.param(value, f.name, id=f"{type(value).__name__}.{f.name}")
        for value in VALUES
        for f in fields(value)
        if (type(value).__name__, f.name) not in CHECKED_ELSEWHERE
    ],
)
def test_fields_cannot_be_assigned(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
