"""Polynomial factors: sigma-algebras cut out by level sets of polynomials.

A factor is an ordered list of polynomials P_1..P_C on F_p^n; the atom of a
point x is the value tuple (P_1(x), ..., P_C(x)).  Conditional expectation
averages a function over each atom.  `decompose` runs a desk-scale energy
increment: keep adding the polynomial phase most correlated with the residual
until its Gowers norm drops below the target (or a round cap trips).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import correlation_with_family, gowers_norm
from .config import DECOMPOSE_ROUND_CAP
from .errors import ValidationError
from .field import place_values, space_size, validate_dims
from .polynomials import Polynomial, priced_family
from .polyrank import polynomial_rank
from .tables import FunctionTable


@dataclass(frozen=True)
class PolynomialFactor:
    """The common-level-set partition of F_p^n by an ordered polynomial list."""

    p: int
    n: int
    defining: tuple[Polynomial, ...] = ()
    labels: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        p, n = validate_dims(self.p, self.n)
        polys = tuple(self.defining)
        for q in polys:
            if not isinstance(q, Polynomial):
                raise ValidationError("defining entries must be polynomials")
            if (q.p, q.n) != (p, n):
                raise ValidationError("defining polynomial lives on a different space")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "defining", polys)
        if polys:
            cols = np.stack([q.value_table() for q in polys], axis=1)
            labels = cols @ place_values(p, len(polys))
        else:
            labels = np.zeros(space_size(p, n), dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def complexity(self) -> int:
        return len(self.defining)

    @property
    def label_space(self) -> int:
        """p^C, the number of possible atom labels (realized or not)."""
        return self.p ** self.complexity

    def atom_count(self) -> int:
        return len(np.unique(self.labels))

    def extend(self, poly: Polynomial) -> "PolynomialFactor":
        return PolynomialFactor(self.p, self.n, self.defining + (poly,))

    def rank(self, r_max: int = 2, budget: int | None = None):
        """Rank of the defining set, delegated to the polynomial-rank search."""
        if not self.defining:
            raise ValidationError("the empty factor has no defining polynomials")
        return polynomial_rank(self.defining, r_max=r_max, budget=budget)

    def __repr__(self):
        names = ", ".join(q.to_text() for q in self.defining)
        return f"PolynomialFactor(p={self.p}, n={self.n}, [{names}])"


def conditional_expectation(f: FunctionTable, factor: PolynomialFactor) -> FunctionTable:
    """E(f|B): replace every value by the mean over its atom."""
    if (f.p, f.n) != (factor.p, factor.n):
        raise ValidationError("table and factor live on different spaces")
    size = factor.label_space
    counts = np.bincount(factor.labels, minlength=size)
    re = np.bincount(factor.labels, weights=f.values.real, minlength=size)
    im = np.bincount(factor.labels, weights=f.values.imag, minlength=size)
    means = (re + 1j * im) / np.maximum(counts, 1)
    vals = means[factor.labels]
    if f.codomain == "real":
        return FunctionTable(f.p, f.n, vals.real, codomain="real")
    return FunctionTable(f.p, f.n, vals)


@dataclass
class DecompositionReport:
    factor: PolynomialFactor
    projection: FunctionTable  # h = E(f|B)
    residual: FunctionTable  # h' = f - h
    rounds: int
    achieved_norm: float
    target: float
    degree: int
    flagged: bool  # True when the round cap hit before reaching the target
    history: list = field(default_factory=list)  # norm after each round
    rank_floor: int | None = None
    rank_meets_floor: bool | None = None

    @property
    def complexity(self) -> int:
        return self.factor.complexity


def decompose(
    f: FunctionTable,
    d: int,
    delta: float,
    rank_floor: int | None = None,
    homogeneous_only: bool = False,
    budget: int | None = None,
) -> DecompositionReport:
    """Split f = h + h' with h measurable in a degree-<=d factor, ||h'||_{U^{d+1}} <= delta.

    Each round finds, by exhaustive search, the degree-<=d phase most
    correlated with the current residual and adjoins it to the factor.  The
    search is one correlation_with_family call per round, over Poly_d or, with
    `homogeneous_only`, over the nonzero homogeneous polynomials of degree
    1..d; each call is charged against `budget` for its whole family.  That
    charge is checked before round 0 too, so a family past the budget is
    refused before any norm is computed, even for an f already within delta.
    If the correlation dries up or `DECOMPOSE_ROUND_CAP` rounds run first, the
    report comes back flagged with the best norm achieved.  `delta` must be
    finite and >= 0.
    `rank_floor` is checked against the factor's rank, by a search charged
    against `budget` too, and reported (None when the budget leaves it
    undecided), never enforced.
    """
    p, n = f.p, f.n
    if not 0 <= delta < float("inf"):
        raise ValidationError(f"delta must be finite and >= 0, got {delta}")
    priced_family(p, n, d, homogeneous_only, budget)
    factor = PolynomialFactor(p, n, ())
    history = []
    rounds = 0
    flagged = False
    while True:
        h = conditional_expectation(f, factor)
        residual = f - h
        norm = float(gowers_norm(residual, d + 1, budget=budget))
        history.append(norm)
        if norm <= delta:
            break
        if rounds >= DECOMPOSE_ROUND_CAP:
            flagged = True
            break
        rep = correlation_with_family(residual, d, homogeneous_only, budget=budget)
        if float(rep) < 1e-12 or rep.best in factor.defining:
            # no phase left to make progress with
            flagged = True
            break
        refined = factor.extend(rep.best)
        if refined.atom_count() == factor.atom_count():
            flagged = True
            break
        factor = refined
        rounds += 1
    floor = None if rank_floor is None or not factor.complexity else int(rank_floor)
    meets = None
    if floor is not None:
        if floor <= 0:
            meets = True
        else:
            try:
                meets = factor.rank(r_max=floor - 1, budget=budget).rank_exceeds(floor - 1)
            except ValidationError:
                meets = None  # the budget ended the rank search before deciding
    return DecompositionReport(
        factor=factor,
        projection=h,
        residual=residual,
        rounds=rounds,
        achieved_norm=norm,
        target=delta,
        degree=d,
        flagged=flagged,
        history=history,
        rank_floor=floor,
        rank_meets_floor=meets,
    )
