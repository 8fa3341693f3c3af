"""Polynomial factors: sigma-algebras cut out by level sets of polynomials.

A factor is an ordered list of polynomials P_1..P_C on F_p^n; the atom of a
point x is the value tuple (P_1(x), ..., P_C(x)).  Conditional expectation
averages a function over each atom.  `decompose` runs a desk-scale energy
increment: keep adding the polynomial phase most correlated with the residual
until its Gowers norm drops below the target (or the budget runs out).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import correlation_with_family, gowers_norm
from .config import budget, check, fits
from .errors import ValidationError
from .field import place_values, space_size, validate_dims
from .polynomials import Polynomial, priced_family
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
        """The number of distinct labels, counted from a sort in O(N) memory
        (np.unique would import numpy.ma)."""
        ordered = np.sort(self.labels)
        return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))

    def extend(self, poly: Polynomial) -> "PolynomialFactor":
        return PolynomialFactor(self.p, self.n, self.defining + (poly,))

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
    flagged: bool  # True when the budget or the search ended the rounds short of the target
    history: list = field(default_factory=list)  # norm after each round
    rank_floor: int | None = None
    rank_meets_floor: bool | None = None

    @property
    def complexity(self) -> int:
        return self.factor.complexity


@budget()
def decompose(
    f: FunctionTable,
    d: int,
    delta: float,
    rank_floor: int | None = None,
    homogeneous_only: bool = False,
) -> DecompositionReport:
    """Split f = h + h' with h measurable in a degree-<=d factor, ||h'||_{U^{d+1}} <= delta.

    Each round finds, by exhaustive search, the degree-<=d phase most
    correlated with the current residual and adjoins it to the factor.  The
    search is one correlation_with_family call per round, over Poly_d or, with
    `homogeneous_only`, over the nonzero homogeneous polynomials of degree
    1..d; each call is charged for its whole family.  That price is checked
    before round 0 too, so a family past the budget raises
    BudgetExceededError before any norm is computed, even for an f already
    within delta.  Every norm and search is charged to the one budget, and a
    round (its search and the norm after it) that does not fit is not run.
    A round that splits no atom ends the loop, so at most N - 1 rounds run.
    If the budget or the correlation runs out first, the report comes back
    flagged with the last factor and its norm.  `delta` must be finite and
    >= 0.  `rank_floor` is checked against the factor's rank, by a search
    charged to the budget too, and reported (None when the budget leaves it
    undecided), never enforced.
    """
    p, n = f.p, f.n
    if not 0 <= delta < float("inf"):
        raise ValidationError(f"delta must be finite and >= 0, got {delta}")
    _, search, what = priced_family(p, n, d, homogeneous_only)
    check(search, what)
    factor = PolynomialFactor(p, n, ())
    atoms = factor.atom_count()
    history = []
    rounds = 0
    flagged = False
    while True:
        h = conditional_expectation(f, factor)
        residual = f - h
        gowers = gowers_norm(residual, d + 1)
        norm = float(gowers)
        history.append(norm)
        if norm <= delta:
            break
        if not fits(search + gowers.cost):  # the next norm costs what this one did
            flagged = True
            break
        rep = correlation_with_family(residual, d, homogeneous_only)
        if float(rep) < 1e-12 or rep.best in factor.defining:
            # no phase left to make progress with
            flagged = True
            break
        refined = factor.extend(rep.best)
        refined_atoms = refined.atom_count()
        if refined_atoms == atoms:
            flagged = True
            break
        factor, atoms = refined, refined_atoms
        rounds += 1
    floor = None if rank_floor is None or not factor.complexity else int(rank_floor)
    meets = None
    if floor is not None:
        if floor <= 0:
            meets = True
        else:
            from .polyrank import polynomial_rank

            try:
                rank = polynomial_rank(factor.defining, r_max=floor - 1)
                meets = rank.rank_exceeds(floor - 1)
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
