"""Global knobs: the enumeration budget, the float tolerance and two limits.

Everything here is a plain module-level constant or a tiny helper; operations
take an optional ``budget=`` argument that falls back to the default.  No
search stops at a cap: the isomorphism, polynomial-rank and partition
searches and the rounds of `decompose` are charged against the budget, and
connected components are found in polynomial time.  RETRY_CAP is not a
search cap but a stop for a rejection sampler whose draws never succeed.
"""

from __future__ import annotations

from .errors import BudgetExceededError

#: Default cap on the number of points any exact enumeration may touch.
DEFAULT_BUDGET = 2**24

#: Relative float-rounding tolerance of exact results: reports declare it,
#: and scores this close to a maximum tie with it.
FLOAT_TOL = 1e-12

#: Largest supported prime modulus.
MAX_PRIME = 251

#: Rejection-sampling retry cap (random invertible matrices and the like).
RETRY_CAP = 1000


def resolve_budget(budget: int | None = None) -> int:
    """The explicit budget, or the default when it is None."""
    return DEFAULT_BUDGET if budget is None else int(budget)


def check_budget(cost: int, budget: int | None = None, what: str = "enumeration") -> int:
    """Raise BudgetExceededError when ``cost`` points exceed the budget.

    Returns the resolved budget so callers can reuse it.
    """
    limit = resolve_budget(budget)
    if cost > limit:
        raise BudgetExceededError(cost, limit, what)
    return limit
