"""Global knobs: enumeration budget, search caps, worker count.

Everything here is a plain module-level constant or a tiny helper; operations
take an optional ``budget=`` argument that falls back to the environment and
then to the default.  The caps bound the searches that are still exhaustive
(partitions, isomorphisms, polynomial rank); connected components are found
in polynomial time and have no cap.
"""

from __future__ import annotations

import os

from .errors import BudgetExceededError

#: Default cap on the number of points any exact enumeration may touch.
DEFAULT_BUDGET = 2**24

#: Largest supported prime modulus.
MAX_PRIME = 251

#: cs_complexity gives up on the exact partition search above this many forms
#: and returns the m-2 upper bound flagged as bound-only.
PARTITION_SEARCH_CAP = 12

#: are_isomorphic reports "undecided" above this many forms.
ISOMORPHISM_SEARCH_CAP = 10

#: Exhaustive polynomial-rank search caps.
RANK_POINT_CAP = 64
RANK_RMAX_CAP = 2
RANK_FAMILY_CAP = 2**18
RANK_TUPLE_CAP = 2**22

#: Round cap for the energy-increment decomposition loop.
DECOMPOSE_ROUND_CAP = 64

#: Rejection-sampling retry cap (random invertible matrices and the like).
RETRY_CAP = 1000

_BUDGET_ENV = "FPUNIFORM_BUDGET"
_WORKERS_ENV = "FPUNIFORM_WORKERS"


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument > environment override > default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(_BUDGET_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_BUDGET


def resolve_workers(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(_WORKERS_ENV)
    if env is not None:
        return max(1, int(env))
    return 1


def check_budget(cost: int, budget: int | None = None, what: str = "enumeration") -> int:
    """Raise BudgetExceededError when ``cost`` points exceed the budget.

    Returns the resolved budget so callers can reuse it.
    """
    limit = resolve_budget(budget)
    if cost > limit:
        raise BudgetExceededError(cost, limit, what)
    return limit
