"""Global knobs and the budget ledger: the float tolerance, two limits, and
the one running total of the work a command does.

A ledger is [limit, spent] in a context variable.  `budget(limit)` opens one
for a block or a function; `budget()` joins the open ledger, or opens one at
DEFAULT_BUDGET, so a library call outside any ledger is charged as one
command.  `charge` records work and refuses the charge that would pass the
limit, `fits` asks without charging, and `check` guards an allocation,
comparing its size alone against the limit.  No search stops at a cap: the
isomorphism, polynomial-rank and partition searches and the rounds of
`decompose` are charged to the ledger, and connected components are found in
polynomial time.  RETRY_CAP is not a search cap but a stop for a rejection
sampler whose draws never succeed.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import BudgetExceededError

#: Default cap on the points a command may enumerate or sample.
DEFAULT_BUDGET = 2**24

#: Relative float-rounding tolerance of exact results: reports declare it,
#: and scores this close to a maximum tie with it.
FLOAT_TOL = 1e-12

#: Largest supported prime modulus.
MAX_PRIME = 251

#: Rejection-sampling retry cap (random invertible matrices and the like).
RETRY_CAP = 1000

#: The open ledger, [limit, spent], or None outside every budget.
_LEDGER: ContextVar[list | None] = ContextVar("ledger", default=None)


@contextmanager
def budget(limit: int | None = None):
    """A new ledger of `limit` points for the block, or without a limit the
    open ledger, or a new one at DEFAULT_BUDGET when none is open.  A ledger
    opened here closes with the block, refused or not."""
    if limit is None and _LEDGER.get() is not None:
        yield
        return
    token = _LEDGER.set([DEFAULT_BUDGET if limit is None else int(limit), 0])
    try:
        yield
    finally:
        _LEDGER.reset(token)


def _ledger() -> list:
    return _LEDGER.get() or [DEFAULT_BUDGET, 0]


def limit() -> int:
    """The open ledger's limit."""
    return _ledger()[0]


def fits(cost: int) -> bool:
    """Whether `cost` more points stay within the limit."""
    cap, spent = _ledger()
    return spent + cost <= cap


def charge(cost: int, what: str = "enumeration") -> None:
    """Record `cost` points, or raise BudgetExceededError with the total they
    would make, recording nothing."""
    ledger = _ledger()
    total = ledger[1] + cost
    if total > ledger[0]:
        raise BudgetExceededError(total, ledger[0], what, ledger[1])
    ledger[1] = total


def check(cost: int, what: str = "enumeration") -> None:
    """Raise BudgetExceededError when an allocation of `cost` points alone
    passes the limit; nothing is recorded."""
    if cost > limit():
        raise BudgetExceededError(cost, limit(), what)
