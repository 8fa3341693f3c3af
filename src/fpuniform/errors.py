"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so new failure modes should
reuse one of the classes below rather than raising bare ValueErrors.
"""

from __future__ import annotations


class FpuniformError(Exception):
    """Base class for all package errors."""


class ValidationError(FpuniformError):
    """A parameter or input value violates an operation's contract."""


class FormatError(FpuniformError):
    """A serialized input (JSON table, system file, ...) is malformed.

    Carries an optional ``pointer`` locating the offending element, e.g.
    ``/values/3``.
    """

    def __init__(self, message: str, pointer: str | None = None):
        self.pointer = pointer
        if pointer is not None:
            message = f"{message} (at {pointer})"
        super().__init__(message)


def parse_at(pointer: str, build, *args):
    """build(*args), with a ValidationError raised as a FormatError at `pointer`."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise FormatError(str(exc), pointer=pointer) from exc


def reported_count(count: int | None) -> int | str | None:
    """A cost or budget as messages and reports give it: the count itself up
    to 2^64, and the lower bound ">2^64" above it, which also keeps a count
    of thousands of digits from being formatted at all."""
    return count if count is None or count <= 2**64 else ">2^64"


class BudgetExceededError(FpuniformError):
    """An exact enumeration would exceed the configured point budget.  `cost`
    is the command's total with the refused step, `spent` its total before."""

    def __init__(self, cost: int, limit: int, what: str = "enumeration", spent: int = 0):
        self.cost = cost
        self.budget = limit
        step = f"{what} needs {reported_count(cost - spent)} points"
        if spent:
            step += f", bringing the command to {reported_count(cost)},"
        super().__init__(f"{step} but the budget is {reported_count(limit)}")


class RetryLimitError(FpuniformError):
    """An internal rejection-sampling loop hit its retry cap.

    Reaching this is a sign of a broken RNG, not bad user input.
    """
