"""Checks for the budget ledger: one running total per command, which a
nested budget() joins, a refused charge leaves as it was, and a closed
ledger leaves behind nothing."""

import pytest

from fpuniform import config
from fpuniform.config import budget, charge, check, fits, limit
from fpuniform.errors import BudgetExceededError
from fpuniform.linear_forms import arithmetic_progression_system, cs_complexity


def test_nested_budget_joins_the_open_ledger():
    with budget(10):
        charge(6)
        with budget():
            assert limit() == 10 and fits(4) and not fits(5)
            with pytest.raises(BudgetExceededError) as exc:
                charge(5, "second")
            assert (exc.value.cost, exc.value.budget) == (11, 10)
            assert "second needs 5 points, bringing the command to 11," in str(exc.value)
            charge(4)  # the refused charge recorded nothing
        assert not fits(1)
        with budget(3):  # a limit opens a ledger of its own
            assert fits(3) and not fits(4)
        assert not fits(1)


def test_decorated_calls_share_an_open_ledger(monkeypatch):
    # AP4 at p = 5 charges its partition search 72 points (test_cs_search_charge)
    ap4 = arithmetic_progression_system(5, 4)
    monkeypatch.setattr(config, "DEFAULT_BUDGET", 72)
    # two top-level calls open a ledger each and do not share a total
    assert not cs_complexity(ap4).bound_only
    assert not cs_complexity(ap4).bound_only
    with budget():
        assert not cs_complexity(ap4).bound_only
        assert cs_complexity(ap4).bound_only  # nothing left for the second


def test_ledger_resets_after_a_refusal():
    with pytest.raises(BudgetExceededError), budget(10):
        charge(6)
        charge(5)
    assert limit() == config.DEFAULT_BUDGET and fits(config.DEFAULT_BUDGET)
    with budget(10):
        assert fits(10)


def test_check_compares_the_cost_alone():
    with budget(10):
        charge(8)
        check(10)  # an allocation guard: the spent 8 does not count
        with pytest.raises(BudgetExceededError) as exc:
            check(11, "table")
        assert (exc.value.cost, exc.value.budget) == (11, 10)
        assert fits(2) and not fits(3)  # and it recorded nothing
