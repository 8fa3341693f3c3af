"""Checks for the one Monte-Carlo estimator, rng.mc_mean, for the
estimates that stream through it, and for the SHA-256 that seeds and input
digests use."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fpuniform import rng as rng_module
from fpuniform.analysis import gowers_norm, linear_form_average
from fpuniform.config import budget
from fpuniform.errors import BudgetExceededError, ValidationError
from fpuniform.linear_forms import LinearSystem, cube_system
from fpuniform.rng import derive_seed, mc_mean
from fpuniform.tables import FunctionTable, random_unit_table
from fpuniform.testers import run_tester, symmetrize_tester, uniformity_tester_spec

SRC = Path(__file__).resolve().parent.parent / "src"
MESSAGES = [b"", b"fpuniform", bytes(range(256)) * 8192]  # the last is 2 MB


@pytest.mark.parametrize("data", MESSAGES, ids=["empty", "short", "2MB"])
def test_sha256_matches_hashlib(data):
    assert rng_module.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_derive_seed_is_pinned():
    # the seeds of every forked stream; these values predate the built-in SHA-256
    assert derive_seed(0, "a") == 16685818722191274909
    assert derive_seed(1, "symmetrize") == 17358853399832236772
    assert derive_seed(12345, "tester:3") == 9720763483820469703
    assert derive_seed(2**63, "") == 16363936737018677631


def test_sha256_falls_back_to_hashlib():
    # with both built-in modules blocked, the shim imports hashlib's sha256,
    # which gives the built-in's digests and seeds
    want = [rng_module.sha256(data).hexdigest() for data in MESSAGES]
    script = (
        "import hashlib, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from fpuniform import rng\n"
        "assert rng.sha256 is hashlib.sha256\n"
        "messages = [b'', b'fpuniform', bytes(range(256)) * 8192]\n"
        f"assert [rng.sha256(data).hexdigest() for data in messages] == {want!r}\n"
        "assert rng.derive_seed(0, 'a') == 16685818722191274909\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


def recording(draw):
    """draw, and the list of the blocks it returned."""
    blocks = []

    def wrapped(rng, size):
        blocks.append(draw(rng, size))
        return blocks[-1]

    return wrapped, blocks


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng, size: rng.random(size),
        lambda rng, size: np.exp(2j * np.pi * rng.random(size)) + 0.3,
        lambda rng, size: (rng.random(size) < 0.01).astype(float),
    ],
    ids=["real", "complex", "rare"],
)
def test_mc_mean_matches_two_pass_over_blocks(draw):
    count = 3 * rng_module._CHUNK + 17
    wrapped, blocks = recording(draw)
    mean, stderr = mc_mean(wrapped, count, 5, "samples", 1)
    assert [len(b) for b in blocks] == [rng_module._CHUNK] * 3 + [17]
    x = np.concatenate(blocks)
    assert mean == sum(b.sum() for b in blocks) / count
    assert abs(mean - x.mean()) <= 1e-12 * abs(x.mean())
    two_pass = np.sqrt(np.mean(np.abs(x - x.mean()) ** 2) / count)
    assert abs(stderr - two_pass) <= 1e-12 * two_pass
    # the same seed gives the same stream
    assert mc_mean(draw, count, 5, "samples", 1) == (mean, stderr)


def test_mc_mean_checks_the_count():
    for count in (0, -2):
        with pytest.raises(ValidationError, match="trials"):
            mc_mean(lambda rng, size: np.ones(size), count, 0, "trials", 1)


def test_mc_mean_charges_the_draws_before_the_first():
    # count * points is charged before draw is called
    def never(rng, size):
        raise AssertionError("drew past the budget")

    for count, points, limit in ((10, 3, 29), (10**22, 1, None), (1, 2**71, 2**70)):
        with pytest.raises(BudgetExceededError) as exc, budget(limit):
            mc_mean(never, count, 0, "samples", points)
        assert exc.value.cost == count * points
    with budget(30):
        assert mc_mean(lambda rng, size: np.ones(size), 10, 0, "samples", 3) == (1.0, 0.0)


def test_equal_draws_have_zero_stderr():
    for value in (0.1, 1 / 3, np.exp(2j * np.pi / 3)):
        count = 2 * rng_module._CHUNK + 5
        assert mc_mean(lambda rng, size: np.full(size, value), count, 0, "n", 1)[1] == 0.0


@pytest.mark.parametrize("value", [0.1, 1 / 3])
def test_constant_table_has_zero_stderr(value):
    # every draw is the same float, so the spread is exactly 0, not ~1e-11
    f = FunctionTable.constant(3, 2, value)
    rep = linear_form_average(f, LinearSystem(3, 1, [(1,)]), samples=100_000, seed=1)
    assert rep.stderr == 0.0
    assert rep.value == pytest.approx(value, rel=1e-12)


def peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_sampled_estimates_hold_no_samples():
    # a million draws each: holding them all would take 50 to 130 MB
    million = 10**6
    table = random_unit_table(2, 6, seed=0)
    assert peak_mb(
        lambda: linear_form_average(table, cube_system(2, 3), samples=million, seed=1)
    ) < 16
    field = FunctionTable(2, 6, np.arange(64) % 2, codomain="real")
    spec = uniformity_tester_spec(2, 6, 2)
    assert peak_mb(lambda: run_tester(spec, field, trials=million, seed=1)) < 16


def test_one_block_draws_indices_not_digits():
    # 2^15 draws: one (k, size, n) digit draw of them would take 16 MB for
    # U^4 on F_2^12, and the (count, r, n) candidates of the symmetrized
    # degree-2 tester on F_2^10 38 MB
    block = rng_module._CHUNK
    table = random_unit_table(2, 12, seed=0)
    assert peak_mb(lambda: gowers_norm(table, 4, samples=block, seed=1)) <= 8
    bits = FunctionTable(2, 10, np.arange(1024) % 3 % 2, codomain="real")
    spec = symmetrize_tester(uniformity_tester_spec(2, 10, 2))
    assert peak_mb(lambda: run_tester(spec, bits, trials=block, seed=1)) <= 10


def _u8_on_f2_6():
    return gowers_norm(random_unit_table(2, 6, seed=0), 8, samples=20_000, seed=1)


def _u4_on_f2_12():
    return gowers_norm(random_unit_table(2, 12, seed=0), 4, samples=2**15, seed=1)


def _symmetrized_degree_2_on_f2_10():
    bits = FunctionTable(2, 10, np.arange(1024) % 3 % 2, codomain="real")
    spec = symmetrize_tester(uniformity_tester_spec(2, 10, 2))
    return run_tester(spec, bits, trials=2**15, seed=1)


@pytest.mark.parametrize(
    "call,limit",
    [(_u8_on_f2_6, 2), (_u4_on_f2_12, 2), (_symmetrized_degree_2_on_f2_10, 3)],
    ids=["U8-F2^6", "U4-F2^12", "symmetrized-d2-F2^10"],
)
def test_block_memory_does_not_grow_with_the_forms(call, limit):
    # a block holds _CHUNK // width draws, and at p = 2 a draw multiplies each
    # form in as its index row arrives; one block of 2^15 draws held an
    # (m, block) index matrix: 41 MB for U^8 (256 forms), 6.3 MB for U^4 on
    # F_2^12 and 7.0 MB for the symmetrized degree-2 tester
    assert peak_mb(call) <= limit

