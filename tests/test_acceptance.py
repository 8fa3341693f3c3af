"""The fifteen acceptance checks, one per test, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every check either verifies an exact identity at the stated
tolerance or reproduces a frozen experimental golden with fixed seeds.
"""

import time

import numpy as np
import pytest

from fpuniform.analysis import (
    boundary_function,
    correlation_with_family,
    flagged_average,
    gowers_norm,
    inner_product,
    linear_form_average,
)
from fpuniform.factors import PolynomialFactor, conditional_expectation, decompose
from fpuniform.field import space_size
from fpuniform.linear_forms import (
    FlaggedSystem,
    LinearSystem,
    arithmetic_progression_system,
    cs_complexity,
    flagged_product,
    true_complexity,
)
from fpuniform.polynomials import Polynomial, monomials_up_to
from fpuniform.tables import FunctionTable, phase_table, random_real_table
from fpuniform.testers import (
    DistributionalFunction,
    interior_experiment,
    run_tester,
    symmetrize_tester,
    uniformity_tester_spec,
)

TRI2 = LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)])


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num:>2}. {name}: {detail}")


def disk_table(p: int, n: int, seed: int) -> FunctionTable:
    """Uniform over the closed unit disk, pointwise."""
    rng = np.random.default_rng(seed)
    N = space_size(p, n)
    vals = np.sqrt(rng.random(N)) * np.exp(2j * np.pi * rng.random(N))
    return FunctionTable(p, n, vals)


def random_phase_poly(p: int, n: int, d: int, rng: np.random.Generator) -> FunctionTable:
    monos = monomials_up_to(p, n, d)
    coeffs = rng.integers(0, p, size=len(monos))
    return phase_table(Polynomial.from_coefficients(p, n, monos, coeffs))


def test_01_direct_inequality():
    t0 = time.monotonic()
    worst = -1.0
    for seed in range(100):
        f = disk_table(2, 4, seed)
        for d in (1, 2):
            u = correlation_with_family(f, degree=d).value
            U = gowers_norm(f, d + 1).value
            worst = max(worst, u - U)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60
    _line(1, "u(Poly_d) <= U^{d+1}", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_02_polynomial_phase_norm():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        p = int(rng.choice([2, 3]))
        d = int(rng.choice([1, 2]))
        n = int(rng.integers(2, 5))
        g = random_phase_poly(p, n, d, rng)
        rep = gowers_norm(g, d + 1, budget=space_size(p, n) ** (d + 2))
        worst = max(worst, abs(rep.value - 1.0))
    ok = worst <= 1e-9
    _line(2, "U^{d+1}(e_p(P)) = 1", ok, f"max |norm - 1| = {worst:.2e}")
    assert ok


def test_03_u2_inverse():
    worst = -1.0
    for seed in range(100):
        f = disk_table(2, 4, 300 + seed)
        eps = gowers_norm(f, 2).value
        u1 = correlation_with_family(f, degree=1).value
        worst = max(worst, eps**2 - u1)
    ok = worst <= 1e-9
    _line(3, "U^2 >= eps implies u(Linear) >= eps^2", ok, f"max violation {worst:.2e}")
    assert ok


def _box_average(fs: list[FunctionTable], k: int) -> complex:
    # E over x, y_1..y_k of prod_w C^{k-|w|} f_w(x + sum_{i in w} y_i); p = 2
    # lets index arithmetic run on XORs
    p, n = fs[0].p, fs[0].n
    assert p == 2
    idx = np.arange(space_size(p, n))
    axes = [idx.reshape((-1,) + (1,) * k)]
    for i in range(k):
        shape = [1] * (k + 1)
        shape[i + 1] = -1
        axes.append(idx.reshape(shape))
    total = np.ones(tuple([space_size(p, n)] * (k + 1)), dtype=np.complex128)
    for mask in range(2**k):
        pt = axes[0]
        bits = 0
        for i in range(k):
            if mask >> i & 1:
                pt = pt ^ axes[i + 1]
                bits += 1
        vals = fs[mask].values[pt]
        if (k - bits) % 2:
            vals = np.conj(vals)
        total = total * vals
    return complex(total.mean())


def test_04_gowers_cauchy_schwarz():
    worst = -1.0
    for trial in range(100):
        k = 2 if trial % 2 == 0 else 3
        fs = [disk_table(2, 3, 1000 + 16 * trial + w) for w in range(2**k)]
        lhs = abs(_box_average(fs, k))
        rhs = 1.0
        for g in fs:
            rhs *= gowers_norm(g, k).value
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-9
    _line(4, "box average <= prod of U^k norms", ok, f"max violation {worst:.2e}")
    assert ok


def test_05_cs_complexity_bound():
    cases = [
        (arithmetic_progression_system(3, 3), 3),
        (LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)]), 4),
    ]
    worst = -1.0
    for sys_, n in cases:
        s = cs_complexity(sys_).value
        assert s == 1
        for trial in range(100):
            fs = [
                disk_table(sys_.p, n, 2000 + 8 * trial + i) for i in range(sys_.m)
            ]
            t_val = abs(complex(linear_form_average(fs, sys_)))
            bound = min(gowers_norm(g, s + 1).value for g in fs)
            worst = max(worst, t_val - bound)
    ok = worst <= 1e-9
    _line(5, "|t_L| <= min U^{s+1}", ok, f"max violation {worst:.2e}")
    assert ok


def test_06_true_complexity_goldens():
    got = (
        true_complexity(arithmetic_progression_system(3, 3)).value,
        true_complexity(arithmetic_progression_system(5, 4)).value,
        true_complexity(TRI2).value,
    )
    ok = got == (1, 2, 1)
    _line(6, "true complexity of 3-AP, 4-AP, triangle", ok, f"got {got}")
    assert ok


def test_07_derivative_identity():
    h = 1e-4
    systems = [
        (LinearSystem(2, 2, [(1, 0), (0, 1), (1, 1)]), 3),
        (arithmetic_progression_system(3, 3), 2),
        (LinearSystem(3, 2, [(1, 0), (1, 1)]), 2),
    ]
    worst = 0.0
    for sys_, n in systems:
        for trial in range(20):
            f = random_real_table(sys_.p, n, seed=40 + trial, low=0.2, high=0.8)
            g = random_real_table(sys_.p, n, seed=900 + trial, low=-1.0, high=1.0)
            up = complex(linear_form_average(f + g * FunctionTable.constant(sys_.p, n, h), sys_)).real
            dn = complex(linear_form_average(f - g * FunctionTable.constant(sys_.p, n, h), sys_)).real
            slope = (up - dn) / (2 * h)
            grad = float(np.mean(g.values.real * boundary_function(f, sys_).values.real))
            worst = max(worst, abs(slope - grad))
    ok = worst <= 1e-3
    _line(7, "d/dt t_L(f+tg) = E[g f^dL]", ok, f"max |slope - grad| = {worst:.2e}")
    assert ok


def test_08_flagged_product_identity():
    pairs = [
        (
            FlaggedSystem(2, 2, [(0, 1), (1, 1)], (1, 0)),
            FlaggedSystem(2, 1, [(1,)], (1,), multiplicities=(2,)),
        ),
        (
            FlaggedSystem(3, 2, [(1, 0), (1, 1)], (1, 2)),
            FlaggedSystem(3, 2, [(1, 0), (0, 1)], (1, 1)),
        ),
    ]
    worst = 0.0
    for a, b in pairs:
        prod = flagged_product(a, b)
        for trial in range(20):
            f = disk_table(a.p, 3, 3000 + trial)
            lhs = flagged_average(f, prod).values
            rhs = flagged_average(f, a).values * flagged_average(f, b).values
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst <= 1e-9
    _line(8, "f^{A.B} = f^A f^B", ok, f"max pointwise gap {worst:.2e}")
    assert ok


def test_09_disconnected_and_tensor_multiplicativity():
    worst = 0.0
    for trial in range(50):
        p = 2 if trial % 2 == 0 else 3
        split = LinearSystem(p, 3, [(1, 1, 0), (1, 0, 0), (0, 0, 1)])
        fs = [disk_table(p, 2, 4000 + 4 * trial + i) for i in range(3)]
        whole = complex(linear_form_average(fs, split))
        left = complex(
            linear_form_average(fs[:2], LinearSystem(p, 3, [(1, 1, 0), (1, 0, 0)]))
        )
        right = complex(linear_form_average([fs[2]], LinearSystem(p, 3, [(0, 0, 1)])))
        worst = max(worst, abs(whole - left * right))
        # tensor multiplicativity, for the norm and for the average
        f, g = fs[0], disk_table(p, 1, 4400 + trial)
        fg = f.tensor_product(g)
        worst = max(
            worst,
            abs(gowers_norm(fg, 2).value - gowers_norm(f, 2).value * gowers_norm(g, 2).value),
        )
        tri = LinearSystem(p, 2, [(1, 0), (0, 1), (1, 1)])
        worst = max(
            worst,
            abs(
                complex(linear_form_average(fg, tri))
                - complex(linear_form_average(f, tri)) * complex(linear_form_average(g, tri))
            ),
        )
    ok = worst <= 1e-9
    _line(9, "averages factor over components and tensors", ok, f"max gap {worst:.2e}")
    assert ok


def test_10_projection_identity():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(5000 + trial)
        polys = [
            Polynomial.from_coefficients(
                2, 3, monomials_up_to(2, 3, 2), rng.integers(0, 2, size=len(monomials_up_to(2, 3, 2)))
            )
            for _ in range(1 + trial % 2)
        ]
        B = PolynomialFactor(2, 3, polys)
        f = disk_table(2, 3, 5100 + trial)
        g = conditional_expectation(disk_table(2, 3, 5200 + trial), B)
        lhs = inner_product(f, g)
        rhs = inner_product(conditional_expectation(f, B), g)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    _line(10, "<f, g> = <E(f|B), g> for measurable g", ok, f"max gap {worst:.2e}")
    assert ok


def test_11_decomposition_contract():
    t0 = time.monotonic()
    misses = 0
    flagged = 0
    for trial in range(20):
        f = disk_table(2, 4, 6000 + trial)
        rep = decompose(f, 2, 0.25)
        if rep.flagged:
            flagged += 1
            continue
        residual = f - rep.projection
        check = gowers_norm(residual, 3).value
        if check > 0.25 + 1e-9:
            misses += 1
    elapsed = time.monotonic() - t0
    ok = misses == 0 and elapsed < 300
    _line(
        11,
        "decompose meets delta or flags",
        ok,
        f"unflagged misses {misses}, flagged {flagged}/20, {elapsed:.1f}s",
    )
    assert ok


def test_12_distributional_concentration():
    F = random_real_table(2, 8, seed=0, low=0.0, high=1.0)
    gamma = DistributionalFunction.lift(F)
    t_gamma = complex(gamma.t_star(TRI2, (1, 1, 1))).real
    fails = 0
    for seed in range(200):
        f = gamma.sample_function(seed)
        t_f = complex(
            DistributionalFunction.from_function(f).t_star(TRI2, (1, 1, 1))
        ).real
        if abs(t_f - t_gamma) > 0.1:
            fails += 1
    ok = fails <= 10  # 5% of 200
    _line(12, "sampled averages concentrate", ok, f"{fails}/200 deviations > 0.1")
    assert ok


def test_13_interior_experiment():
    ap3 = arithmetic_progression_system(3, 3)
    two = LinearSystem(3, 2, [(1, 0), (1, 1)])
    rep = interior_experiment([ap3, two], 3, 3, trials=50, seed=0)
    ok = (
        rep.independent
        and rep.min_singular_value > 1e-6
        and rep.min_singular_value == pytest.approx(0.004854778246066949)
    )
    _line(
        13,
        "interior witness for {3-AP, {x, x+y}}",
        ok,
        f"trial {rep.trials_run}, min singular {rep.min_singular_value:.3e}",
    )
    assert ok


def test_14_monte_carlo_calibration():
    N = 1000
    bound = 4 / np.sqrt(N)
    phase = phase_table(Polynomial(2, 2, {(1, 1): 1}))
    exact_norm = gowers_norm(phase, 2).value
    tri3 = disk_table(2, 3, 7000)
    exact_avg = complex(linear_form_average(tri3, TRI2))
    good_norm = 0
    good_avg = 0
    for seed in range(100):
        mc_n = gowers_norm(phase, 2, samples=N, seed=seed).value
        if abs(mc_n - exact_norm) <= bound:
            good_norm += 1
        mc_a = complex(
            linear_form_average(tri3, TRI2, samples=N, seed=seed)
        )
        if abs(mc_a - exact_avg) <= bound:
            good_avg += 1
    ok = good_norm >= 95 and good_avg >= 95
    _line(
        14,
        "mc within 4/sqrt(N) of exact",
        ok,
        f"norm {good_norm}/100, average {good_avg}/100",
    )
    assert ok


def test_15_tester_separation():
    lin = FunctionTable(
        2, 8, Polynomial(2, 8, {tuple([1] + [0] * 7): 1}).value_table(), codomain="real"
    )
    gaps = []
    for seed in range(5):
        spec = symmetrize_tester(uniformity_tester_spec(2, 8, 1))
        rnd = FunctionTable(
            2, 8, np.random.default_rng(8000 + seed).integers(0, 2, size=256), codomain="real"
        )
        a_lin = run_tester(spec, lin, trials=10**4, seed=seed).acceptance
        a_rnd = run_tester(spec, rnd, trials=10**4, seed=seed).acceptance
        gaps.append(a_lin - a_rnd)
    ok = all(g >= 0.3 for g in gaps)
    _line(15, "tester separates linear from random", ok, f"min gap {min(gaps):.3f}")
    assert ok
