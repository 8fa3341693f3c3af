"""Testing for polynomial structure with a handful of queries.

A tester queries a field-valued function at a few correlated points and
accepts or rejects.  The degree-d uniformity tester queries the 2^{d+1}
corners of a random parallelepiped and accepts when the alternating sum
vanishes — degree-<=d polynomials always pass, and far-from-polynomial
functions fail a constant fraction of the time.

Symmetrizing a tester composes each query set with a fresh random affine
map.  That makes the acceptance probability a function of the affine orbit
of f only, without changing what the tester accepts in the mean.
"""

import numpy as np

from fpuniform.polynomials import Polynomial
from fpuniform.tables import FunctionTable
from fpuniform.testers import (
    find_testing_degree,
    run_tester,
    symmetrize_tester,
    uniformity_test,
    uniformity_tester_spec,
)

p, n = 2, 6
N = p**n


def field_table(values):
    return FunctionTable(p, n, values, codomain="real")


cubic = field_table(Polynomial(p, n, {(1, 1, 1, 0, 0, 0): 1}).value_table())
quad = field_table(Polynomial(p, n, {(1, 1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 1}).value_table())
rnd = field_table(np.random.default_rng(4).integers(0, p, size=N))

print("== the degree-d uniformity test, 2^{d+1} queries per trial ==")
for name, f in (("x1x2x3", cubic), ("x1x2+x3", quad), ("random", rnd)):
    row = [f"{uniformity_test(f, d, samples=3000, seed=0).estimate:.3f}" for d in (1, 2, 3)]
    print(f"  {name:>8}: d=1 {row[0]}   d=2 {row[1]}   d=3 {row[2]}")
print("  a degree-d polynomial is accepted with probability exactly 1 at degree d")

print()
print("== picking the degree that best separates f from random ==")
rep = find_testing_degree([cubic], p, n, 3, samples=3000, seed=0)
print(f"  best degree {rep['best_degree']}, separations "
      + ", ".join(f"d={d}: {s:.3f}" for d, s in sorted(rep["separations"].items())))

print()
print("== symmetrization: acceptance becomes an affine invariant ==")
spec = uniformity_tester_spec(p, n, 1)
sym = symmetrize_tester(spec)
lin = field_table(Polynomial(p, n, {(1, 0, 0, 0, 0, 0): 1}).value_table())
for name, f in (("linear", lin), ("quadratic", quad), ("random", rnd)):
    acc = run_tester(sym, f, trials=10000, seed=1).acceptance
    print(f"  symmetrized linearity test accepts {name:>9}: {acc:.3f}")
print("  linear functions pass always; anything uniform passes about half the time")

# acceptance really is invariant: precompose f with a random affine bijection
from fpuniform.field import random_affine

twisted = rnd.apply_affine(random_affine(p, n, seed=11))
a0 = run_tester(sym, rnd, trials=20000, seed=3).acceptance
a1 = run_tester(sym, twisted, trials=20000, seed=3).acceptance
print(f"  acceptance of f vs f o affine: {a0:.3f} vs {a1:.3f} (equal up to sampling noise)")
