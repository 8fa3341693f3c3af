"""Splitting a function into structure plus noise.

Given f on F_p^n, a degree d and a target delta, `decompose` produces a
factor B generated by a few degree-<=d polynomials such that the projection
E(f|B) carries the structured part and the residual f - E(f|B) has U^{d+1}
norm below delta.  Each round finds a polynomial phase correlating with the
current residual and refines the factor — an energy-increment argument, so
the number of rounds is bounded by 1/delta^2 regardless of n.

Here we bury a quadratic phase in noise and watch the decomposition dig
it back out.
"""

import numpy as np

from fpuniform.analysis import gowers_norm, inner_product
from fpuniform.factors import conditional_expectation, decompose
from fpuniform.polynomials import Polynomial
from fpuniform.polyrank import polynomial_rank
from fpuniform.tables import FunctionTable, phase_table

p, n = 2, 5
N = p**n

Q = Polynomial(2, 5, {(1, 1, 0, 0, 0): 1, (0, 0, 1, 1, 0): 1})
rng = np.random.default_rng(7)
noise = FunctionTable(p, n, rng.random(N) * np.exp(2j * np.pi * rng.random(N)))
f = phase_table(Q) * FunctionTable.constant(p, n, 0.6) + noise * FunctionTable.constant(p, n, 0.4)

print(f"f = 0.6 e(Q) + 0.4 noise on F_2^5, Q = {Q.to_text()}")
print(f"  U^3 of f before decomposition: {gowers_norm(f, 3).value:.4f}")

rep = decompose(f, 2, 0.25)
print()
print(f"decompose(f, degree=2, delta=0.25): {rep.rounds} rounds, flagged={rep.flagged}")
for P in rep.factor.defining:
    print(f"  factor generator: {P.to_text()}")
print(f"  achieved U^3 of the residual: {rep.achieved_norm:.4f}")

# the projection is a genuine conditional expectation: orthogonality in action
h = rep.projection
resid = f - h
print()
print(f"  ||f||^2 = {inner_product(f, f).real:.4f} = "
      f"||h||^2 + ||f - h||^2 = {inner_product(h, h).real:.4f} + "
      f"{inner_product(resid, resid).real:.4f}")
print(f"  <f - h, h> = {abs(inner_product(resid, h)):.2e}  (residual is orthogonal)")

# projecting onto the factor generated by Q itself recovers most of the signal
direct = conditional_expectation(f, rep.factor)
print(f"  projection is idempotent: max |E(h|B) - h| = "
      f"{float(np.abs(conditional_expectation(h, rep.factor).values - h.values).max()):.2e}")
print(f"  correlation of E(f|B) with the planted phase: "
      f"{abs(inner_product(direct, phase_table(Q))):.4f}")

# the planted quadratic is honest structure: its rank certifies equidistribution
rank = polynomial_rank(Q)
print()
print(f"rank of Q: {rank.value} ({rank.kind})")
print("  high rank means Q is far from any function of a few linear forms,")
print("  so the atoms of the factor it generates all have nearly equal size")
