"""Uniformity norms: what they see and what they miss.

The U^k norm of a bounded function on F_p^n averages the function over
k-dimensional parallelepipeds.  Phases of degree-(k-1) polynomials are the
canonical obstructions: they have U^k norm exactly 1, while a generic
function has all of its uniformity norms close to zero.  The U^2 norm is
special — it is the ell^4 norm of the Fourier transform, so a large U^2
norm always comes from a single large Fourier coefficient.
"""

import numpy as np

from fpuniform.analysis import correlation_with_family, fourier_transform, gowers_norm
from fpuniform.polynomials import Polynomial
from fpuniform.tables import FunctionTable, phase_table

p, n = 2, 6
N = p**n

print("== a quadratic phase over F_2^6 ==")
Q = Polynomial(2, 6, {(1, 1, 0, 0, 0, 0): 1, (0, 0, 1, 1, 0, 0): 1, (0, 0, 0, 0, 1, 1): 1})
f = phase_table(Q)
for k in (2, 3, 4):
    print(f"  U^{k} norm = {gowers_norm(f, k).value:.6f}")
print("  the norm saturates at k = 3 because deg Q = 2 kills third differences")

print()
print("== random +-1 functions: the norms decay as the space grows ==")
rng = np.random.default_rng(0)
g = FunctionTable(p, n, 1.0 - 2.0 * rng.integers(0, 2, size=N))
for m in (6, 8, 10):
    gm = FunctionTable(p, m, 1.0 - 2.0 * np.random.default_rng(m).integers(0, 2, size=p**m))
    u2 = gowers_norm(gm, 2).value
    u3 = gowers_norm(gm, 3).value
    print(f"  n = {m:>2}: U^2 = {u2:.4f}   U^3 = {u3:.4f}")
print("  no polynomial structure, so nothing stops the box averages cancelling")

print()
print("== U^2 is the fourth moment of the Fourier transform ==")
hat = fourier_transform(g)
u2 = gowers_norm(g, 2)
print(f"  sum |g-hat|^4       = {float((np.abs(hat) ** 4).sum()):.10f}")
print(f"  U^2 power           = {u2.power:.10f}")
print(f"  largest coefficient = {float(np.abs(hat).max()):.6f}")
print(f"  linear correlation  = {correlation_with_family(g, degree=1).value:.6f}")
print("  (for U^2 the best linear phase is read straight off the spectrum)")

print()
print("== Monte-Carlo estimates come with standard errors ==")
exact = gowers_norm(g, 3).value
for samples in (400, 4000, 40000):
    rep = gowers_norm(g, 3, samples=samples, seed=1)
    print(
        f"  {samples:>6} samples: {rep.value:.4f}"
        f"  (exact {exact:.4f}, stderr on the power {rep.stderr:.4f})"
    )
