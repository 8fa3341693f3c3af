"""Counting linear patterns in structured sets.

A system of linear forms (x, x+y, x+2y, ...) counts configurations.  How
uniform a set has to be before it contains the expected number of copies is
measured by the complexity of the system: 3-term progressions are controlled
by U^2 (complexity 1), 4-term progressions need U^3 (complexity 2).

A quadratic level set over F_5 is the classic separating example.  It is
linearly uniform — so its 3-AP count sits at the random model — but along
any line Q restricts to a quadratic in one variable, and a quadratic with
three roots vanishes identically.  Every 3-AP inside the set therefore
extends to a 4-AP inside the set, and the 4-AP count is far above random.
"""

from fpuniform.analysis import gowers_norm, linear_form_average
from fpuniform.linear_forms import (
    arithmetic_progression_system,
    cs_complexity,
    true_complexity,
)
from fpuniform.polynomials import Polynomial
from fpuniform.tables import FunctionTable

p, n = 5, 5
ap3 = arithmetic_progression_system(p, 3)
ap4 = arithmetic_progression_system(p, 4)

for sys_ in (ap3, ap4):
    cs = cs_complexity(sys_).value
    true = true_complexity(sys_).value
    print(f"{sys_.m}-AP over F_{p}: Cauchy-Schwarz complexity {cs}, true complexity {true}")

# the level set {Q = 0} of a full-rank quadratic, as a function table
Q = Polynomial(p, n, {tuple(2 if j == i else 0 for j in range(n)): 1 for i in range(n)})
S = FunctionTable(p, n, (Q.value_table() == 0).astype(float))
density = float(S.values.real.mean())
balanced = S - FunctionTable.constant(p, n, density)

print()
print(f"S = {{x : x_1^2 + ... + x_5^2 = 0}} in F_5^5, density {density:.4f}")
print(f"  U^2 of the balanced part: {gowers_norm(balanced, 2).value:.4f}  (linearly uniform)")
print(f"  U^3 of the balanced part: "
      f"{gowers_norm(balanced, 3).value:.4f}  (quadratic structure)")

t3 = complex(linear_form_average(S, ap3)).real
t4 = complex(linear_form_average(S, ap4)).real
print()
print(f"  3-AP density {t3:.6f}  vs  random model {density**3:.6f}"
      f"  (ratio {t3 / density**3:.2f})")
print(f"  4-AP density {t4:.6f}  vs  random model {density**4:.6f}"
      f"  (ratio {t4 / density**4:.2f})")
print(f"  and indeed t_4AP = t_3AP exactly: |t4 - t3| = {abs(t4 - t3):.2e},")
print("  because three zeros of a quadratic along a line force the fourth")

# the Cauchy-Schwarz bound in action: |t_L(f)| <= min_i ||f||_{U^{s+1}}
s = cs_complexity(ap4).value
t4_bal = abs(complex(linear_form_average(balanced, ap4)))
print()
print(f"  |t_4AP(balanced)| = {t4_bal:.6f} <= U^{s + 1}(balanced) = "
      f"{gowers_norm(balanced, s + 1).value:.6f}")
