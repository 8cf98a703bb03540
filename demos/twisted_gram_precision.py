"""Why the parity-twisted Gram matrix needs care, and how it is solved.

The second oscillator's eigenfunctions B_n have coefficients that grow
like q^{-n(n-1)/2}, and the twisted overlaps (B_n, B_m) cancel those
huge terms down to numbers of size one. A naive floating-point sum
therefore loses a digit for every digit of coefficient growth. The
library sidesteps this in double precision by taking each overlap as an
exact integer sum over the binary value q = M/2^e, rounded once, and
offers an explicit-precision backend whose working digits you can budget
in advance.
"""

import qgauss as qg
from qgauss.macfarlane import (coefficient_dynamic_range_digits,
                               gram_term_budget, mac_auto_digits)

ctx = qg.QContext(q=0.5)

# The alternating-sign diagonal is the headline: (B_n, B_n) = (-1)^n.
report = qg.indefinite_gram(ctx, nmax=5)
print("twisted Gram diagonal at q = 0.5 (target (-1)^n):")
print("  " + "  ".join(f"{report.matrix[n][n]:+.6f}" for n in range(6)))
print(f"deviation from the alternating identity: "
      f"{float(report.max_abs_deviation):.3e}")
print()

# The same in a regime where naive summation visibly fails: at q = 0.9
# the largest intermediate term is ~4e7, so a float sum floors near
# 2e-7. The exact integer sum over the binary value q = M/2^e still
# returns zero deviation.
wide = qg.indefinite_gram(qg.QContext(q=0.9), nmax=10)
print(f"q = 0.9, n <= 10 deviation (exact-rational path): "
      f"{float(wide.max_abs_deviation):.3e}")
print(f"term mass a naive sum would have to cancel: "
      f"{gram_term_budget(0.9, 10):.3e}")
print()

# With an explicit digit count the library uses a plain multiprecision
# sum instead, so the budget arithmetic becomes visible: 8 digits are
# hopeless at n <= 12, 40 digits are plenty.
print("explicit-precision backend at q = 0.5, n <= 12:")
print(f"  coefficient dynamic range: "
      f"{coefficient_dynamic_range_digits(0.5, 12):.1f} digits")
for digits in (8, 40):
    rep = qg.indefinite_gram(qg.QContext(q=0.5, digits=digits), nmax=12)
    print(f"  digits = {digits:2d}: deviation {float(rep.max_abs_deviation):.3e}")
suggested = mac_auto_digits(0.5, 12, 1e-20)
print(f"  digits needed for 1e-20 by the budget model: {suggested}")
print()

# The verification suite wires the same logic behind one call.
result = qg.run_suite("mac-gram", qg.QContext(q=0.5), nmax=12)
print(f"mac-gram suite at n <= 12: passed = {result.passed}, "
      f"deviation {float(result.max_deviation):.3e}")
