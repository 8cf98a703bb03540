"""Why the parity-twisted Gram matrix needs care, and how it is solved.

The second oscillator's eigenfunctions B_n have coefficients that grow
like q^{-n(n-1)/2}, and the twisted overlaps (B_n, B_m) cancel those
huge terms down to numbers of size one. A naive floating-point sum
therefore loses a digit for every digit of coefficient growth. The
library sidesteps this in double precision by taking each overlap as an
exact integer sum over the binary value q = M/2^e, rounded once, and
offers an explicit-precision backend whose working digits one budget,
read off the contraction's own term mass, picks in advance.
"""

import qgauss as qg
from qgauss.chain import gram_budget
from qgauss.macfarlane import EXACT_NMAX, twisted_gram_magnitudes

ctx = qg.QContext(q=0.5)

# The alternating-sign diagonal is the headline: (B_n, B_n) = (-1)^n.
report = qg.indefinite_gram(ctx, nmax=5)
print("twisted Gram diagonal at q = 0.5 (target (-1)^n):")
print("  " + "  ".join(f"{report.matrix[n][n]:+.6f}" for n in range(6)))
print(f"deviation from the alternating identity: "
      f"{float(report.max_abs_deviation):.3e}")
print()

# The same in a regime where naive summation visibly fails: at q = 0.9
# the entries cancel a term mass of ~2e9, so a float sum floors near
# 3e-7. The exact integer sum over the binary value q = M/2^e still
# returns zero deviation.
wide = qg.indefinite_gram(qg.QContext(q=0.9), nmax=10)
print(f"q = 0.9, n <= 10 deviation (exact-rational path): "
      f"{float(wide.max_abs_deviation):.3e}")
log_condition, _, _ = gram_budget(*twisted_gram_magnitudes(0.9, 10), 1e-8)
print(f"term mass a naive sum would have to cancel: "
      f"{10 ** log_condition:.3e}")
print()

# With an explicit digit count the library contracts the coefficients
# rounded to that precision instead, so the budget becomes visible: the
# condition (largest term mass over the entry's size) times the roundoff
# per operation and the term count predicts the floor each digit count
# reaches.
magnitudes = twisted_gram_magnitudes(0.5, 12)
log_condition, suggested, _ = gram_budget(*magnitudes, 1e-20)
print("explicit-precision backend at q = 0.5, n <= 12:")
print(f"  condition of the Gram sums: 1e{log_condition:.1f}")
for digits in (8, 40):
    rep = qg.indefinite_gram(qg.QContext(q=0.5, digits=digits), nmax=12)
    floor = gram_budget(*magnitudes, 1e-20, digits)[2]
    print(f"  digits = {digits:2d}: deviation "
          f"{float(rep.max_abs_deviation):.3e}, predicted floor {floor:.1e}")
print(f"  digits the budget picks for 1e-20 with 12 to spare: {suggested}")
print()

# The verification suite wires the same logic behind one call: the exact
# integer sums up to EXACT_NMAX, where they are the cheaper route, and the
# digits the budget picks past it.
for nmax in (12, EXACT_NMAX + 2):
    result = qg.run_suite("mac-gram", qg.QContext(q=0.5), nmax=nmax)
    print(f"mac-gram suite at n <= {nmax}: passed = {result.passed}, "
          f"deviation {float(result.max_deviation):.3e}, "
          f"digits {result.params['digits']}")
