"""From the real line to the unit circle.

Resumming a lattice of Gaussians with the dual-lattice formula turns
real-line overlaps into circle integrals against a theta function, and
the polynomial family reappears as Rogers-Szego polynomials. The script
checks the resummation numerically, then reproduces both circle
orthogonality relations with the equispaced rule, each exactly in
coefficient space.
"""

import numpy as np

import qgauss as qg
from qgauss.chain import gram_budget
from qgauss.circle import MAC_TOL, circle_mac_magnitudes, theta_truncation

# The resummation identity, checked pointwise on a theta grid for three
# widths. Wide real-space Gaussians need few dual terms and vice versa.
grid = np.linspace(0.0, 1.0, 17)
print("lattice vs dual-lattice agreement:")
for c in (0.5, 1.0, 2.0):
    print(f"  c = {c}: max gap {qg.poisson_check(c, grid):.3e}")
print()

# theta_3 truncation is budgeted from the tail bound, not guessed.
for q in (0.3, 0.7):
    n_terms = theta_truncation(q, 1e-14)
    print(f"theta_3 truncation at q = {q}, tol 1e-14: {n_terms} harmonics")
print()

# First circle relation: Rogers-Szego polynomials against theta_3 weight
# give the diagonal q^-n (q,q)_n.
ctx = qg.QContext(q=0.5)
report = qg.circle_gram_dg(ctx, nmax=5, quad_points=512)
print("circle Gram diagonal (target q^-n (q,q)_n):")
for n in range(6):
    got = report.matrix[n][n]
    want = report.target[n][n]
    print(f"  n = {n}: {got:+.12f}  (target {want:+.12f})")
print(f"largest relative deviation, n <= 5: "
      f"{float(report.max_relative_deviation()):.3e}")
print()

# Second circle relation: the parity-twisted analogue. Its integrand
# oscillates with huge amplitude, so its sums cancel. In double, with no
# harmonic aliased by the rule, it is the twisted line Gram's exact integer
# numerator: each entry rounds once and the deviation is exactly 0.
mac = qg.circle_gram_mac(ctx, nmax=5, quad_points=512)
print("twisted circle Gram diagonal (target q^{-n(n-1)/2} (q,q)_n (-1)^n):")
for n in range(6):
    print(f"  n = {n}: {float(mac.matrix[n][n]):+.6f}  "
          f"(target {float(mac.target[n][n]):+.6f})")
print(f"exact route: working digits {mac.notes['working_digits']}, "
      f"largest relative deviation {mac.max_relative_deviation():.3e}")
# At set digits the rule runs in coefficient space; the budget reads the
# condition off the term mass and picks the working digits, and the notes
# set the predicted floor next to the deviation reached.
log_condition, digits, floor = gram_budget(
    *circle_mac_magnitudes(0.5, 5), MAC_TOL)
mac = qg.circle_gram_mac(ctx.with_digits(digits), nmax=5, quad_points=512)
print(f"condition of the sums at n <= 5: 1e{log_condition:.1f}")
print(f"working digits chosen: {digits} (report: "
      f"{mac.notes['working_digits']}), predicted floor {floor:.1e}")
print(f"largest relative deviation: {float(mac.max_relative_deviation()):.3e}")
