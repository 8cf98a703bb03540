"""Tour of the distributed-Gaussian polynomial family.

Builds the orthonormal chains phi_n at a few deformation strengths,
prints a corner of the Gram matrix, and shows how a product of two
family members decomposes into narrower Gaussians whose coefficients
add up to a Kronecker delta.
"""

import numpy as np

import qgauss as qg

ctx = qg.QContext(q=0.5)
print(f"width c = {ctx.c:.6f}  (q = {float(ctx.q)})")
print(f"single-Gaussian normalization alpha = {float(qg.alpha(ctx)):.12f}")
print()

# Level n combines n + 1 unit Gaussians on consecutive integer centers
# with alternating signed q-binomial coefficients.
print("normalized chains (coefficient @ center):")
for n in range(4):
    chain = qg.build_phi(ctx, n)
    terms = "  ".join(f"{coeff.real:+.6f} @ {t // 2}"
                      for t, coeff in sorted(chain.coeffs.items()))
    print(f"  phi_{n}: {terms}")
print()

# The closed-form overlaps make the Gram matrix exact up to rounding.
report = qg.gram_phi(ctx, nmax=4)
print("Gram matrix, n, m <= 4:")
for row in report.matrix:
    print("  " + "  ".join(f"{entry:+12.4e}" for entry in row))
print(f"largest deviation from the identity: {report.max_abs_deviation:.3e}")
print()

print("same check across deformation strengths, n, m <= 12:")
for q in (0.2, 0.5, 0.8):
    dev = qg.gram_phi(qg.QContext(q=q), nmax=12).max_abs_deviation
    print(f"  q = {q}: {dev:.3e}")
print()

# Pointwise products live in a different family: narrower Gaussians on
# half-integer centers. Their coefficient sum carries the whole inner
# product, which is why any periodic weight preserves orthogonality.
print("daughter coefficient sums (target delta_nm):")
for row in qg.daughter_sum_rules(ctx, 3):
    sums = [complex(total).real for total in row]
    print("  " + "  ".join(f"{s:+10.3e}" for s in sums))
print()

# The chains really are functions; sample phi_2 on a short grid.
xs = np.linspace(-1.0, 3.0, 9)
vals = np.real(qg.evaluate(qg.build_phi(ctx, 2), xs))
print("phi_2 on [-1, 3]:")
print("  " + "  ".join(f"{v:+.5f}" for v in vals))
