"""Periodic weights and the doubly indexed orthogonal family.

Multiplying every eigenfunction by one fixed period-1/2 function w
changes nothing about orthonormality, because the inner products only
see the daughter-coefficient sums and those are weight-independent.
Different weights, however, are not orthogonal to each other, and
orthogonalizing the weights themselves yields a family indexed by a
weight label and a polynomial label at once.
"""

import numpy as np

import qgauss as qg
from qgauss.weights import random_weight, weight_family_condition

ctx = qg.QContext(q=0.5)


def weighted_entry(weight, n, m):
    """<A_n, A_m> = integral |w|^2 conj(A_n) A_m dx by direct quadrature."""
    f = qg.build_An(ctx, weight, n).chain
    g = qg.build_An(ctx, weight, m).chain

    def integrand(x):
        wv = weight.evaluate(x)
        return np.conj(wv) * wv * np.conj(qg.evaluate(f, x)) * qg.evaluate(g, x)
    return qg.integrate_real_line(integrand, ctx, tol=1e-12)


# In closed form the weight's norm cancels against alpha_w, so only a
# quadrature of the weighted integrand shows the weight at work. A cosine
# weight and a complex random one, any finite Fourier series of period
# 1/2: the weighted family stays orthonormal.
w = qg.cosine_weight(0.3)
wr = random_weight(np.random.default_rng(99))
for name, weight in (("w = 1 + 0.3 cos(4 pi x)", w),
                     (f"random weight (modes {sorted(wr.modes)})", wr)):
    print(f"{name}:")
    for n, m in ((0, 0), (3, 3), (8, 8), (1, 2), (2, 6), (5, 8)):
        gap = abs(weighted_entry(weight, n, m) - (n == m))
        print(f"  <A_{n}, A_{m}> differs from delta_nm by {gap:.1e}")
print()

# The weighted normalization differs from the plain one unless the
# weight is unimodular; alpha_w absorbs it.
print(f"alpha   = {float(qg.alpha(ctx)):.12f}")
print(f"alpha_w = {float(qg.alpha_w(w, ctx)):.12f}")
print()

# Orthogonalizing the weights themselves: the mode-overlap kernel is a
# Gaussian in the mode gap, so nearby modes are nearly dependent and
# the family conditioning degrades fast with count and width.
family = qg.orthonormal_weight_family(ctx, count=3)
print("first orthonormal weights (mode: coefficient, residues dropped):")
for i, wf in enumerate(family):
    desc = ", ".join(f"{m}: {coeff.real:+.6f}" for m, coeff in
                     sorted(wf.modes.items()) if abs(coeff) > 1e-12)
    print(f"  w_{i}: {desc}")
print(f"kernel condition at count = 3: "
      f"{weight_family_condition(ctx, 3):.3e}")
print()

# The doubly indexed family: 3 weights x 7 polynomial levels, all
# mutually orthonormal.
gamma = qg.gamma_family_gram(ctx, nweights=3, nmax=6)
print(f"doubly indexed Gram: {len(gamma.labels)} members, "
      f"deviation {gamma.max_abs_deviation:.3e}")
print("worst entries (row label, column label, gap):")
for i, j, value, target in gamma.worst_entries(3):
    print(f"  {gamma.labels[i]} x {gamma.labels[j]}: {abs(value - target):.3e}")
