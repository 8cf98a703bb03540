"""The two exact ladder algebras on the Gaussian lattice.

Every operator here is a finite composition of half-step lattice shifts
and q^{ax+b} multipliers, so applying one to a chain is exact integer
bookkeeping. The script lowers the ground state to literal zero, walks
the eigenvalue ladders of both oscillators, and measures the deformed
commutators on random chains.
"""

import numpy as np

import qgauss as qg
from qgauss.chain import commutator_residuals
from qgauss.verify import random_table

ctx = qg.QContext(q=0.5)
q = float(ctx.q)

# Annihilation is exact: the lowered ground state has no terms at all.
lowered = qg.apply_ladder(qg.arik_lower(ctx), qg.build_phi(ctx, 0))
print(f"a phi_0 term count: {len(lowered)} (is_zero = {lowered.is_zero()})")
lowered_b = qg.apply_ladder(qg.mac_lower(ctx), qg.build_Bn(ctx, 0))
print(f"b B_0   term count: {len(lowered_b)} (is_zero = {lowered_b.is_zero()})")
print()

# First family: lambda_n = (1 - q^n) / (1 - q), bounded above by 1/(1-q).
# Second family: lambda_n = (1 - q^-n) / (1 - q), negative and unbounded.
print(" n   lambda_n (first)   lambda_n (second)")
for n in range(7):
    lam_a = qg.arik_coon_eigenvalue(q, n)
    lam_b = qg.macfarlane_eigenvalue(q, n)
    print(f"{n:2d}   {lam_a:16.12f}   {lam_b:17.10f}")
print()

# Raising from phi_n must land on sqrt(lambda_{n+1}) phi_{n+1} and
# lowering on sqrt(lambda_n) phi_{n-1}; residuals are coefficient-wise.
print("ladder residuals at q = 0.5:")
print(" n   a lower      a raise      b lower      b raise")
levels = (1, 3, 6, 10)
for n, a_res, b_res in zip(levels, qg.ladder_residuals(ctx, levels, qg.DG),
                           qg.ladder_residuals(ctx, levels, qg.MAC)):
    print(f"{n:2d}   {a_res['lower_residual']:.3e}   "
          f"{a_res['raise_residual']:.3e}   "
          f"{b_res['lower_residual']:.3e}   {b_res['raise_residual']:.3e}")
print("(second-family residuals are relative; those coefficients reach "
      "1e22 by n = 10)")
print()

# The commutation relations hold on arbitrary chains, not only on the
# eigenfunctions. Try ten random ones, drawn as the rows of one table.
rng = np.random.default_rng(7)
first, second = commutator_residuals(
    ctx, [qg.DG.relation, qg.MAC.relation], random_table(ctx, rng, 10))
print("worst deformed-commutator residual over 10 random chains:")
print(f"  a a' - q a' a - 1: {max(first):.3e}")
print(f"  b' b - q b b' - 1: {max(second):.3e}")
