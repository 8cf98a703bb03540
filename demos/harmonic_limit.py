"""Shrinking the Gaussian width recovers the harmonic oscillator.

As c -> 0 the polynomial chains converge, after rescaling, to Hermite
functions, and both eigenvalue ladders converge to the integers (one
from above, one from below, the second with a sign flip). Convergence
of the rescaled ratio is second order in c once the odd part is
averaged out; the script measures that rate directly.
"""

import math

import qgauss as qg

# Ratio-flatness of the even part, per level and width. A perfectly
# converged level would give a constant ratio over the sample grid, so
# the deviation (spread over median) is the distance from the limit.
c_list = [0.2, 0.1, 0.05]
print("even-part ratio deviation, per level and width:")
print(" n   dev(c=0.2)   dev(c=0.1)   dev(c=0.05)  step ratio")
for n in range(5):
    rows = qg.harmonic_limit_scan(qg.DG, n, c_list)
    devs = [row["dev"] for row in rows]
    step = devs[2] / devs[1] if devs[1] > 0 else float("nan")
    print(f"{n:2d}   {devs[0]:10.3e}   {devs[1]:10.3e}   {devs[2]:10.3e}"
          f"   {step:8.3f}")
print("(a step ratio of 0.25 when halving c is the second-order signature;"
      " n = 0 is exact at every width)")
print()

# Eigenvalues: lambda_n -> n for the first family, -n for the second.
print("eigenvalue ladders approaching the classical integers:")
print("  c        q          lambda_3 (first)   lambda_3 (second)")
for c in (0.5, 0.2, 0.05):
    q = math.exp(-c * c)
    lam_a = qg.arik_coon_eigenvalue(q, 3)
    lam_b = qg.macfarlane_eigenvalue(q, 3)
    print(f"  {c:4.2f}   {q:.6f}   {lam_a:16.10f}   {lam_b:17.10f}")
print()

# The library packages the same sweep, with pass/fail bookkeeping, as
# the "limits" suite.
result = qg.run_suite("limits", nmax=4)
print(f"limits suite: passed = {result.passed}, "
      f"worst eigenvalue gap {result.max_deviation:.3e} "
      f"(tolerance {result.tolerance})")
