"""The orthogonal Gaussian-combination polynomials Phi_n / phi_n.

Phi_n is the alternating q-binomial combination of unit Gaussians at the
integers 0..n; phi_n is its normalization. DG describes the family to
the code written once over both (chain.Family). The module also carries
the harmonic-oscillator small-c limit study of either family and the
lognormal-weight polynomial bridge.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .context import QContext
from .qnum import (arik_coon_eigenvalue, binomials_from_prefix, hermite,
                   horner, pochhammer_prefix, qbinomial_row, qpochhammer)
from .chain import (Family, GaussianChain, alpha, arik_lower, arik_raise,
                    evaluate, gram_contract, inner, integer_chain,
                    lattice_kernel, mul_qlinear, overlap_scale, shift)
from .report import GramReport


@dataclass(frozen=True)
class SWPolynomial:
    """P_n(u; s) = sum_k C^n_k (-1)^k q^{(k+s)^2 - k/2} u^k, the polynomial
    part of Phi_n(x - s) after the substitution u = q^{-2x}."""

    n: int
    s: Fraction
    ctx: QContext
    coeffs: list

    def __call__(self, u):
        return horner(self.coeffs, u)


def dg_norm(ctx: QContext, n: int):
    """||Phi_n|| = (pi/2c^2)^{1/4} q^{-n/2} sqrt((q, q)_n)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return (ctx.sqrt(overlap_scale(ctx)) * ctx.qpow8(-4 * n)
            * ctx.sqrt(qpochhammer(ctx.q, n)))


def phi_table(ctx: QContext, nmax: int) -> list:
    """The coefficient rows of phi_0..phi_nmax, (-1)^k alpha [n k]_q
    q^{(n-k)/2} / sqrt((q, q)_n) on the centers k, from one Pochhammer
    prefix, one alpha and one list of powers q^{j/2}."""
    a, poch = alpha(ctx), pochhammer_prefix(ctx.q, nmax)
    signs = [a, -a] * (nmax // 2 + 1)
    powers = [ctx.qpow8(4 * j) for j in range(nmax + 1)]
    return [[sign * binom * power / root for sign, binom, power in
             zip(signs, binomials_from_prefix(poch, n), powers[n::-1])]
            for n, root in enumerate(map(ctx.sqrt, poch))]


def Phi_table(ctx: QContext, nmax: int) -> list:
    """The raw rows of Phi_0..Phi_nmax, (-1)^k [n k]_q q^{-k/2} on the
    centers k, from one Pochhammer prefix and one list of (-1)^k q^{-k/2}."""
    poch = pochhammer_prefix(ctx.q, nmax)
    powers = [-ctx.qpow8(-4 * k) if k % 2 else ctx.qpow8(-4 * k)
              for k in range(nmax + 1)]
    return [[binom * power for binom, power in
             zip(binomials_from_prefix(poch, n), powers)]
            for n in range(nmax + 1)]


def build_Phi(ctx: QContext, n: int) -> GaussianChain:
    """Unnormalized Phi_n as a chain on integer centers 0..n."""
    return integer_chain(ctx, Phi_table(ctx, n)[n])


def build_phi(ctx: QContext, n: int) -> GaussianChain:
    """Normalized phi_n; inner(phi_n, phi_n) = 1 analytically."""
    return integer_chain(ctx, phi_table(ctx, n)[n])


# a a' - q a' a = 1; build, table and bare look build_phi, phi_table and
# Phi_table up at each call, so a patched or traced one sees them all
DG = Family(name="dg", build=lambda ctx, n: build_phi(ctx, n),
            table=lambda ctx, nmax: phi_table(ctx, nmax),
            bare=lambda ctx, n: Phi_table(ctx, n)[n],
            lower=arik_lower, raise_=arik_raise, lam=arik_coon_eigenvalue,
            relation=(arik_lower, arik_raise), kind="standard", sign=1,
            relative=False)


def daughter_gram(ctx: QContext, nmax: int) -> np.ndarray:
    """D[n][m] = sum_{j,k} a^n_j a^m_k q^{(j-k)^2/2} over the normalized
    coefficients of phi_n and phi_m: the daughter coefficient sum of
    phi_n phi_m, alpha^2 delta_nm analytically, in the context's backend."""
    tables = phi_table(ctx, nmax)
    return gram_contract(tables, lattice_kernel(ctx, nmax + 1), tables)


def gram_phi(ctx: QContext, nmax: int) -> GramReport:
    """Gram matrix of phi_0..phi_nmax under the standard inner product,
    sqrt(pi/2c^2) times the daughter Gram, reported against the identity.
    The array goes left of an mpf, which would convert it by its string."""
    return GramReport(labels=list(range(nmax + 1)),
                      matrix=daughter_gram(ctx, nmax) * overlap_scale(ctx),
                      target=np.eye(nmax + 1), precision_digits=ctx.digits,
                      notes={"family": "dg"})


def daughter_sum_rules(ctx: QContext, nmax: int) -> np.ndarray:
    """The sums of the normalized daughter coefficients of phi_n phi_m for
    all n, m <= nmax, daughter_gram / alpha^2 as a 2-D array.

    The product expands as alpha^2 sum_k d_k q^{2(x-k/2)^2} and the d_k
    sum to delta_{nm}: integrating against any half-period weight picks up
    one common factor, which is why the whole orthogonality survives
    arbitrary periodic weights. Each pair of centers (j, k) gives the
    daughter at (j + k)/2 the term a^n_j a^m_k q^{(j-k)^2/2}, so the sum
    over daughters is the daughter Gram's entry, grouped by center
    instead of by pair.
    """
    return daughter_gram(ctx, nmax) / alpha(ctx) ** 2


# -- harmonic-oscillator limit ----------------------------------------------

def hermite_zeros(n: int) -> np.ndarray:
    if n == 0:
        return np.array([])
    return np.polynomial.hermite.hermroots([0.0] * n + [1.0])


def limit_grid(n: int, grid) -> np.ndarray:
    """Positive sample points, deduplicated and kept at least 0.2 clear of
    the Hermite zeros (the ratio blows up at a zero)."""
    pts = np.unique(np.abs(np.asarray(grid, dtype=float)))
    pts = pts[(pts > 1e-9) & (pts <= 4.0)]
    zeros = hermite_zeros(n)
    if zeros.size:
        dist = np.min(np.abs(pts[:, None] - zeros[None, :]), axis=1)
        pts = pts[dist >= 0.2]
    if pts.size < 3:
        raise ValueError("grid leaves fewer than 3 usable points away from "
                         "the Hermite zeros")
    return pts


def limit_ratio_curve(family: Family, n: int, c: float,
                      pts: np.ndarray) -> np.ndarray:
    """Even part of the scaled-polynomial / Hermite-target ratio,
    rho(s) = (r_c(s) + r_c(-s)) / 2 on the positive points pts, with
    r_c(s) = f(s / (sqrt(2) c)) / ((-c/sqrt(2))^n e^{-s^2/2} H_n(s)) and
    f the chain of family.bare(ctx, n)."""
    ctx = QContext(c=c)
    chain = integer_chain(ctx, family.bare(ctx, n))
    scale_factor = (-c / math.sqrt(2.0)) ** n
    xs = pts / (math.sqrt(2.0) * c)
    target_plus = np.exp(-pts ** 2 / 2.0) * hermite(n, pts)
    target_minus = np.exp(-pts ** 2 / 2.0) * hermite(n, -pts)
    r_plus = evaluate(chain, xs) / scale_factor / target_plus
    r_minus = evaluate(chain, -xs) / scale_factor / target_minus
    return np.real(r_plus + r_minus) / 2.0


def harmonic_limit_scan(family: Family, n: int, c_list, grid=None) -> list:
    """Measure how fast the family's f_n approaches the oscillator
    eigenfunction.

    The leading finite-c correction to the ratio r_c(s) is odd in s, so
    its even part rho (limit_ratio_curve) converges one order faster;
    dev(c) is the spread (max - min) / |median| of rho over the grid points
    clear of the Hermite zeros. One row per c gives the deviation and the
    median ratio (the limit's normalization, reported but not asserted);
    a parity-twisted family's rows add the eigenvalue lambda_n = sign lam_n
    of raise_ lower, its drift |lambda_n + n| and whether the indefinite
    norm of f_n has the sign (-1)^n.
    """
    if grid is None:
        grid = np.arange(0.3, 3.31, 0.15)
    pts = limit_grid(n, grid)
    rows = []
    for c in c_list:
        rho = limit_ratio_curve(family, n, c, pts)
        med = statistics.median(rho.tolist())
        row = {"c": float(c), "dev": float((rho.max() - rho.min()) / abs(med)),
               "ratio": float(med), "points": int(pts.size)}
        if family.kind == "parity_twisted":
            ctx = QContext(c=c)
            lam = family.sign * family.lam(ctx.q, n)
            f = family.build(ctx, n)
            norm = inner(f, f, kind=family.kind).real
            row.update(lambda_n=float(lam), lambda_gap=float(abs(lam + n)),
                       sign_ok=bool((norm > 0) == (n % 2 == 0)))
        rows.append(row)
    return rows


# -- the lognormal-weight polynomial bridge ---------------------------------

def stieltjes_wigert(ctx: QContext, n: int, s) -> SWPolynomial:
    """Coefficients of P_n(u; s); u^k carries C^n_k (-1)^k q^{(k+s)^2 - k/2}."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    s = Fraction(s)
    coeffs = []
    for k, binom in enumerate(qbinomial_row(ctx.q, n)):
        sign = -1 if k % 2 else 1
        coeffs.append(sign * binom * ctx.qpow((k + s) ** 2 - Fraction(k, 2)))
    return SWPolynomial(n=n, s=s, ctx=ctx, coeffs=coeffs)


def sw_u_of_x(ctx: QContext, x):
    """The substitution u = q^{-2x}, in double on a numpy grid (the
    quadrature stage)."""
    return np.exp(-2.0 * float(ctx.ln_q) * np.asarray(x, dtype=float))


def sw_u_form(poly: SWPolynomial, x):
    """q^{x^2} u^s P_n(u; s) at u = q^{-2x}; equals Phi_n(x - s) pointwise.

    In double x may be a numpy grid; in a high-precision backend it is one
    scalar point, evaluated in the context's type."""
    ctx = poly.ctx
    if ctx.is_mp:
        x = ctx.make(x)
        s = ctx.make(poly.s.numerator) / poly.s.denominator
        u = ctx.exp(-2 * ctx.ln_q * x)
        return ctx.exp(ctx.ln_q * (x * x - 2 * s * x)) * poly(u)
    xs = np.asarray(x, dtype=float)
    lnq = float(ctx.ln_q)
    u = np.exp(-2.0 * lnq * xs)
    pref = np.exp(lnq * (xs * xs - 2.0 * float(poly.s) * xs))
    vals = pref * poly(u)
    return vals if vals.shape else vals.item()


def sw_weight(ctx: QContext, s, x):
    """W(u(x)) = e^{-(ln u)^2 / (-2 ln q)} u^{2s-1} = q^{2x^2} q^{-2x(2s-1)},
    in double on a numpy grid (the quadrature stage)."""
    xs = np.asarray(x, dtype=float)
    lnq = float(ctx.ln_q)
    vals = np.exp(lnq * (2.0 * xs * xs - 2.0 * (2.0 * float(s) - 1.0) * xs))
    return vals if vals.shape else vals.item()


def sw_bridge_residual(ctx: QContext, n: int, s) -> float:
    """Largest relative pointwise gap between the u-form and Phi_n(x - s)
    over 81 points spanning [-2, n + 2], skipping points where
    Phi_n(x - s) is below 0.01 times its largest sampled magnitude (the
    ratio is meaningless at a zero). In a high-precision backend both
    sides are evaluated point by point in the context's type."""
    xs = np.linspace(-2.0, n + 2.0, 81)
    poly = stieltjes_wigert(ctx, n, s)
    chain = shift(build_Phi(ctx, n), -Fraction(s))
    if ctx.is_mp:
        pairs = [(sw_u_form(poly, x), evaluate(chain, ctx.make(x)).real)
                 for x in xs]
        top = max(abs(ref) for _, ref in pairs)
        return float(max(abs(u - ref) / abs(ref) for u, ref in pairs
                         if abs(ref) >= 0.01 * top))
    # past the double range the u-form turns NaN quietly; the sw suite
    # fails that row
    with np.errstate(over="ignore", invalid="ignore"):
        reference = np.real(evaluate(chain, xs))
        u_side = np.asarray(sw_u_form(poly, xs), dtype=float)
        keep = np.abs(reference) >= 0.01 * np.abs(reference).max()
        return float(np.max(np.abs(u_side[keep] - reference[keep])
                            / np.abs(reference[keep])))


def sw_orthogonality(ctx: QContext, n: int, m: int, s, form: str = "du",
                     method: str = "analytic"):
    """The weighted polynomial overlap, in either written form.

    The "dx" form integrates W(u(x)) P_n P_m against plain dx, which is
    what the change-of-variables relation literally displays; it carries a
    leftover factor q^{2x} relative to the Phi overlap and does not vanish
    off the diagonal. The "du" form inserts du = -2 ln(q) u dx, cancels
    that factor exactly, and reduces to 2 c^2 times the Phi_n, Phi_m
    overlap, hence vanishes for n != m. Both are exposed; orthogonality
    claims are checked against the du form.

    method "analytic" evaluates the chain overlap in closed form,
    "quadrature" integrates W P_n P_m (times the Jacobian for du)
    numerically as an independent check, in double at any digits.
    """
    if form not in ("du", "dx"):
        raise ValueError(f"unknown form {form!r}")
    s = Fraction(s)
    if method == "analytic":
        fn = shift(build_Phi(ctx, n), -s)
        fm = shift(build_Phi(ctx, m), -s)
        if form == "du":
            return 2 * ctx.c * ctx.c * inner(fn, fm)
        return inner(fn, mul_qlinear(fm, 2, 0))
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    from .quad import integrate_real_line
    ctx = ctx.with_digits(None)  # the rule integrates in double
    pn = stieltjes_wigert(ctx, n, s)
    pm = stieltjes_wigert(ctx, m, s)
    c2 = 2.0 * ctx.c ** 2

    def integrand(x):
        u = sw_u_of_x(ctx, x)
        base = sw_weight(ctx, s, x) * pn(u) * pm(u)
        if form == "du":
            return base * u * c2
        return base

    return integrate_real_line(integrand, ctx, tol=1e-12)


def sw_gram(ctx: QContext, nmax: int) -> GramReport:
    """The du-form overlaps I_nm = sw_orthogonality(ctx, n, m, s) of
    n, m <= nmax as 2c^2 sqrt(pi/2c^2) times the contraction of the rows of
    Phi_table against the lattice kernel: a common shift s moves every
    center alike, so it leaves each overlap as it is. The target is the
    matrix's own diagonal, so the relative deviation of an entry off it is
    |I_nm| / sqrt(|I_nn I_mm|)."""
    tables = Phi_table(ctx, nmax)
    matrix = gram_contract(tables, lattice_kernel(ctx, nmax + 1), tables) \
        * (2 * ctx.c * ctx.c * overlap_scale(ctx))
    return GramReport(labels=list(range(nmax + 1)), matrix=matrix,
                      target=np.diag(np.diagonal(matrix)),
                      precision_digits=ctx.digits, notes={"family": "sw"})
