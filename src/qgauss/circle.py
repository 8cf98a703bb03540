"""Unit-circle counterparts: the polynomial family H_n(z) with q-binomial
coefficients, a truncated third Jacobi theta function with an explicit
tail bound, the Poisson-summation identity behind it, and the two circle
orthogonality relations (the classical one and the degree-indexed one the
second oscillator produces) with the row-by-row Parseval bridge.

Both circle Grams apply the N-node equispaced rule exactly in coefficient
space (_circle_gram): one contraction A K A^T of the rows C^n_k args[n]^k
against the theta kernel aliased as the rule is, Toeplitz for the
classical relation, whose first factor is conjugated, and Hankel for the
degree-indexed one. The classical Gram runs at the context's digits, in
double when none are set; the degree-indexed one at the working precision
that chain.gram_budget reads off its term mass or, in double where the
rule aliases nothing, as the twisted line Gram's exact integer sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import GUARD_DIGITS, QContext
from .qnum import pochhammer_prefix, qbinomial_triangle
from .chain import dense_rows, gram_budget, gram_contract
from .dg import dg_norm, phi_table
from .macfarlane import (EXACT_NMAX, twisted_gram_magnitudes,
                         twisted_gram_sums)
from .report import GramReport


@dataclass(frozen=True)
class ThetaEvaluator:
    """Symmetric truncation of theta_3(theta; q) = sum q^{n^2/2} e^{i n theta}
    at |n| <= truncation (theta_truncation picks it for a tail bound)."""

    q: float
    truncation: int

    def __call__(self, theta):
        thetas = np.asarray(theta, dtype=float)
        total = np.ones(thetas.shape, dtype=float)
        for n in range(1, self.truncation + 1):
            total = total + 2.0 * self.q ** (n * n / 2.0) * np.cos(n * thetas)
        return total if total.shape else total.item()


def theta_truncation(q: float, tol: float) -> int:
    """Smallest N with 2 q^{N^2/2} / (1 - q^{N/2}) <= tol; the tail beyond
    N is dominated by the geometric series with ratio q^{N/2}."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    N = 1
    while 2.0 * q ** (N * N / 2.0) / (1.0 - q ** (N / 2.0)) > tol:
        N += 1
    return N


def theta3(theta, q: float, tol: float = 1e-14):
    """theta_3(theta; q), real and positive on the real line for q in (0, 1)."""
    return ThetaEvaluator(q=q, truncation=theta_truncation(q, tol))(theta)


def poisson_check(c: float, theta_grid=None) -> float:
    """Max absolute gap between the wrapped-Gaussian sum
    sum_k e^{-2 (pi/c)^2 (theta+k)^2} and its resummation
    sqrt(c^2 / 2 pi) theta_3(2 pi theta; q), with q = e^{-c^2}.

    Both sides are truncated to tails below 1e-14 and compared on the
    grid (default 17 equispaced points spanning one period).
    """
    if theta_grid is None:
        theta_grid = np.linspace(0.0, 1.0, 17)
    thetas = np.asarray(theta_grid, dtype=float)
    rate = 2.0 * (math.pi / c) ** 2
    # e^{-rate (K - max|theta|)^2} <= 1e-16 once K - 1 >= sqrt(37 / rate)
    K = int(math.ceil(1.0 + np.abs(thetas).max() + math.sqrt(37.0 / rate)))
    left = np.zeros(thetas.shape, dtype=float)
    for k in range(-K, K + 1):
        left += np.exp(-rate * (thetas + k) ** 2)
    q = math.exp(-c * c)
    right = math.sqrt(c * c / (2.0 * math.pi)) * theta3(2.0 * math.pi * thetas,
                                                        q, tol=1e-15)
    return float(np.abs(left - right).max())


def _check_points(quad_points: int):
    if quad_points < 64 or quad_points & (quad_points - 1):
        raise ValueError("quad_points must be a power of two, at least 64")


def _gram_truncation(q: float, nmax: int) -> int:
    """Theta truncation for the circle Grams: the rule pairs every harmonic
    of a product of two factors, up to 2 nmax, with the matching theta
    harmonic, so all of those stay; past them the tail bound takes over."""
    return max(theta_truncation(q, 1e-16), 2 * nmax + 1)


# Relative tolerance of the degree-indexed relation; circle_gram_mac
# budgets its working precision against it.
MAC_TOL = 1e-8


def circle_mac_magnitudes(q: float, nmax: int, points: int = 512,
                          conjugate_first: bool = False) -> tuple:
    """The degree-indexed Gram's magnitudes for chain.gram_budget. Its rows
    C^n_k q^{-(n-1/2)k} over the scale sqrt(q^{-n(n-1)/2} (q, q)_n) are the
    twisted Gram's rows, so only the kernel differs: log10 of the aliased
    theta kernel, each residue class of q^{m^2/2} summed in logs."""
    rows, _, scale = twisted_gram_magnitudes(q, nmax)
    truncation = _gram_truncation(q, nmax)
    m = np.arange(-truncation, truncation + 1)
    fold = np.full(points, -np.inf)
    np.logaddexp.at(fold, m % points, m * m / 2.0 * math.log(q))
    fold = (fold / math.log(10.0)).tolist()
    sign = -1 if conjugate_first else 1
    return rows, [[fold[-(j + sign * k) % points] for k in range(nmax + 1)]
                  for j in range(nmax + 1)], scale


def _aliased_theta_kernel(work: QContext, size: int, points: int,
                          truncation: int, sign: int) -> list:
    """The points-node rule on z^j z^{sign k} theta_3, |m| <= truncation:
    K[j][k] sums q^{m^2/2} over m = -(j + sign k) mod points. A rounding
    recurs along a diagonal that the cancellation amplifies, so at set
    digits K carries its own guard digits (gram_contract reads its inputs
    exactly); in double it folds in double."""
    fine = work if work.digits is None else \
        work.with_digits(work.digits + GUARD_DIGITS)
    fold = [0 * fine.q] * points
    for m in range(-truncation, truncation + 1):
        fold[m % points] += fine.qpow8(4 * m * m)
    return [[fold[-(j + sign * k) % points] for k in range(size)]
            for j in range(size)]


def _circle_rows(q, nmax: int, args: list) -> list:
    """The coefficient rows of H_n(args[n] z), n = 0..nmax: C^n_k args[n]^k
    from qbinomial_triangle, in the type of q."""
    try:
        return [[c * args[n] ** k for k, c in enumerate(row)]
                for n, row in enumerate(qbinomial_triangle(q, nmax))]
    except OverflowError:
        raise ValueError(f"the circle rows leave the double range at nmax "
                         f"{nmax}; set --digits") from None


def _circle_gram(work: QContext, nmax: int, points: int, args: list,
                 sign: int, truncation: int) -> np.ndarray:
    """The points-node rule on H_n(args[n] z^sign) H_m(args[m] z) theta_3,
    z = e^{i2pi theta} and theta_3 cut at |m| <= truncation, exactly in
    coefficient space: A K A^T with A the _circle_rows and K the aliased
    theta kernel, rounded at A's precision, work's."""
    A = _circle_rows(work.q, nmax, args)
    K = _aliased_theta_kernel(work, nmax + 1, points, truncation, sign)
    return gram_contract(A, K, A)


def _power(x, r):
    """x ** r, and inf where a double power leaves the float range."""
    try:
        return x ** r
    except OverflowError:
        return math.inf


def circle_gram_dg(ctx: QContext, nmax: int, quad_points: int = 512) -> GramReport:
    """G_{nm} = int_0^1 H_n(-q^{-1/2} e^{-i2pi theta})
    H_m(-q^{-1/2} e^{+i2pi theta}) theta_3(2 pi theta; q) dtheta, reported
    against diag(q^{-n} (q, q)_n).

    The integrand is a trigonometric polynomial times the truncated theta
    series, so the equispaced rule is exact once quad_points clears the
    top harmonic; 512 is far past that knee for the tested degrees. The
    rule runs in coefficient space (_circle_gram, the Toeplitz kernel) at
    the context's digits, in double when none are set.
    """
    _check_points(quad_points)
    q = ctx.q
    matrix = _circle_gram(ctx, nmax, quad_points, [-(q ** -0.5)] * (nmax + 1),
                          -1, _gram_truncation(float(q), nmax))
    target = np.diag([_power(q, -n) * poch
                      for n, poch in enumerate(pochhammer_prefix(q, nmax))])
    return GramReport(labels=list(range(nmax + 1)), matrix=matrix, target=target,
                      precision_digits=ctx.digits,
                      notes={"family": "circle-dg", "points": quad_points})


def circle_gram_mac(ctx: QContext, nmax: int, quad_points: int = 512,
                    conjugate_first: bool = False) -> GramReport:
    """The degree-indexed circle relation: G_{nm} =
    int_0^1 H_n(-q^{-(n-1/2)} e^{+i2pi theta})
    H_m(-q^{-(m-1/2)} e^{+i2pi theta}) theta_3(2 pi theta; q) dtheta,
    against diag(q^{-n(n-1)/2} (q, q)_n (-1)^n).

    Both factors carry e^{+i2pi theta}, matching the relation as written;
    conjugate_first=True flips the first factor's phase (the convention
    the classical relation uses) for side-by-side comparison. That
    variant is not diagonal, and the report keeps the stated target so
    the difference is visible rather than hidden.

    In double, up to macfarlane.EXACT_NMAX and without conjugate_first,
    where no residue mod quad_points holds two theta terms (quad_points >
    T + 2 nmax) and the target fits a double, the rule's Hankel kernel is
    q^{(j+k)^2/2}. The rows C^n_j (-q^{-(n-1/2)})^j then give the exponent
    [j(j+1)/2 - n j] + [k(k+1)/2 - m k] + j k: G_nm is the twisted Gram's
    X_nm = Z_nm / (M^{t(n)+t(m)} D^{nm}) (macfarlane.twisted_gram_sums,
    q-binomials from its integer q-Pascal triangle) and the target is
    (-1)^n scaled[n] / (M^{t(n)} D^n), each rounded once, so the diagonal
    and the target round one rational. Otherwise _circle_gram contracts
    qbinomial_triangle's rows against the aliased kernel (Toeplitz with
    conjugate_first) at the context's digits or, unset, those
    chain.gram_budget reads off circle_mac_magnitudes for MAC_TOL. The
    notes give the log10 condition, the working digits and the predicted
    relative deviation floor, null and 0 on the exact route.
    """
    _check_points(quad_points)
    q = float(ctx.q)
    truncation = _gram_truncation(q, nmax)
    rows, kernel, scale = circle_mac_magnitudes(q, nmax, quad_points,
                                                conjugate_first)
    log_condition, digits, floor = gram_budget(rows, kernel, scale, MAC_TOL,
                                               ctx.digits)
    # rows[n][0] is -log10 sqrt|target[n]|, the circle scale of row n
    if (ctx.digits is None and not conjugate_first and nmax <= EXACT_NMAX
            and quad_points > truncation + 2 * nmax
            and all(abs(row[0]) < 154 for row in rows)):
        e, power, scaled, sums = twisted_gram_sums(q, nmax)
        t = [n * (n - 1) // 2 for n in range(nmax + 1)]
        matrix = np.array([[z / (power[t[n]] * power[t[m]] << e * n * m)
                            if z else 0.0 for m, z in enumerate(row)]
                           for n, row in enumerate(sums)])
        target = np.diag([(-1) ** n * p / (power[t[n]] << e * n)
                          for n, p in enumerate(scaled)])
        digits, floor = None, 0.0
    else:
        work = ctx.with_digits(digits)
        wq = work.q
        args = [-(wq ** (0.5 - n)) for n in range(nmax + 1)]
        matrix = _circle_gram(work, nmax, quad_points, args,
                              -1 if conjugate_first else 1, truncation)
        target = np.diag([wq ** (-n * (n - 1) // 2) * poch * (-1) ** n
                          for n, poch in enumerate(pochhammer_prefix(wq, nmax))])
    notes = {"family": "circle-mac", "points": quad_points,
             "conjugate_first": conjugate_first, "working_digits": digits,
             "log10_condition": round(log_condition, 2), "floor": floor}
    return GramReport(labels=list(range(nmax + 1)), matrix=matrix, target=target,
                      precision_digits=digits, notes=notes)


def parseval_bridge(ctx: QContext, nmax: int) -> GramReport:
    """The Fourier / Poisson bookkeeping of the classical relation, row by
    row: the transform of Phi_n is sqrt(pi/c^2) e^{-(pi/c)^2 theta^2}
    H_n(-q^{-1/2} e^{i2pi theta}), and folding the line onto [0, 1] wraps
    the Gaussian into sqrt(c^2/2pi) theta_3, so the circle row
    C^n_k (-q^{-1/2})^k over ||Phi_n|| is phi_n's row. The matrix holds the
    circle rows, the target phi_table's, both zero past column n, so
    max_abs_deviation is the largest coefficient gap; no rule enters it."""
    q, size = ctx.q, nmax + 1
    norms = [dg_norm(ctx, n) for n in range(size)]
    rows = [[c / norm for c in row] for norm, row in
            zip(norms, _circle_rows(q, nmax, [-(q ** -0.5)] * size))]
    return GramReport(labels=list(range(size)), matrix=dense_rows(rows, size),
                      target=dense_rows(phi_table(ctx, nmax), size),
                      precision_digits=ctx.digits,
                      notes={"family": "parseval-bridge"})
