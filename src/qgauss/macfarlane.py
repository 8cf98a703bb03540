"""Eigenfunctions B_n of the second oscillator (commutation relation
b'b - q b b' = 1 with b' the conjugate of b under the parity-twisted
pairing).

Same integer-center Gaussians as the first oscillator, but rapidly
growing coefficients and an indefinite normalization (B_n, B_n) = (-1)^n:
the double Gram takes each entry as one exact integer sum over the binary
value q = M/2^e: B_n's signed q-binomial polynomial summed term by term
at the points q^k, common power factored out, symmetric terms j and n - j
through one product, weighed by B_m's coefficients. A Gram at set digits
contracts the rows of mac_table, summed exactly and rounded once per
entry (chain.gram_contract), at the digits given or, in the mac-gram
suite past EXACT_NMAX, those chain.gram_budget reads off its term mass.
MAC describes the family to the code written once over both (chain.Family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .qnum import (binomials_from_prefix, macfarlane_eigenvalue,
                   pochhammer_prefix, qbinomial_row, qbinomial_triangle,
                   qpochhammer)
from .chain import (Family, GaussianChain, alpha, apply_ladder,
                    gram_contract, integer_chain, lattice_kernel, mac_lower,
                    mac_raise, overlap_scale, relative_coeff_distance, scale)
from .report import GramReport


@dataclass(frozen=True)
class MacCoefficients:
    """zeta is the overall scale, E the per-center coefficients of
    B_n = zeta_n sum_k E_k q^{(y-k)^2}; recursion_gap records how far the
    two-term recursion construction of E strays from the closed form."""

    n: int
    ctx: QContext
    zeta: object
    E: list
    recursion_gap: float


def _zeta(ctx: QContext, a, poch_n, n: int):
    """zeta_n = alpha q^{n(n-1)/4} / sqrt((q, q)_n), from alpha a and
    poch_n = (q, q)_n."""
    return a * ctx.qpow8(2 * n * (n - 1)) / ctx.sqrt(poch_n)


def _E_row(ctx: QContext, binomials: list, n: int) -> list:
    """E^n_k = (-1)^k [n k]_q q^{(k - 2nk)/2}, from the q-binomial row."""
    pow8, step = ctx.qpow8, 4 - 8 * n
    return [(-binom if k % 2 else binom) * pow8(step * k)
            for k, binom in enumerate(binomials)]


def _mac_E_recursion(ctx: QContext, n: int) -> list:
    """Build E row by row from E^n_k = -E^{n-1}_{k-1} (1-q^n)/(1-q^k)
    q^{-n-k+3/2}, anchored at E^n_0 = 1."""
    q = ctx.q
    gaps = [1 - q ** k for k in range(n + 1)]
    row = [q / q]  # backend-typed 1
    for m in range(1, n + 1):
        nxt = [q / q]
        for k in range(1, m + 1):
            nxt.append(-row[k - 1] * (gaps[m] / gaps[k])
                       * ctx.qpow8(12 - 8 * m - 8 * k))
        row = nxt
    return row


def mac_coeffs(ctx: QContext, n: int) -> MacCoefficients:
    """Closed-form coefficients, cross-checked against the independent
    recursion construction (relative gap stored, expected < 1e-12)."""
    closed = _E_row(ctx, qbinomial_row(ctx.q, n), n)
    recursed = _mac_E_recursion(ctx, n)
    gap = max(float(abs(a - b)) / float(abs(a))
              for a, b in zip(closed, recursed))
    zeta = _zeta(ctx, alpha(ctx), qpochhammer(ctx.q, n), n)
    return MacCoefficients(n=n, ctx=ctx, zeta=zeta, E=closed,
                           recursion_gap=gap)


def mac_table(ctx: QContext, nmax: int) -> list:
    """The coefficient rows zeta_n E^n_k of B_0..B_nmax on the centers
    k = 0..n, from one Pochhammer prefix and one alpha."""
    a, poch = alpha(ctx), pochhammer_prefix(ctx.q, nmax)
    rows = []
    for n in range(nmax + 1):
        zeta = _zeta(ctx, a, poch[n], n)
        rows.append([zeta * e for e in
                     _E_row(ctx, binomials_from_prefix(poch, n), n)])
    return rows


def build_Bn(ctx: QContext, n: int) -> GaussianChain:
    return integer_chain(ctx, mac_table(ctx, n)[n])


# b' b - q b b' = 1 with b' = mac_raise; build and table look build_Bn and
# mac_table up at each call, so a patched or traced one sees them all
MAC = Family(name="mac", build=lambda ctx, n: build_Bn(ctx, n),
             table=lambda ctx, nmax: mac_table(ctx, nmax),
             bare=lambda ctx, n: _E_row(ctx, qbinomial_row(ctx.q, n), n),
             lower=mac_lower, raise_=mac_raise,
             lam=lambda q, k: -macfarlane_eigenvalue(q, k),
             relation=(mac_raise, mac_lower), kind="parity_twisted", sign=-1,
             relative=True)


def number_operator_check(ctx: QContext, n: int) -> float:
    """Relative coefficient residual of b'b B_n = lam_n B_n."""
    b_n = build_Bn(ctx, n)
    lam = macfarlane_eigenvalue(ctx.q, n)
    applied = apply_ladder(mac_raise(ctx), apply_ladder(mac_lower(ctx), b_n))
    return relative_coeff_distance(applied, scale(b_n, lam))


def twisted_gram_magnitudes(q: float, nmax: int) -> tuple:
    """The twisted Gram's magnitudes for chain.gram_budget: log10 of the
    tables |zeta_n E^n_j| = [n j]_q q^{n(n-1)/4 + j/2 - n j} / sqrt((q, q)_n)
    and of the kernel q^{(j+k)^2/2} (the overlap sqrt(pi/2c^2) cancels the
    alpha^2 in zeta_n zeta_m), each entry against the unit target."""
    lq = math.log10(q)
    poch = pochhammer_prefix(q, nmax)
    rows = [[math.log10(b) + (n * (n - 1) / 4 + j / 2 - n * j) * lq
             - 0.5 * math.log10(poch[n]) for j, b in enumerate(row)]
            for n, row in enumerate(qbinomial_triangle(q, nmax))]
    kernel = [[(j + k) ** 2 / 2 * lq for k in range(nmax + 1)]
              for j in range(nmax + 1)]
    return rows, kernel, [0.0] * (nmax + 1)


# Largest nmax the mac-gram suite runs in exact double sums at unset
# digits, and circle-mac where its rule aliases nothing; past it both run
# the budgeted mpmath Gram and report the digits the budget chose. Per
# call, median over 8 q in [0.21, 0.9] (best of 3 calls each, of 5 for
# circle-mac; Python 3.11.7, pure-Python mpmath, a 2-vCPU VM), mac-gram's
# routes cost the same near nmax 21 and circle-mac's near 19 (7.5 against
# 7.1 ms); the bound stays 18, as raising it would change their output.
#
#     nmax                    8   12   15   16   17   18   20    21    22
#     mac-gram exact        0.4  1.0  2.5  3.3  4.2  5.7  9.9  13.5  17.1  ms
#     mac-gram budget       1.6  3.5  5.3  6.0  8.0  8.4 11.8  13.6  15.4  ms
#     circle-mac exact 128  0.3  1.0  2.3  3.1  4.2  5.6  9.8  12.7  16.5  ms
#     circle-mac budget 128 1.2  2.3  3.7  4.3  5.1  6.0  8.4   9.8  11.6  ms
#     circle-mac exact 512  0.3  1.0  2.3  3.1  4.3  5.7  9.7  12.7  16.4  ms
#     circle-mac budget 512 1.2  2.3  3.7  4.3  5.1  6.0  8.3   9.7  11.5  ms
EXACT_NMAX = 18


def twisted_gram_sums(q: float, nmax: int) -> tuple:
    """The twisted Gram's exact integer sums over the binary value
    q = M/D, D = 2^e: (e, power, scaled, Z), power[i] = M^i up to
    i = nmax(nmax+1)/2, scaled[n] = (q, q)_n D^{n(n+1)/2} and Z below.

    The kernel exponent s(s+1)/2 - n j - m k, s = j + k, splits as
    [j(j+1)/2 - n j] + [k(k+1)/2 - m k] + j k, so the entry before q^r,
    r = (n(n-1) + m(m-1))/4, and the (q, q) norms is
    X_nm = sum_k b_mk P_n(q^k), where P_n(z) = sum_j b_nj z^j and
    b_nj = (-1)^j [n j]_q q^{j(j+1)/2 - n j}; P_n is evaluated term by
    term, never through the q-binomial theorem the entry tests. In
    integers, with t(x) = x(x-1)/2 and T[n][j] = [n j]_q D^{j(n-j)} from
    the integer q-Pascal triangle: c_nj = (-1)^j T[n][j] M^{t(n-j)} D^{t(j)}
    = b_nj M^{t(n)}, H_n(k) = sum_j c_nj M^{jk} D^{k(n-j)} =
    P_n(q^k) M^{t(n)} D^{nk} and Z_nm = sum_{k<=m} c_mk H_n(k) D^{n(m-k)}
    = X_nm M^{t(n) + t(m)} D^{nm}, symmetric and summed once per pair.
    Every term of H_n(k) carries (M D)^w, w = t(k) + k(n-k), the least
    power of M and of D over j as t >= 0 and t(0) = t(1) = 0:
    H_n(k) = (M D)^w sum_j (-1)^j T[n][j] M^{t(n-k-j)} D^{t(j-k)}, one
    product T[n][j] M^t and a shift per term, one for both j and n - j as
    T[n][j] = T[n][n-j], (M D)^w multiplied back into a nonzero sum only
    and c_mk formed only where H_n(k) != 0. Where the identity holds, an
    off-diagonal Z_nm is an exact zero.
    """
    M, D = q.as_integer_ratio()
    e = D.bit_length() - 1
    size = nmax + 1
    power = [1]  # M^i up to M^{t(-nmax)}
    for _ in range(nmax * size // 2):
        power.append(power[-1] * M)
    T = [[1]]  # T[n][k] = M^k T[n-1][k] + D^{n-k} T[n-1][k-1]
    scaled = [1]  # (q, q)_n D^{n(n+1)/2}
    for n in range(1, size):
        prev = T[-1] + [0]
        T.append([M ** k * prev[k] + (prev[k - 1] << e * (n - k) if k else 0)
                  for k in range(n + 1)])
        scaled.append(scaled[-1] * ((1 << e * n) - power[n]))
    sums = [[0] * size for _ in range(size)]
    for n, row in enumerate(T):
        H = []  # (k, (-1)^k D^{t(k)} H_n(k)) where H_n(k) != 0
        for k in range(n + 1):
            h = 0
            for j in range(n // 2 + 1):
                x, y = n - k - j, j - k
                a, b = x * (x - 1) // 2, y * (y - 1) // 2
                pair = power[a] << e * b
                if 2 * j < n:  # the term n - j: exponents swapped, sign (-1)^n
                    other = power[b] << e * a
                    pair = pair - other if n % 2 else pair + other
                h = h - row[j] * pair if j % 2 else h + row[j] * pair
            if h:
                w = k * (k - 1) // 2 + k * (n - k)
                H.append((k, (-1) ** k * h * power[w] << e * k * (n - 1)))
        for m in range(n + 1):
            sums[n][m] = sums[m][n] = sum(
                T[m][k] * power[(m - k) * (m - k - 1) // 2] * h
                << e * n * (m - k) for k, h in H if k <= m)
    return e, power, scaled, sums


def _binary_twisted_gram(q: float, nmax: int) -> np.ndarray:
    """The double twisted Gram, each entry one exact integer sum
    (twisted_gram_sums) rounded once: q^{floor(r)} and (q, q)_n join the
    integer numerator and denominator, and one correctly rounded int / int
    gives the double Fraction.__float__ would. An off-diagonal sum is an
    exact zero and a diagonal entry fl(P) / sqrt(fl(P)^2), P = (q, q)_n, is
    +-1 exactly, as sqrt(fl(x^2)) = |x| in binary round-to-nearest."""
    e, power, scaled, sums = twisted_gram_sums(q, nmax)
    size = nmax + 1
    poch = [p / (1 << e * n * (n + 1) // 2) for n, p in enumerate(scaled)]
    lnq = math.log(q)

    def entry(n, m):
        total = sums[n][m]
        if not total:
            return 0.0
        twice_mu = n * (n - 1) + m * (m - 1)
        whole, rest = divmod(twice_mu, 4)
        denominator = power[twice_mu // 2 - whole] << e * (n * m + whole)
        return (total / denominator * math.exp(lnq * (rest / 4))
                / math.sqrt(poch[n] * poch[m]))
    return np.array([[entry(n, m) for m in range(size)] for n in range(size)])


def indefinite_gram(ctx: QContext, nmax: int) -> GramReport:
    """Parity-twisted Gram of B_0..B_nmax against diag((-1)^n).

    In the double backend each entry is one exact integer sum over the
    binary value q = M/2^e (_binary_twisted_gram): all of the cancellation
    happens inside it, off-diagonal entries collapse to an exact zero, and
    one rounding is left. At explicit digits it contracts the rows of
    mac_table, rounded at that precision, in one exact sum per entry that
    rounds once (chain.gram_contract): the rounding of the rows is what
    the Gram's cancellation amplifies, so the deviation exposes the
    budget, and the entries keep the backend's type so that it can be
    recomputed below double resolution. Notes carry the alternating-sign
    check; the mac-gram suite adds the precision budget
    (twisted_gram_magnitudes through chain.gram_budget).
    """
    size = nmax + 1
    if ctx.digits is None:
        matrix = _binary_twisted_gram(float(ctx.q), nmax)
    else:
        tables = mac_table(ctx, nmax)
        matrix = gram_contract(tables, lattice_kernel(
            ctx, size, "parity_twisted"), tables) * overlap_scale(ctx)
    even = np.arange(size) % 2 == 0
    signs_ok = bool(np.array_equal(np.diagonal(matrix) > 0, even))
    return GramReport(labels=list(range(size)), matrix=matrix,
                      target=np.diag(np.where(even, 1.0, -1.0)),
                      precision_digits=ctx.digits,
                      notes={"family": "mac", "sign_alternation_ok": signs_ok})
