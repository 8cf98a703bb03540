"""Exact arithmetic for the set-digit references of the chain kernels.

At set digits the ladder, commutator and daughter kernels convert their
inputs exactly (each mpf coefficient, each q^(m/8), the prefactor and q),
compute without rounding and round each result once. The references here
do the same with Fractions, independently of the kernels' integer format:
``exact`` converts an input, ``rounded`` rounds a value to the context's
precision and ``sqrt_rounded`` rounds a square root to the nearest float.
In double ``exact`` and ``rounded`` leave a value as it is, so a reference
written over them computes in double exactly as before. ``random_chain``
draws the random complex chains the kernels are checked on, and
``sum_rule_bound`` bounds the gap between two summation orders of the
daughter sum rule. ``rational_twisted_gram`` is the double twisted
Gram summed in Fractions, the reference of the exact integer sums in
macfarlane.
"""

import math
import operator
from fractions import Fraction

import mpmath
import numpy as np

from qgauss.chain import GaussianChain, alpha
from qgauss.dg import phi_table
from qgauss.qnum import qbinomial_triangle, qpochhammer
from qgauss.verify import random_table


def random_chain(ctx, rng) -> GaussianChain:
    """One row of verify.random_table as a chain: 1 to 8 complex terms on
    twice-centers in [-4, 4]."""
    start, (row,) = random_table(ctx, rng, 1)
    return GaussianChain(ctx, dict(enumerate(row.tolist(), start)))


def sum_rule_bound(ctx, nmax) -> np.ndarray:
    """gamma_t (|Phi| K |Phi|^T) / alpha^2, entry by entry, over the rows
    Phi of phi_table(ctx, nmax) and the lattice kernel K, with gamma_t =
    t eps, t = (nmax + 1)^2 terms and eps the machine epsilon at the
    context's precision: the roundoff of a sum of t terms in any order
    (chain.gram_budget's model), so two orders of the normalized daughter
    sums agree within it."""
    size = nmax + 1
    rows = np.zeros((size, size))
    for n, row in enumerate(phi_table(ctx, nmax)):
        rows[n, :n + 1] = [abs(float(a)) for a in row]
    d = np.arange(size)
    kernel = float(ctx.q) ** ((d[:, None] - d) ** 2 / 2)
    eps = 2.0 ** (1 - (ctx.lib().prec if ctx.is_mp else 53))
    return size ** 2 * eps * (rows @ kernel @ rows.T) / float(alpha(ctx)) ** 2


def fraction(x) -> Fraction:
    """An mpf, float or int as the Fraction it equals."""
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    return Fraction(x)


class Exact:
    """An exact complex rational re + i im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Fraction(0)):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, a) -> "Exact":
        if isinstance(a, Exact):
            return a
        if hasattr(a, "_mpc_") or isinstance(a, complex):
            return cls(fraction(a.real), fraction(a.imag))
        return cls(fraction(a))

    def __add__(self, other):
        other = Exact.of(other)
        return Exact(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Exact(-self.re, -self.im)

    def __sub__(self, other):
        return self + -Exact.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = Exact.of(other)
        return Exact(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = Exact.of(other)
        return self.re == o.re and self.im == o.im

    def conjugate(self):
        return Exact(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def exact(ctx, a):
    """a as a reference computes with it: exactly at set digits."""
    return a if ctx.digits is None else Exact.of(a)


def rounded(ctx, a):
    """An exact value rounded once, to nearest, at the context's working
    precision: an mpf when real, else an mpc. Double values pass."""
    if not isinstance(a, Exact):
        return a
    lib = ctx.lib()
    re, im = (mpmath.libmp.from_rational(x.numerator, x.denominator,
                                         lib.prec, "n")
              for x in (a.re, a.im))
    return lib.make_mpf(re) if not a.im else lib.make_mpc((re, im))


def sqrt_rounded(x: Fraction) -> float:
    """sqrt(x) for x >= 0 rounded to the nearest float: a close guess, then
    moved while an exact midpoint to a neighbor lies on the root's side."""
    if x == 0:
        return 0.0
    with mpmath.workprec(200):
        y = float(mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator))
    while True:
        up, down = math.nextafter(y, math.inf), math.nextafter(y, 0.0)
        if up != math.inf and ((Fraction(y) + Fraction(up)) / 2) ** 2 < x:
            y = up
        elif ((Fraction(y) + Fraction(down)) / 2) ** 2 > x:
            y = down
        else:
            return y


def rational_twisted_gram(q: float, nmax: int) -> list:
    """The double twisted Gram by exact rationals: the signed tables
    (-1)^j [n j]_q q^{-n j} against q^{s(s+1)/2}, times q^{floor(e)},
    rounded once by Fraction.__float__. No entry depends on nmax."""
    x = Fraction(q)
    size = nmax + 1
    tables = [[(-1) ** j * b * x ** (-n * j) for j, b in enumerate(row)]
              for n, row in enumerate(qbinomial_triangle(x, nmax))]
    kernel = [[x ** ((j + k) * (j + k + 1) // 2) for k in range(size)]
              for j in range(size)]
    AK = [[sum(a * kernel[j][k] for j, a in enumerate(row))
           for k in range(size)] for row in tables]
    sums = [[sum(map(operator.mul, ak, row)) for row in tables] for ak in AK]
    poch = [float(qpochhammer(x, n)) for n in range(size)]
    lnq = math.log(q)

    def entry(n, m):
        whole, rest = divmod(n * (n - 1) + m * (m - 1), 4)
        return (float(sums[n][m] * x ** whole) * math.exp(lnq * (rest / 4))
                / math.sqrt(poch[n] * poch[m]))
    return [[entry(n, m) for m in range(size)] for n in range(size)]
