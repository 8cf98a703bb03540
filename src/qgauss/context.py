"""Deformation context: width parameter c and the derived base q = exp(-c**2).

Every quantity in this package is built from powers of a single base
q in (0, 1). The context pins down that base, remembers whether the
computation runs in ordinary doubles or in a configurable-precision
mpmath backend, and centralizes the exact-exponent power q**r that the
lattice algebra relies on. Every exponent the ladder and overlap algebra
raises q to is a multiple of 1/8, so each context keeps those powers in
a memo of its own (``qpow8``) and computes each one once.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from fractions import Fraction

import mpmath

# Working digits added on top of what the caller asked for, so the
# requested accuracy survives intermediate rounding.
GUARD_DIGITS = 10


class QContext:
    """Immutable pair (c, q) with q = exp(-c**2), plus the precision mode.

    Exactly one of ``c`` and ``q`` must be given; the other is derived.
    ``digits`` selects the mpmath backend with that many decimal digits;
    ``None`` means ordinary binary doubles. ``supplied`` names the given
    parameter, and ``with_digits`` rebuilds the context from its value,
    with a fresh ``qpow8`` memo.
    """

    __slots__ = ("c", "q", "ln_q", "digits", "supplied", "_given", "_pow8")

    def __init__(self, c=None, q=None, digits: int | None = None):
        if (c is None) == (q is None):
            raise ValueError("supply exactly one of c and q")
        if digits is not None and digits < 1:
            raise ValueError("digits must be a positive integer")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "supplied", "c" if q is None else "q")
        object.__setattr__(self, "_given", c if q is None else q)
        object.__setattr__(self, "_pow8", {})
        number = float if digits is None else mpmath.mpf
        with self.prec():
            if c is not None:
                if not c > 0:
                    raise ValueError(f"c must be positive, got {c}")
                cval = number(c)
                lnq = -cval * cval
                qval = self.exp(lnq)
            else:
                if not 0 < q < 1:
                    raise ValueError(f"q must lie in (0, 1), got {q}")
                qval = number(q)
                lnq = self._lib().log(qval)
                cval = self.sqrt(-lnq)
        object.__setattr__(self, "c", cval)
        object.__setattr__(self, "q", qval)
        object.__setattr__(self, "ln_q", lnq)

    def __setattr__(self, name, value):
        raise AttributeError("QContext is immutable")

    def __repr__(self):
        extra = f", digits={self.digits}" if self.digits is not None else ""
        return f"QContext(c={float(self.c)!r}, q={float(self.q)!r}{extra})"

    def __eq__(self, other):
        if not isinstance(other, QContext):
            return NotImplemented
        return (self.digits == other.digits
                and float(self.c) == float(other.c)
                and (self.digits is None or self.c == other.c))

    def __hash__(self):
        return hash((float(self.c), self.digits))

    # -- backend dispatch -------------------------------------------------

    @property
    def is_mp(self) -> bool:
        return self.digits is not None

    def prec(self):
        """Context manager installing this context's working precision."""
        if self.digits is None:
            return nullcontext()
        return mpmath.workdps(self.digits + GUARD_DIGITS)

    def qpow(self, r):
        """q**r for an exact rational exponent r.

        The exponent is kept as an integer or Fraction right up to this
        single exponentiation, so equal exponents always produce equal
        values and symbolic cancellations survive in coefficient space.
        Exponents on the 1/8 lattice are better taken from ``qpow8``, which
        returns this same value from the context's memo. A double power
        past the float range is inf, so the checks built on it fail rather
        than raise.
        """
        if self.digits is None:
            try:
                return math.exp(float(r) * self.ln_q)
            except OverflowError:
                return math.inf
        with self.prec():
            if isinstance(r, Fraction):
                rr = mpmath.mpf(r.numerator) / r.denominator
            else:
                rr = mpmath.mpf(r)
            return mpmath.exp(rr * self.ln_q)

    def qpow8(self, m: int):
        """q**(m/8) for an integer m: qpow(Fraction(m, 8)), bit for bit,
        computed on the first request and memoized in this context."""
        try:
            return self._pow8[m]
        except KeyError:
            value = self._pow8[m] = self.qpow(Fraction(m, 8))
            return value

    def _lib(self):
        return math if self.digits is None else mpmath

    def sqrt(self, x):
        with self.prec():
            return self._lib().sqrt(x)

    def exp(self, x):
        with self.prec():
            return self._lib().exp(x)

    def pi(self):
        with self.prec():
            return +self._lib().pi

    def make(self, x):
        """Coerce a Python number into this context's scalar type."""
        real, cplx = (float, complex) if self.digits is None \
            else (mpmath.mpf, mpmath.mpc)
        with self.prec():
            return cplx(x) if isinstance(x, complex) or x.imag != 0 else real(x)

    def with_digits(self, digits: int | None) -> "QContext":
        """Same deformation parameter, different precision backend. The
        context is rebuilt from the parameter the caller supplied, as given,
        so a context made from q keeps that exact q."""
        return QContext(**{self.supplied: self._given}, digits=digits)


def as_lattice_shift(s) -> int:
    """Validate a half-integer shift and return twice its value as an int.

    Accepts ints, Fractions and floats that are exactly a multiple of 1/2.
    """
    f = Fraction(s)
    twice = f * 2
    if twice.denominator != 1:
        raise ValueError(f"shift {s} is not a half-integer; lattice closure would break")
    return int(twice)
