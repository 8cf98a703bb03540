"""Deformation context: width parameter c and the derived base q = exp(-c**2).

Every quantity in this package is built from powers of a single base
q in (0, 1). The context pins down that base, remembers whether the
computation runs in ordinary doubles or in a configurable-precision
mpmath backend, and centralizes the exact-exponent power q**r that the
lattice algebra relies on. Every exponent the ladder and overlap algebra
raises q to is a multiple of 1/8, so each context keeps those powers in
a memo of its own (``qpow8``), each computed once: in double from the
float m / 8, that multiple exactly, at set digits by binary powering.

This is the one module that knows what a precision is. At set digits a
context's numbers belong to an mpmath context of their own precision,
digits + GUARD_DIGITS, shared by every QContext at those digits, so they
compute at it wherever they are used, whatever mpmath's global precision
is. Mixed arithmetic takes the left operand's precision (an mpc's when
an mpf meets one). A stage meant to run in double says so by computing on
``ctx.with_digits(None)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Working digits added on top of what the caller asked for, so the
# requested accuracy survives intermediate rounding.
GUARD_DIGITS = 10

# One mpmath context per working precision in decimal digits, built on
# first use: building one per QContext would cost more than most suites.
_MP_CONTEXTS = {}

# Bits past the working precision that set-digit powers q^{m/8} carry
# until they round: they err by at most |m| (|ln q| / 8 + 3) 2^-32 ulp
# before it, so they stay within 1 ulp while |m| (|ln q| + 24) <= 2^34
# (Brent & Zimmermann, Modern Computer Arithmetic, 2010, ch. 3-4).
POWER_GUARD_BITS = 32


def _mp_context(dps: int):
    lib = _MP_CONTEXTS.get(dps)
    if lib is None:  # mpmath loads with the first set-digit context
        import mpmath
        lib = _MP_CONTEXTS[dps] = mpmath.MPContext()
        lib.dps = dps
    return lib


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
        if c is not None:
            if not c > 0:
                raise ValueError(f"c must be positive, got {c}")
            cval = self.make(c)
            lnq = -cval * cval
            qval = self.exp(lnq)
        else:
            if not 0 < q < 1:
                raise ValueError(f"q must lie in (0, 1), got {q}")
            qval = self.make(q)
            lnq = self.lib().log(qval)
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

    def qpow(self, r):
        """q**r for an exact rational exponent r.

        The exponent is kept as an integer or Fraction right up to this
        single exponentiation, so equal exponents always produce equal
        values and symbolic cancellations survive in coefficient space.
        At set digits an exponent on the 1/8 lattice takes ``qpow8``'s
        path. A double power past the float range is inf, so the checks
        built on it fail rather than raise.
        """
        if self.digits is None:
            try:
                return math.exp(float(r) * self.ln_q)
            except OverflowError:
                return math.inf
        if 8 * r == int(8 * r):
            return self.qpow8(int(8 * r))
        lib = self.lib()
        rr = lib.mpf(r.numerator) / r.denominator \
            if isinstance(r, Fraction) else lib.mpf(r)
        return lib.exp(rr * self.ln_q)

    def qpow8(self, m: int):
        """q**(m/8) for an integer m, memoized in this context. In double it
        is qpow(Fraction(m, 8)) bit for bit (m / 8 is Fraction(m, 8) for
        |m| < 2**53). At set digits it is the exact product, rounded once to
        nearest, of the powers q^{±2^i/8} over the bits of |m|: q^{±1/8} =
        exp(±ln q / 8), ln q taken once from the supplied parameter, and
        each further one the square of the last cut to POWER_GUARD_BITS past
        the working precision, kept in _pow8["+"] and _pow8["-"]."""
        value = self._pow8.get(m)
        if value is not None:
            return value
        if self.digits is None:
            value = self._pow8[m] = self.qpow(m / 8)
            return value
        import mpmath
        libmp, lib = mpmath.libmp, self.lib()
        width = lib.prec + POWER_GUARD_BITS
        if "+" not in self._pow8:  # q^{1/8} and q^{-1/8}
            c = self.c._mpf_
            ln = libmp.mpf_neg(libmp.mpf_mul(c, c)) if self.supplied == "c" \
                else libmp.mpf_log(self.q._mpf_, width, "n")
            for key, x in (("+", ln), ("-", libmp.mpf_neg(ln))):
                self._pow8[key] = [libmp.mpf_exp(
                    libmp.mpf_shift(x, -3), width, "n")[1:3]]
        powers = self._pow8["+" if m > 0 else "-"]
        bits, man, exp = abs(m), 1, 0
        while len(powers) < bits.bit_length():  # squared, cut to width
            base, shift = powers[-1]
            drop = max(0, 2 * base.bit_length() - width)
            powers.append((base * base >> drop, 2 * shift + drop))
        for i, (base, shift) in enumerate(powers[:bits.bit_length()]):
            if bits >> i & 1:
                man, exp = man * base, exp + shift
        value = self._pow8[m] = lib.mpf((man, exp))
        return value

    def lib(self):
        """The numeric library of this context: ``math`` in double, at set
        digits the mpmath context at digits + GUARD_DIGITS whose mpf, mpc,
        functions and ``prec`` the context's numbers carry. Every QContext
        at those digits shares it, so nothing may change its precision."""
        if self.digits is None:
            return math
        return _mp_context(self.digits + GUARD_DIGITS)

    def sqrt(self, x):
        return self.lib().sqrt(x)

    def exp(self, x):
        return self.lib().exp(x)

    def pi(self):
        return +self.lib().pi

    def make(self, x):
        """Coerce a Python number into this context's scalar type."""
        lib = self.lib()
        real, cplx = (float, complex) if lib is math else (lib.mpf, lib.mpc)
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
