"""Finite linear combinations of Gaussians q^{(x-mu)^2} on the half-integer
lattice, closed under both ladder algebras.

Centers are stored as exact integers t = 2*mu (twice-centers), never as
floats. The two primitive moves, translation by a half-integer and
multiplication by q^{a x + b} with integer a, map the lattice to itself,
and their exponent bookkeeping is exact: every exponent the ladders,
overlaps and products produce is an integer multiple of 1/8, tracked as
that integer and read from the context's memo of q^{m/8}
(``QContext.qpow8``); mul_qlinear, whose b may be any rational, raises q
to an exact Fraction. Only the coefficients are inexact.

A chain is a dense window: its first twice-center ``start`` and a row of
coefficients for start, start + 1, ..., zero at both ends trimmed: a
float64 or complex128 array in double, at set digits an object array of
the context's mpf or mpc values (converted once, at construction) with
the integer 0 in its holes. Scaling, sums and q-multipliers compute on
these rows at the precision those values carry (see ``context``), not at
mpmath's global one; ``coeffs`` is only a read-only {t: a} view of the
nonzero entries.

A table holds one chain per row on a common window: ladders act on it as
two-tap stencils, and the commutator and ladder checks act on whole
tables; the product of two chains expands into daughters as one weighted
convolution. In double these kernels keep numpy's float64 and complex128
operations, a complex product taken part by part as Python takes it and a
real factor multiplying each part once (Python's complex x float but for
the sign of an exact zero and at inf or NaN parts). At set digits they
run in exact integer arithmetic: every mpf, every q^{m/8} and the
prefactors are binary fractions m 2^e, so a table becomes Python integers
at one binary exponent, its real and imaginary parts stacked, and
products and sums are exact. Each result rounds once: a row
to the context's precision, nearest; a residual, or the exact ratio of a
relative one, to the nearest float. The Gram contraction gram_contract
takes its mpmath tables the same way: each entry of A K B^T is one exact
sum, rounded once.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .context import GUARD_DIGITS, QContext, as_lattice_shift

LADDER_KINDS = ("arik_lower", "arik_raise", "mac_lower", "mac_raise")


class _Window:
    """Coefficients on one context, from a mapping {t: a} or from a table
    row whose entry j belongs to the twice-center start + j; the zero ends
    of the row are trimmed."""

    def __init__(self, ctx: QContext, coeffs=None, start: int = 0, row=None):
        if row is None:
            if ctx.is_mp:  # Python numbers take the context's type
                coeffs = {t: a if hasattr(a, "_mpf_") or hasattr(a, "_mpc_")
                          else ctx.make(a) for t, a in coeffs.items()}
            start, (row,) = _table_of(ctx, [coeffs])
        if not (row.size and row[0] and row[-1]):  # trim the zero ends
            live = np.flatnonzero(row.astype(bool))
            lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
            start, row = start + lo, row[lo:hi]
        self.ctx, self.start, self.row = ctx, start, row

    @cached_property
    def coeffs(self):
        """Read-only {t: a} of the nonzero entries in increasing t: float
        or complex in double, mpf or mpc at set digits."""
        return MappingProxyType(
            {t: a for t, a in enumerate(self.row.tolist(), self.start) if a})

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        return (type(self) is type(other) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}(ctx={self.ctx!r}, coeffs={dict(self.coeffs)!r})"


class GaussianChain(_Window):
    """f(x) = sum_mu a_mu q^{(x-mu)^2} with mu = t/2 over integer keys t."""

    def is_zero(self) -> bool:
        return not self.row.size

    def conjugate(self) -> "GaussianChain":
        return GaussianChain(self.ctx, start=self.start, row=self.row.conjugate())


class DaughterChain(_Window):
    """sum_t b_t q^{2(x-t/2)^2}: the squared-exponent family produced by
    pointwise products of two chains."""

    def coefficient_sum(self):
        return sum(self.coeffs.values())


@dataclass(frozen=True)
class LadderOperator:
    """One of the four exact ladder operators, tagged by kind."""

    kind: str
    ctx: QContext

    def __post_init__(self):
        if self.kind not in LADDER_KINDS:
            raise ValueError(f"unknown ladder kind {self.kind!r}")


@dataclass(frozen=True)
class Family:
    """What sets one oscillator family apart: build(ctx, n) is f_n on the
    centers 0..n, table(ctx, nmax) the coefficient rows of f_0..f_nmax
    built in one pass, bare(ctx, n) the coefficients of f_n without the
    n-dependent scale; lower f_n = sqrt(lam_n) f_{n-1} and raise_ f_n = sign
    sqrt(lam_{n+1}) f_{n+1}, lam(q, k) > 0; relation is the pair (a, b) of
    a b - q b a = 1; f_n is orthogonal under the inner product kind; and
    relative takes its ladder residuals relative to the target."""

    name: str
    build: Callable
    table: Callable
    bare: Callable
    lower: Callable
    raise_: Callable
    lam: Callable
    relation: tuple
    kind: str
    sign: int
    relative: bool


# -- coefficient tables ------------------------------------------------------

def integer_chain(ctx: QContext, row) -> GaussianChain:
    """sum_k row[k] q^{(x-k)^2}: a coefficient row on the integer centers
    0, 1, 2, ..."""
    return GaussianChain(ctx, {2 * k: a for k, a in enumerate(row)})


def _table_of(ctx: QContext, maps: list) -> tuple:
    """Mappings {t: a}, one per row, as a table on their common window: a
    float or complex array in double, at set digits an object array of
    the entries as given, with the integer 0 in the holes."""
    rows = [[(operator.index(t), a) for t, a in m.items() if a] for m in maps]
    centers = [t for row in rows for t, _ in row]
    start = min(centers, default=0)
    width = max(centers, default=start - 1) - start + 1
    dense = [[0] * width for _ in rows]
    for line, row in zip(dense, rows):
        for t, a in row:
            line[t - start] = a
    table = np.array(dense, object if ctx.is_mp else None)
    if table.dtype.kind not in "cO":
        table = table.astype(float)
    return start, table.reshape(len(rows), width)


def _aligned(tables: list) -> tuple:
    """Tables (start, parts, exp) on their common window, exponent and
    number of parts: (start, [parts], exp). A table that has them already
    is returned as it is, not copied."""
    starts, parts, exps = zip(*tables)
    start, exp = min(starts), min(exps)
    width = max(s + p.shape[-1] for s, p in zip(starts, parts)) - start
    count = max(map(len, parts))
    out = []
    for s, p, e in tables:
        shape = (count,) + p.shape[1:-1] + (width,)
        if p.shape != shape or e > exp:
            line = np.zeros(shape, p.dtype)
            line[:len(p), ..., s - start:s - start + p.shape[-1]] = \
                p << (e - exp) if e > exp else p
            p = line
        out.append(p)
    return start, out, exp


def _row_table(f: GaussianChain) -> tuple:
    """The chain's row as a one-row exact table (start, parts, exp)."""
    return (f.start, *_exact(f.ctx, f.row[None]))


def _difference(x: tuple, y: tuple) -> tuple:
    start, (a, b), exp = _aligned([x, y])
    return start, a - b, exp


def _times(x: np.ndarray, y) -> np.ndarray:
    """x * y elementwise, broadcast. A complex double product is taken part
    by part as Python takes it: numpy's complex multiply rounds
    differently. A real factor y multiplies each part of x once: Python's
    complex x float but for the sign of an exact zero and at inf or NaN
    parts, where Python's inf * 0 gives NaN. On object arrays a product
    with a zero factor is left the integer 0, so the holes of a row at
    rest cost no mpmath call."""
    y = np.asarray(y, dtype=x.dtype if x.dtype == object else None)
    if x.dtype == object:
        live = x.astype(bool) & y.astype(bool)
        x, y = np.broadcast_arrays(x, y)
        out = np.zeros(x.shape, object)
        out[live] = x[live] * y[live]
        return out
    if x.dtype != complex and y.dtype != complex:
        return x * y
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), complex)
    if y.dtype != complex:
        out.real, out.imag = x.real * y, x.imag * y
        return out
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


# -- exact tables -------------------------------------------------------------
#
# The kernels act on tables (start, parts, exp): in double parts is the
# table under one leading axis and exp 0; at set digits Python integers,
# real parts then any imaginary ones along that axis, the table being
# parts * 2**exp exactly, rounded once where it leaves (_rounded, _floats).

def _binary(x: float) -> tuple:
    """(m, e) with x = m 2^e exactly."""
    num, den = x.as_integer_ratio()
    if den & (den - 1):
        raise ValueError(f"{x!r} is not a binary fraction")
    return num, 1 - den.bit_length()


def _man_exp(value: tuple) -> tuple:
    """An mpmath value tuple as an exact (m, e)."""
    sign, man, exp, _ = value
    if exp and not man:  # mpmath's inf and nan
        raise ValueError("a table entry is not finite")
    return -man if sign else man, exp


def _split(a) -> tuple:
    """A table entry as (re, im), each part an exact (m, e); im is None
    for a real entry."""
    if hasattr(a, "_mpf_"):
        return _man_exp(a._mpf_), None
    if hasattr(a, "_mpc_"):
        return tuple(map(_man_exp, a._mpc_))
    if isinstance(a, complex):
        return _binary(a.real), _binary(a.imag)
    return (a, 0) if isinstance(a, int) else _binary(a), None


def _exact(ctx: QContext, values) -> tuple:
    """An array of table entries, or one number, as (parts, exp): in double
    the array under one leading axis, exp 0; at set digits _fixed."""
    values = np.asarray(values, object if ctx.is_mp else None)
    return _fixed(values) if ctx.is_mp else (values[None], 0)


def _fixed(values: np.ndarray) -> tuple:
    """An object array of binary numbers (mpmath numbers, Python floats,
    ints and complexes) as (parts, exp): each entry converted exactly,
    with no rounding, at the lowest exponent of any."""
    re, im = zip(*map(_split, values.flat)) if values.size else ((), ())
    parts = [re] if im.count(None) == len(im) else \
        [re, [z or (0, 0) for z in im]]
    exp = min((e for part in parts for m, e in part if m), default=0)
    return np.array([[m << (e - exp) if m else 0 for m, e in part]
                     for part in parts],
                    object).reshape((len(parts),) + values.shape), exp


def _mul(x: np.ndarray, y) -> np.ndarray:
    """x * y for the parts of exact tables: Python integers multiply as
    they are, doubles as _times takes them."""
    return x * y if x.dtype == object else _times(x, y)


def _scaled(ctx: QContext, table: tuple, s) -> tuple:
    """The table times the real number s, or a row or column of them,
    exactly at set digits."""
    start, parts, exp = table
    factor, shift = _exact(ctx, s)
    return start, _mul(parts, factor[0]), exp + shift


def _rounded(ctx: QContext, parts: np.ndarray, exp: int) -> np.ndarray:
    """The entries of parts * 2**exp, each rounded once to the nearest mpf
    or mpc at the context's precision, the integer 0 where exactly zero;
    in double the table itself."""
    if not ctx.is_mp:
        return parts[0]
    lib = ctx.lib()
    out = np.zeros(parts.shape[1:], object)
    flat = out.reshape(-1)
    for k, ms in enumerate(zip(*(p.flat for p in parts))):
        if any(ms):
            flat[k] = _from_parts(lib, ms, exp)
    return out


def _from_parts(lib, ms: tuple, exp: int):
    """The exact value (re,) or (re, im) times 2**exp, its parts integers,
    rounded once to the nearest mpf, or mpc with two parts, at lib's
    precision."""
    re, *im = (lib.mpf((m, exp)) for m in ms)
    return lib.mpc(re, *im) if im else re


def _row_peaks(parts: np.ndarray) -> np.ndarray:
    """max |a| over each row of an exact table's parts, 0 if empty: floats
    in double, at set digits the integer max |a|^2, exponent left out."""
    if parts.dtype != object:
        rows = parts[0]
        mags = np.abs(rows) if rows.dtype != complex else \
            np.hypot(rows.real, rows.imag)
        return mags.max(axis=-1, initial=0.0)
    return (parts * parts).sum(axis=0).max(axis=-1, initial=0)


def _sqrt_float(num: int, den: int) -> float:
    """sqrt(num / den) for integers num >= 0 and den > 0, rounded once to
    the nearest float: the integer root carries at least 55 bits and
    rounds to odd, so the division rounds it as it would the exact root."""
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    root = math.isqrt((num << 2 * k) // den)
    root |= root * root * den != num << 2 * k
    try:
        return root / (1 << k)
    except OverflowError:
        return math.inf


def _floats(peaks: np.ndarray, exp: int, ref=None) -> list:
    """_row_peaks of parts at the binary exponent exp as floats, or their
    ratios to those of ref where ref is nonzero, else 0.0, rounded once."""
    if peaks.dtype != object:
        return peaks.tolist() if ref is None else np.divide(
            peaks, ref, out=np.zeros_like(peaks), where=ref != 0).tolist()
    if ref is None:  # max |a|^2 = peak 2^(2 exp)
        ref = [1 << max(0, -2 * exp)] * len(peaks)
        peaks = peaks << max(0, 2 * exp)
    return [_sqrt_float(p, r) if r else 0.0 for p, r in zip(peaks, ref)]


def _distance(x: tuple, y: tuple, relative: bool = False) -> list:
    """coeff_distance, or relative_coeff_distance, of each row pair of two
    tables; at set digits the ratio is exact and rounds once."""
    _, (a, b), exp = _aligned([x, y])
    peak = _row_peaks(b) if relative else None
    ref = np.where(peak != 0, peak, _row_peaks(a)) if relative else None
    return _floats(_row_peaks(a - b), exp, ref)


# -- construction and elementary algebra ----------------------------------

def add(f: GaussianChain, g: GaussianChain) -> GaussianChain:
    _require_same_ctx(f, g)
    start, (a, b), _ = _aligned([(f.start, f.row[None], 0),
                                 (g.start, g.row[None], 0)])
    return GaussianChain(f.ctx, start=start, row=(a + b)[0])


def scale(f: GaussianChain, s) -> GaussianChain:
    return GaussianChain(f.ctx, start=f.start, row=_times(f.row, s))


def shift(f: GaussianChain, s) -> GaussianChain:
    """T^s f(x) = f(x + s): every center mu moves to mu - s.

    s must be a half-integer (multiple of 1/2); anything else is rejected
    because it would leave the lattice.
    """
    return GaussianChain(f.ctx, start=f.start - as_lattice_shift(s), row=f.row)


def mul_qlinear(f: GaussianChain, a: int, b) -> GaussianChain:
    """Multiply by q^{a x + b} using the exact completion of squares

        q^{a x + b} q^{(x-mu)^2} = q^{a mu - a^2/4 + b} q^{(x-(mu-a/2))^2}.

    a must be an integer so image centers stay on the half-integer lattice;
    b may be any rational. Each live center's exponent a t/2 - a^2/4 + b
    is one exact Fraction, exponentiated once; the window starts a lower.
    """
    if a != int(a):
        raise ValueError(f"linear coefficient must be an integer, got {a}")
    a, b, ctx = int(a), Fraction(b), f.ctx
    factors = [ctx.qpow(Fraction(a * (2 * t - a), 4) + b) if live else 0
               for t, live in enumerate(f.row.astype(bool), f.start)]
    return GaussianChain(ctx, start=f.start - a, row=_times(f.row, factors))


# -- ladder operators ------------------------------------------------------

def arik_lower(ctx: QContext) -> LadderOperator:
    return LadderOperator("arik_lower", ctx)


def arik_raise(ctx: QContext) -> LadderOperator:
    return LadderOperator("arik_raise", ctx)


def mac_lower(ctx: QContext) -> LadderOperator:
    return LadderOperator("mac_lower", ctx)


def mac_raise(ctx: QContext) -> LadderOperator:
    return LadderOperator("mac_raise", ctx)


# (s1, a1, b1), (s2, a2, b2) of each ladder; see apply_ladder.
_LADDER_TERMS = {
    "arik_lower": ((-2, 4, 0), (-2, None, None)),
    "arik_raise": ((0, 4, 4), (2, None, None)),
    "mac_lower": ((-2, 8, -4), (-2, 4, -4)),
    "mac_raise": ((2, -8, -4), (0, -4, 0)),
}


def _ladder_table(op: LadderOperator, start: int, parts: np.ndarray,
                  exp: int) -> tuple:
    """apply_ladder on every row of the table (start, parts, exp) at once:
    each tap is the table times its multiplier row over the common window,
    placed from start + s, the second subtracted, and the prefactor last."""
    ctx = op.ctx
    columns = range(start, start + parts.shape[-1])
    q = ctx.q
    pref = 1 / ctx.sqrt(1 - q if op.kind.startswith("arik") else q * (1 - q))
    taps = []
    for s, a, b in _LADDER_TERMS[op.kind]:
        tap = (start + s, parts, exp)
        if a is not None:
            tap = _scaled(ctx, tap, [ctx.qpow8(a * t + b) for t in columns])
        taps.append(tap)
    return _scaled(ctx, _difference(*taps), pref)


def apply_ladder(op: LadderOperator, f: GaussianChain) -> GaussianChain:
    """Apply one ladder operator, then its scalar prefactor.

    Each operator is an exact composition of half-step shifts T^s and
    multipliers q^{a x + b}:

        arik_lower = T^{1/2} (q^{x + 1/4} - T^{1/2}),   1/sqrt(1 - q)
        arik_raise = (q^{x + 1/4} - T^{-1/2}) T^{-1/2}, 1/sqrt(1 - q)
        mac_lower  = q^{2x + 1/2} - q^{x + 1/4} T^{1/2}, 1/sqrt(q (1 - q))
        mac_raise  = q^{-2x + 1/2} - T^{1/2} q^{-x + 1/4}, 1/sqrt(q (1 - q))

    Composed on a Gaussian at twice-center t, each is two terms: the first
    moves it to t + s1 with the factor q^{(a1 t + b1)/8}, the second,
    subtracted, to t + s2 with q^{(a2 t + b2)/8}, or with no factor for a
    pure shift (T^s moves t to t - 2s; q^{a x + b} moves it to t - a with
    q^{a t/2 - a^2/4 + b}):

        operator     first (s1, a1, b1)   second (s2, a2, b2)
        arik_lower   (-2, 4, 0)           (-2, shift only)
        arik_raise   (0, 4, 4)            (+2, shift only)
        mac_lower    (-2, 8, -4)          (-2, 4, -4)
        mac_raise    (+2, -8, -4)         (0, -4, 0)

    On the window layout this is a two-tap stencil: the window's row
    times the row of first factors q^{(a1 t + b1)/8} is placed s1 columns
    over, the second tap is subtracted s2 columns over, in a window
    |s1 - s2| wider, and the result is scaled by the prefactor. Terms
    landing on one center combine before the prefactor, so symbolic
    cancellations (lowering a ground state, commutator identities) give
    exact zeros, which the trimmed window and ``coeffs`` leave out. This
    is the one-row case of the table stencil the suites apply; at set
    digits each coefficient is exact until it rounds once, at the end.
    """
    if f.ctx != op.ctx:
        raise ValueError("operator and chain carry different contexts")
    start, parts, exp = _ladder_table(op, *_row_table(f))
    return GaussianChain(op.ctx, start=start,
                         row=_rounded(op.ctx, parts, exp)[0])


def ladder_residuals(ctx: QContext, levels, family: Family) -> list:
    """The family's ladder check, one dict per level n in levels: the
    coeff_distance (relative_coeff_distance if family.relative) from lower
    f_n to sqrt(lam_n) f_{n-1} and from raise f_n to sign sqrt(lam_{n+1})
    f_{n+1}, every f_k a row of one family.table written onto the
    twice-centers 0, 2, ..., 2k of one dense table. Each ladder acts on the
    rows of all levels at once; at set digits the images, the scaled
    targets and their gaps are exact, and each residual rounds once, a
    relative one after its exact ratio."""
    levels = list(levels)
    if any(n < 1 for n in levels):
        raise ValueError("ladder check needs n >= 1")
    if not levels:
        return []
    top = max(levels)
    # past the double range (inf powers) the double gaps turn NaN quietly;
    # the suite's judge reports them as failures
    with np.errstate(invalid="ignore", over="ignore"):
        rows = np.zeros((top + 2, 2 * top + 3), object if ctx.is_mp else float)
        for k, row in enumerate(family.table(ctx, top + 1)):
            rows[k, :2 * k + 1:2] = row
        parts, exp = _exact(ctx, rows)
        root = {k: ctx.sqrt(family.lam(ctx.q, k))
                for k in {*levels, *(n + 1 for n in levels)}}

        def stacked(step):
            """f_{n+step} for each n in levels, on the twice-centers 0 to
            2 (top + step)."""
            return (0, parts[:, [n + step for n in levels],
                             :2 * (top + step) + 1], exp)

        def targets(step, sign):
            """sign sqrt(lam_k) f_{n+step}, k the higher of n and n + step."""
            return _scaled(ctx, stacked(step),
                           [[sign * root[max(n, n + step)]] for n in levels])
        table = stacked(0)
        low = _distance(_ladder_table(family.lower(ctx), *table),
                        targets(-1, 1), family.relative)
        up = _distance(_ladder_table(family.raise_(ctx), *table),
                       targets(1, family.sign), family.relative)
    return [{"n": n, "lower_residual": lo, "raise_residual": hi}
            for n, lo, hi in zip(levels, low, up)]


def build_by_raising(family: Family, ctx: QContext, n: int) -> GaussianChain:
    """f_n built by n raising steps from the ground state alpha g_0,
    f_{k+1} = sign (raise f_k) / sqrt(lam_{k+1}), to compare with the
    closed form family.build."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    chain = GaussianChain(ctx, {0: alpha(ctx)})
    op = family.raise_(ctx)
    for k in range(1, n + 1):
        chain = scale(apply_ladder(op, chain),
                      family.sign / ctx.sqrt(family.lam(ctx.q, k)))
    return chain


def commutator_residuals(ctx: QContext, ladders, table: tuple) -> list:
    """The largest coefficient of (a b - q b a - 1) f for each row f of
    table, one list per ladder pair (a, b) = (a(ctx), b(ctx)) in ladders.
    table is (start, rows): entry j of a row belongs to the twice-center
    start + j, rows a float or complex array in double, at set digits an
    object array of binary numbers (mpmath numbers, floats, complexes) with
    the integer 0 in its holes. Each ladder product acts on all of it at
    once; at set digits the entries convert exactly and each residual
    rounds once."""
    start, rows = table
    table = (start, *_exact(ctx, rows))
    residuals = []
    for a, b in ladders:
        a, b = a(ctx), b(ctx)
        first = _ladder_table(a, *_ladder_table(b, *table))
        second = _scaled(ctx, _ladder_table(b, *_ladder_table(a, *table)),
                         ctx.q)
        _, parts, exp = _difference(_difference(first, second), table)
        residuals.append(_floats(_row_peaks(parts), exp))
    return residuals


# -- inner products and products -------------------------------------------

def overlap_scale(ctx: QContext):
    """The basic two-Gaussian overlap integral of coincident centers,
    integral of q^{2 x^2} dx = sqrt(pi / (2 c^2))."""
    return ctx.sqrt(ctx.pi() / (2 * ctx.c * ctx.c))


def alpha(ctx: QContext):
    """Ground-state normalization (2 c^2 / pi)^{1/4}, the inverse square
    root of the q^{2x^2} integral."""
    return 1 / ctx.sqrt(overlap_scale(ctx))


def inner(f: GaussianChain, g: GaussianChain, kind: str = "standard"):
    """Analytic inner product of two chains.

    "standard" is integral of conj(f(x)) g(x) dx; "parity_twisted" is
    integral of conj(f(-x)) g(x) dx, the indefinite product under which
    the mac operators are mutually conjugate. Both reduce to the exact
    two-Gaussian overlap

        integral q^{(x-mu)^2} q^{(x-nu)^2} dx = sqrt(pi/2c^2) q^{(mu-nu)^2/2}.
    """
    _require_same_ctx(f, g)
    if kind not in ("standard", "parity_twisted"):
        raise ValueError(f"unknown inner product kind {kind!r}")
    ctx, pow8 = f.ctx, f.ctx.qpow8
    sign = 1 if kind == "standard" else -1
    # (mu - nu)^2 / 2 = (t - s)^2 / 8; the parity twist flips t to -t
    total = 0
    for t, a in f.coeffs.items():
        ca = a.conjugate()
        for s, b in g.coeffs.items():
            d = sign * t - s
            total = total + ca * b * pow8(d * d)
    return overlap_scale(ctx) * total


def lattice_kernel(ctx: QContext, size: int, kind: str = "standard") -> list:
    """Overlap kernel of unit Gaussians at the integer centers 0..size-1:
    K[j][k] = q^{(j-k)^2/2}, or q^{(j+k)^2/2} under the parity twist, so
    the pair's inner product is sqrt(pi/2c^2) K[j][k]."""
    sign = 1 if kind == "standard" else -1
    count = size if sign == 1 else 2 * size - 1  # |j - k| or j + k
    powers = [ctx.qpow8(4 * d * d) for d in range(count)]
    return [[powers[abs(j - sign * k)] for k in range(size)]
            for j in range(size)]


def gram_contract(A, K, B) -> np.ndarray:
    """The bilinear form A K B^T behind every Gram matrix of the package.

    The rows of A and B are coefficient tables against the matrix K. Rows
    may be ragged: missing trailing entries are zeros, and entries past
    K's width are cut, as zip pairs them. The backend follows K's element
    type. Floats and complexes take numpy matrix products. With mpmath
    numbers A, K and B convert once to exact integers, every entry of
    A K B^T is one exact sum, and it rounds once to nearest, at the
    precision of A's entries when they are mpmath numbers, else K's: an
    mpc when A, K or B holds a complex entry, else an mpf. Returns a 2-D
    array, float64 or complex128 in double, of those mpmath numbers else.
    """
    probe = K[0][0]
    if hasattr(probe, "_mpf_") or hasattr(probe, "_mpc_"):
        lead = A[0][0] if A and len(A[0]) else probe
        lib = getattr(lead, "context", probe.context)
        size, width = len(K), len(K[0])
        L, el = _fixed(dense_rows(A, size, object))
        M, em = _fixed(dense_rows(K, width, object))
        R, er = (L, el) if B is A and width == size else \
            _fixed(dense_rows(B, width, object))
        LM = _paired(lambda i, j: L[i] @ M[j], len(L), len(M))
        parts = _paired(lambda i, j: LM[i] @ R[j].T, len(LM), len(R))
        exp = el + em + er
        return np.frompyfunc(lambda *ms: _from_parts(lib, ms, exp),
                             len(parts), 1)(*parts)
    if not isinstance(probe, (float, complex)):
        raise TypeError("gram_contract takes a kernel of floats, complexes "
                        f"or mpmath numbers, not {type(probe).__name__}")
    K = np.asarray(K)
    A, B = dense_rows(A, K.shape[0]), dense_rows(B, K.shape[-1])
    return A @ K @ B.T


def _paired(product, left: int, right: int) -> np.ndarray:
    """The parts of the product of two exact tables, of left and right
    parts (1 when real, 2 when complex, see _fixed), from product(i, j),
    the product of part i of the left by part j of the right: [re] when
    both are real, else [re, im], as (a + i a')(b + i b') pairs them."""
    re = product(0, 0)
    if left == right == 1:
        return re[None]
    if left == right == 2:
        re = re - product(1, 1)
    im = (product(0, 1) if right == 2 else 0) + \
        (product(1, 0) if left == 2 else 0)
    return np.stack([re, im])


def dense_rows(rows, width: int, dtype=None) -> np.ndarray:
    """Ragged rows cut or zero-filled to width columns, as zip pairs them
    with rows of that length: of dtype, or the rows' common type."""
    rows = [np.asarray(r, dtype)[:width] for r in rows]
    out = np.zeros((len(rows), width), dtype or np.result_type(*rows))
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


# Digits between gram_budget's predicted floor and the tolerance, the
# GUARD_DIGITS of a context's working precision among them.
BUDGET_GUARD_DIGITS = 12


def gram_budget(log_rows, log_kernel, log_scale, tol: float,
                digits: int | None = None) -> tuple:
    """The precision a Gram A K A^T needs, read off its own term mass.

    Takes log10 |A[n][j]| (ragged rows end in zeros), log10 |K[j][k]| and
    log10 of each row's scale; entry (n, m) has condition (|A||K||A|^T)[n][m]
    over scale[n] scale[m]. gram_contract sums exactly, so what the
    cancellation amplifies is the rounding u of its inputs, the rows and
    the kernel: the floor models it as gamma_t = t u times the condition,
    t = size^2 terms, the bound of a sum rounded term by term (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 4). Logs
    keep it finite far past the double range. Returns (log10 condition,
    digits, floor): digits as given or, when None, the fewest whose floor
    at u = 10^-(digits + GUARD_DIGITS) sits BUDGET_GUARD_DIGITS under tol;
    floor at those digits and mpmath's own u, None past the double range.
    """
    K = np.asarray(log_kernel, dtype=float)
    A = np.full((len(log_rows), K.shape[0]), -np.inf)
    for n, row in enumerate(log_rows):
        A[n, :len(row)] = row
    scale = np.asarray(log_scale, dtype=float)
    mass = _log10_product(_log10_product(A, K), A.T)
    log_condition = float((mass - scale[:, None] - scale).max())
    log_terms = 2 * math.log10(K.shape[0])
    if digits is None:
        digits = math.ceil(log_condition + log_terms - math.log10(tol)
                           + BUDGET_GUARD_DIGITS) - GUARD_DIGITS
    # the bits mpmath gives digits + GUARD_DIGITS (libmp.dps_to_prec)
    bits = max(1, int(round((digits + GUARD_DIGITS + 1) * 3.3219280948873626)))
    log_floor = log_condition + log_terms - math.log10(2) * bits
    return log_condition, digits, 10.0 ** log_floor if log_floor < 308 else None


def _log10_product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """log10(10^X @ 10^Y), each sum scaled by its largest term."""
    terms = X[:, :, None] + Y[None, :, :]
    top = terms.max(axis=1)
    scaled = np.exp((terms - top[:, None, :]) * math.log(10.0))
    return top + np.log10(scaled.sum(axis=1))


def product_daughters(f: GaussianChain, g: GaussianChain) -> DaughterChain:
    """Expand the pointwise product f(x) g(x) in the daughter family,

        q^{(x-mu)^2} q^{(x-nu)^2} = q^{(mu-nu)^2/2} q^{2(x-(mu+nu)/2)^2}.

    All centers of f and g must share one parity class (twice-center sums
    even), otherwise the daughters would leave the half-integer lattice.
    No conjugation is applied; integrating the result therefore equals
    inner(conj(f), g, standard). On the centers t = ta + 2j of f and
    s = tb + 2i of g, daughter j + i gathers a_j b_i q^{(t-s)^2/8} in
    increasing j, one weighted convolution of the two rows; at set digits
    their real and imaginary parts pair as complex products, exactly, and
    each daughter rounds once.
    """
    _require_same_ctx(f, g)
    ctx = f.ctx
    if len({(h.start + j) % 2 for h in (f, g)
            for j in np.flatnonzero(h.row.astype(bool)).tolist()}) > 1:
        raise ValueError("product centers leave the half-integer lattice; "
                         "chains must live on one parity class")
    (A, ea), (B, eb) = (_exact(ctx, h.row[::2]) for h in (f, g))
    wa, wb = A.shape[-1], B.shape[-1]
    weights, ew = _exact(ctx, [ctx.qpow8(d * d) for d in range(
        f.start - g.start - 2 * (wb - 1), f.start - g.start + 2 * wa - 1, 2)])
    out = np.zeros((len(A), len(B), max(wa + wb - 1, 0)), np.result_type(A, B))
    weights = weights[0, ::-1]
    for j in range(wa):
        term = _mul(_mul(A[:, None, j, None], B[None]),
                    weights[wa - 1 - j:wa - 1 - j + wb])
        out[..., j:j + wb] += term
    parts = _paired(lambda i, j: out[i, j], len(A), len(B))
    return DaughterChain(ctx, start=(f.start + g.start) // 2,
                         row=_rounded(ctx, parts, ea + eb + ew))


def evaluate(f: GaussianChain, x):
    """Pointwise value sum_mu a_mu q^{(x-mu)^2}.

    In the double backend scalars and numpy arrays are both evaluated
    vectorized; far-away terms underflow to zero harmlessly (the exponent
    is negative real). In a high-precision backend x is treated as one
    scalar point.
    """
    ctx = f.ctx
    if ctx.digits is None:
        xs = np.asarray(x, dtype=float)
        lnq = float(ctx.ln_q)
        total = np.zeros(xs.shape, dtype=complex)
        # an inf coefficient times an underflowed Gaussian is NaN, quietly
        with np.errstate(over="ignore", invalid="ignore"):
            for t, a in f.coeffs.items():
                total = total + complex(a) * np.exp(lnq * (xs - t / 2.0) ** 2)
        if np.all(total.imag == 0.0):
            total = total.real
        return total if total.shape else total.item()
    total = 0
    for t, a in f.coeffs.items():
        d = x - ctx.make(t) / 2
        total = total + a * ctx.exp(ctx.ln_q * d * d)
    return total


def coeff_distance(f: GaussianChain, g: GaussianChain) -> float:
    """max |f_t - g_t| over the union of centers, as a plain float."""
    return _distance(_row_table(f), _row_table(g))[0]


def relative_coeff_distance(f: GaussianChain, g: GaussianChain) -> float:
    """coeff_distance normalized by the largest reference coefficient of g
    (falls back to f when g is the zero chain)."""
    return _distance(_row_table(f), _row_table(g),
                     relative=True)[0]


def _require_same_ctx(f: GaussianChain, g: GaussianChain):
    if f.ctx != g.ctx:
        raise ValueError("chains carry different contexts")
