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
zeros in its holes. Every operation computes on windows at the context's
precision; ``coeffs`` is only a read-only {t: a} view of the nonzero
entries. A table (start, rows) holds one chain per row on a common window:
ladders act on it as two-tap stencils, products of rows expand into
daughters as one weighted convolution. Complex products are taken part by
part, as Python takes them: numpy's complex multiply rounds differently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import mpmath
import numpy as np

from .context import (GUARD_DIGITS, QContext, as_lattice_shift, conj,
                      magnitude)

LADDER_KINDS = ("arik_lower", "arik_raise", "mac_lower", "mac_raise")


class _Window:
    """Coefficients on one context, from a mapping {t: a} or from a table
    row whose entry j belongs to the twice-center start + j; the zero ends
    of the row are trimmed."""

    def __init__(self, ctx: QContext, coeffs=None, start: int = 0, row=None):
        if row is None:
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

    def max_abs_coeff(self) -> float:
        return float(_row_max_abs(self.row))

    def conjugate(self) -> "GaussianChain":
        return GaussianChain(self.ctx, start=self.start, row=self.row.conjugate())

    def reflect(self) -> "GaussianChain":
        """f(-x): centers negated, coefficients unchanged."""
        return GaussianChain(self.ctx, start=1 - self.start - self.row.size,
                             row=self.row[::-1])


class DaughterChain(_Window):
    """sum_t b_t q^{2(x-t/2)^2}: the squared-exponent family produced by
    pointwise products of two chains."""

    def coefficient_sum(self):
        with self.ctx.prec():
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
class TrigGaussian:
    """prefactor * e^{-(pi/c)^2 theta^2} * sum_t gamma_t e^{i 2 pi (t/2) theta}.

    Exact Fourier transform of a GaussianChain; harmonic indices are stored
    doubled (key t for harmonic t/2) so half-integer centers stay integers,
    in increasing order.
    """

    ctx: QContext
    prefactor: object
    trig_coeffs: dict

    def evaluate(self, theta):
        thetas = np.asarray(theta, dtype=float)
        envelope = np.exp(-((np.pi / float(self.ctx.c)) ** 2) * thetas ** 2)
        total = np.zeros(thetas.shape, dtype=complex)
        for t, g in self.trig_coeffs.items():
            total = total + complex(g) * np.exp(1j * np.pi * t * thetas)
        out = float(self.prefactor) * envelope * total
        return out if out.shape else out.item()


# -- coefficient tables ------------------------------------------------------

def _table_of(ctx: QContext, maps: list) -> tuple:
    """Mappings {t: a}, one per row, as a table on their common window; at
    set digits Python numbers take the context's type."""
    rows = [[(operator.index(t), a) for t, a in m.items() if a] for m in maps]
    centers = [t for row in rows for t, _ in row]
    start = min(centers, default=0)
    width = max(centers, default=start - 1) - start + 1
    dense = [[0] * width for _ in rows]
    for line, row in zip(dense, rows):
        for t, a in row:
            line[t - start] = a if not ctx.is_mp or isinstance(
                a, (mpmath.mpf, mpmath.mpc)) else ctx.make(a)
    table = np.array(dense, object if ctx.is_mp else None)
    if table.dtype.kind not in "cO":
        table = table.astype(float)
    return start, table.reshape(len(rows), width)


def _aligned(tables: list) -> tuple:
    """Tables (start, rows) on their common window: (start, [rows])."""
    start = min(s for s, _ in tables)
    width = max(s + rows.shape[-1] for s, rows in tables) - start
    out = []
    for s, rows in tables:
        out.append(np.zeros(rows.shape[:-1] + (width,), rows.dtype))
        out[-1][..., s - start:s - start + rows.shape[-1]] = rows
    return start, out


def _stack(chains: list) -> tuple:
    start, rows = _aligned([(f.start, f.row) for f in chains])
    return start, np.array(rows)


def _difference(x: tuple, y: tuple) -> tuple:
    start, (a, b) = _aligned([x, y])
    return start, a - b


def _times(x: np.ndarray, y) -> np.ndarray:
    """x * y elementwise, broadcast. A complex product is taken part by
    part as Python takes it; at set digits (object arrays) a product with a
    zero factor is left the integer 0, so holes cost no mpmath call."""
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
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _magnitudes(rows: np.ndarray) -> np.ndarray:
    """|a| of every entry as magnitude() takes it, as floats."""
    if rows.dtype == object:
        return np.array([magnitude(a) for a in rows.flat]).reshape(rows.shape)
    return np.hypot(rows.real, rows.imag)


def _row_max_abs(rows: np.ndarray) -> np.ndarray:
    """max |a| over each row, |a| as magnitude() takes it; 0.0 if empty."""
    return _magnitudes(rows).max(axis=-1, initial=0.0)


def _distance(x: tuple, y: tuple, relative: bool = False) -> list:
    """coeff_distance, or relative_coeff_distance, of each row pair."""
    gap = _row_max_abs(_difference(x, y)[1])
    if not relative:
        return gap.tolist()
    ref = _row_max_abs(y[1])
    ref = np.where(ref != 0, ref, _row_max_abs(x[1]))
    return np.divide(gap, ref, out=np.zeros_like(gap), where=ref != 0).tolist()


# -- construction and elementary algebra ----------------------------------

def make_gaussian(ctx: QContext, t: int) -> GaussianChain:
    """Single Gaussian of unit coefficient centered at t/2."""
    if t != int(t):
        raise ValueError(f"twice-center must be an integer, got {t}")
    return GaussianChain(ctx, {int(t): ctx.make(1)})


def zero_chain(ctx: QContext) -> GaussianChain:
    return GaussianChain(ctx, {})


def add(f: GaussianChain, g: GaussianChain) -> GaussianChain:
    _require_same_ctx(f, g)
    with f.ctx.prec():
        start, (a, b) = _aligned([(f.start, f.row), (g.start, g.row)])
        return GaussianChain(f.ctx, start=start, row=a + b)


def scale(f: GaussianChain, s) -> GaussianChain:
    with f.ctx.prec():
        return GaussianChain(f.ctx, start=f.start, row=_times(f.row, s))


def subtract(f: GaussianChain, g: GaussianChain) -> GaussianChain:
    return add(f, scale(g, -1))


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
    with ctx.prec():
        factors = [ctx.qpow(Fraction(a * (2 * t - a), 4) + b) if live else 0
                   for t, live in enumerate(f.row.astype(bool), f.start)]
        return GaussianChain(ctx, start=f.start - a, row=_times(f.row, factors))


def prune(f: GaussianChain, rel_threshold: float) -> GaussianChain:
    """Drop coefficients below rel_threshold times the largest magnitude."""
    if rel_threshold <= 0:
        return f
    keep = _magnitudes(f.row) > rel_threshold * f.max_abs_coeff()
    return GaussianChain(f.ctx, start=f.start, row=np.where(keep, f.row, 0))


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


def _ladder_table(op: LadderOperator, start: int, rows: np.ndarray) -> tuple:
    """apply_ladder on every row of the table (start, rows) at once: one
    multiplier row per tap over the common window, the taps placed in the
    output window from start + min(s1, s2), and the prefactor last."""
    ctx = op.ctx
    (s1, a1, b1), (s2, a2, b2) = _LADDER_TERMS[op.kind]
    width = rows.shape[-1]
    low = min(s1, s2)
    with ctx.prec():
        q = ctx.q
        if op.kind.startswith("arik"):
            pref = 1 / ctx.sqrt(1 - q)
        else:
            pref = 1 / ctx.sqrt(q * (1 - q))
        first, second = (None if a is None else np.array(
            [ctx.qpow8(a * t + b) for t in range(start, start + width)],
            object if ctx.is_mp else float) for a, b in ((a1, b1), (a2, b2)))
        image = np.zeros(rows.shape[:-1] + (width + abs(s1 - s2),), rows.dtype)
        image[..., s1 - low:s1 - low + width] = _times(rows, first)
        moved = image[..., s2 - low:s2 - low + width]
        moved -= rows if second is None else _times(rows, second)
        return start + low, _times(image, pref)


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
    is the one-row case of the table stencil the suites apply.
    """
    if f.ctx != op.ctx:
        raise ValueError("operator and chain carry different contexts")
    start, row = _ladder_table(op, f.start, f.row)
    return GaussianChain(op.ctx, start=start, row=row)


def ladder_residuals(ctx: QContext, levels, build, lower, raise_, eigenvalue,
                     relative: bool = False, raise_sign: int = 1) -> list:
    """The ladder check of both families, one dict per level n in levels:
    the coeff_distance (relative_coeff_distance with relative) from lower
    f_n to sqrt(lam_n) f_{n-1} and from raise f_n to raise_sign
    sqrt(lam_{n+1}) f_{n+1}, lam_k = eigenvalue(q, k), f_k = build(ctx, k)
    built once; each ladder acts on the table of all levels at once."""
    levels = list(levels)
    if any(n < 1 for n in levels):
        raise ValueError("ladder check needs n >= 1")
    if not levels:
        return []
    # past the double range (inf powers) the gaps turn NaN quietly; the
    # suite's judge reports them as failures
    with ctx.prec(), np.errstate(invalid="ignore", over="ignore"):
        family = {k: build(ctx, k) for k in
                  sorted({k for n in levels for k in (n - 1, n, n + 1)})}
        root = {k: ctx.sqrt(eigenvalue(ctx.q, k)) for k in family if k}
        table = _stack([family[n] for n in levels])
        low = _distance(_ladder_table(lower(ctx), *table), _stack(
            [scale(family[n - 1], root[n]) for n in levels]), relative)
        up = _distance(_ladder_table(raise_(ctx), *table), _stack(
            [scale(family[n + 1], raise_sign * root[n + 1]) for n in levels]),
            relative)
    return [{"n": n, "lower_residual": lo, "raise_residual": hi}
            for n, lo, hi in zip(levels, low, up)]


def commutator_residuals(ctx: QContext, ladders, maps: list) -> list:
    """The largest coefficient of (a b - q b a - 1) f for each mapping
    f = {t: a_t} in maps, one list per ladder pair (a, b) = (a(ctx),
    b(ctx)) in ladders: the mappings form one table, built once for every
    pair, and each ladder product acts on all of it at once."""
    with ctx.prec():
        table = _table_of(ctx, maps)
        residuals = []
        for a, b in ladders:
            a, b = a(ctx), b(ctx)
            first = _ladder_table(a, *_ladder_table(b, *table))
            second = _ladder_table(b, *_ladder_table(a, *table))
            second = second[0], _times(second[1], ctx.q)
            residuals.append(_row_max_abs(_difference(
                _difference(first, second), table)[1]).tolist())
        return residuals


# -- inner products, products, transforms ----------------------------------

def overlap_scale(ctx: QContext):
    """The basic two-Gaussian overlap integral of coincident centers,
    integral of q^{2 x^2} dx = sqrt(pi / (2 c^2))."""
    with ctx.prec():
        return ctx.sqrt(ctx.pi() / (2 * ctx.c * ctx.c))


def alpha(ctx: QContext):
    """Ground-state normalization (2 c^2 / pi)^{1/4}, the inverse square
    root of the q^{2x^2} integral."""
    with ctx.prec():
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
    ctx = f.ctx
    sign = 1 if kind == "standard" else -1
    with ctx.prec():
        return overlap_scale(ctx) * _pair_sum(ctx, f.coeffs, g.coeffs, sign)


def _pair_sum(ctx: QContext, left: dict, right: dict, sign: int = 1):
    """sum conj(a_t) b_s q^{(sign t - s)^2 / 8} over two twice-center maps:
    (mu - nu)^2 / 2 = (t - s)^2 / 8, and the parity twist flips t to -t."""
    pow8 = ctx.qpow8
    total = 0
    for t, a in left.items():
        ca = conj(a)
        for s, b in right.items():
            d = sign * t - s
            total = total + ca * b * pow8(d * d)
    return total


def lattice_kernel(ctx: QContext, size: int, kind: str = "standard") -> list:
    """Overlap kernel of unit Gaussians at the integer centers 0..size-1:
    K[j][k] = q^{(j-k)^2/2}, or q^{(j+k)^2/2} under the parity twist, so
    the pair's inner product is sqrt(pi/2c^2) K[j][k]."""
    sign = 1 if kind == "standard" else -1
    with ctx.prec():
        powers = [ctx.qpow8(4 * d * d) for d in range(2 * size)]
    return [[powers[abs(j - sign * k)] for k in range(size)]
            for j in range(size)]


def gram_contract(A, K, B) -> list:
    """The bilinear form A K B^T behind every Gram matrix of the package.

    The rows of A and B are coefficient tables against the kernel K, a
    matrix or, given as a flat sequence, a diagonal. Rows may be ragged:
    missing trailing entries are zeros. The backend follows the kernel's
    element type: mpmath numbers contract with mpmath.fdot at the ambient
    precision, Python ints and Fractions with exact sums, anything else
    with numpy matrix products. Returns a list of rows.
    """
    diagonal = not hasattr(K[0], "__len__")
    probe = K[0] if diagonal else K[0][0]
    if isinstance(probe, (mpmath.mpf, mpmath.mpc)):
        dot = mpmath.fdot
    elif isinstance(probe, (int, Fraction)):
        def dot(x, y):
            return sum(map(operator.mul, x, y))
    else:
        K = np.asarray(K)
        A, B = _dense(A, K.shape[0]), _dense(B, K.shape[-1])
        return ((A * K if diagonal else A @ K) @ B.T).tolist()
    if diagonal:
        AK = [[a * k for a, k in zip(row, K)] for row in A]
    else:
        columns = list(zip(*K))
        AK = [[dot(row, col) for col in columns] for row in A]
    return [[dot(left, right) for right in B] for left in AK]


def _dense(rows, width: int) -> np.ndarray:
    rows = [np.asarray(r) for r in rows]
    out = np.zeros((len(rows), width), np.result_type(*rows))
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


# Digits between gram_budget's predicted floor and the tolerance, the
# GUARD_DIGITS that QContext.prec() adds among them.
BUDGET_GUARD_DIGITS = 12


def gram_budget(log_rows, log_kernel, log_scale, tol: float,
                digits: int | None = None) -> tuple:
    """The precision a Gram A K A^T needs, read off its own term mass.

    Takes log10 |A[n][j]| (ragged rows end in zeros), log10 |K[j][k]| and
    log10 of each row's scale; entry (n, m) has condition (|A||K||A|^T)[n][m]
    over scale[n] scale[m], and roundoff u on its t = size^2 terms floors
    its deviation near gamma_t = t u times that (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 4). Logs keep it finite
    far past the double range. Returns (log10 condition, digits, floor):
    digits as given or, when None, the fewest whose floor at u =
    10^-(digits + GUARD_DIGITS) sits BUDGET_GUARD_DIGITS under tol; floor
    at those digits and mpmath's own u, None past the double range.
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
    log_floor = log_condition + log_terms - math.log10(2) * \
        mpmath.libmp.dps_to_prec(digits + GUARD_DIGITS)
    return log_condition, digits, 10.0 ** log_floor if log_floor < 308 else None


def _log10_product(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """log10(10^X @ 10^Y), each sum scaled by its largest term."""
    terms = X[:, :, None] + Y[None, :, :]
    top = terms.max(axis=1)
    scaled = np.exp((terms - top[:, None, :]) * math.log(10.0))
    return top + np.log10(scaled.sum(axis=1))


def _daughter_table(ctx: QContext, left: tuple, right: tuple) -> tuple:
    """The daughters of each product of a left row by a right row, shape
    (left rows, right rows, width), from the first daughter center. On
    the centers t = ta + 2j and s = tb + 2i of one parity class, entry
    j + i gathers a_j b_i q^{(t-s)^2/8} in increasing left center j."""
    parities, tables = set(), []
    for start, rows in (left, right):
        live = np.flatnonzero(rows.astype(bool).any(axis=0))
        parities |= set(((start + live) % 2).tolist())
        first = int(live[0]) if live.size else 0
        tables.append((start + first, rows[:, first::2]))
    if len(parities) > 1:
        raise ValueError("product centers leave the half-integer lattice; "
                         "chains must live on one parity class")
    (ta, A), (tb, B) = tables
    wa, wb = A.shape[-1], B.shape[-1]
    with ctx.prec():
        weights = np.array([ctx.qpow8(d * d) for d in range(
            ta - tb - 2 * (wb - 1), ta - tb + 2 * wa - 1, 2)],
            object if ctx.is_mp else float)
        out = np.zeros((len(A), len(B), max(wa + wb - 1, 0)),
                       np.result_type(A, B))
        for j in range(wa):
            term = _times(_times(A[:, j, None, None], B[None]),
                          weights[j:j + wb][::-1])
            out[..., j:j + wb] += term
    return (ta + tb) // 2, out


def product_daughters(f: GaussianChain, g: GaussianChain) -> DaughterChain:
    """Expand the pointwise product f(x) g(x) in the daughter family,

        q^{(x-mu)^2} q^{(x-nu)^2} = q^{(mu-nu)^2/2} q^{2(x-(mu+nu)/2)^2}.

    All centers of f and g must share one parity class (twice-center sums
    even), otherwise the daughters would leave the half-integer lattice.
    No conjugation is applied; integrating the result therefore equals
    inner(conj(f), g, standard). The one-row case of _daughter_table.
    """
    _require_same_ctx(f, g)
    start, rows = _daughter_table(f.ctx, (f.start, f.row[None]),
                                  (g.start, g.row[None]))
    return DaughterChain(f.ctx, start=start, row=rows[0, 0])


def daughter_sums(left: list, right: list) -> list:
    """The daughter coefficient sum of f g for every f in left (rows) and
    g in right (columns): one convolution of the two tables, then each
    daughter row summed in increasing center, as
    DaughterChain.coefficient_sum sums it."""
    ctx = left[0].ctx
    _, daughters = _daughter_table(ctx, _stack(left), _stack(right))
    with ctx.prec():
        return [[sum(filter(None, row)) for row in rows]
                for rows in daughters.tolist()]


def integrate_daughters(d: DaughterChain):
    """Integral over the real line: each daughter contributes
    sqrt(pi/2c^2) times its coefficient."""
    with d.ctx.prec():
        return overlap_scale(d.ctx) * d.coefficient_sum()


def fourier(f: GaussianChain) -> TrigGaussian:
    """Exact Fourier transform under F(theta) = integral e^{i 2 pi theta x} f(x) dx.

    Each Gaussian maps to sqrt(pi/c^2) e^{-(pi/c)^2 theta^2} e^{i 2 pi mu theta},
    so the chain's coefficients reappear as trig coefficients on the same
    doubled index.
    """
    ctx = f.ctx
    with ctx.prec():
        pref = ctx.sqrt(ctx.pi() / (ctx.c * ctx.c))
    return TrigGaussian(ctx, pref, dict(f.coeffs))


def trig_inner(F: TrigGaussian, G: TrigGaussian):
    """Analytic integral of conj(F(theta)) G(theta) over the line.

    With both prefactors sqrt(pi/c^2) this reproduces the standard chain
    inner product exactly (a Parseval identity).
    """
    if F.ctx != G.ctx:
        raise ValueError("trig factors carry different contexts")
    ctx = F.ctx
    with ctx.prec():
        c = ctx.c
        gauss = ctx.sqrt(c * c / (2 * ctx.pi()))
        total = _pair_sum(ctx, F.trig_coeffs, G.trig_coeffs)
        return F.prefactor * G.prefactor * gauss * total


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
        for t, a in f.coeffs.items():
            total = total + complex(a) * np.exp(lnq * (xs - t / 2.0) ** 2)
        if np.all(total.imag == 0.0):
            total = total.real
        return total if total.shape else total.item()
    with ctx.prec():
        total = 0
        for t, a in f.coeffs.items():
            d = x - ctx.make(t) / 2
            total = total + a * ctx.exp(ctx.ln_q * d * d)
        return total


def coeff_distance(f: GaussianChain, g: GaussianChain) -> float:
    """max |f_t - g_t| over the union of centers, as a plain float."""
    with f.ctx.prec():
        return _distance((f.start, f.row), (g.start, g.row))


def relative_coeff_distance(f: GaussianChain, g: GaussianChain) -> float:
    """coeff_distance normalized by the largest reference coefficient of g
    (falls back to f when g is the zero chain)."""
    with f.ctx.prec():
        return _distance((f.start, f.row), (g.start, g.row), relative=True)


# -- serialization ----------------------------------------------------------

def chain_to_dict(f: GaussianChain) -> dict:
    """JSON-ready form {c, entries: [[t, re, im], ...]}."""
    entries = [[t, float(a.real), float(a.imag)] for t, a in f.coeffs.items()]
    return {"c": float(f.ctx.c), "entries": entries}


def chain_from_dict(data: dict, digits: int | None = None) -> GaussianChain:
    return GaussianChain(QContext(c=data["c"], digits=digits),
                         {int(t): complex(re_part, im_part)
                          for t, re_part, im_part in data["entries"]})


def _require_same_ctx(f: GaussianChain, g: GaussianChain):
    if f.ctx != g.ctx:
        raise ValueError("chains carry different contexts")
