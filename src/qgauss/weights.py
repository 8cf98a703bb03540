"""Half-period weight functions and the weighted orthogonality machinery.

A weight is a finite Fourier series on harmonics of e^{i 4 pi x}, so it
repeats every 1/2 and slides through every lattice shift the ladder
operators perform. Multiplying the eigenfunction family by any such w
preserves orthonormality; this module carries that demonstration and the
doubly indexed orthogonal family built from an orthonormalized set of
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .chain import (GaussianChain, alpha, gram_contract, overlap_scale,
                    product_daughters, scale)
from .dg import build_phi, daughter_gram
from .report import GramReport, real_part


@dataclass(frozen=True)
class PeriodicWeight:
    """w(x) = sum_m modes[m] e^{i 4 pi m x}, period 1/2."""

    modes: dict

    def __post_init__(self):
        cleaned = {int(m): complex(v) for m, v in sorted(self.modes.items())
                   if v != 0}
        if not cleaned:
            raise ValueError("weight must have at least one nonzero mode")
        object.__setattr__(self, "modes", cleaned)

    def evaluate(self, x):
        xs = np.asarray(x, dtype=float)
        total = np.zeros(xs.shape, dtype=complex)
        for m, coeff in self.modes.items():
            total = total + coeff * np.exp(4j * np.pi * m * xs)
        return total if total.shape else total.item()


@dataclass(frozen=True)
class WeightedChain:
    """The product function w(x) * chain(x)."""

    weight: PeriodicWeight
    chain: GaussianChain


def cosine_weight(amplitude: float = 0.3) -> PeriodicWeight:
    """w(x) = 1 + amplitude * cos(4 pi x)."""
    half = amplitude / 2.0
    return PeriodicWeight({-1: half, 0: 1.0, 1: half})


def random_weight(rng: np.random.Generator) -> PeriodicWeight:
    """A weight with 3 distinct harmonics in [-2, 2] and complex Gaussian
    coefficients; the constant mode is always present so the weight cannot
    be orthogonal to the ground state by accident."""
    modes = {int(idx) - 2: complex(rng.standard_normal(),
                                   rng.standard_normal())
             for idx in rng.choice(5, size=3, replace=False)}
    modes[0] = modes.get(0, 0) + 1.0
    return PeriodicWeight(modes)


def mode_overlap(ctx: QContext, delta: int):
    """The Gaussian Fourier coefficient
    integral e^{i 4 pi delta x} q^{2 x^2} dx
        = sqrt(pi/2c^2) e^{-(4 pi delta)^2 / (8 c^2)},
    real for every harmonic separation delta. Centering the Gaussian at
    any half-integer k/2 multiplies this by e^{i 2 pi delta k} = 1, which
    is the entire shift-invariance mechanism."""
    c2 = ctx.c * ctx.c
    return overlap_scale(ctx) * ctx.exp(-2 * ctx.pi() ** 2 * delta * delta / c2)


def weight_gram_integral(wa: PeriodicWeight, wb: PeriodicWeight, ctx: QContext):
    """integral conj(wa(x)) wb(x) q^{2 x^2} dx via the mode-overlap kernel."""
    total = 0
    for m, a in wa.modes.items():
        for mp_, b in wb.modes.items():
            total = total + a.conjugate() * b * mode_overlap(ctx, mp_ - m)
    return total


def alpha_w(weight: PeriodicWeight, ctx: QContext):
    """(integral |w|^2 q^{2x^2} dx)^{-1/2}; the norm integral is real and
    positive for any nonzero weight."""
    norm_sq = weight_gram_integral(weight, weight, ctx)
    if abs(norm_sq.imag) > 1e-14 * abs(norm_sq) or norm_sq.real <= 0:
        raise ValueError("weight norm integral must be real positive")
    return 1 / ctx.sqrt(norm_sq.real)


def build_An(ctx: QContext, weight: PeriodicWeight, n: int) -> WeightedChain:
    """A_n = (alpha_w / alpha) w phi_n, the weighted eigenfunction."""
    factor = alpha_w(weight, ctx) / alpha(ctx)
    return WeightedChain(weight, scale(build_phi(ctx, n), factor))


def mixed_weighted_inner(ctx: QContext, wa: PeriodicWeight, f: GaussianChain,
                         wb: PeriodicWeight, g: GaussianChain):
    """integral conj(wa f) wb g dx.

    The product conj(f) g expands in daughters q^{2(x-k/2)^2}, and the
    weighted integral of each daughter is independent of k (the harmonics
    e^{i 4 pi delta x} pick up only unit phases under half-integer
    shifts), so the whole integral is one weight factor times the daughter
    coefficient sum.
    """
    daughters = product_daughters(f.conjugate(), g)
    return weight_gram_integral(wa, wb, ctx) * daughters.coefficient_sum()


def weights_gram(ctx: QContext, weights: list) -> np.ndarray:
    """W[a][b] = integral conj(w_a) w_b q^{2x^2} dx for a list of weights:
    their mode coefficients contracted against the mode kernel."""
    lo = min(min(w.modes) for w in weights)
    hi = max(max(w.modes) for w in weights)
    rows = [[w.modes.get(m, 0j) for m in range(lo, hi + 1)] for w in weights]
    # the rows are Python numbers: the contraction takes the kernel's precision
    return gram_contract([[v.conjugate() for v in row] for row in rows],
                         weight_mode_kernel(ctx, hi - lo + 1), rows)


# -- the orthonormal weight family and the doubly indexed Gram ---------------

def weight_mode_kernel(ctx: QContext, count: int) -> list:
    """Gram matrix of the raw Fourier modes e^{i 4 pi m x}, m = 0..count-1,
    under the q^{2x^2} kernel, in the context's backend. Symmetric positive
    definite; entries decay like a Gaussian in the harmonic separation."""
    overlaps = [mode_overlap(ctx, d) for d in range(count)]
    return [[overlaps[abs(j - i)] for j in range(count)] for i in range(count)]


def orthonormal_weight_family(ctx: QContext, count: int) -> list:
    """First count weights of the Gram-Schmidt orthonormalization of the
    Fourier modes under the q^{2x^2} kernel, so that
    integral conj(w_n) w_m q^{2x^2} dx = delta_{nm}.

    Modified Gram-Schmidt with one reorthogonalization pass. The kernel is
    numerically singular once its condition number approaches 1/eps, which
    happens for large c (slow harmonic decay); that case raises rather
    than returning junk.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    K = np.array(weight_mode_kernel(ctx, count), dtype=float)
    cond = float(np.linalg.cond(K))
    if cond > 1e13:
        raise RuntimeError(
            f"mode kernel condition number {cond:.2e} too large for a "
            "double-precision orthonormalization; reduce count or c")
    basis = []
    for j in range(count):
        v = np.zeros(count, dtype=float)
        v[j] = 1.0
        for _ in range(2):
            for u in basis:
                v = v - (u @ K @ v) * u
        v = v / math.sqrt(v @ K @ v)
        basis.append(v)
    return [PeriodicWeight({m: v[m] for m in range(count) if v[m] != 0.0})
            for v in basis]


def weight_family_condition(ctx: QContext, count: int) -> float:
    return float(np.linalg.cond(np.array(weight_mode_kernel(ctx, count),
                                         dtype=float)))


def gamma_family_gram(ctx: QContext, nweights: int, nmax: int) -> GramReport:
    """Gram of the doubly indexed family Gamma_{nm} = (1/alpha) w_n phi_m
    over n < nweights, m <= nmax, against the identity.

    The w_n are the orthonormalized weights (their individual alpha_w is 1
    by construction, collapsing the usual alpha_w/alpha prefactor to
    1/alpha). Entries factor as in mixed_weighted_inner, the weight Gram
    entry times 1/alpha^2 times the daughter Gram entry; every entry is
    computed, none assumed from orthonormality.
    """
    wgram = weights_gram(ctx, orthonormal_weight_family(ctx, nweights))
    labels = [(n, m) for n in range(nweights) for m in range(nmax + 1)]
    inv_alpha = 1 / alpha(ctx)
    # entry ((n1, m1), (n2, m2)) is block (n1, n2), entry (m1, m2): kron
    matrix = real_part(np.kron(wgram * (inv_alpha * inv_alpha),
                               daughter_gram(ctx, nmax)))
    notes = {"family": "gamma", "nweights": nweights, "nmax": nmax,
             "kernel_condition": weight_family_condition(ctx, nweights)}
    if ctx.is_mp:  # the Gram-Schmidt of the weights runs in numpy float
        notes["double_stages"] = ["weight_orthonormalization"]
    return GramReport(labels=labels, matrix=matrix,
                      target=np.eye(len(labels)), precision_digits=ctx.digits,
                      notes=notes)
