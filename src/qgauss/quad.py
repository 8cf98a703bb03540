"""Real-line quadrature, the independent check on the analytic overlap
formulas.

Deliberately unsophisticated: a truncated trapezoid rule on a uniform
grid, sharing no machinery with the closed-form inner products it audits.
For analytic integrands with Gaussian decay the trapezoid sum converges
exponentially in 1/h (Trefethen & Weideman, SIAM Review 56, 2014), and
the sums at spacings 2h and 4h are strided sums of the same samples.
"""

from __future__ import annotations

import math

import numpy as np

from .context import QContext

# q^{2 pad^2} = e^{-46} ~ 1e-20 for the bare envelope.
_TAIL_EXPONENT = 23.0
_MAX_POINTS = 1 << 21
# The first spacing, whatever c is: a spacing that grows as q -> 1 lets
# all three levels alias the harmonics e^{i 4 pi m x} of |w|^2 (periods
# down to 1/8) onto the same wrong value.
_FIRST_STEP = 1.0 / 16.0
_EPS = float(np.finfo(float).eps)


def integrate_real_line(f, ctx: QContext, tol: float = 1e-10):
    """Integrate a Gaussian-decay integrand over the real line.

    f takes a numpy array of points and returns its values there, real or
    complex, in double: the rule samples and sums in double. The samples
    sit at j h, |j| <= n, first on [-2 pad, 2 pad] with pad = sqrt(23)/c:
    a bare q^{2x^2} tail is down at 1e-20 at pad, and the rest leaves room
    for chains centered up to pad away from the origin. The window
    doubles while an end value is not negligible against the peak. The
    spacing h halves while the trapezoid sums at h, 2h and 4h disagree by
    more than tol * max(1, |I|) or than the roundoff of the sum,
    eps * h * sum |f|; a difference that halving h no longer shrinks,
    below sqrt(eps) * h * sum |f|, is noise inside f and ends the
    refinement too. Each widening or halving samples only the new points,
    in one call of f, so most integrals take a single call. Raises
    RuntimeError if the point budget runs out.
    """
    h = _FIRST_STEP
    # n stays a multiple of 4, so that every level samples x = 0
    n = 4 * math.ceil(math.sqrt(_TAIL_EXPONENT) / (2 * float(ctx.c) * h))
    ys = np.asarray(f(h * np.arange(-n, n + 1)), dtype=complex)
    while True:
        mags = np.abs(ys)
        widen = max(mags[:4].max(), mags[-4:].max()) > 1e-18 * mags.max()
        if not widen:
            fine, mid, coarse = (step * h * ys[::step].sum()
                                 for step in (1, 2, 4))
            scale = h * mags.sum()
            near, far = abs(fine - mid), abs(mid - coarse)
            if max(near, far) <= max(tol * max(1.0, abs(fine)), _EPS * scale) \
                    or far <= 2.0 * near <= 2.0 * math.sqrt(_EPS) * scale:
                return complex(fine)
        if 4 * n + 1 > _MAX_POINTS:
            raise RuntimeError(
                f"trapezoid rule ran out of its {_MAX_POINTS} points on "
                f"[-{n * h:g}, {n * h:g}] before the tails were negligible "
                f"and the levels agreed within tol={tol:g}")
        if widen:
            outer = np.asarray(f(h * np.concatenate(
                [np.arange(-2 * n, -n), np.arange(n + 1, 2 * n + 1)])),
                dtype=complex)
            ys = np.concatenate([outer[:n], ys, outer[n:]])
        else:
            h /= 2.0
            finer = np.empty(4 * n + 1, dtype=complex)
            finer[::2] = ys
            finer[1::2] = f(h * np.arange(1 - 2 * n, 2 * n, 2))
            ys = finer
        n *= 2
