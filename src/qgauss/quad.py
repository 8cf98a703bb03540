"""Real-line quadrature, the independent check on the analytic overlap
formulas.

Deliberately unsophisticated: a truncated composite Simpson rule on the
real line, sharing no machinery with the closed-form inner products it
audits.
"""

from __future__ import annotations

import math

import numpy as np

from .context import QContext

# q^{2 pad^2} = e^{-46} ~ 1e-20 for the bare envelope.
_TAIL_EXPONENT = 23.0
_MAX_POINTS = 1 << 21


def _simpson(f, half_width: float, panels: int) -> complex:
    xs = np.linspace(-half_width, half_width, 2 * panels + 1)
    ys = np.asarray(f(xs), dtype=complex)
    h = xs[1] - xs[0]
    total = ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()
    return complex(total * h / 3.0)


def choose_half_width(f, ctx: QContext) -> float:
    """Pick a truncation window from the Gaussian envelope.

    Starts at pad = sqrt(23)/c, where a bare q^{2x^2} tail is already down
    at 1e-20, then widens by half-pads while the sampled boundary values
    are not negligible against the interior peak (chains centered away
    from the origin need the extra room).
    """
    c = float(ctx.c)
    pad = math.sqrt(_TAIL_EXPONENT) / c
    half_width = pad
    peak = 0.0
    for _ in range(200):
        xs = np.linspace(-half_width, half_width, 257)
        ys = np.abs(np.asarray(f(xs), dtype=complex))
        peak = max(peak, float(ys.max()))
        edge = max(float(ys[0]), float(ys[-1]))
        if peak == 0.0 or edge <= peak * 1e-18:
            break
        half_width += 0.5 * pad
    else:
        raise RuntimeError("integrand does not decay within the probe budget")
    return half_width


def integrate_real_line(f, ctx: QContext, tol: float = 1e-10):
    """Integrate a Gaussian-decay integrand over the real line.

    f takes a numpy array of points and returns its values there, real or
    complex, in double: the rule samples and sums in double. Composite
    Simpson on a window wide enough that the envelope tail is below the
    working target, doubling the panel count until the Richardson
    estimate |S_2h - S_h| / 15 drops under tol. Raises RuntimeError if
    the point budget runs out first.
    """
    half_width = choose_half_width(f, ctx)
    panels = 64
    prev = _simpson(f, half_width, panels)
    while True:
        panels *= 2
        if 2 * panels + 1 > _MAX_POINTS:
            raise RuntimeError(
                f"Simpson rule did not reach tol={tol:g} within "
                f"{_MAX_POINTS} points on [-{half_width:g}, {half_width:g}]")
        cur = _simpson(f, half_width, panels)
        scale = max(1.0, abs(cur))
        if abs(cur - prev) / 15.0 <= tol * scale:
            break
        prev = cur
    return cur

