import math

import numpy as np
import pytest

from qgauss import GaussianChain, QContext, evaluate, inner, integrate_real_line


def test_gaussian_envelope_integral():
    ctx = QContext(q=0.5)
    val = integrate_real_line(lambda x: np.exp(2.0 * float(ctx.ln_q) * x ** 2), ctx)
    assert val.imag == 0.0
    assert val.real == pytest.approx(math.sqrt(math.pi / (2.0 * math.log(2.0))), rel=1e-11)


def test_unit_gaussian():
    ctx = QContext(c=1.0)
    val = integrate_real_line(lambda x: np.exp(-x ** 2), ctx)
    assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-11)


def test_quadrature_agrees_with_analytic_inner():
    ctx = QContext(q=0.5)
    f = GaussianChain(ctx, {1: 1.0})
    g = GaussianChain(ctx, {-2: 1.0})
    target = inner(f, g)
    val = integrate_real_line(lambda x: evaluate(f, x) * evaluate(g, x), ctx, tol=1e-12)
    assert val.real == pytest.approx(float(target), rel=1e-10)


def test_off_center_chain_widens_window():
    # a Gaussian parked far from the origin must still be captured;
    # a single (unsquared) chain integrates to sqrt(pi/c^2)
    ctx = QContext(q=0.5)
    f = GaussianChain(ctx, {14: 1.0})  # center at 7
    val = integrate_real_line(lambda x: evaluate(f, x), ctx)
    assert val.real == pytest.approx(math.sqrt(math.pi / math.log(2.0)), rel=1e-10)

