import math
from fractions import Fraction

import numpy as np
import pytest

import qgauss.verify
from qgauss import (GaussianChain, QContext, evaluate, inner,
                    integrate_real_line, quad, run_suite, sw_orthogonality)
from qgauss.weights import mode_overlap


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


def counting(f, calls):
    def sampled(x):
        calls.append(len(x))
        return f(x)
    return sampled


@pytest.mark.parametrize("q", [0.5, 0.97, 0.99])
@pytest.mark.parametrize("delta", [0, 1, 2, 4])
def test_weight_harmonics_do_not_alias(q, delta):
    # q^{2x^2} e^{i 4 pi delta x}: a spacing of 1/4 or coarser puts the
    # harmonic on the grid's own period and returns the mean instead of
    # the (for delta > 0, vanishing) Fourier coefficient
    ctx = QContext(q=q)
    lnq = float(ctx.ln_q)
    val = integrate_real_line(
        lambda x: np.exp(2.0 * lnq * x ** 2 + 4j * np.pi * delta * x), ctx,
        tol=1e-12)
    assert abs(val - float(mode_overlap(ctx, delta))) <= 1e-12


def test_cancelling_integrand_stops_near_its_roundoff(monkeypatch):
    # the sw (2, 4) integrand at q = 0.01 samples up to ~1e5 for a value
    # near 1e-10; its level differences stop near 1e-11, above
    # tol * max(1, |I|), so the rule must stop at the roundoff of its sums
    ctx = QContext(q=0.01)
    calls = []
    rule = quad.integrate_real_line
    monkeypatch.setattr(quad, "integrate_real_line",
                        lambda f, ctx, tol: rule(counting(f, calls), ctx, tol))
    num = sw_orthogonality(ctx, 2, 4, Fraction(1, 2), "du", "quadrature")
    exact = sw_orthogonality(ctx, 2, 4, Fraction(1, 2), "du")
    norms = [abs(sw_orthogonality(ctx, n, n, Fraction(1, 2), "du"))
             for n in (2, 4)]
    assert abs(num - exact) / math.sqrt(norms[0] * norms[1]) <= 1e-12
    assert len(calls) <= 5


def test_noise_inside_the_integrand_ends_the_refinement():
    # at q = 0.99 the weighted chains A_n cancel inside the integrand: the
    # levels stop agreeing near 1e-11 however fine the grid, and the rule
    # returns instead of exhausting its point budget
    result = run_suite("degeneracy", QContext(q=0.99))
    assert result.notes["quadrature_dev"] < 1e-9


@pytest.mark.parametrize("q", [0.4, 0.45, 0.5, 0.55, 0.6, 0.65])
def test_degeneracy_and_sw_integrals_take_few_calls(q, monkeypatch):
    # every integral samples its integrand in at most two calls of f: the
    # first grid and one widening or refinement (the composite Simpson
    # rule and its window probe took 5 to 8)
    per_integral = []
    rule = quad.integrate_real_line

    def counted(f, ctx, tol):
        calls = []
        try:
            return rule(counting(f, calls), ctx, tol)
        finally:
            per_integral.append(len(calls))
    monkeypatch.setattr(quad, "integrate_real_line", counted)
    monkeypatch.setattr(qgauss.verify, "integrate_real_line", counted)
    for suite in ("degeneracy", "sw"):
        per_integral.clear()
        result = run_suite(suite, QContext(q=q))
        assert result.notes["quadrature_dev"] < 1e-13
        assert per_integral and max(per_integral) <= 2, (suite, per_integral)


def test_integrand_that_does_not_decay_raises(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_POINTS", 1 << 14)
    with pytest.raises(RuntimeError, match="ran out"):
        quad.integrate_real_line(np.ones_like, QContext(q=0.5))
