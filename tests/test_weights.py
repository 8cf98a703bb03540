import math

import numpy as np
import pytest

import qgauss as qg
from qgauss import QContext
from qgauss.quad import integrate_real_line
from qgauss.weights import (
    mode_overlap,
    random_weight,
    weight_family_condition,
    weight_gram_integral,
)

CTX = QContext(q=0.5)


def test_weight_evaluate_cosine():
    w = qg.cosine_weight(0.3)
    for x in (0.0, 0.1, 0.37):
        assert w.evaluate(x) == pytest.approx(1.0 + 0.3 * math.cos(4 * math.pi * x))


def test_weight_half_period():
    w = random_weight(np.random.default_rng(7))
    xs = np.linspace(-1.0, 1.0, 11)
    np.testing.assert_allclose(w.evaluate(xs + 0.5), w.evaluate(xs), atol=1e-12)


def test_empty_weight_rejected():
    with pytest.raises(ValueError):
        qg.PeriodicWeight({0: 0.0})


def test_mode_overlap_formula():
    c2 = math.log(2.0)
    scale = math.sqrt(math.pi / (2.0 * c2))
    for delta in (0, 1, 2):
        expected = scale * math.exp(-2.0 * math.pi ** 2 * delta ** 2 / c2)
        assert float(mode_overlap(CTX, delta)) == pytest.approx(expected, rel=1e-14)


def test_alpha_w_reduces_to_alpha():
    assert qg.alpha_w(qg.PeriodicWeight({0: 1.0}), CTX) == pytest.approx(
        float(qg.alpha(CTX)), rel=1e-15)
    # a unimodular weight has |w| = 1 and the same normalization
    assert qg.alpha_w(qg.PeriodicWeight({1: 1.0}), CTX) == pytest.approx(
        float(qg.alpha(CTX)), rel=1e-15)


def test_alpha_w_against_quadrature():
    w = qg.PeriodicWeight({0: 1.0, 1: 0.3})
    analytic = qg.alpha_w(w, CTX)
    lnq = float(CTX.ln_q)

    def integrand(x):
        wv = w.evaluate(x)
        return np.abs(wv) ** 2 * np.exp(2.0 * lnq * np.asarray(x) ** 2)

    norm_sq = integrate_real_line(integrand, CTX, tol=1e-12).real
    assert analytic == pytest.approx(1.0 / math.sqrt(norm_sq), rel=1e-10)


def quadrature_entry(f, g):
    """integral conj(wf f) wg g dx by the real-line rule."""
    def integrand(x):
        return (np.conj(f.weight.evaluate(x) * qg.evaluate(f.chain, x))
                * g.weight.evaluate(x) * qg.evaluate(g.chain, x))
    return integrate_real_line(integrand, CTX, tol=1e-12)


def test_weighted_gram_identity_random_weights():
    # the weight cancels from the closed-form weighted Gram, so only a
    # quadrature of |w|^2 A_n* A_m can see it
    rng = np.random.default_rng(12345)
    for _ in range(3):
        w = random_weight(rng)
        family = [qg.build_An(CTX, w, n) for n in range(5)]
        for n in range(5):
            for m in range(n, 5):
                value = quadrature_entry(family[n], family[m])
                assert abs(value - (n == m)) <= 1e-10, (w.modes, n, m, value)


def test_weighted_inner_against_quadrature():
    w = qg.cosine_weight(0.3)
    a2 = qg.build_An(CTX, w, 2)
    a4 = qg.build_An(CTX, w, 4)
    assert quadrature_entry(a2, a2).real == pytest.approx(1.0, abs=1e-10)
    assert abs(quadrature_entry(a2, a4)) <= 1e-10


def test_ladder_passes_through_weight():
    # a = T^{1/2} (q^{x + 1/4} - T^{1/2}) / sqrt(1 - q) on the function
    # w A_3 equals w times a on the chain, w having period 1/2
    w = qg.cosine_weight(0.3)
    a3 = qg.build_An(CTX, w, 3)
    lowered = qg.apply_ladder(qg.arik_lower(CTX), a3.chain)
    xs = np.linspace(-2.0, 5.0, 29)
    def a3_at(x):
        return w.evaluate(x) * qg.evaluate(a3.chain, x)
    direct = (0.5 ** (xs + 0.75) * a3_at(xs + 0.5)
              - a3_at(xs + 1.0)) / math.sqrt(0.5)
    np.testing.assert_allclose(direct, w.evaluate(xs)
                               * qg.evaluate(lowered, xs), atol=1e-13)
    lam3 = qg.arik_coon_eigenvalue(0.5, 3)
    target = qg.scale(qg.build_An(CTX, w, 2).chain, math.sqrt(lam3))
    assert qg.coeff_distance(lowered, target) <= 1e-13


# -- orthonormalized weight family and the doubly indexed Gram ---------------

def test_first_orthonormal_weight_is_scaled_constant():
    family = qg.orthonormal_weight_family(CTX, 1)
    assert list(family[0].modes) == [0]
    assert family[0].modes[0] == pytest.approx(float(qg.alpha(CTX)), rel=1e-13)


def test_orthonormal_family_gram():
    family = qg.orthonormal_weight_family(CTX, 4)
    for i, wi in enumerate(family):
        for j, wj in enumerate(family):
            val = weight_gram_integral(wi, wj, CTX)
            target = 1.0 if i == j else 0.0
            assert complex(val) == pytest.approx(target, abs=1e-10)


def test_orthonormal_pair_against_quadrature():
    w0, w1 = qg.orthonormal_weight_family(CTX, 2)
    lnq = float(CTX.ln_q)

    def integrand(x):
        xv = np.asarray(x)
        return (np.conj(w0.evaluate(xv)) * w1.evaluate(xv)
                * np.exp(2.0 * lnq * xv ** 2))

    val = integrate_real_line(integrand, CTX, tol=1e-12)
    assert abs(val) <= 1e-10


def test_ill_conditioned_kernel_raises():
    # for wide Gaussians the mode kernel approaches the all-ones matrix
    assert weight_family_condition(QContext(c=60.0), 10) > 1e13
    with pytest.raises(RuntimeError):
        qg.orthonormal_weight_family(QContext(c=60.0), 10)


def test_gamma_family_gram():
    report = qg.gamma_family_gram(CTX, 3, 6)
    assert report.max_abs_deviation <= 1e-8
    assert len(report.labels) == 21
    assert report.notes["kernel_condition"] < 10.0


def test_gamma_single_weight_reduces_to_phi_gram():
    report = qg.gamma_family_gram(CTX, 1, 3)
    phi_report = qg.gram_phi(CTX, 3)
    for row_g, row_p in zip(report.matrix, phi_report.matrix):
        for a, b in zip(row_g, row_p):
            assert float(a) == pytest.approx(float(b), abs=1e-12)
