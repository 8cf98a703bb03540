import math
from fractions import Fraction

import numpy as np
import pytest

import qgauss as qg
from qgauss import QContext
from qgauss.dg import (
    Phi_table,
    hermite_zeros,
    limit_grid,
    limit_ratio_curve,
    phi_table,
    sw_gram,
    sw_u_form,
    sw_u_of_x,
)

CTX = QContext(q=0.5)


class TestCoefficients:
    def test_raw_level_one(self):
        row = Phi_table(CTX, 1)[1]
        assert row[0] == pytest.approx(1.0, abs=1e-16)
        assert row[1] == pytest.approx(-math.sqrt(2.0), rel=1e-15)

    def test_raw_alternating_signs(self):
        signs = [1 if k % 2 == 0 else -1 for k in range(8)]
        assert all(s * r > 0 for s, r in zip(signs, Phi_table(CTX, 7)[7]))

    def test_normalized_is_raw_over_norm(self):
        for n, (raw_row, unit_row) in enumerate(zip(Phi_table(CTX, 4),
                                                    phi_table(CTX, 4))):
            norm = qg.dg_norm(CTX, n)
            for raw, unit in zip(raw_row, unit_row):
                assert unit == pytest.approx(raw / norm, rel=1e-14)

    def test_negative_degree_rejected(self):
        for build in (qg.build_phi, qg.build_Phi, qg.build_Bn,
                      qg.DG.bare, qg.MAC.bare):
            with pytest.raises(ValueError, match="must be nonnegative"):
                build(CTX, -1)
        for table in (phi_table, Phi_table, qg.macfarlane.mac_table):
            with pytest.raises(ValueError, match="degree must be nonnegative"):
                table(CTX, -1)


def test_norm_matches_self_inner():
    for n in range(6):
        big = qg.build_Phi(CTX, n)
        norm2 = qg.inner(big, big).real
        assert math.sqrt(norm2) == pytest.approx(float(qg.dg_norm(CTX, n)), rel=1e-13)


def test_unit_norm_family():
    for n in range(8):
        f = qg.build_phi(CTX, n)
        assert qg.inner(f, f).real == pytest.approx(1.0, rel=1e-13)


def test_phi_one_frozen_value():
    f = qg.build_phi(CTX, 1)
    assert qg.evaluate(f, 0.0) == pytest.approx(0.23871829988982562, rel=1e-14)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_two_constructions_agree(q):
    ctx = QContext(q=q)
    for n in range(13):
        direct = qg.build_phi(ctx, n)
        raised = qg.build_by_raising(qg.DG, ctx, n)
        assert qg.coeff_distance(direct, raised) <= 1e-12


def test_gram_is_identity():
    report = qg.gram_phi(CTX, 10)
    assert report.max_abs_deviation <= 1e-12
    assert report.notes["family"] == "dg"


def test_ladder_residuals():
    for res in qg.ladder_residuals(CTX, range(1, 9), qg.DG):
        assert res["lower_residual"] <= 1e-12
        assert res["raise_residual"] <= 1e-12
    with pytest.raises(ValueError):
        qg.ladder_residuals(CTX, [0], qg.DG)


def test_daughter_sum_rule_kronecker():
    for n, row in enumerate(qg.daughter_sum_rules(CTX, 4)):
        for m, val in enumerate(row):
            target = 1.0 if n == m else 0.0
            assert complex(val) == pytest.approx(target, abs=1e-13)


# -- small-c harmonic limit --------------------------------------------------

def test_hermite_zero_table():
    z3 = np.sort(hermite_zeros(3))
    np.testing.assert_allclose(
        z3, [-math.sqrt(1.5), 0.0, math.sqrt(1.5)], atol=1e-12)
    assert hermite_zeros(0).size == 0


def test_limit_grid_avoids_zeros():
    pts = limit_grid(3, np.arange(0.3, 3.31, 0.15))
    zeros = hermite_zeros(3)
    assert all(np.min(np.abs(zeros - p)) >= 0.2 for p in pts)
    with pytest.raises(ValueError):
        limit_grid(3, [1.2, 1.25])  # everything too close to the zero at 1.2247


def test_ground_state_limit_is_exact():
    # Phi_0 scaled into oscillator variables is e^{-s^2/2} for every c
    pts = limit_grid(0, np.arange(0.3, 3.31, 0.15))
    rho = limit_ratio_curve(qg.DG, 0, 0.2, pts)
    np.testing.assert_allclose(rho, 1.0, atol=1e-12)


def test_limit_scan_second_order():
    rows = qg.harmonic_limit_scan(qg.DG, 2, [0.2, 0.1, 0.05])
    devs = [r["dev"] for r in rows]
    assert devs[0] > devs[1] > devs[2]
    # even-part deviation shrinks like c^2
    assert 0.15 <= devs[2] / devs[1] <= 0.40


# -- the lognormal-weight polynomial bridge ----------------------------------

def test_sw_substitution():
    assert sw_u_of_x(CTX, 0.0) == pytest.approx(1.0)
    assert sw_u_of_x(CTX, 1.0) == pytest.approx(4.0, rel=1e-14)  # q^{-2} at q = 1/2


def test_sw_polynomial_matches_shifted_chain():
    xs = np.linspace(-2.0, 5.0, 29)
    for n, s in [(0, Fraction(1, 2)), (2, Fraction(1, 2)), (3, 1)]:
        poly = qg.stieltjes_wigert(CTX, n, s)
        chain = qg.shift(qg.build_Phi(CTX, n), -Fraction(s))
        np.testing.assert_allclose(
            sw_u_form(poly, xs), np.real(qg.evaluate(chain, xs)),
            rtol=1e-11, atol=1e-13)


def test_sw_bridge_residual_small():
    for n in range(7):
        assert qg.sw_bridge_residual(CTX, n, Fraction(1, 2)) <= 1e-11


def test_sw_du_orthogonality():
    assert sw_gram(CTX, 6).max_relative_deviation() <= 1e-6


@pytest.mark.parametrize("digits", [None, 20, 40])
def test_sw_gram_is_the_pairwise_overlaps(digits):
    # each entry within 1e-14 of sqrt(|I_nn I_mm|) in double, and within
    # five digits of the working precision at set digits
    tol = 1e-14 if digits is None else 10.0 ** -(digits + 5)
    s = Fraction(1, 2)
    for q in (0.3, 0.5, 0.62):
        ctx = QContext(q=q, digits=digits)
        report = sw_gram(ctx, 6)
        G = report.matrix
        assert report.target.tolist() == np.diag(np.diagonal(G)).tolist()
        for n in range(7):
            for m in range(7):
                pair = qg.sw_orthogonality(ctx, min(n, m), max(n, m), s)
                scale = ctx.sqrt(abs(G[n, n] * G[m, m]))
                assert abs(G[n, m] - pair) <= tol * scale, (q, n, m)
        # the orthogonality row of the suite is the report's relative
        # deviation off the diagonal
        result = qg.run_suite("sw", ctx)
        assert result.notes["orthogonality_dev"] == float(
            report.deviations(True).max())


def test_sw_dx_form_not_orthogonal():
    # the dx form keeps a leftover q^{2x} factor; frozen closed-form value
    # sqrt(pi/2c^2) (q^{1/2} - q^{3/2}) at q = 1/2, n=0, m=1, s=1/2
    val = qg.sw_orthogonality(CTX, 0, 1, Fraction(1, 2), form="dx")
    assert complex(val).real == pytest.approx(0.5322335097156132, rel=1e-13)


def test_sw_quadrature_cross_check():
    for n, m in [(0, 0), (1, 2), (2, 2)]:
        analytic = complex(qg.sw_orthogonality(CTX, n, m, Fraction(1, 2), "du"))
        quad = qg.sw_orthogonality(CTX, n, m, Fraction(1, 2), "du",
                                   method="quadrature")
        assert quad.real == pytest.approx(analytic.real, rel=1e-9, abs=1e-9)


def test_sw_rejects_unknown_form():
    with pytest.raises(ValueError):
        qg.sw_orthogonality(CTX, 0, 0, Fraction(1, 2), form="dv")
