"""The package's headline guarantees, one test per claim.

Tolerances and parameter ranges are frozen here rather than taken from
library defaults, so a regression in either the math or the defaults
shows up as a plain failure. Everything runs in double precision unless
a test says otherwise.
"""

import math
from fractions import Fraction

import numpy as np
from exact_reference import random_chain

import qgauss as qg
from qgauss.dg import sw_gram
from qgauss.quad import integrate_real_line
from qgauss.verify import suite_commutators


def test_dg_family_is_orthonormal():
    """Gram of phi_0..phi_nmax within 1e-10 of the identity for nmax = 12
    and within 1e-6 for nmax = 20, at q in {0.2, 0.5, 0.8}."""
    for q in (0.2, 0.5, 0.8):
        ctx = qg.QContext(q=q)
        dev12 = qg.gram_phi(ctx, 12).max_abs_deviation
        assert dev12 <= 1e-10, (q, dev12)
        dev20 = qg.gram_phi(ctx, 20).max_abs_deviation
        assert dev20 <= 1e-6, (q, dev20)


def test_binomial_and_raising_constructions_agree():
    """Direct q-binomial assembly and repeated raising from the ground
    state give the same coefficients to 1e-12 through n = 12."""
    for q in (0.2, 0.5, 0.8):
        ctx = qg.QContext(q=q)
        for n in range(13):
            gap = qg.coeff_distance(qg.build_phi(ctx, n),
                                    qg.build_by_raising(qg.DG, ctx, n))
            assert gap <= 1e-12, (q, n, gap)


def test_deformed_commutators_vanish():
    """(lower raise - q raise lower - 1) f and its mirror for the second
    oscillator stay below 1e-13 coefficient-wise on 20 seeded chains."""
    result = suite_commutators(qg.QContext(q=0.5), count=20, seed=12345)
    assert result.passed, result.failures
    assert result.max_deviation <= 1e-13


def test_ladder_identities_hold_through_n10():
    """Lowering and raising land on sqrt-eigenvalue multiples of the
    neighbors, residual <= 1e-11 for n <= 10; both ground states are
    annihilated exactly."""
    ctx = qg.QContext(q=0.5)
    assert qg.apply_ladder(qg.arik_lower(ctx), qg.build_phi(ctx, 0)).is_zero()
    assert qg.apply_ladder(qg.mac_lower(ctx), qg.build_Bn(ctx, 0)).is_zero()
    levels = range(1, 11)
    for n, first, second in zip(levels,
                                qg.ladder_residuals(ctx, levels, qg.DG),
                                qg.ladder_residuals(ctx, levels, qg.MAC)):
        for label, res in (("a-lower", first["lower_residual"]),
                           ("a-raise", first["raise_residual"]),
                           ("b-lower", second["lower_residual"]),
                           ("b-raise", second["raise_residual"])):
            assert res <= 1e-11, (n, label, res)


def test_twisted_gram_is_alternating_identity():
    """(B_n, B_m) matches (-1)^n delta_nm to 1e-8 in double at q = 0.5
    (n <= 5) and q = 0.9 (n <= 10), and to 1e-20 with 40 digits at
    q = 0.5, n <= 12."""
    dev_half = float(qg.indefinite_gram(qg.QContext(q=0.5), 5).max_abs_deviation)
    assert dev_half <= 1e-8, dev_half
    dev_wide = float(qg.indefinite_gram(qg.QContext(q=0.9), 10).max_abs_deviation)
    assert dev_wide <= 1e-8, dev_wide
    ctx40 = qg.QContext(q=0.5, digits=40)
    dev_mp = float(qg.indefinite_gram(ctx40, 12).max_abs_deviation)
    assert dev_mp <= 1e-20, dev_mp


def test_daughter_coefficients_sum_to_kronecker():
    ctx = qg.QContext(q=0.5)
    for n, row in enumerate(qg.daughter_sum_rules(ctx, 10)):
        for m, total in enumerate(map(complex, row)):
            target = 1.0 if n == m else 0.0
            assert abs(total - target) <= 1e-12, (n, m, total)


def test_cosine_weighted_family_stays_orthonormal():
    """With w = 1 + 0.3 cos(4 pi x) the weighted family keeps the
    identity Gram to 1e-9 for n, m <= 8, by a direct quadrature of
    |w|^2 A_n* A_m."""
    ctx = qg.QContext(q=0.5)
    weight = qg.cosine_weight(0.3)
    family = [qg.build_An(ctx, weight, n) for n in range(9)]

    def quad_entry(f, g):
        def integrand(x):
            wv = weight.evaluate(x)
            return (np.conj(wv) * wv * np.conj(qg.evaluate(f, x))
                    * qg.evaluate(g, x))
        return integrate_real_line(integrand, ctx, tol=1e-12)

    for n in range(9):
        for m in range(n, 9):
            val = quad_entry(family[n].chain, family[m].chain)
            target = 1.0 if n == m else 0.0
            assert abs(val - target) <= 1e-9, (n, m, val)


def test_gaussian_theta_resummation():
    """Lattice and dual-lattice sides of the resummation agree to 1e-12
    on a 17-point theta grid for c in {0.5, 1, 2}."""
    grid = np.linspace(0.0, 1.0, 17)
    for c in (0.5, 1.0, 2.0):
        gap = qg.poisson_check(c, grid)
        assert gap <= 1e-12, (c, gap)


def test_circle_gram_dg_hits_classical_diagonal():
    """Rogers-Szego overlaps against theta_3 reproduce
    diag(q^-n (q,q)_n) to relative 1e-9, n <= 8, 512 points."""
    for q in (0.3, 0.5, 0.7):
        report = qg.circle_gram_dg(qg.QContext(q=q), 8, quad_points=512)
        dev = float(report.max_relative_deviation())
        assert dev <= 1e-9, (q, dev)


def test_circle_gram_mac_hits_twisted_diagonal():
    """The twisted circle overlaps land on the alternating diagonal
    q^{-n(n-1)/2} (q,q)_n (-1)^n to relative 1e-8."""
    dev_half = float(qg.circle_gram_mac(qg.QContext(q=0.5), 5,
                                        512).max_relative_deviation())
    assert dev_half <= 1e-8, dev_half
    dev_wide = float(qg.circle_gram_mac(qg.QContext(q=0.9), 10,
                                        512).max_relative_deviation())
    assert dev_wide <= 1e-8, dev_wide


def test_small_width_limit_is_second_order():
    """The even-part ratio deviation is flat for n = 0, shrinks
    monotonically over c = 0.2, 0.1, 0.05 for n = 1..4 with a step ratio
    in [0.15, 0.40], and the second family's eigenvalues sit within 0.05
    of -n at c = 0.05."""
    c_list = [0.2, 0.1, 0.05]
    flat = [row["dev"] for row in qg.harmonic_limit_scan(qg.DG, 0, c_list)]
    assert max(flat) <= 1e-12, flat
    for n in range(1, 5):
        devs = [row["dev"]
                for row in qg.harmonic_limit_scan(qg.DG, n, c_list)]
        assert devs[0] > devs[1] > devs[2], (n, devs)
        step = devs[2] / devs[1]
        assert 0.15 <= step <= 0.40, (n, step)
    q_small = math.exp(-0.05 ** 2)
    for n in range(5):
        gap = abs(qg.macfarlane_eigenvalue(q_small, n) + n)
        assert gap <= 0.05, (n, gap)


def test_gamma_family_gram_is_identity():
    """Three orthonormal weights times seven polynomial levels give a
    21-member family whose Gram is the identity to 1e-8."""
    report = qg.gamma_family_gram(qg.QContext(q=0.5), nweights=3, nmax=6)
    assert len(report.labels) == 21
    assert report.max_abs_deviation <= 1e-8


def test_lognormal_substitution_bridge():
    """The u-substitution form matches the shifted chain pointwise to
    relative 1e-11 for n <= 6; the du-measure overlaps vanish off the
    diagonal to 1e-6 at s = 1/2, analytically and by quadrature."""
    ctx = qg.QContext(q=0.5)
    s = Fraction(1, 2)
    for n in range(7):
        res = qg.sw_bridge_residual(ctx, n, s)
        assert res <= 1e-11, (n, res)
    numeric = np.array([[qg.sw_orthogonality(ctx, min(n, m), max(n, m), s,
                                             "du", "quadrature")
                         for m in range(7)] for n in range(7)]).real
    for method, overlaps in (("analytic", sw_gram(ctx, 6).matrix),
                             ("quadrature", numeric)):
        norms = np.sqrt(abs(np.diagonal(overlaps)))
        ratios = abs(overlaps) / np.multiply.outer(norms, norms)
        orth = (ratios - np.diag(np.diagonal(ratios))).max()
        assert orth <= 1e-6, (method, orth)


def test_quadrature_reproduces_analytic_overlaps():
    """Closed-form inner products agree with real-line quadrature to
    1e-9: random chains, polynomial pairs, and parity-twisted pairs."""
    ctx = qg.QContext(q=0.5)

    def line_overlap(f, g, twisted=False):
        def integrand(x):
            xs = np.asarray(x)
            left = qg.evaluate(f, -xs) if twisted else qg.evaluate(f, xs)
            return np.conj(left) * qg.evaluate(g, xs)
        return integrate_real_line(integrand, ctx, tol=1e-12)

    rng = np.random.default_rng(97531)
    for _ in range(8):
        f, g = random_chain(ctx, rng), random_chain(ctx, rng)
        exact = complex(qg.inner(f, g))
        gap = abs(exact - line_overlap(f, g))
        assert gap <= 1e-9 * max(1.0, abs(exact)), (exact, gap)

    for n in range(4):
        for m in range(4):
            exact = complex(qg.inner(qg.build_phi(ctx, n), qg.build_phi(ctx, m)))
            gap = abs(exact - line_overlap(qg.build_phi(ctx, n),
                                           qg.build_phi(ctx, m)))
            assert gap <= 1e-9, (n, m, gap)
            bf, bg = qg.build_Bn(ctx, n), qg.build_Bn(ctx, m)
            exact_tw = complex(qg.inner(bf, bg, "parity_twisted"))
            gap_tw = abs(exact_tw - line_overlap(bf, bg, twisted=True))
            assert gap_tw <= 1e-9 * max(1.0, abs(exact_tw)), (n, m, gap_tw)
