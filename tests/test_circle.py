import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qgauss as qg
from qgauss import QContext
from qgauss import circle, macfarlane
from qgauss.chain import gram_budget, lattice_kernel
from qgauss.circle import (
    MAC_TOL,
    _aliased_theta_kernel,
    _gram_truncation,
    circle_mac_magnitudes,
    theta_truncation,
)
from qgauss.context import GUARD_DIGITS
from qgauss.dg import phi_table
from qgauss.qnum import horner, qbinomial_row


def rs_eval(n, q, z):
    """The Rogers-Szego polynomial H_n(z) = sum_k C^n_k z^k by Horner."""
    return horner(qbinomial_row(q, n), z)


def node_rule(q, nmax, args, conjugate_first, points=512):
    """Real parts of the points-node rule on H_n(args[n] z') H_m(args[m] z)
    theta_3(2 pi theta; q), z = e^{i2pi theta} and z' = conj(z) if
    conjugate_first else z, sampled and summed in double."""
    theta = np.arange(points) / points
    z = np.exp(2j * np.pi * theta)
    weight = qg.ThetaEvaluator(q=q, truncation=_gram_truncation(q, nmax))(
        2.0 * np.pi * theta)
    first = np.conj(z) if conjugate_first else z
    return [[np.mean(rs_eval(n, q, args[n] * first) * rs_eval(m, q, args[m] * z)
                     * weight).real for m in range(nmax + 1)]
            for n in range(nmax + 1)]


def assert_relative_gap(rep, reference, tol):
    """Every entry of rep within tol sqrt(|T_nn T_mm|) of reference."""
    size = len(reference)
    for n in range(size):
        for m in range(size):
            scale = math.sqrt(abs(float(rep.target[n][n])
                                  * float(rep.target[m][m])))
            gap = abs(float(rep.matrix[n][m]) - reference[n][m])
            assert gap <= tol * scale, (n, m, gap / scale)


def theta_tail_probe(q, tol):
    """Largest observed change in theta3 on 9 points of one period when
    the truncation is pushed 5 terms past the bound-selected N."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 9)
    N = theta_truncation(q, tol)
    base = qg.ThetaEvaluator(q=q, truncation=N)(thetas)
    more = qg.ThetaEvaluator(q=q, truncation=N + 5)(thetas)
    return float(np.abs(np.asarray(base) - np.asarray(more)).max())


def test_rs_coefficients_are_qbinomials():
    assert qbinomial_row(0.5, 2) == pytest.approx([1.0, 1.5, 1.0])
    assert rs_eval(2, 0.5, 1.0) == pytest.approx(3.5)


def test_rs_rejects_negative_degree():
    with pytest.raises(ValueError):
        qg.circle_gram_dg(QContext(q=0.5), -1)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_theta3_against_mpmath(q):
    # theta_3(theta; q) here is jtheta(3, theta/2, sqrt(q)) in mpmath's
    # nome convention
    for theta in np.linspace(0.0, 2.0 * np.pi, 13):
        ref = float(mpmath.jtheta(3, theta / 2.0, mpmath.sqrt(q)))
        assert qg.theta3(float(theta), q) == pytest.approx(ref, abs=1e-13)


def test_theta_truncation_bound_is_honest():
    for q in (0.2, 0.5, 0.9):
        assert theta_tail_probe(q, 1e-14) <= 1e-14


def test_theta_truncation_grows_with_q():
    assert theta_truncation(0.9, 1e-14) > theta_truncation(0.2, 1e-14)
    with pytest.raises(ValueError):
        theta_truncation(1.2, 1e-14)


@given(st.floats(min_value=-10.0, max_value=10.0))
def test_theta3_periodic(theta):
    q = 0.5
    a = qg.theta3(theta, q)
    b = qg.theta3(theta + 2.0 * math.pi, q)
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_poisson_resummation(c):
    assert qg.poisson_check(c) <= 1e-12


class TestCircleGramDG:
    def test_frozen_entries(self):
        rep = qg.circle_gram_dg(QContext(q=0.5), 4)
        # diagonal target q^{-n} (q, q)_n
        assert rep.matrix[0][0] == pytest.approx(1.0, rel=1e-13)
        assert rep.matrix[2][2] == pytest.approx(1.5, rel=1e-13)
        assert rep.matrix[0][3] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_relative_deviation(self, q):
        rep = qg.circle_gram_dg(QContext(q=q), 8)
        worst = 0.0
        for n in range(9):
            for m in range(9):
                scale = math.sqrt(abs(rep.target[n][n]) * abs(rep.target[m][m]))
                worst = max(worst, abs(rep.matrix[n][m] - rep.target[n][m]) / scale)
        assert worst <= 1e-9

    def test_doubling_the_rule_changes_nothing(self):
        a = qg.circle_gram_dg(QContext(q=0.5), 5, quad_points=512)
        b = qg.circle_gram_dg(QContext(q=0.5), 5, quad_points=1024)
        gap = max(abs(x - y) for ra, rb in zip(a.matrix, b.matrix)
                  for x, y in zip(ra, rb))
        assert gap <= 1e-13

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_coefficient_space_matches_the_node_rule(self, q):
        nmax = 8
        rep = qg.circle_gram_dg(QContext(q=q), nmax)
        assert_relative_gap(rep, node_rule(q, nmax, [-(q ** -0.5)] * (nmax + 1),
                                           True), 1e-12)

    @pytest.mark.parametrize("q", [0.9, 0.95, 0.99])
    def test_set_digits_pass_where_double_fails(self, q):
        # in double the sums cancel past the tolerance here (0.66 at
        # q = 0.99); at set digits every stage carries them
        result = qg.run_suite("circle-dg", QContext(q=q, digits=30))
        assert result.passed and result.max_deviation <= 1e-30
        assert result.params["digits"] == 30

    def test_set_digits_reach_every_stage(self):
        rep = qg.circle_gram_dg(QContext(q=0.5, digits=40), 8)
        assert rep.precision_digits == 40
        assert "double_stages" not in rep.notes
        assert rep.max_relative_deviation() <= 1e-45
        result = qg.run_suite("circle-dg", QContext(q=0.5, digits=20))
        assert "double_stages" not in result.notes

    def test_point_count_validation(self):
        with pytest.raises(ValueError):
            qg.circle_gram_dg(QContext(q=0.5), 3, quad_points=500)
        with pytest.raises(ValueError):
            qg.circle_gram_dg(QContext(q=0.5), 3, quad_points=32)


class TestCircleGramMac:
    def test_frozen_entry(self):
        rep = qg.circle_gram_mac(QContext(q=0.5), 3)
        assert float(rep.matrix[1][1]) == pytest.approx(-0.5, rel=1e-12)

    def test_alternating_diagonal_targets(self):
        rep = qg.circle_gram_mac(QContext(q=0.5), 4)
        for n in range(5):
            expected = (0.5 ** (-n * (n - 1) / 2.0)
                        * float(qg.qpochhammer(0.5, n)) * (-1) ** n)
            assert float(rep.target[n][n]) == pytest.approx(expected, rel=1e-12)

    def test_precision_is_raised_automatically(self):
        # in double this case takes the exact route; at the budget's own
        # digits it runs the budgeted one
        digits = budget(0.5, 5)[1]
        rep = qg.circle_gram_mac(QContext(q=0.5, digits=digits), 5)
        assert rep.precision_digits == budget(0.5, 5)[1]
        assert rep.notes["log10_condition"] > 2
        worst = max(abs(float(rep.matrix[n][m]) - float(rep.target[n][m]))
                    for n in range(6) for m in range(6))
        assert worst <= 1e-10

    def test_explicit_digits_win(self):
        rep = qg.circle_gram_mac(QContext(q=0.5, digits=8), 5)
        assert rep.precision_digits == 8

    def test_conjugated_variant_is_not_diagonal(self):
        rep = qg.circle_gram_mac(QContext(q=0.5), 3, conjugate_first=True)
        off = max(abs(float(rep.matrix[n][m]))
                  for n in range(4) for m in range(4) if n != m)
        assert off > 1e-3
        assert rep.notes["conjugate_first"]

    def test_budget_is_evaluated_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-2:])
            return gram_budget(*args)

        monkeypatch.setattr(circle, "gram_budget", counted)
        exact = qg.circle_gram_mac(QContext(q=0.6), 6)
        assert calls == [(MAC_TOL, None)]
        log_condition, digits, floor = budget(0.6, 6)
        rep = qg.circle_gram_mac(QContext(q=0.6, digits=digits), 6)
        assert calls == [(MAC_TOL, None), (MAC_TOL, digits)]
        monkeypatch.undo()
        assert exact.notes["log10_condition"] == round(log_condition, 2)
        assert rep.notes["working_digits"] == digits
        assert rep.notes["log10_condition"] == round(log_condition, 2)
        assert rep.notes["floor"] == floor

    @pytest.mark.parametrize("conjugate_first", [False, True])
    def test_kernel_matches_double_node_rule(self, conjugate_first):
        # at q = 0.9, nmax = 3 the node sums cancel by about 1e5, so the
        # double node rule still carries about 11 digits of every entry
        q, nmax = 0.9, 3
        rep = qg.circle_gram_mac(QContext(q=q), nmax,
                                 conjugate_first=conjugate_first)
        args = [-(q ** -(n - 0.5)) for n in range(nmax + 1)]
        assert_relative_gap(rep, node_rule(q, nmax, args, conjugate_first),
                            1e-12)

    def test_few_points_reproduce_the_rule_aliasing(self):
        # at q = 0.97 the theta_3 truncation reaches |m| = 51, so 64 nodes
        # fold harmonics 64 - s back onto s = j + k >= 13
        q, nmax, points = 0.97, 8, 64
        ctx = QContext(q=q, digits=40)
        rep = qg.circle_gram_mac(ctx, nmax, points)
        assert rep.max_relative_deviation() > 1e-8
        truncation = _gram_truncation(q, nmax)
        with mpmath.workdps(60):
            mq = mpmath.mpf(q)
            nodes = [mpmath.expjpi(mpmath.mpf(2 * t) / points)
                     for t in range(points)]
            weights = [sum(mq ** (mpmath.mpf(s * s) / 2) * z ** s
                           for s in range(-truncation, truncation + 1))
                       for z in nodes]

            def values(n):
                coeffs = [binom * (-(mq ** -(n - 0.5))) ** k
                          for k, binom in enumerate(qbinomial_row(mq, n))]
                return [mpmath.polyval(coeffs[::-1], z) for z in nodes]

            for n, m in ((0, 0), (6, 8), (8, 8)):
                ref = mpmath.fsum(a * b * w for a, b, w
                                  in zip(values(n), values(m), weights)).real
                scale = mpmath.sqrt(abs(rep.target[n][n] * rep.target[m][m]))
                assert abs(rep.matrix[n][m] - ref / points) <= 1e-25 * scale
        full = qg.circle_gram_mac(ctx, nmax, 512)
        assert full.max_relative_deviation() <= 1e-30

    def test_more_points_change_nothing_without_aliasing(self):
        a = qg.circle_gram_mac(QContext(q=0.5), 5, quad_points=512)
        b = qg.circle_gram_mac(QContext(q=0.5), 5, quad_points=4096)
        assert a.matrix.tolist() == b.matrix.tolist()
        assert a.notes["points"] == 512 and b.notes["points"] == 4096

    def test_user_digits_carry_the_cancellation(self):
        # the node sums cancel by ~5e48, more than 40 digits carry; the
        # coefficient-space sum cancels by its condition, ~1e8
        res = qg.run_suite("circle-mac", QContext(q=0.3, digits=40), nmax=8)
        assert res.passed
        assert res.max_deviation <= 1e-30


def budget(q, nmax, points=512, digits=None):
    return gram_budget(*circle_mac_magnitudes(q, nmax, points), MAC_TOL, digits)


# full-mantissa q from 0.01 to 0.99 and both ends, q = 1/2, a q with a
# short mantissa (2^-6) and the golden one: the exact route of each at
# nmax 0-18
EXACT_QS = [*map(float, np.random.default_rng(32).uniform(0.01, 0.99, 31)),
            0.01, 0.99, 0.5, 2.0 ** -6, 0.6180339887498949]


@pytest.mark.parametrize("points", [128, 512])
def test_the_unaliased_double_gram_is_its_target_bit_for_bit(points,
                                                             monkeypatch):
    # off the diagonal the integer sums are exact zeros; on it the entry and
    # the target round one rational, so the suite reads no deviation at all
    reports = []

    def recorded(*args, **kwargs):
        reports.append(qg.circle_gram_mac(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(circle, "circle_gram_mac", recorded)
    for q in EXACT_QS:
        for nmax in range(macfarlane.EXACT_NMAX + 1):
            result = qg.run_suite("circle-mac", QContext(q=q), nmax=nmax,
                                  points=points)
            rep, case = reports[-1], (q, nmax)
            assert result.passed and result.max_deviation == 0, case
            assert rep.notes["working_digits"] is None, case
            assert rep.notes["floor"] == 0.0 and rep.precision_digits is None
            off = [rep.matrix[n][m] for n in range(nmax + 1)
                   for m in range(nmax + 1) if m != n]
            assert off == [0.0] * len(off), case
            assert [rep.matrix[n][n].hex() for n in range(nmax + 1)] == \
                [rep.target[n][n].hex() for n in range(nmax + 1)], case
    assert len(reports) == len(EXACT_QS) * (macfarlane.EXACT_NMAX + 1)


@pytest.mark.parametrize("points", [128, 512])
def test_the_exact_route_agrees_with_the_budgeted_one(points):
    # the budgeted route at its own digits, entry by entry, within a few
    # units of the last place of each diagonal scale
    for q in EXACT_QS[::4]:
        for nmax in range(2, macfarlane.EXACT_NMAX + 1, 2):
            exact = qg.circle_gram_mac(QContext(q=q), nmax, points)
            digits = budget(q, nmax, points)[1]
            rep = qg.circle_gram_mac(QContext(q=q, digits=digits), nmax,
                                     points)
            assert exact.notes["working_digits"] is None
            assert rep.notes["working_digits"] == digits
            assert_relative_gap(rep, exact.matrix, 4e-16)


@pytest.mark.parametrize("q, nmax, points, kwargs", [
    (0.5, 5, 512, {"conjugate_first": True}),
    (0.99, 5, 64, {}),  # the truncation reaches |m| = 88: the rule aliases
    (0.5, 5, 512, {"digits": 20}),
    (0.5, macfarlane.EXACT_NMAX + 1, 512, {}),
    (0.005, 18, 128, {}),  # the diagonal passes 1e308
])
def test_the_budgeted_route_takes_the_other_cases(q, nmax, points, kwargs):
    conjugate_first = kwargs.get("conjugate_first", False)
    digits = kwargs.get("digits")
    rep = qg.circle_gram_mac(QContext(q=q, digits=digits), nmax, points,
                             conjugate_first)
    chosen = gram_budget(*circle_mac_magnitudes(q, nmax, points,
                                                conjugate_first),
                         MAC_TOL, digits)[1]
    assert rep.notes["working_digits"] == rep.precision_digits == chosen
    assert rep.notes["floor"] != 0.0
    if not conjugate_first:
        assert qg.run_suite("circle-mac", QContext(q=q, digits=digits),
                            nmax=nmax, points=points).max_deviation > 0


def test_amplification_monotone_in_degree():
    # the condition is the factor by which roundoff is amplified
    assert budget(0.5, 8)[0] > budget(0.5, 4)[0] > 0


@pytest.mark.parametrize("q, nmax, digits", [
    (0.21, 4, 34), (0.21, 8, 96), (0.5, 4, 24), (0.5, 8, 51),
    (0.73, 4, 20), (0.73, 8, 32)])
def test_budget_digits_are_pinned(q, nmax, digits):
    # digits are what the retired amplification budget picked; the
    # term-mass budget needs fewer, and the report runs at its choice
    # in double these take the exact route, so the budgeted one runs at
    # the budget's own digits
    chosen = budget(q, nmax)[1]
    assert chosen < digits
    assert qg.circle_gram_mac(QContext(q=q, digits=chosen),
                              nmax).notes["working_digits"] == chosen


@pytest.mark.parametrize("q, nmax, digits", [
    (0.21, 4, 14), (0.21, 8, 22), (0.5, 4, 14), (0.5, 8, 18),
    (0.73, 4, 15), (0.73, 8, 17), (0.25, 16, 50)])
def test_term_mass_digits_are_pinned(q, nmax, digits):
    assert budget(q, nmax)[1] == digits


def test_condition_is_the_unsigned_node_free_gram():
    # with every coefficient and kernel entry replaced by its magnitude,
    # and no aliasing, the largest entry over its scale is the condition
    q, nmax = 0.4, 6
    with mpmath.workdps(30):
        mq = mpmath.mpf(q)
        A = [[binom * mq ** (-(n - 0.5) * k)
              for k, binom in enumerate(qbinomial_row(mq, n))]
             for n in range(nmax + 1)]
        scale = [mpmath.sqrt(mq ** (-n * (n - 1) / 2) * qg.qpochhammer(mq, n))
                 for n in range(nmax + 1)]
        mass = max(mpmath.fsum(A[n][j] * mq ** ((j + k) ** 2 / 2) * A[m][k]
                               for j in range(n + 1) for k in range(m + 1))
                   / (scale[n] * scale[m])
                   for n in range(nmax + 1) for m in range(nmax + 1))
        expected = float(mpmath.log10(mass))
    assert budget(q, nmax)[0] == pytest.approx(expected, abs=1e-12)


def test_budget_survives_bounds_past_the_double_range():
    # the terms at q = 0.05, nmax = 16 reach ~1e400, beyond a double
    log_condition, digits, floor = budget(0.05, 16)
    assert 70 < log_condition < 90 and digits > log_condition
    assert floor <= MAC_TOL * 1e-12
    # the notes are serialized, so they must be finite at any digits
    for ctx in (QContext(q=0.05), QContext(q=0.05, digits=20)):
        json.dumps(qg.circle_gram_mac(ctx, 16).notes, allow_nan=False)
    rep = qg.circle_gram_mac(QContext(q=0.21, digits=30), 16)
    assert rep.notes["working_digits"] == 30
    assert rep.notes["floor"] == budget(0.21, 16, digits=30)[2] > 1e-8
    assert qg.run_suite("circle-mac", QContext(q=0.21), nmax=16).passed


def test_parseval_bridge():
    rep = qg.parseval_bridge(QContext(q=0.5), 6)
    assert rep.max_abs_deviation <= 1e-9
    # at set digits both routes carry them
    rep = qg.parseval_bridge(QContext(q=0.5, digits=30), 6)
    assert rep.precision_digits == 30
    assert rep.max_abs_deviation <= 1e-30


def test_parseval_bridge_compares_rows_not_grams(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bridge builds no Gram")

    for owner, name in ((circle, "circle_gram_dg"), (circle, "gram_contract"),
                        (qg.chain, "gram_contract"), (qg.dg, "gram_phi"),
                        (qg, "gram_phi")):
        monkeypatch.setattr(owner, name, refuse)
    with pytest.raises(TypeError):
        qg.parseval_bridge(QContext(q=0.5), 6, 512)
    # rows carry no Gram's roundoff: compared as Grams, both cells read
    # D's roundoff twice, 1.3e-7 and 1.6e-20
    assert qg.parseval_bridge(QContext(q=0.9), 12).max_abs_deviation <= 1e-9
    rep = qg.parseval_bridge(QContext(q=0.99, digits=30), 12)
    assert rep.max_abs_deviation <= 1e-25
    assert "points" not in rep.notes


@pytest.mark.parametrize("digits", [None, 30])
@pytest.mark.parametrize("q", [0.3, 0.9])
def test_parseval_bridge_target_is_phi_table(q, digits):
    ctx = QContext(q=q, digits=digits)
    rep = qg.parseval_bridge(ctx, 8)
    rows = phi_table(ctx, 8)
    for n, (row, target) in enumerate(zip(rows, rep.target)):
        assert target[:n + 1].tolist() == row
        assert not target[n + 1:].any() and not rep.matrix[n, n + 1:].any()
        if digits is None:
            assert [x.hex() for x in target[:n + 1]] == [x.hex() for x in row]


KERNEL_CASES = [(q, nmax, points, kind)
                for q in (0.05, 0.3, 0.7, 0.9, 0.99)
                for nmax in (4, 8, 12, 16) for points in (64, 128, 512)
                for kind in ("standard", "parity_twisted")
                # the rule aliases no harmonic: a single term per residue
                if points > _gram_truncation(q, nmax)
                + (nmax if kind == "standard" else 2 * nmax)]


@pytest.mark.parametrize("digits", [None, 25])
def test_the_unaliased_theta_kernel_is_the_lattice_kernel(digits):
    # the Toeplitz kernel (sign -1) is the standard lattice kernel, the
    # Hankel one (sign +1) the parity-twisted one, wherever each residue
    # mod points holds one harmonic: bit for bit in double, and exactly at
    # set digits, where the theta kernel carries the guard digits
    for q, nmax, points, kind in KERNEL_CASES:
        ctx = QContext(q=q, digits=digits)
        sign = -1 if kind == "standard" else 1
        theta = _aliased_theta_kernel(ctx, nmax + 1, points,
                                      _gram_truncation(q, nmax), sign)
        fine = ctx if digits is None else ctx.with_digits(digits + GUARD_DIGITS)
        lattice = lattice_kernel(fine, nmax + 1, kind)
        if digits is None:
            assert [[x.hex() for x in row] for row in theta] == \
                [[x.hex() for x in row] for row in lattice], (q, nmax, points)
        else:
            assert theta == lattice, (q, nmax, points, kind)
    assert len(KERNEL_CASES) == 108


def test_an_aliased_theta_kernel_differs_from_the_lattice_kernel():
    # at q 0.9 the truncation reaches |m| = 33, so 64 nodes fold
    # harmonic 64 - s onto s = j + k in {31, 32}: three entries at nmax 16
    ctx, nmax, points = QContext(q=0.9), 16, 64
    theta = _aliased_theta_kernel(ctx, nmax + 1, points,
                                  _gram_truncation(0.9, nmax), 1)
    lattice = lattice_kernel(ctx, nmax + 1, "parity_twisted")
    differ = [(j, k) for j in range(nmax + 1) for k in range(nmax + 1)
              if theta[j][k] != lattice[j][k]]
    assert sorted({j + k for j, k in differ}) == [31, 32] and len(differ) == 3


def test_gram_matches_direct_periodic_quadrature():
    # one entry recomputed as the mean of the integrand over 512 nodes
    q = 0.5
    n, m = 2, 2
    weight = qg.ThetaEvaluator(q=q, truncation=theta_truncation(q, 1e-16))
    theta = np.arange(512) / 512
    z = np.exp(2j * np.pi * theta)
    val = np.mean(rs_eval(n, q, -(q ** -0.5) * np.conj(z))
                  * rs_eval(m, q, -(q ** -0.5) * z)
                  * weight(2.0 * np.pi * theta)).real
    rep = qg.circle_gram_dg(QContext(q=q), 3)
    assert val == pytest.approx(rep.matrix[n][m], rel=1e-13)


def test_circle_dg_target_past_the_double_range_is_inf():
    # q^-n leaves the double range at q = 0.01 past n = 154: that target
    # is inf, written as null, and the suite fails rather than raise
    report = qg.circle_gram_dg(QContext(q=0.01), 155, 64)
    target = np.diagonal(report.target)
    assert target[155] == math.inf and math.isfinite(target[154])
    assert report.to_dict()["target"][155][155] is None
    json.dumps(report.to_dict(), allow_nan=False)
    # every target in range keeps the bits of q ** -n (q, q)_n
    assert target[:155].tolist() == [0.01 ** -n * qg.qpochhammer(0.01, n)
                                     for n in range(155)]
    result = qg.run_suite("circle-dg", QContext(q=1e-4), nmax=80)
    assert not result.passed
    json.dumps(result.to_dict(), allow_nan=False)


def test_circle_rows_past_the_double_range_raise_a_value_error():
    with pytest.raises(ValueError, match="double range.*--digits"):
        qg.circle_gram_dg(QContext(q=0.01), 310, 1024)
