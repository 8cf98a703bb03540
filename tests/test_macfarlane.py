"""Second-oscillator eigenfunctions: coefficient tables, ladder algebra
and the indefinite Gram with its precision budget."""

import math

import numpy as np
import pytest
from exact_reference import rational_twisted_gram

import qgauss as qg
from qgauss import QContext
from qgauss.chain import (gram_budget, gram_contract, lattice_kernel,
                          overlap_scale)
from qgauss.macfarlane import _binary_twisted_gram, twisted_gram_magnitudes

CTX = QContext(q=0.5)


def test_zeta_values():
    # zeta_1 = alpha / sqrt(1 - q) at q = 1/2
    a = float(qg.alpha(CTX))
    assert a == pytest.approx(0.8150352570704902, rel=1e-15)
    assert float(qg.mac_coeffs(CTX, 1).zeta) == pytest.approx(
        1.1526339143613291, rel=1e-14)
    assert float(qg.mac_coeffs(CTX, 0).zeta) == pytest.approx(a, rel=1e-15)
    # E^n_0 = 1, so each row of the table starts with its zeta_n
    assert [row[0] for row in qg.macfarlane.mac_table(CTX, 4)] == [
        qg.mac_coeffs(CTX, n).zeta for n in range(5)]


def test_E_coefficients_low_orders():
    t1 = qg.mac_coeffs(CTX, 1)
    assert t1.E[0] == pytest.approx(1.0)
    assert t1.E[1] == pytest.approx(-math.sqrt(2.0), rel=1e-15)
    t2 = qg.mac_coeffs(CTX, 2)
    assert t2.E[1] == pytest.approx(-4.242640687119285, rel=1e-14)
    assert t2.E[2] == pytest.approx(8.0, rel=1e-14)


def test_recursion_gap_small():
    for n in range(13):
        assert qg.mac_coeffs(CTX, n).recursion_gap <= 1e-13


def test_raising_reproduces_closed_form():
    for n in range(11):
        closed = qg.build_Bn(CTX, n)
        raised = qg.build_by_raising(qg.MAC, CTX, n)
        assert qg.relative_coeff_distance(raised, closed) <= 1e-11


def test_ladder_residuals():
    for res in qg.ladder_residuals(CTX, range(1, 11), qg.MAC):
        assert res["lower_residual"] <= 1e-11
        assert res["raise_residual"] <= 1e-11


def test_number_operator():
    for n in range(9):
        assert qg.number_operator_check(CTX, n) <= 1e-10


def test_ground_state_annihilated():
    b0 = qg.build_Bn(CTX, 0)
    assert qg.apply_ladder(qg.mac_lower(CTX), b0).is_zero()


class TestIndefiniteGram:
    def test_exact_in_double(self):
        report = qg.indefinite_gram(CTX, 5)
        assert report.max_abs_deviation == 0.0
        assert report.notes["sign_alternation_ok"]

    def test_alternating_diagonal(self):
        report = qg.indefinite_gram(CTX, 4)
        for n in range(5):
            assert report.matrix[n][n] == pytest.approx((-1.0) ** n, abs=1e-14)
        # the first excited state really has negative square norm
        b1 = qg.build_Bn(CTX, 1)
        assert qg.inner(b1, b1, kind="parity_twisted").real < 0

    def test_high_q_stays_exact(self):
        report = qg.indefinite_gram(QContext(q=0.9), 10)
        assert report.max_abs_deviation == 0.0

    def test_requested_precision_is_honored(self):
        # at 8 digits the cancellation budget must show up as a deviation
        report = qg.indefinite_gram(QContext(q=0.5, digits=8), 12)
        assert report.max_abs_deviation > 1e-12
        # at 40 digits it must drop below double resolution
        report = qg.indefinite_gram(QContext(q=0.5, digits=40), 12)
        assert report.max_abs_deviation <= 1e-20


@pytest.mark.parametrize("ctx", [
    *(QContext(q=float(q))
      for q in np.random.default_rng(5).uniform(0.05, 0.95, 3)),
    QContext(q=0.5), QContext(q=0.9), QContext(c=0.7)], ids=repr)
def test_double_gram_is_bit_identical_to_rational_sum(ctx):
    nmax = 14
    ref = rational_twisted_gram(float(ctx.q), nmax)
    for size in range(1, nmax + 2):
        matrix = qg.indefinite_gram(ctx, size - 1).matrix
        assert matrix.tolist() == [row[:size] for row in ref[:size]]
        assert all(matrix[n][m] == 0.0 for n in range(size)
                   for m in range(size) if n != m)


@pytest.mark.parametrize("digits", [20, 40])
def test_set_digits_gram_contracts_the_mac_coeffs_rows(digits):
    ctx = QContext(q=0.37, digits=digits)
    nmax = 8
    tables = [[t.zeta * e for e in t.E]
              for t in (qg.mac_coeffs(ctx, n) for n in range(nmax + 1))]
    sums = gram_contract(tables, lattice_kernel(ctx, nmax + 1, "parity_twisted"),
                         tables)
    ref = [[(overlap_scale(ctx) * v).real for v in row] for row in sums]
    assert qg.indefinite_gram(ctx, nmax).matrix.tolist() == ref


def test_exact_entry_agrees_with_mp_inner():
    ctx = QContext(q=0.5, digits=50)
    chains = [qg.build_Bn(ctx, n) for n in range(5)]
    exact = qg.indefinite_gram(QContext(q=0.5), 4).matrix
    for n in range(5):
        for m in range(5):
            ref = float(qg.inner(chains[n], chains[m], kind="parity_twisted").real)
            assert exact[n][m] == pytest.approx(ref, abs=1e-14)


def test_budget_figures():
    def budget(nmax, tol, digits=None):
        return gram_budget(*twisted_gram_magnitudes(0.5, nmax), tol, digits)

    assert budget(8, 1e-8)[0] > budget(4, 1e-8)[0] > 0
    # a tighter tolerance costs its digits one for one
    assert budget(12, 1e-20)[1] == budget(12, 1e-8)[1] + 12
    log_condition, digits, floor = budget(12, 1e-20)
    assert floor <= 1e-20 * 1e-12
    # explicit digits win, and the floor follows them
    starved = budget(12, 1e-20, 8)
    assert starved[:2] == (log_condition, 8)
    assert math.log10(starved[2] / floor) == pytest.approx(digits - 8, abs=1)


def test_mac_limit_eigenvalue_drift():
    # -q^{-n}(1-q^n)/(1-q) -> -n as c -> 0
    q_small = math.exp(-0.05 ** 2)
    for n in range(5):
        lam = qg.macfarlane_eigenvalue(q_small, n)
        assert abs(lam + n) <= 0.05


def test_mac_harmonic_limit_rows():
    rows = qg.harmonic_limit_scan(qg.MAC, 1, [0.1, 0.05])
    assert [r["c"] for r in rows] == [0.1, 0.05]
    assert rows[1]["dev"] < rows[0]["dev"]
    for row in rows:
        assert row["lambda_gap"] <= 0.05
        assert row["sign_ok"]


# the Fraction reference stays under about 2 s per q up to nmax 18
@pytest.mark.parametrize("q", [0.02, 0.5, 0.75, 0.98, 2.0 ** -30,
                               float(QContext(c=1.3).q)], ids=repr)
def test_factored_gram_equals_the_rational_sum(q):
    nmax = 18
    ref = rational_twisted_gram(q, nmax)
    for size in range(1, nmax + 2):
        assert _binary_twisted_gram(q, size - 1).tolist() == [
            row[:size] for row in ref[:size]]


# full-mantissa q, whose M and 2^e are as wide as a double allows, and a
# q taken from c: the factored integer sums round to the rational Gram's
# doubles, entry for entry, at every size
@pytest.mark.parametrize("q", [
    *map(float, np.random.default_rng(29).uniform(0.01, 0.99, 20)),
    float(QContext(c=0.45).q)], ids=repr)
def test_factored_gram_equals_the_rational_sum_to_nmax_12(q):
    nmax = 12
    ref = rational_twisted_gram(q, nmax)
    for size in range(1, nmax + 2):
        assert _binary_twisted_gram(q, size - 1).tolist() == [
            row[:size] for row in ref[:size]]


@pytest.mark.parametrize("q", [0.02, 0.6180339887498949, 0.98], ids=repr)
def test_double_gram_is_exact_at_nmax_24(q):
    size = 25
    matrix = _binary_twisted_gram(q, size - 1)
    assert [[matrix[n][m] for m in range(size) if m != n]
            for n in range(size)] == [[0.0] * (size - 1)] * size
    assert [matrix[n][n] for n in range(size)] == [(-1.0) ** n
                                                   for n in range(size)]
