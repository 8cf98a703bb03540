import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgauss import QContext
from qgauss.qnum import (
    arik_coon_eigenvalue,
    arik_coon_eigenvalues_by_recursion,
    hermite,
    macfarlane_eigenvalue,
    macfarlane_eigenvalues_by_recursion,
    qbinomial_row,
    qbinomial_triangle,
    qpochhammer,
)


# (1-q)(1-q^2)... at q = 1/2 is exactly representable in binary, so these
# are equality checks, not tolerance checks.
POCHHAMMER_HALF = [1.0, 0.5, 0.375, 0.328125, 0.3076171875, 0.298004150390625]


@pytest.mark.parametrize("n, expected", list(enumerate(POCHHAMMER_HALF)))
def test_qpochhammer_dyadic_values(n, expected):
    assert qpochhammer(0.5, n) == expected


def test_qpochhammer_empty_product():
    assert qpochhammer(0.123, 0) == 1.0


@pytest.mark.parametrize("bad_q", [0.0, 1.0, -0.2, 1.5])
def test_qpochhammer_rejects_bad_q(bad_q):
    with pytest.raises(ValueError):
        qpochhammer(bad_q, 3)


def test_qpochhammer_negative_n():
    with pytest.raises(ValueError):
        qpochhammer(0.5, -1)


def test_qbinomial_known_values():
    # 1 + q + 2q^2 + q^3 + q^4 at q = 1/2
    assert qbinomial_row(0.5, 4)[2] == pytest.approx(2.1875, abs=1e-15)
    assert qbinomial_row(0.5, 2)[1] == pytest.approx(1.5, abs=1e-15)
    assert qbinomial_row(0.5, 5)[0] == 1.0


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_triangle_matches_closed_form(q):
    rows = qbinomial_triangle(q, 12)
    for n, row in enumerate(rows):
        for val, closed in zip(row, qbinomial_row(q, n), strict=True):
            assert val == pytest.approx(closed, rel=1e-13)


def test_triangle_row_shapes():
    rows = qbinomial_triangle(0.3, 5)
    assert [len(r) for r in rows] == [1, 2, 3, 4, 5, 6]


@given(st.integers(min_value=0, max_value=30), st.sampled_from([0.1, 0.5, 0.9]))
def test_qbinomial_symmetry(n, q):
    row = qbinomial_row(q, n)
    for k in range(n + 1):
        assert row[k] == pytest.approx(row[n - k], rel=1e-13)


def test_classical_limit():
    q = 1.0 - 1e-6
    for n in range(11):
        for k, binom in enumerate(qbinomial_row(q, n)):
            assert binom == pytest.approx(math.comb(n, k), rel=1e-4)


def test_qbinomial_mp_backend_agrees():
    a = qbinomial_row(0.5, 8)[3]
    ctx = QContext(q=0.5, digits=40)
    b = qbinomial_row(ctx.q, 8)[3]
    assert type(b) is ctx.lib().mpf and b.context.dps == 50  # 40 + 10 guard
    assert float(b) == pytest.approx(a, rel=1e-15)


def test_mpf_q_computes_at_its_own_precision():
    fine, wide = (QContext(q=0.5, digits=d).lib() for d in (30, 60))
    q = fine.mpf(1) / 3
    with mpmath.workdps(5):  # the global precision plays no part
        val = qbinomial_row(q, 8)[3]
        poch = qpochhammer(q, 5)
    assert type(val) is type(poch) is fine.mpf and fine.dps == 40
    ref = qbinomial_row(wide.mpf(1) / 3, 8)[3]
    assert abs(val - ref) <= mpmath.mpf(10) ** -38 * ref
    # far beyond what a double q could deliver
    assert abs(val - qbinomial_row(float(q), 8)[3]) > mpmath.mpf(10) ** -30


def _pochhammer_by_loop(q, n):
    # (q, q)_n by the running product power = power * q, written out
    out = q / q
    power = out
    for _ in range(n):
        power = power * q
        out = out * (1 - power)
    return out


@pytest.mark.parametrize("make", [float, lambda q: mpmath.mpf(q),
                                  Fraction], ids=["float", "mpf", "Fraction"])
def test_qbinomial_row_is_the_three_product_quotient_exactly(make):
    with mpmath.workdps(35):
        for q in (make(0.2), make(0.5), make(0.7361)):
            for n in range(13):
                row = qbinomial_row(q, n)
                assert row == [_pochhammer_by_loop(q, n)
                               / (_pochhammer_by_loop(q, k)
                                  * _pochhammer_by_loop(q, n - k))
                               for k in range(n + 1)]
                assert type(row[-1]) is type(q)


def test_qbinomial_row_at_set_digits():
    ctx = QContext(q=0.5, digits=40)
    row = qbinomial_row(ctx.q, 9)
    assert all(type(b) is ctx.lib().mpf for b in row)
    # the same bits as the global context at the same working precision
    with mpmath.workdps(50):  # 40 digits and the 10 guard digits
        assert row == qbinomial_row(mpmath.mpf(0.5), 9)


def test_fraction_q_is_exact():
    q = Fraction(1, 2)
    assert qpochhammer(q, 3) == Fraction(21, 64)
    assert qbinomial_row(q, 4)[2] == Fraction(35, 16)
    assert qbinomial_triangle(q, 4)[4][2] == Fraction(35, 16)
    assert macfarlane_eigenvalue(q, 3) == -14


def test_arik_coon_eigenvalues():
    assert arik_coon_eigenvalue(0.5, 0) == 0.0
    assert arik_coon_eigenvalue(0.77, 1) == pytest.approx(1.0, abs=1e-15)
    assert arik_coon_eigenvalue(0.5, 2) == pytest.approx(1.5, abs=1e-15)
    assert arik_coon_eigenvalue(0.5, 3) == pytest.approx(1.75, abs=1e-15)


def test_macfarlane_eigenvalues():
    assert macfarlane_eigenvalue(0.5, 0) == 0.0
    assert macfarlane_eigenvalue(0.5, 1) == pytest.approx(-2.0, abs=1e-14)
    assert macfarlane_eigenvalue(0.5, 2) == pytest.approx(-6.0, abs=1e-14)
    assert macfarlane_eigenvalue(0.5, 3) == pytest.approx(-14.0, abs=1e-13)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
def test_recursions_match_closed_forms(q):
    arik = arik_coon_eigenvalues_by_recursion(q, 15)
    mac = macfarlane_eigenvalues_by_recursion(q, 15)
    for n in range(15):
        assert arik[n] == pytest.approx(arik_coon_eigenvalue(q, n), rel=1e-14)
        assert mac[n] == pytest.approx(macfarlane_eigenvalue(q, n), rel=1e-13)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
def test_eigenvalue_monotonicity_and_relation(q):
    arik = [arik_coon_eigenvalue(q, n) for n in range(20)]
    mac = [macfarlane_eigenvalue(q, n) for n in range(20)]
    assert all(b > a for a, b in zip(arik, arik[1:]))
    assert all(b < a for a, b in zip(mac, mac[1:]))
    # the two spectra differ by the factor -q^{-n}
    for n in range(20):
        assert mac[n] == pytest.approx(-(q ** -n) * arik[n], rel=1e-12)


def test_hermite_low_orders():
    assert hermite(0, 1.7) == 1.0
    assert hermite(1, 0.5) == 1.0
    assert hermite(3, 1.0) == -4.0


def test_hermite_against_numpy():
    s = np.linspace(-2.5, 2.5, 11)
    for n in range(9):
        coeffs = [0.0] * n + [1.0]
        ref = np.polynomial.hermite.hermval(s, coeffs)
        np.testing.assert_allclose(hermite(n, s), ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=25)
@given(st.floats(min_value=-3, max_value=3), st.integers(min_value=1, max_value=10))
def test_hermite_parity(s, n):
    # H_n(-s) = (-1)^n H_n(s)
    left = hermite(n, -s)
    right = (-1.0) ** n * hermite(n, s)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-10)
