import math
from fractions import Fraction

import mpmath
import pytest

from qgauss import QContext
from qgauss.context import as_lattice_shift


def test_q_and_c_are_linked():
    ctx = QContext(c=1.0)
    assert float(ctx.q) == pytest.approx(math.exp(-1.0), rel=1e-16)
    ctx2 = QContext(q=0.5)
    assert float(ctx2.c) == pytest.approx(math.sqrt(math.log(2.0)), rel=1e-16)


def test_exactly_one_parameter():
    with pytest.raises(ValueError):
        QContext()
    with pytest.raises(ValueError):
        QContext(c=1.0, q=0.5)
    with pytest.raises(ValueError):
        QContext(q=1.5)
    with pytest.raises(ValueError):
        QContext(c=-2.0)


def test_immutability():
    ctx = QContext(q=0.5)
    with pytest.raises(AttributeError):
        ctx.q = 0.6


def test_qpow_exact_exponent():
    ctx = QContext(q=0.5)
    assert ctx.qpow(Fraction(1, 2)) == pytest.approx(math.sqrt(0.5), rel=1e-16)
    assert ctx.qpow(Fraction(-3, 1)) == pytest.approx(8.0, rel=1e-15)
    # equal exponents give identical values even when assembled differently
    assert ctx.qpow(Fraction(2, 4)) == ctx.qpow(Fraction(1, 2))


def test_mp_backend_types():
    ctx = QContext(q=0.5, digits=30)
    assert ctx.is_mp
    lib = ctx.lib()
    assert lib.dps == 40  # 30 digits and the 10 guard digits
    assert type(ctx.q) is type(ctx.c) is type(ctx.ln_q) is lib.mpf
    val = ctx.qpow(Fraction(1, 3))
    assert type(val) is lib.mpf
    assert float(val) == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15)


def test_each_precision_has_one_mpmath_context():
    assert QContext(q=0.3, digits=25).lib() is QContext(c=2.0, digits=25).lib()
    assert QContext(q=0.3, digits=25).lib() is not QContext(q=0.3, digits=26).lib()
    assert QContext(q=0.3).lib() is math


@pytest.mark.parametrize("dps", [5, 15, 50])
def test_numbers_ignore_the_global_precision(dps):
    ref = QContext(q=0.3, digits=30)
    with mpmath.workdps(dps):
        ctx = QContext(q=0.3, digits=30)
        values = [ctx.c, ctx.qpow8(3), ctx.sqrt(ctx.q), ctx.pi(), ctx.make(0.1)]
    assert values == [ref.c, ref.qpow8(3), ref.sqrt(ref.q), ref.pi(),
                      ref.make(0.1)]


def test_with_digits_round_trip():
    ctx = QContext(q=0.5)
    hi = ctx.with_digits(25)
    assert hi.digits == 25
    assert float(hi.c) == pytest.approx(float(ctx.c), rel=1e-16)
    assert hi.with_digits(None) == ctx


def test_with_digits_keeps_the_supplied_parameter():
    ctx = QContext(q=0.5)
    assert ctx.supplied == "q"
    hi = ctx.with_digits(30)
    assert hi.q == mpmath.mpf(0.5)  # exactly, not rebuilt from c
    assert hi.with_digits(None).q == 0.5
    wide = QContext(c=1.1)
    assert wide.supplied == "c"
    assert wide.with_digits(40).c == mpmath.mpf(1.1)


def test_auto_raised_precision_echoes_the_given_q():
    import qgauss as qg
    from qgauss.macfarlane import EXACT_NMAX
    result = qg.run_suite("mac-gram", QContext(q=0.5), nmax=EXACT_NMAX + 1)
    assert result.notes["auto_digits"] is not None
    assert result.params["q"] == 0.5


def test_make_keeps_real_real():
    ctx = QContext(q=0.5)
    assert isinstance(ctx.make(2), float)
    assert isinstance(ctx.make(1 + 1j), complex)
    hi = ctx.with_digits(20)
    assert type(hi.make(2)) is hi.lib().mpf
    assert type(hi.make(1j)) is hi.lib().mpc
    assert hi.lib().dps == 30


def test_lattice_shift_validation():
    assert as_lattice_shift(Fraction(3, 2)) == 3
    assert as_lattice_shift(-2) == -4
    assert as_lattice_shift(0.5) == 1
    with pytest.raises(ValueError):
        as_lattice_shift(0.4)


@pytest.mark.parametrize("digits", [None, 30])
def test_qpow8_is_qpow_on_the_eighth_lattice(digits):
    ctx = QContext(q=0.4321, digits=digits)
    for m in range(-60, 61):
        assert ctx.qpow8(m) == ctx.qpow(Fraction(m, 8))
        assert ctx.qpow8(m) == ctx.qpow8(m)


def test_qpow8_memo_lives_with_its_context():
    ctx = QContext(q=0.5)
    first = ctx.qpow8(5)
    assert ctx.qpow8(5) is first
    # a rebuilt context, same parameter or new digits, starts a memo of its own
    assert QContext(q=0.5).qpow8(5) is not first
    wide = ctx.with_digits(30)
    assert type(wide.qpow8(5)) is wide.lib().mpf
    assert wide.qpow8(5) == wide.qpow(Fraction(5, 8))
    assert ctx.qpow8(5) is first


@pytest.mark.parametrize("q", [0.01, 0.35, 0.5, 0.99])
def test_double_qpow8_is_the_fraction_power_bit_for_bit(q):
    """Past the double range on either side too: inf and 0.0."""
    ctx = QContext(q=q)
    for m in [*range(-400, 401), -8 * 10 ** 6, 8 * 10 ** 6]:
        assert ctx.qpow8(m).hex() == ctx.qpow(Fraction(m, 8)).hex()
    assert ctx.qpow8(-8 * 10 ** 6) == math.inf
    assert ctx.qpow8(8 * 10 ** 6) == 0.0


def ulps_off(value, exact, prec: int) -> float:
    """|value - exact| in units in the last place of a prec-bit number
    near exact, exact a positive mpf of a wider context."""
    _, _, exp, bc = exact._mpf_
    return float(abs(exact.context.mpf(value) - exact)
                 / exact.context.ldexp(1, exp + bc - prec))


@pytest.mark.parametrize("digits", [20, 40, 60])
@pytest.mark.parametrize("given", [{"q": 0.01}, {"q": 0.3},
                                   {"q": 0.6180339887498949}, {"q": 0.99},
                                   {"c": 1.1}])
def test_set_digit_qpow8_is_within_one_ulp(given, digits):
    """Against exp(m ln q / 8) 200 bits wider, ln q taken from the
    context's own q, or -c^2 exactly when c was given."""
    ctx = QContext(**given, digits=digits)
    prec = ctx.lib().prec
    wide = mpmath.MPContext()
    wide.prec = prec + 200
    ln_q = wide.log(wide.mpf(ctx.q)) if "q" in given else -wide.mpf(ctx.c) ** 2
    for m in [*range(-512, 513), 2 ** 13, -2 ** 13]:
        value = ctx.qpow8(m)
        assert ulps_off(value, wide.exp(m * ln_q / 8), prec) <= 1, m
        assert ctx.qpow(Fraction(m, 8)) == value
    assert ctx.qpow8(0) == 1 and ctx.qpow8(8) == ctx.qpow(1)
