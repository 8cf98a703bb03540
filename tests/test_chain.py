"""Lattice algebra of Gaussian chains: shifts, q-linear multipliers, the
four ladder operators and both analytic inner products."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from exact_reference import Exact, exact, rounded
from hypothesis import given
from hypothesis import strategies as st

import qgauss as qg
from qgauss import QContext
from qgauss.chain import _sqrt_float, gram_contract

CTX = QContext(q=0.5)


def gaussian(ctx, t):
    """The unit Gaussian centered at t/2."""
    return qg.GaussianChain(ctx, {t: 1.0})


def random_chain(ctx, keys=(-2, 0, 1, 3), coeffs=(0.7, -1.0, 0.25, 0.5)):
    return qg.GaussianChain(ctx, dict(zip(keys, coeffs)))


def test_evaluate_matches_direct_formula():
    f = qg.GaussianChain(CTX, {0: 1.0, 3: -0.5})
    lnq = math.log(0.5)
    for x in (-1.3, 0.0, 0.4, 2.0):
        direct = math.exp(lnq * x ** 2) - 0.5 * math.exp(lnq * (x - 1.5) ** 2)
        assert qg.evaluate(f, x) == pytest.approx(direct, rel=1e-15)


def test_evaluate_vectorized_and_scalar():
    f = gaussian(CTX, 2)
    xs = np.array([-1.0, 0.0, 1.0])
    vals = qg.evaluate(f, xs)
    assert vals.shape == (3,)
    assert qg.evaluate(f, 1.0) == pytest.approx(vals[2])
    # purely real coefficients keep the output real
    assert vals.dtype == np.float64


def test_shift_moves_centers_against_the_argument():
    # T^s f(x) = f(x + s), so the center of g_0 lands at -s
    f = gaussian(CTX, 0)
    g = qg.shift(f, 0.5)
    assert list(g.coeffs) == [-1]
    x = 0.8
    assert qg.evaluate(g, x) == pytest.approx(qg.evaluate(f, x + 0.5), rel=1e-15)


def test_shift_rejects_off_lattice():
    with pytest.raises(ValueError):
        qg.shift(gaussian(CTX, 0), 0.3)


@given(st.integers(min_value=-6, max_value=6),
       st.integers(min_value=-6, max_value=6))
def test_shift_composition(a, b):
    f = qg.GaussianChain(CTX, {0: 1.0, 2: -0.5})
    s1, s2 = Fraction(a, 2), Fraction(b, 2)
    once = qg.shift(f, s1 + s2)
    twice = qg.shift(qg.shift(f, s1), s2)
    assert once.coeffs == twice.coeffs


def test_mul_qlinear_exact_bookkeeping():
    # q^{ax+b} g_{mu}: center moves to mu - a/2, coefficient q^{a mu - a^2/4 + b}
    f = gaussian(CTX, 3)  # mu = 3/2
    g = qg.mul_qlinear(f, 2, Fraction(1, 4))
    assert list(g.coeffs) == [1]
    expected = 0.5 ** (2 * 1.5 - 1.0 + 0.25)
    assert g.coeffs[1] == pytest.approx(expected, rel=1e-15)


def test_mul_qlinear_pointwise():
    f = qg.GaussianChain(CTX, {0: 1.0, -1: 0.5})
    g = qg.mul_qlinear(f, 1, Fraction(1, 2))
    lnq = math.log(0.5)
    for x in (-0.7, 0.0, 1.1):
        assert qg.evaluate(g, x) == pytest.approx(
            math.exp(lnq * (x + 0.5)) * qg.evaluate(f, x), rel=1e-14)


def test_mul_qlinear_rejects_fractional_slope():
    with pytest.raises(ValueError):
        qg.mul_qlinear(gaussian(CTX, 0), 0.5, 0)


def test_lowering_annihilates_ground_state_exactly():
    g0 = gaussian(CTX, 0)
    assert qg.apply_ladder(qg.arik_lower(CTX), g0).is_zero()
    assert qg.apply_ladder(qg.mac_lower(CTX), g0).is_zero()


def test_ladder_context_mismatch():
    other = QContext(q=0.3)
    with pytest.raises(ValueError):
        qg.apply_ladder(qg.arik_lower(CTX), gaussian(other, 0))


def test_inner_single_gaussian_overlap():
    # <g_t, g_s> = sqrt(pi/2c^2) q^{(t-s)^2/8} on twice-centers
    scale = math.sqrt(math.pi / (2 * math.log(2.0)))
    for t, s in [(0, 0), (0, 1), (2, -1), (4, 0)]:
        val = qg.inner(gaussian(CTX, t), gaussian(CTX, s))
        assert val == pytest.approx(scale * 0.5 ** ((t - s) ** 2 / 8), rel=1e-14)


def test_twisted_inner_flips_first_argument():
    scale = math.sqrt(math.pi / (2 * math.log(2.0)))
    val = qg.inner(gaussian(CTX, 3), gaussian(CTX, 1),
                   kind="parity_twisted")
    assert val == pytest.approx(scale * 0.5 ** ((3 + 1) ** 2 / 8), rel=1e-14)


def test_inner_rejects_unknown_kind():
    f = gaussian(CTX, 0)
    with pytest.raises(ValueError):
        qg.inner(f, f, kind="euclidean")


def test_inner_hermitian():
    f = qg.GaussianChain(CTX, {0: 1.0 + 0.5j, 2: -0.25})
    g = qg.GaussianChain(CTX, {1: 0.5, -1: 0.75j})
    assert qg.inner(f, g) == pytest.approx(qg.inner(g, f).conjugate(), rel=1e-14)


def test_alpha_normalizes_ground_state():
    a = qg.alpha(CTX)
    assert a ** 2 * qg.overlap_scale(CTX) == pytest.approx(1.0, abs=1e-16)
    g0 = qg.scale(gaussian(CTX, 0), a)
    assert qg.inner(g0, g0) == pytest.approx(1.0, rel=1e-15)


def test_adjoint_pairings():
    f = qg.GaussianChain(CTX, {0: 1.0, 1: 0.25, -2: -0.5})
    g = qg.GaussianChain(CTX, {0: 0.75, 3: -0.125, -1: 0.5})
    up, down = qg.arik_raise(CTX), qg.arik_lower(CTX)
    assert qg.inner(qg.apply_ladder(up, f), g) == pytest.approx(
        qg.inner(f, qg.apply_ladder(down, g)), rel=1e-13)
    bup, bdown = qg.mac_raise(CTX), qg.mac_lower(CTX)
    assert qg.inner(qg.apply_ladder(bup, f), g, kind="parity_twisted") == pytest.approx(
        qg.inner(f, qg.apply_ladder(bdown, g), kind="parity_twisted"), rel=1e-13)


def test_product_daughters_parity_guard():
    with pytest.raises(ValueError):
        qg.product_daughters(gaussian(CTX, 0), gaussian(CTX, 1))


def test_product_daughters_integrates_to_inner():
    f = qg.GaussianChain(CTX, {0: 1.0 - 0.25j, 2: 0.5})
    g = qg.GaussianChain(CTX, {-2: 0.75, 4: 0.125j})
    d = qg.product_daughters(f, g)
    via_product = qg.overlap_scale(CTX) * d.coefficient_sum()
    via_inner = qg.inner(f.conjugate(), g)
    assert via_product == pytest.approx(via_inner, rel=1e-14)


def test_daughter_keys():
    d = qg.product_daughters(gaussian(CTX, 1), gaussian(CTX, 3))
    assert list(d.coeffs) == [2]
    assert d.coeffs[2] == pytest.approx(0.5 ** (4 / 8), rel=1e-15)


def test_mp_backend_matches_double():
    ctx40 = QContext(q=0.5, digits=40)
    f40 = random_chain(ctx40)
    f = random_chain(CTX)
    v40 = qg.inner(f40, f40)
    v = qg.inner(f, f)
    assert float(v40) == pytest.approx(v, rel=1e-13)
    x = 0.37
    assert float(qg.evaluate(f40, x)) == pytest.approx(qg.evaluate(f, x), rel=1e-13)


def test_zero_handling():
    z = qg.GaussianChain(CTX, {})
    assert z.is_zero() and len(z) == 0
    # exact zeros drop at construction
    g = qg.GaussianChain(CTX, {0: 1.0, 2: 0.0})
    assert list(g.coeffs) == [0]


def test_conjugate():
    f = qg.GaussianChain(CTX, {1: 1.0 + 2.0j})
    assert f.conjugate().coeffs == {1: 1.0 - 2.0j}


def test_mismatched_context_raises():
    with pytest.raises(ValueError):
        qg.add(gaussian(CTX, 0), gaussian(QContext(q=0.4), 0))


def exact_moves(ctx):
    """shift, mul_qlinear, subtract and scale on exact {t: a} mappings."""
    def mul_qlinear(f, a, b):
        return {t - a: c * exact(ctx, ctx.qpow(Fraction(a * t, 2)
                                              - Fraction(a * a, 4) + b))
                for t, c in f.items()}

    def subtract(f, g):
        out = dict(f)
        for t, a in g.items():
            out[t] = out.get(t, 0) - a
        return out
    return ((lambda f, s: {t - int(2 * s): a for t, a in f.items()}),
            mul_qlinear, subtract,
            (lambda f, s: {t: a * exact(ctx, s) for t, a in f.items()}))


def composed_ladder(op, f):
    """The ladder operators as compositions of shifts, q-linear multipliers,
    a subtraction and the prefactor, one intermediate per move, as {t: a}:
    window operations in double; at set digits the same moves on exact
    mappings, each coefficient rounded once at the end."""
    ctx, q = op.ctx, op.ctx.q
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    if ctx.digits is None:
        shift, mul_qlinear, scale = qg.shift, qg.mul_qlinear, qg.scale

        def subtract(f, g):
            return qg.add(f, qg.scale(g, -1))
    else:
        shift, mul_qlinear, subtract, scale = exact_moves(ctx)
        f = {t: Exact.of(a) for t, a in f.coeffs.items()}
    if op.kind == "arik_lower":
        result = shift(subtract(mul_qlinear(f, 1, quarter),
                                shift(f, half)), half)
        pref = 1 / ctx.sqrt(1 - q)
    elif op.kind == "arik_raise":
        moved = shift(f, -half)
        result = subtract(mul_qlinear(moved, 1, quarter),
                          shift(moved, -half))
        pref = 1 / ctx.sqrt(1 - q)
    elif op.kind == "mac_lower":
        result = subtract(mul_qlinear(f, 2, half),
                          mul_qlinear(shift(f, half), 1, quarter))
        pref = 1 / ctx.sqrt(q * (1 - q))
    else:
        result = subtract(mul_qlinear(f, -2, half),
                          shift(mul_qlinear(f, -1, quarter), half))
        pref = 1 / ctx.sqrt(q * (1 - q))
    result = scale(result, pref)
    if ctx.digits is None:
        return dict(result.coeffs)
    return {t: rounded(ctx, a) for t, a in sorted(result.items()) if a != 0}


@pytest.mark.parametrize("digits", [None, 30])
@pytest.mark.parametrize("kind", qg.chain.LADDER_KINDS)
def test_apply_ladder_equals_the_composition_exactly(kind, digits):
    from exact_reference import random_chain as seeded_chain
    rng = np.random.default_rng(2024)
    for q in (0.23, 0.5, 0.81):
        ctx = QContext(q=q, digits=digits)
        op = qg.LadderOperator(kind, ctx)
        # seeded chains carry complex coefficients, mpc at 30 digits
        chains = [seeded_chain(ctx, rng) for _ in range(4)]
        chains += [qg.build_phi(ctx, 5), qg.build_Bn(ctx, 4),
                   gaussian(ctx, 0), gaussian(ctx, 3)]
        for f in chains:
            once = qg.apply_ladder(op, f)
            assert dict(once.coeffs) == composed_ladder(op, f)
            assert list(once.coeffs) == sorted(once.coeffs)
            twice = qg.apply_ladder(op, once)
            assert dict(twice.coeffs) == composed_ladder(op, once)


@pytest.mark.parametrize("digits", [None, 30])
def test_mul_qlinear_any_rational_offset(digits):
    ctx = QContext(q=0.37, digits=digits)
    f = qg.GaussianChain(ctx, {-3: ctx.make(0.5), 2: ctx.make(-1.25)})
    for a, b in ((1, Fraction(1, 4)), (-2, Fraction(3, 8)), (3, Fraction(1, 3)),
                 (2, Fraction(-5, 7)), (0, 2)):
        g = qg.mul_qlinear(f, a, b)
        expected = {t - a: c * ctx.qpow(Fraction(a * t, 2)
                                        - Fraction(a * a, 4) + b)
                    for t, c in f.coeffs.items()}
        assert g.coeffs == expected


def test_set_digit_tables_take_rows_whose_entries_all_have_positive_exponents():
    # 2 and 4 are 1·2^1 and 1·2^2: the row converts at exponent 1, and its
    # hole, the integer 0, converts with them
    ctx = QContext(q=0.5, digits=20)
    f = qg.GaussianChain(ctx, {0: 2, 2: 4})
    assert qg.coeff_distance(f, f) == 0.0
    assert qg.coeff_distance(f, qg.GaussianChain(ctx, {0: 2})) == 4.0


def test_set_digit_tables_reject_a_non_finite_entry():
    # an inf would convert to the integer 0; it is refused instead
    ctx = QContext(q=0.5, digits=20)
    lib = ctx.lib()
    f = qg.GaussianChain(ctx, {0: lib.inf})
    with pytest.raises(ValueError, match="not finite"):
        qg.coeff_distance(f, f)
    with pytest.raises(ValueError, match="not finite"):
        gram_contract([[lib.mpc(1, lib.nan)]], [[lib.mpf(1)]], [[1]])


def fraction_sqrt_float(x: Fraction) -> float:
    """sqrt(x) rounded to a float as the tables took it from a reduced
    Fraction: an integer root of at least 55 bits, rounded to odd."""
    num, den = x.numerator, x.denominator
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    root = math.isqrt((num << 2 * k) // den)
    root |= root * root * den != num << 2 * k
    try:
        return root / (1 << k)
    except OverflowError:
        return math.inf


def test_the_root_of_an_integer_ratio_keeps_the_fraction_bits():
    """An unreduced pair rounds as its Fraction does, across and past the
    double range (inf above it, 0.0 and subnormals below)."""
    rng = random.Random(2026)
    for _ in range(3000):
        num = rng.getrandbits(rng.randint(0, 2600))
        den = rng.getrandbits(rng.randint(1, 2600)) | 1
        common = rng.getrandbits(rng.randint(1, 200)) | 1 << rng.randint(0, 64)
        expected = fraction_sqrt_float(Fraction(num, den))
        assert _sqrt_float(num * common, den * common) == expected
    assert _sqrt_float(1 << 4100, 1) == math.inf
    assert _sqrt_float(0, 7) == 0.0
    assert _sqrt_float(1, 1 << 4200) == 0.0
    assert _sqrt_float(9, 4) == 1.5
