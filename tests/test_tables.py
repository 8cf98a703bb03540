"""Chain windows and tables against the per-chain dict loops they replace.

Chains are dense coefficient windows: every chain operation acts on the
window, and the commutator, ladder and sum-rule suites act on whole
tables of them. The references below are the dict-loop algorithms the
package used before, each written over plain {t: a} mappings. In double
they run in double; at set digits they run on the same rounded inputs in
exact Fractions and round each result once, as the kernels do (see
exact_reference). Every comparison is exact (==), in double and at set
digits, but for the double sum-rule rows: the suite takes them from one
contraction, summed in another order, and they agree within
exact_reference.sum_rule_bound.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from exact_reference import (Exact, exact, random_chain, rounded, sqrt_rounded,
                             sum_rule_bound)
from hypothesis import given, settings
from hypothesis import strategies as st

import qgauss as qg
from qgauss import QContext, verify
from qgauss.qnum import arik_coon_eigenvalue, macfarlane_eigenvalue

JUDGE = verify._judge


def judge_rows(name, tol, rows, params):
    """verify._judge on a list of (label, deviation) rows."""
    labels = [label for label, _ in rows]
    return JUDGE(name, tol, [dev for _, dev in rows], params,
                 label=lambda index: labels[index[0]])


# the ladders (a, b) of each family's relation a b - q b a = 1
LADDERS = {"dg": (qg.arik_lower, qg.arik_raise),
           "mac": (qg.mac_raise, qg.mac_lower)}

# (s1, a1, b1), (s2, a2, b2): the first term lands on t + s1 with the factor
# q^{(a1 t + b1)/8}, the second is subtracted at t + s2 (a pure shift where
# a2 is None)
LADDER_TERMS = {
    "arik_lower": ((-2, 4, 0), (-2, None, None)),
    "arik_raise": ((0, 4, 4), (2, None, None)),
    "mac_lower": ((-2, 8, -4), (-2, 4, -4)),
    "mac_raise": ((2, -8, -4), (0, -4, 0)),
}


def normalized(coeffs):
    return {t: a for t, a in sorted(coeffs.items()) if a != 0}


def rounded_coeffs(ctx, coeffs):
    return {t: rounded(ctx, a) for t, a in coeffs.items()}


def dict_ladder(ctx, kind, coeffs):
    """The ladder on a mapping; exact at set digits (round with
    rounded_coeffs)."""
    (s1, a1, b1), (s2, a2, b2) = LADDER_TERMS[kind]

    def pow8(m):
        return exact(ctx, ctx.qpow8(m))
    coeffs = {t: exact(ctx, c) for t, c in coeffs.items()}
    q = ctx.q
    if kind.startswith("arik"):
        pref = 1 / ctx.sqrt(1 - q)
    else:
        pref = 1 / ctx.sqrt(q * (1 - q))
    pref = exact(ctx, pref)
    out = {t + s1: c * pow8(a1 * t + b1) for t, c in coeffs.items()}
    for t, c in coeffs.items():
        term = c if a2 is None else c * pow8(a2 * t + b2)
        out[t + s2] = out.get(t + s2, 0) + term * -1
    return normalized({t: a * pref for t, a in out.items()})


def dict_scale(coeffs, s):
    return normalized({t: a * s for t, a in coeffs.items()})


def dict_subtract(f, g):
    out = dict(f)
    for t, a in dict_scale(g, -1).items():
        out[t] = out.get(t, 0) + a
    return normalized(out)


def dict_max_abs2(coeffs):
    """max |a|^2 of exact values."""
    return max((Exact.of(a).abs2() for a in coeffs.values()), default=0)


def dict_max_abs(coeffs):
    """max |a|: in double as floats, of exact values rounded once."""
    if any(isinstance(a, Exact) for a in coeffs.values()):
        return sqrt_rounded(Fraction(dict_max_abs2(coeffs)))
    return max((float(abs(a)) for a in coeffs.values()), default=0.0)


def dict_distance(ctx, f, g, relative=False):
    if ctx.digits is not None:  # exact gap and ratio, one rounding
        f, g = ({t: exact(ctx, a) for t, a in h.items()} for h in (f, g))
        gap = dict_max_abs2(dict_subtract(f, g))
        ref = (dict_max_abs2(g) or dict_max_abs2(f)) if relative else 1
        return sqrt_rounded(Fraction(gap) / ref) if ref else 0.0
    ref = (dict_max_abs(g) or dict_max_abs(f)) if relative else 1.0
    if ref == 0.0:
        return 0.0
    gap = max((float(abs(f.get(t, 0) - g.get(t, 0)))
               for t in set(f) | set(g)), default=0.0)
    return gap / ref if relative else gap


def dict_commutator(ctx, coeffs, family):
    lo, hi = ("arik_lower", "arik_raise") if family == "dg" \
        else ("mac_lower", "mac_raise")
    if family == "dg":
        first = dict_ladder(ctx, lo, dict_ladder(ctx, hi, coeffs))
        second = dict_ladder(ctx, hi, dict_ladder(ctx, lo, coeffs))
    else:
        first = dict_ladder(ctx, hi, dict_ladder(ctx, lo, coeffs))
        second = dict_ladder(ctx, lo, dict_ladder(ctx, hi, coeffs))
    residual = dict_subtract(dict_subtract(
        first, dict_scale(second, exact(ctx, ctx.q))),
        {t: exact(ctx, a) for t, a in coeffs.items()})
    return dict_max_abs(residual)


def dict_daughters(ctx, f, g):
    """The daughters of f g; exact at set digits."""
    out = {}
    for t, a in f.items():
        for s, b in g.items():
            w = exact(ctx, ctx.qpow8((t - s) ** 2))
            out[(t + s) // 2] = (out.get((t + s) // 2, 0)
                                 + exact(ctx, a) * exact(ctx, b) * w)
    return normalized(out)


def dict_ladder_rows(ctx, nmax, build, kinds, eigenvalue, relative, sign):
    rows = []
    family = {k: dict(build(ctx, k).coeffs) for k in range(nmax + 2)}
    for n in range(1, nmax + 1):
        root_n, root_up = (ctx.sqrt(eigenvalue(ctx.q, k)) for k in (n, n + 1))
        low = dict_distance(ctx, dict_ladder(ctx, kinds[0], family[n]),
                            dict_scale(family[n - 1], exact(ctx, root_n)),
                            relative)
        up = dict_distance(ctx, dict_ladder(ctx, kinds[1], family[n]),
                           dict_scale(family[n + 1],
                                      exact(ctx, sign * root_up)),
                           relative)
        rows.append((n, low, up))
    return rows


def reference_ladders(ctx, nmax):
    dg_rows = dict_ladder_rows(ctx, nmax, qg.build_phi,
                               ("arik_lower", "arik_raise"),
                               arik_coon_eigenvalue, False, 1)
    mac_rows = dict_ladder_rows(ctx, nmax, qg.build_Bn,
                                ("mac_lower", "mac_raise"),
                                lambda q, k: -macfarlane_eigenvalue(q, k),
                                True, -1)
    rows = [((family, n, key), dev)
            for a, b in zip(dg_rows, mac_rows)
            for family, (n, low, up) in (("dg", a), ("mac", b))
            for key, dev in (("lower_residual", low), ("raise_residual", up))]
    return rows, judge_rows("ladders", 1e-11, rows, {
        "q": float(ctx.q), "nmax": nmax, "digits": ctx.digits})


def reference_sumrule(ctx, nmax):
    phis = [dict(qg.build_phi(ctx, k).coeffs) for k in range(nmax + 1)]
    rows = []
    norm = qg.alpha(ctx) ** 2
    for n, fn in enumerate(phis):
        fn = {t: a.conjugate() for t, a in fn.items()}
        for m, fm in enumerate(phis):
            total = sum(dict_daughters(ctx, fn, fm).values())
            val = rounded(ctx, total) / norm
            rows.append(((n, m), max(abs(val.real - (1 if n == m else 0)),
                                     abs(val.imag))))
    return rows, judge_rows("sumrule", 1e-12, rows, {"q": float(ctx.q),
                                                    "nmax": nmax,
                                                    "digits": ctx.digits})


@pytest.fixture
def judged(monkeypatch):
    """Every deviation array a suite hands to verify._judge, in order, as
    its (label, deviation) rows in row-major order."""
    seen = []

    def spy(name, tol, devs, params, notes=None, label=tuple):
        devs = np.asarray(devs)
        seen.append([(label(list(index)), dev) for index, dev
                     in zip(np.ndindex(devs.shape), devs.ravel().tolist())])
        return JUDGE(name, tol, devs, params, notes, label)
    monkeypatch.setattr(verify, "_judge", spy)
    return seen


def table_maps(table):
    """The rows of a table (start, rows) as {t: a} mappings of their
    nonzero entries."""
    start, rows = table
    return [{t: a for t, a in enumerate(row.tolist(), start) if a}
            for row in rows]


@pytest.mark.parametrize("digits", [None, 20, 40])
def test_suite_commutators_rows_equal_per_chain_residuals(digits, judged):
    count = 60 if digits is None else 6
    for q, seed in ((0.23, 5), (0.618034, 12345), (0.89, 77)):
        ctx = QContext(q=q, digits=digits)
        verify.suite_commutators(ctx, count=count, seed=seed)
        maps = table_maps(verify.random_table(
            ctx, np.random.default_rng(seed), count))
        expected = [((family, i), dict_commutator(ctx, coeffs, family))
                    for i, coeffs in enumerate(maps)
                    for family in ("dg", "mac")]
        assert judged[-1] == expected


@pytest.mark.parametrize("digits", [None, 30])
def test_suite_commutators_builds_one_table_for_both_families(digits,
                                                              monkeypatch):
    """Two families, two ladder products each, two stencils a product:
    eight stencils whatever the number of chains."""
    applied = []
    ladder_table = qg.chain._ladder_table

    def counted(op, start, parts, exp):
        applied.append(parts.shape[1])
        return ladder_table(op, start, parts, exp)
    monkeypatch.setattr(qg.chain, "_ladder_table", counted)
    for count in (1, 12, 50):
        applied.clear()
        result = verify.suite_commutators(QContext(q=0.6, digits=digits),
                                          count=count)
        assert applied == [count] * 8
        assert len(result.failures) == 0


@pytest.mark.parametrize("digits", [None, 20, 40, 60])
def test_ladder_and_sumrule_suites_equal_the_dict_loops(digits, judged):
    """The sum-rule suite sums each row as one contraction, an order other
    than the dict loop's: at set digits both round the same exact sum once,
    in double the rows agree within sum_rule_bound."""
    for q in (0.37, 0.5512, 0.83):
        ctx = QContext(q=q, digits=digits)
        nmax = 12 if digits is None else 5
        for suite, reference in (("ladders", reference_ladders),
                                 ("sumrule", reference_sumrule)):
            result = qg.run_suite(suite, ctx, nmax=nmax)
            rows, expected = reference(ctx, nmax)
            if suite == "sumrule" and digits is None:
                (labels, devs), (ref_labels, refs) = (
                    zip(*judged[-1]), zip(*rows))
                assert labels == ref_labels
                assert (abs(np.subtract(devs, refs))
                        <= sum_rule_bound(ctx, nmax).ravel()).all()
                continue
            assert judged[-1] == rows
            assert result.to_dict() == expected.to_dict()


@pytest.mark.parametrize("digits", [None, 30])
def test_one_row_cases_equal_the_dict_loops(digits):
    ctx = QContext(q=0.47, digits=digits)
    rng = np.random.default_rng(3)
    chains = [random_chain(ctx, rng) for _ in range(6)]
    chains += [qg.build_phi(ctx, 4), qg.build_Bn(ctx, 3), qg.GaussianChain(ctx, {})]
    for f in chains:
        for kind in LADDER_TERMS:
            once = qg.apply_ladder(qg.LadderOperator(kind, ctx), f)
            assert dict(once.coeffs) == rounded_coeffs(
                ctx, dict_ladder(ctx, kind, dict(f.coeffs)))
    even = [qg.GaussianChain(ctx, {t: a for t, a in f.coeffs.items() if t % 2 == 0})
            for f in chains]
    for f in even:
        for g in even:
            assert (dict(qg.product_daughters(f, g).coeffs)
                    == rounded_coeffs(ctx, dict_daughters(ctx, dict(f.coeffs),
                                                          dict(g.coeffs))))


def dict_add(f, g):
    out = dict(f)
    for t, a in g.items():
        out[t] = out.get(t, 0) + a
    return normalized(out)


def window_cases(ctx):
    """Random complex chains drawn as random_chain draws them, family
    chains with holes, an asymmetric window and the zero chain."""
    rng = np.random.default_rng(11)
    return ([random_chain(ctx, rng) for _ in range(4)]
            + [qg.build_phi(ctx, 4), qg.build_Bn(ctx, 3),
               qg.GaussianChain(ctx, {-3: ctx.make(0.5), 0: ctx.make(-1.25),
                                      1: ctx.make(2.0)}),
               qg.GaussianChain(ctx, {})])


def window_pairs(ctx, f, chains):
    """(window operation on f, its dict-loop reference as a thunk)."""
    coeffs = dict(f.coeffs)
    for s in (ctx.sqrt(ctx.make(3)), ctx.make(0.3 - 1.7j), 2.5, -1):
        yield qg.scale(f, s), lambda s=s: dict_scale(coeffs, s)
    for s in (Fraction(1, 2), Fraction(-1, 2)):
        yield qg.shift(f, s), lambda s=s: {t - int(2 * s): a
                                           for t, a in coeffs.items()}
    for a, b in ((1, Fraction(1, 3)), (2, Fraction(-5, 7)),
                 (-3, Fraction(2, 5)), (0, Fraction(1, 3))):
        yield qg.mul_qlinear(f, a, b), lambda a=a, b=b: {
            t - a: c * ctx.qpow(Fraction(a * t, 2) - Fraction(a * a, 4) + b)
            for t, c in coeffs.items()}
    yield f.conjugate(), lambda: {t: a.conjugate() for t, a in coeffs.items()}
    for g in chains:
        other = dict(g.coeffs)
        yield qg.add(f, g), lambda other=other: dict_add(coeffs, other)
        yield (qg.add(f, qg.scale(g, -1)),
               lambda other=other: dict_subtract(coeffs, other))


@pytest.mark.parametrize("digits", [None, 20, 40])
def test_window_operations_equal_the_dict_loops(digits):
    ctx = QContext(q=0.43, digits=digits)
    chains = window_cases(ctx)
    for f in chains:
        for window, reference in window_pairs(ctx, f, chains):
            expected = normalized(reference())
            assert list(window.coeffs) == sorted(window.coeffs)
            assert dict(window.coeffs) == expected


def test_scale_add_and_subtract_keep_the_chains_precision():
    ctx = QContext(q=0.5, digits=40)
    raised = qg.apply_ladder(qg.arik_raise(ctx), qg.build_phi(ctx, 3))
    phi4 = qg.build_phi(ctx, 4)
    root = ctx.sqrt(arik_coon_eigenvalue(ctx.q, 4))
    third, rest = ctx.make(1) / 3, 1 - ctx.make(1) / 3
    assert qg.coeff_distance(raised, qg.scale(phi4, root)) <= 1e-45
    assert qg.coeff_distance(qg.add(qg.add(phi4, phi4), qg.scale(phi4, -1)),
                             phi4) == 0.0
    sums = qg.add(qg.scale(phi4, third), qg.scale(phi4, rest))
    assert qg.coeff_distance(sums, phi4) <= 1e-45


def test_coeffs_view_keeps_the_value_types():
    for ctx in (QContext(q=0.5), QContext(q=0.5, digits=40)):
        lib = ctx.lib()
        real, cplx = (lib.mpf, lib.mpc) if ctx.is_mp else (float, complex)
        phi = qg.build_phi(ctx, 3)
        assert list(phi.coeffs) == [0, 2, 4, 6]
        assert all(type(a) is real for a in phi.coeffs.values())
        assert all(type(a) is real for a in
                   qg.apply_ladder(qg.arik_raise(ctx), phi).coeffs.values())
        f = random_chain(ctx, np.random.default_rng(1))
        assert f.coeffs and all(type(a) is cplx for a in f.coeffs.values())
        with pytest.raises(TypeError):
            f.coeffs[0] = 1.0


def test_chain_window_trims_zero_ends_and_keeps_holes():
    f = qg.GaussianChain(QContext(q=0.5), {-3: 0.0, -1: 2.0, 2: -1.0, 5: 0.0})
    assert (f.start, f.row.tolist()) == (-1, [2.0, 0.0, 0.0, -1.0])
    assert dict(f.coeffs) == {-1: 2.0, 2: -1.0} and len(f) == 2


def test_parity_mixing_still_raises():
    ctx = QContext(q=0.5)
    mixed = qg.GaussianChain(ctx, {0: 1.0, 1: 0.5})
    def gaussian(t):
        return qg.GaussianChain(ctx, {t: 1.0})
    for f, g in ((mixed, gaussian(0)), (gaussian(2), mixed),
                 (gaussian(2), gaussian(3))):
        with pytest.raises(ValueError, match="parity class"):
            qg.product_daughters(f, g)


def test_a_nan_deviation_fails_its_suite_and_is_written_as_null():
    result = judge_rows("x", 1e-9, [(("a",), math.nan), (("b",), 1e-12)], {})
    assert not result.passed
    assert math.isnan(result.max_deviation)
    assert [row[0] for row in result.failures] == ["a"]
    data = result.to_dict()
    assert data["max_deviation"] is None and data["failures"] == [["a", None]]
    json.dumps(data, allow_nan=False)
    # an infinite deviation fails too, after a finite worst
    result = judge_rows("x", 1e-9, [(("a",), 1e-12), (("b",), math.inf)], {})
    assert not result.passed and result.max_deviation == math.inf


def test_judge_labels_only_the_failures_in_row_major_order():
    devs = np.array([[1e-12, math.inf, 0.0], [math.nan, 2e-9, 1e-9],
                     [5.0, 1e-10, 0.5]])
    labelled = []

    def label(index):
        labelled.append(index)
        return ("entry", *index)
    result = JUDGE("x", 1e-9, devs, {}, label=label)
    failing = [[0, 1], [1, 0], [1, 1], [2, 0], [2, 2]]
    assert labelled == failing
    # the worst is NaN once one is seen, whatever is larger
    assert not result.passed and math.isnan(result.max_deviation)
    assert result.to_dict()["failures"] == [
        ["entry", 0, 1, None], ["entry", 1, 0, None], ["entry", 1, 1, 2e-9],
        ["entry", 2, 0, 5.0], ["entry", 2, 2, 0.5]]
    # the default label is the index itself; without a NaN the worst is
    # the largest deviation, inf included
    devs[1, 0] = 0.0
    result = JUDGE("x", 1e-9, devs, {})
    assert result.max_deviation == math.inf
    assert [row[:2] for row in result.failures] == [
        index for index in failing if index != [1, 0]]
    assert JUDGE("x", 1e-9, np.zeros((2, 2)), {}).max_deviation == 0.0
    with pytest.raises(ValueError, match="no rows"):
        JUDGE("x", 1e-9, np.zeros((0, 2)), {})


def test_double_power_past_the_float_range_is_inf():
    ctx = QContext(q=0.01)
    assert ctx.qpow(-1000) == math.inf and ctx.qpow8(-8000) == math.inf
    assert ctx.qpow(1000) == 0.0


@settings(max_examples=25, deadline=None)
@given(q=st.floats(0.02, 0.98), digits=st.sampled_from([20, 40, 60]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_set_digit_kernels_equal_the_exact_computation_rounded_once(
        q, digits, seed):
    ctx = QContext(q=q, digits=digits)
    rng = np.random.default_rng(seed)
    table = verify.random_table(ctx, rng, 3)
    maps = table_maps(table)
    chains = [qg.GaussianChain(ctx, m) for m in maps]
    for f in chains:
        for kind in LADDER_TERMS:
            once = qg.apply_ladder(qg.LadderOperator(kind, ctx), f)
            assert dict(once.coeffs) == rounded_coeffs(
                ctx, dict_ladder(ctx, kind, dict(f.coeffs)))
    residuals = qg.chain.commutator_residuals(
        ctx, [(qg.arik_lower, qg.arik_raise), (qg.mac_raise, qg.mac_lower)],
        table)
    assert residuals == [[dict_commutator(ctx, m, family) for m in maps]
                         for family in ("dg", "mac")]
    # one parity class, complex and real rows, so the parts pair every way
    even = [qg.GaussianChain(ctx, {t: a for t, a in f.coeffs.items()
                                   if t % 2 == 0}) for f in chains]
    even.append(qg.build_phi(ctx, 3))
    for f in even:
        for g in even:
            assert (dict(qg.product_daughters(f, g).coeffs)
                    == rounded_coeffs(ctx, dict_daughters(
                        ctx, dict(f.coeffs), dict(g.coeffs))))


@pytest.mark.parametrize("q", [0.01, 0.99])
def test_ladders_at_extreme_q_give_finite_relative_residuals(q):
    """B_16 at q = 0.01 has a coefficient near 1e330, past the double range;
    the relative residual is an exact ratio, rounded once, and finite."""
    result = qg.run_suite("ladders", QContext(q=q, digits=30), nmax=15)
    assert result.passed and math.isfinite(result.max_deviation)
    assert result.max_deviation < 1e-25


# The double ladders report at q 0.01, nmax 15: B_n's coefficients leave
# the double range from n = 13, so the relative gaps of the mac rows that
# reach it are inf / inf, NaN, written null. The dict loops skip some of
# those NaNs, so this report is pinned as it stands.
NAN_EDGE = {
    "suite": "ladders", "passed": False, "tolerance": 1e-11,
    "max_deviation": None,
    "params": {"q": 0.01, "nmax": 15, "digits": None},
    "failures": [["mac", 12, "raise_residual", None]] + [
        ["mac", n, key, None] for n in (13, 14, 15)
        for key in ("lower_residual", "raise_residual")],
    "notes": {}}


@pytest.mark.parametrize("digits", [None, 30])
@pytest.mark.parametrize("q", [0.01, 0.99])
def test_ladders_json_at_extreme_q_is_pinned(q, digits):
    ctx = QContext(q=q, digits=digits)
    result = qg.run_suite("ladders", ctx, nmax=15)
    expected = NAN_EDGE if (q, digits) == (0.01, None) else \
        reference_ladders(ctx, 15)[1].to_dict()
    assert (json.dumps(result.to_dict(), sort_keys=True)
            == json.dumps(expected, sort_keys=True))


# -- the double products and peaks, and the family tables, bit for bit ------

def bits(x) -> tuple:
    """A double, or an mpmath value, as the exact data that identify it,
    the sign of a zero included."""
    return x._mpf_ if hasattr(x, "_mpf_") else float(x).hex()


@pytest.mark.parametrize("seed", range(5))
def test_a_real_factor_multiplies_each_part_of_a_complex_table_once(seed):
    """Python's complex x float, entry by entry: every nonzero part bit for
    bit, every zero part equal in value and carrying the sign of its one
    product part * factor (Python's own product may differ in that sign)."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, 6, 9)) * 10.0 ** rng.integers(
        -150, 150, (2, 6, 9))
    parts[rng.random(parts.shape) < 0.3] = 0.0
    parts[rng.random(parts.shape) < 0.2] = -0.0
    table = np.empty(parts.shape[1:], complex)
    table.real, table.imag = parts
    factor = rng.standard_normal(9) * 10.0 ** rng.integers(-10, 10, 9)
    factor[:2] = 0.0, -0.0
    for y in (factor, factor[None], factor[3]):
        got = qg.chain._times(table, y)
        assert got.dtype == complex
        for x, f, z in zip(*(a.ravel().tolist() for a in
                             np.broadcast_arrays(table, y, got))):
            want = complex(x) * float(f)
            for part, once, mine in ((x.real, want.real, z.real),
                                     (x.imag, want.imag, z.imag)):
                assert mine == once
                assert bits(mine) == bits(part * f if mine == 0 else once)


def test_a_real_factor_at_inf_or_nan_parts_multiplies_each_part_once():
    table = np.array([complex(math.inf, 1.0), complex(2.0, math.nan)])
    got = qg.chain._times(table, np.array([2.0, 0.0]))
    assert got[0].real == math.inf and got[0].imag == 2.0
    assert math.isnan(got[1].imag) and bits(got[1].real) == bits(0.0)


def test_real_row_peaks_are_the_hypot_peaks_with_inf_and_nan():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(
        -300, 300, (40, 7))
    for value, share in ((0.0, 0.2), (-0.0, 0.1), (math.inf, 0.05),
                         (-math.inf, 0.05), (math.nan, 0.05)):
        rows[rng.random(rows.shape) < share] = value
    rows[0], rows[1] = -0.0, math.nan
    for table in (rows, rows[:, :0]):
        got = qg.chain._row_peaks(table[None])
        want = np.hypot(table, 0).max(axis=-1, initial=0.0)
        assert [bits(x) for x in got.tolist()] == [bits(x) for x in
                                                   want.tolist()]
    complex_rows = np.empty(rows.shape, complex)
    complex_rows.real, complex_rows.imag = rows, rows[::-1]
    assert np.array_equal(
        qg.chain._row_peaks(complex_rows[None]),
        np.hypot(complex_rows.real, complex_rows.imag).max(axis=-1),
        equal_nan=True)


def closed_form_rows(ctx, nmax) -> dict:
    """The rows of phi, Phi and B_0..B_nmax entry by entry from the closed
    forms, each q-power read from the context's qpow8."""
    a, poch = qg.alpha(ctx), qg.qnum.pochhammer_prefix(ctx.q, nmax)
    rows = {"phi": [], "Phi": [], "mac": []}
    for n in range(nmax + 1):
        binomials = qg.qnum.binomials_from_prefix(poch, n)
        root = ctx.sqrt(poch[n])
        zeta = a * ctx.qpow8(2 * n * (n - 1)) / root
        rows["phi"].append([(-a if k % 2 else a) * b * ctx.qpow8(4 * (n - k))
                            / root for k, b in enumerate(binomials)])
        rows["Phi"].append([(-b if k % 2 else b) * ctx.qpow8(-4 * k)
                            for k, b in enumerate(binomials)])
        rows["mac"].append([zeta * ((-b if k % 2 else b)
                                    * ctx.qpow8(4 * (k - 2 * n * k)))
                            for k, b in enumerate(binomials)])
    return rows


@pytest.mark.parametrize("digits", [None, 20, 60])
@pytest.mark.parametrize("q", [0.01, 0.3, 0.6180339887498949, 0.99])
def test_family_tables_equal_the_closed_form_entry_by_entry(q, digits):
    ctx = QContext(q=q, digits=digits)
    reference = {name: [[bits(x) for x in row] for row in rows]
                 for name, rows in closed_form_rows(ctx, 25).items()}
    tables = {"phi": qg.dg.phi_table, "Phi": qg.dg.Phi_table,
              "mac": qg.macfarlane.mac_table}
    for nmax in range(26):
        for name, table in tables.items():
            fresh = QContext(q=q, digits=digits)  # a cold qpow8 memo
            assert [[bits(x) for x in row] for row in table(fresh, nmax)] \
                == reference[name][:nmax + 1], (name, nmax)
