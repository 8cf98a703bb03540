"""The contracted Grams against their pairwise references.

Every Gram builder contracts coefficient tables against a lattice kernel
through gram_contract; the references here take the long way, one
chain.inner or product_daughters call per entry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from exact_reference import Exact, rounded
from hypothesis import given, settings
from hypothesis import strategies as st

import qgauss as qg
from qgauss import QContext
from qgauss.chain import gram_budget, gram_contract, lattice_kernel
from qgauss.dg import phi_table
from qgauss.macfarlane import twisted_gram_magnitudes
from qgauss.weights import random_weight, weight_mode_kernel

QS = (0.3, 0.5, 0.7)
NMAX = 6


def pairwise(chains, kind="standard"):
    return [[qg.inner(f, g, kind).real for g in chains] for f in chains]


# Both routes carry the roundoff of the same cancelling sums; at q = 0.7
# that reaches 1e-13 on either side.
DOUBLE_GAP = 1e-12


def max_gap(a, b) -> float:
    return max(float(abs(x - y)) for ra, rb in zip(a, b)
               for x, y in zip(ra, rb))


def test_backends_agree_on_ragged_tables():
    A = [[1, 2, 3], [4, 5]]
    B = [[7], [1, 1, 1], [2, 0, 5]]
    K = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    dense = np.array([[1, 2, 3], [4, 5, 0]]) @ np.array(K) \
        @ np.array([[7, 0, 0], [1, 1, 1], [2, 0, 5]]).T
    as_float = gram_contract([[float(v) for v in r] for r in A],
                             [[float(v) for v in r] for r in K], B)
    lib = QContext(q=0.5, digits=20).lib()
    mp = gram_contract(A, [[lib.mpf(v) for v in r] for r in K], B)
    assert as_float.tolist() == dense.tolist()
    assert mp.tolist() == dense.tolist() and type(mp[0][0]) is lib.mpf
    # a kernel of ints or Fractions has no backend: numpy's fixed-width
    # integer products would wrap past 2^63
    big = 2 ** 40
    for kernel in ([[big * v for v in r] for r in K],
                   [[Fraction(v) for v in r] for r in K]):
        with pytest.raises(TypeError, match="gram_contract"):
            gram_contract(A, kernel, B)


def test_mpmath_rows_set_the_precision_of_the_contraction():
    # rows of mpmath numbers round at their own precision, whatever the
    # kernel's; rows of Python numbers take the kernel's
    coarse, fine = (QContext(q=0.5, digits=d).lib() for d in (10, 40))
    third = [[fine.mpf(1) / 3]]
    rows = [[coarse.mpf(1)]]
    assert type(gram_contract(rows, third, rows)[0][0]) is coarse.mpf
    assert gram_contract(rows, third, rows)[0][0] == coarse.mpf(1) / 3
    assert type(gram_contract([[1.0]], third, [[1.0]])[0][0]) is fine.mpf


@pytest.mark.parametrize("q", QS)
def test_dg_gram_and_parseval_target(q):
    ctx = QContext(q=q)
    ref = pairwise([qg.build_phi(ctx, n) for n in range(NMAX + 1)])
    assert max_gap(qg.gram_phi(ctx, NMAX).matrix, ref) <= DOUBLE_GAP
    # the bridge's target is the rows the Gram contracts, not the Gram
    target = qg.parseval_bridge(ctx, NMAX).target
    assert [row[:n + 1].tolist() for n, row in enumerate(target)] == \
        phi_table(ctx, NMAX)


def test_dg_gram_keeps_the_context_mpf_at_set_digits():
    # a diagonal error below double resolution must show, in the Gram and
    # in the target parseval_bridge compares against
    ctx = QContext(q=0.6, digits=30)
    assert type(qg.gram_phi(ctx, 4).matrix[0][0]) is ctx.lib().mpf
    assert type(qg.parseval_bridge(ctx, 4).target[0][0]) is ctx.lib().mpf


@pytest.mark.parametrize("q", QS)
def test_twisted_gram_in_double(q):
    hi = QContext(q=q, digits=50)
    ref = pairwise([qg.build_Bn(hi, n) for n in range(NMAX + 1)],
                   "parity_twisted")
    report = qg.indefinite_gram(QContext(q=q), NMAX)
    assert max_gap(report.matrix, ref) <= 1e-14


@pytest.mark.parametrize("q", QS)
def test_twisted_gram_at_30_digits(q):
    ctx = QContext(q=q, digits=30)
    ref = pairwise([qg.build_Bn(ctx, n) for n in range(NMAX + 1)],
                   "parity_twisted")
    report = qg.indefinite_gram(ctx, NMAX)
    assert type(report.matrix[0][0]) is ctx.lib().mpf
    assert max_gap(report.matrix, ref) <= 1e-25


@pytest.mark.parametrize("q", QS)
def test_term_budget_is_the_unsigned_twisted_gram(q):
    # with every coefficient replaced by its magnitude, the twisted Gram
    # entries are the absolute term sums whose largest is the condition
    ctx = QContext(q=q)
    chains = [qg.GaussianChain(ctx, {t: abs(a) for t, a in
                                     qg.build_Bn(ctx, n).coeffs.items()})
              for n in range(NMAX + 1)]
    ref = max(max(row) for row in pairwise(chains, "parity_twisted"))
    log_condition = gram_budget(*twisted_gram_magnitudes(q, NMAX), 1e-8)[0]
    assert 10 ** log_condition == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("q", QS)
def test_gamma_family_gram(q):
    ctx = QContext(q=q)
    weights = qg.orthonormal_weight_family(ctx, 3)
    inv_alpha = 1 / qg.alpha(ctx)
    members = [(weights[n], qg.scale(qg.build_phi(ctx, m), inv_alpha))
               for n in range(3) for m in range(NMAX + 1)]
    ref = [[qg.mixed_weighted_inner(ctx, wa, f, wb, g).real for wb, g in members]
           for wa, f in members]
    report = qg.gamma_family_gram(ctx, 3, NMAX)
    assert max_gap(report.matrix, ref) <= DOUBLE_GAP


def test_circle_mac_passes_at_nmax_12():
    # the working precision reaches the q-binomials, targets and nodes, so
    # the degree-indexed relation holds past nmax 10 at q = 1/2
    result = qg.run_suite("circle-mac", QContext(q=0.5), nmax=12, points=128)
    assert result.passed, result.failures[:3]
    assert result.max_deviation <= result.tolerance * 1e-12
    assert math.isfinite(result.notes["log10_condition"])
    assert result.max_deviation <= result.notes["floor"]


def fdot_contract(A, K, B):
    """A K B^T in two stages of lib.fdot, each entry of A K and of the
    result one fdot at the precision of A's lead entry, else the kernel's:
    a sum that rounds as it goes, unlike the exact contraction."""
    probe = K[0][0]
    lead = A[0][0] if A and len(A[0]) else probe
    lib = getattr(lead, "context", probe.context)
    K = [[lib.convert(k) for k in row] for row in K]
    AK = [[lib.fdot(row, col) for col in zip(*K)] for row in A]
    return [[lib.fdot(left, right) for right in B] for left in AK]


def exact_contract(ctx, A, K, B):
    """A K B^T summed in exact rationals over the entries that zip pairs,
    each entry rounded once to nearest at ctx's precision: an mpc when A,
    K or B holds a complex entry among them, else an mpf."""
    A = [row[:len(K)] for row in A]
    B = [row[:len(K[0])] for row in B]
    cplx = any(hasattr(a, "_mpc_") or isinstance(a, complex)
               for rows in (A, K, B) for row in rows for a in row)
    K, A, B = ([[Exact.of(a) for a in row] for row in rows]
               for rows in (K, A, B))
    AK = [[sum((a * row[k] for a, row in zip(x, K)), Exact(0))
           for k in range(len(K[0]))] for x in A]
    lib = ctx.lib()

    def entry(x, y):
        value = rounded(ctx, sum((a * b for a, b in zip(x, y)), Exact(0)))
        return lib.mpc(value) if cplx else value
    return [[entry(x, y) for y in B] for x in AK]


def identical(got, want) -> bool:
    """Equal entry by entry, in value and in type (mpf or mpc)."""
    return len(got) == len(want) and all(
        len(g) == len(w) and all(type(x) is type(y) and x == y
                                 for x, y in zip(g, w))
        for g, w in zip(got, want))


@st.composite
def contractions(draw):
    """A context at 15-100 digits, a lattice kernel of either kind on up
    to 17 centers, and ragged rows of real or complex entries spread over
    2^-80..2^80, B the same list as A or rows of its own."""
    ctx = QContext(q=draw(st.floats(0.05, 0.95)),
                   digits=draw(st.integers(15, 100)))
    lib = ctx.lib()
    size = draw(st.integers(1, 17))
    K = lattice_kernel(ctx, size, draw(st.sampled_from(
        ["standard", "parity_twisted"])))
    complex_rows = draw(st.booleans())
    entry = st.builds(
        lambda m, e, im: lib.mpc(m, im) * lib.ldexp(1, e) / 3
        if complex_rows and im is not None else lib.mpf(m) * lib.ldexp(1, e) / 3,
        st.floats(-1, 1), st.integers(-80, 80), st.none() | st.floats(-1, 1))
    rows = st.lists(st.lists(entry, max_size=size + 2), min_size=1,
                    max_size=size)
    A = draw(rows.filter(lambda r: len(r[0]) > 0))
    B = A if draw(st.booleans()) else draw(rows)
    return ctx, A, K, B


@settings(max_examples=60, deadline=None)
@given(contractions())
def test_integer_contraction_is_the_exact_sum_rounded_once(case):
    ctx, A, K, B = case
    assert identical(gram_contract(A, K, B), exact_contract(ctx, A, K, B))


@pytest.mark.parametrize("digits", [15, 30, 100])
def test_integer_contraction_is_the_exact_sum_on_the_package_tables(digits):
    ctx = QContext(q=0.43, digits=digits)
    # complex Python rows against the weight-mode kernel (weights_gram)
    rows = [[w.modes.get(m, 0j) for m in range(-2, 3)]
            for w in (qg.cosine_weight(0.3), random_weight(
                np.random.default_rng(3)))]
    rows = [row[:3 + i] for i, row in enumerate(rows)]  # ragged
    K = weight_mode_kernel(ctx, 5)
    conj = [[v.conjugate() for v in row] for row in rows]
    assert identical(gram_contract(conj, K, rows),
                     exact_contract(ctx, conj, K, rows))
    # an mpc kernel at a finer precision than the rows, as circle-mac's
    # kernel carries guard digits of its own
    fine = ctx.with_digits(digits + 10)
    phase = fine.lib().mpc(fine.lib().cos(1), fine.lib().sin(1))
    K = [[k * phase for k in row] for row in lattice_kernel(fine, 9)]
    A = [qg.build_Bn(ctx, n).row.tolist()[::2] for n in range(9)]
    assert identical(gram_contract(A, K, A), exact_contract(ctx, A, K, A))


def test_integer_sums_keep_a_term_fdot_drops():
    # fdot's mpf_sum drops a term more than 2 prec bits below the running
    # sum: 2^(3p) + 1 - 2^(3p) is 1 exactly, and 0 to fdot
    lib = QContext(q=0.5, digits=20).lib()
    big = lib.ldexp(1, 3 * lib.prec)
    one, zero = lib.mpf(1), lib.mpf(0)
    A = [[big, one, -big]]
    K = [[one if j == k else zero for k in range(3)] for j in range(3)]
    B = [[one, one, one]]
    assert fdot_contract(A, K, B) == [[0]]
    assert gram_contract(A, K, B).tolist() == [[1]]
    assert type(gram_contract(A, K, B)[0][0]) is lib.mpf
