import dataclasses
import inspect
import json
import math
import statistics

import numpy as np
import pytest
from exact_reference import random_chain, sum_rule_bound

import qgauss as qg
from qgauss import QContext
from qgauss import circle, dg, macfarlane, verify, weights
from qgauss.report import GramReport
from qgauss.chain import commutator_residuals, gram_budget, ladder_residuals
from qgauss.verify import random_table


@pytest.mark.parametrize("suite", qg.SUITES)
def test_every_suite_passes_at_defaults(suite):
    result = qg.run_suite(suite)
    assert result.passed, (suite, result.max_deviation, result.failures[:3])
    assert result.max_deviation <= result.tolerance


@pytest.mark.parametrize("suite", [
    name for name, suite in verify._REGISTRY.items()
    if "ctx" in inspect.signature(suite).parameters])
def test_every_context_suite_echoes_the_digits_asked_for(suite):
    assert qg.run_suite(suite, QContext(q=0.5, digits=30)).params["digits"] == 30


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_sw_suite_passes_at_set_digits(q):
    # the bridge reference is evaluated point by point in the mp backend
    result = qg.run_suite("sw", QContext(q=q, digits=20))
    assert result.passed, result.failures[:3]
    assert result.notes["bridge_dev"] <= 1e-11


def test_unknown_suite():
    with pytest.raises(ValueError):
        qg.run_suite("fourier-gram")


@pytest.mark.parametrize("suite, size", [("ladders", {"nmax": 0}),
                                         ("commutators", {"count": 0})])
def test_a_suite_with_no_rows_is_an_error_not_a_pass(suite, size):
    with pytest.raises(ValueError, match="no rows"):
        qg.run_suite(suite, **size)


def test_result_serializes_to_json():
    result = qg.run_suite("dg-gram")
    text = json.dumps(result.to_dict())
    back = json.loads(text)
    assert back["suite"] == "dg-gram"
    assert back["passed"] is True
    assert back["params"]["nmax"] == 12


def test_commutator_on_seeded_chains():
    ctx = QContext(q=0.5)
    table = random_table(ctx, np.random.default_rng(12345), 5)
    for ladders in ((qg.arik_lower, qg.arik_raise),
                    (qg.mac_raise, qg.mac_lower)):
        [residuals] = commutator_residuals(ctx, [ladders], table)
        assert len(residuals) == 5 and max(residuals) <= 1e-13


def test_random_table_draws_1_to_8_terms_on_distinct_centers():
    ctx = QContext(q=0.5)
    start, rows = random_table(ctx, np.random.default_rng(2024), 2000)
    assert start == -4 and rows.shape == (2000, 9) and rows.dtype == complex
    live = rows != 0  # one column per twice-center -4..4
    sizes = live.sum(axis=1)
    assert sorted(set(sizes.tolist())) == list(range(1, 9))
    assert live.any(axis=0).all()
    again = random_table(ctx, np.random.default_rng(2024), 2000)
    assert again[0] == start and np.array_equal(again[1], rows)
    # at set digits: the same complexes, the integer 0 in the holes
    _, wide = random_table(QContext(q=0.5, digits=30),
                           np.random.default_rng(2024), 2000)
    assert wide.dtype == object and (wide == rows).all()
    assert all(type(a) is (complex if a else int) for a in wide.flat)
    # random_chain is the first row of the same draw
    f = random_chain(ctx, np.random.default_rng(2024))
    first = random_table(ctx, np.random.default_rng(2024), 1)
    assert dict(f.coeffs) == {t: a for t, a in
                              enumerate(first[1][0].tolist(), -4) if a}
    with pytest.raises(ValueError, match="no rows to check"):
        verify.suite_commutators(ctx, count=0)


def test_mac_gram_fails_at_starved_precision():
    result = qg.run_suite("mac-gram", ctx=QContext(q=0.5, digits=8), nmax=12)
    assert not result.passed
    assert "precision_analysis" in result.notes
    assert "digits" in result.notes["precision_analysis"]


def test_poisson_suite_uses_c():
    result = qg.run_suite("poisson", c=2.0)
    assert result.passed
    assert result.params["c"] == 2.0


def test_a_failing_poisson_suite_lists_its_row(monkeypatch):
    passing = qg.run_suite("poisson").to_dict()
    assert passing["failures"] == [] and passing["notes"] == {}
    monkeypatch.setattr(circle, "poisson_check", lambda c, grid: 1.0)
    result = qg.run_suite("poisson")
    assert not result.passed and result.max_deviation == 1.0
    assert result.failures == [["theta-sum", 1.0]]
    monkeypatch.setattr(circle, "poisson_check", lambda c, grid: math.nan)
    data = qg.run_suite("poisson").to_dict()
    assert not data["passed"] and data["max_deviation"] is None
    assert data["failures"] == [["theta-sum", None]]


def test_circle_mac_conjugated_variant_fails():
    # the phase-conjugated form is the classical relation, which is not
    # diagonal for this family; the suite must report that honestly
    result = qg.run_suite("circle-mac", ctx=QContext(q=0.5), nmax=3,
                          conjugate_first=True)
    assert not result.passed


@pytest.mark.parametrize("suite, kwargs, relative", [
    ("circle-dg", {"nmax": 6}, True), ("dg-gram", {"nmax": 14}, False),
    ("mac-gram", {"nmax": 6, "digits": 12}, False)])
def test_gram_suite_walks_the_deviations_once(monkeypatch, suite, kwargs,
                                              relative):
    calls, subtractions = [], []
    deviations = GramReport.deviations
    deviation_matrix = GramReport.deviation_matrix

    def counted(self, relative=False):
        calls.append(relative)
        return deviations(self, relative)

    def subtracted(self):
        subtractions.append(1)
        return deviation_matrix(self)

    ctx = QContext(q=0.43, digits=kwargs.pop("digits", None))
    monkeypatch.setattr(GramReport, "deviations", counted)
    monkeypatch.setattr(GramReport, "deviation_matrix", subtracted)
    result = qg.run_suite(suite, ctx, **kwargs)
    assert calls == [relative] and subtractions == [1]
    monkeypatch.undo()
    # the verdict is that of the report's own deviation measures
    if suite == "circle-dg":
        report = qg.circle_gram_dg(ctx, 6)
    elif suite == "dg-gram":
        report = qg.gram_phi(ctx, 14)
    else:
        report = qg.indefinite_gram(ctx, 6)
    expected = (report.max_relative_deviation() if relative
                else report.max_abs_deviation)
    assert result.max_deviation == float(expected)
    assert result.failures == [
        [i, j, float(dev)] for (i, j), dev
        in np.ndenumerate(report.deviations(relative))
        if dev > result.tolerance]


def test_failures_list_every_entry_above_tolerance():
    result = qg.run_suite("mac-gram", ctx=QContext(q=0.5, digits=8), nmax=12)
    assert result.failures
    assert max(dev for _, _, dev in result.failures) == result.max_deviation
    assert all(dev > result.tolerance for _, _, dev in result.failures)


@pytest.mark.parametrize("digits", [None, 25])
def test_family_tables_are_built_once_per_suite(monkeypatch, digits):
    ctx = QContext(q=0.61, digits=digits)
    built = []
    for module, name in ((dg, "build_phi"), (macfarlane, "build_Bn"),
                         (dg, "phi_table"), (macfarlane, "mac_table")):
        original = getattr(module, name)

        def counted(ctx, n, original=original, name=name):
            built.append((name, n))
            return original(ctx, n)
        monkeypatch.setattr(module, name, counted)
    # one table build per family, no chain built level by level
    sumrule = qg.run_suite("sumrule", ctx, nmax=6)
    assert built == [("phi_table", 6)]
    built.clear()
    ladders = qg.run_suite("ladders", ctx, nmax=6)
    assert sorted(built) == [("mac_table", 7), ("phi_table", 7)]
    monkeypatch.undo()
    assert sumrule.passed and ladders.passed
    # the same numbers as the one-level checks, and the sum rule within
    # the roundoff of the one-pair daughter sums, another summation order
    pairs = np.array([[one_pair_sum_rule(ctx, n, m) for m in range(7)]
                      for n in range(7)])
    gaps = abs(pairs - dg.daughter_sum_rules(ctx, 6)).astype(float)
    assert (gaps <= sum_rule_bound(ctx, 6)).all()
    assert abs(sumrule.max_deviation - float(np.max(abs(pairs - np.eye(7))))) \
        <= sum_rule_bound(ctx, 6).max()
    assert ladders.max_deviation == max(
        res[key] for n in range(1, 7)
        for res in (ladder_residuals(ctx, [n], dg.DG)[0],
                    ladder_residuals(ctx, [n], macfarlane.MAC)[0])
        for key in ("lower_residual", "raise_residual"))


def one_pair_sum_rule(ctx, n, m):
    """The normalized daughter coefficient sum of phi_n phi_m alone."""
    daughters = qg.product_daughters(qg.build_phi(ctx, n), qg.build_phi(ctx, m))
    return daughters.coefficient_sum() / qg.alpha(ctx) ** 2


@pytest.mark.parametrize("digits", [None, 25])
def test_sumrule_reads_the_one_daughter_gram(monkeypatch, digits):
    calls = []
    for name in ("phi_table", "gram_contract"):
        original = getattr(dg, name)

        def counted(*args, original=original, name=name):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(dg, name, counted)
    assert qg.run_suite("sumrule", QContext(q=0.61, digits=digits), nmax=6).passed
    assert calls == ["phi_table", "gram_contract"]


def test_a_nan_limits_row_fails_the_suite(monkeypatch):
    scan, lam = dg.harmonic_limit_scan, macfarlane.MAC.lam

    def nan_middle_row(family, n, c_list):
        rows = scan(family, n, c_list)
        if n == 0:
            rows[1]["dev"] = math.nan
        return rows
    monkeypatch.setattr(dg, "harmonic_limit_scan", nan_middle_row)
    result = qg.run_suite("limits")
    assert not result.passed
    assert [row[:3] for row in result.failures] == [["dg", 0, "flat-ratio"]]
    assert math.isnan(result.failures[0][3])
    monkeypatch.setattr(macfarlane, "MAC", dataclasses.replace(
        macfarlane.MAC, lam=lambda q, k: math.nan if k == 2 else lam(q, k)))
    result = qg.run_suite("limits")
    assert [row[:3] for row in result.failures] == [
        ["dg", 0, "flat-ratio"], ["mac", 2, "eigenvalue-gap"]]
    assert math.isnan(result.max_deviation)


def test_ladder_checks_match_single_levels():
    ctx = QContext(q=0.5)
    assert ladder_residuals(ctx, [2, 5], dg.DG) == (
        ladder_residuals(ctx, [2], dg.DG) + ladder_residuals(ctx, [5], dg.DG))
    assert ladder_residuals(ctx, range(1, 4), macfarlane.MAC) == [
        ladder_residuals(ctx, [n], macfarlane.MAC)[0] for n in range(1, 4)]
    assert ladder_residuals(ctx, [], dg.DG) == []
    with pytest.raises(ValueError):
        ladder_residuals(ctx, [0, 1], dg.DG)


@pytest.mark.parametrize("digits", [20, 40])
def test_sw_bridge_follows_the_digits(digits):
    plain = qg.run_suite("sw", QContext(q=0.5)).notes
    result = qg.run_suite("sw", QContext(q=0.5, digits=digits))
    assert result.notes["bridge_dev"] <= plain["bridge_dev"] * 1e-15


def test_a_nan_sw_row_fails_the_suite_and_is_written_as_null(monkeypatch):
    # at q = 0.001 the u-form of P_10 leaves the double range: its bridge
    # row is NaN, and the suite fails on it whatever the headline reads
    result = qg.run_suite("sw", QContext(q=0.001), nmax=10)
    assert not result.passed
    assert [row[:2] for row in result.failures] == [["bridge", 10]]
    assert math.isnan(result.failures[0][2])
    assert result.max_deviation <= result.tolerance
    data = json.loads(json.dumps(result.to_dict(), allow_nan=False))
    assert data["failures"] == [["bridge", 10, None]]
    assert data["notes"]["bridge_dev"] is None
    # a NaN quadrature row fails too, and the headline carries it
    monkeypatch.setattr(dg, "sw_orthogonality", lambda *args: math.nan)
    result = qg.run_suite("sw", QContext(q=0.5))
    assert [row[:3] for row in result.failures] == [
        ["quadrature", 0, 1], ["quadrature", 1, 2], ["quadrature", 2, 4]]
    assert math.isnan(result.max_deviation)
    assert result.to_dict()["notes"]["quadrature_dev"] is None


@pytest.mark.parametrize("suite, stages", [
    ("degeneracy", ["quadrature"]), ("sw", ["quadrature"]),
    ("gamma", ["weight_orthonormalization"]),
])
def test_set_digits_name_the_stages_that_stay_double(suite, stages):
    # a stage that runs in double whatever the digits is named at set
    # digits, and only there
    assert "double_stages" not in qg.run_suite(suite, QContext(q=0.5)).notes
    result = qg.run_suite(suite, QContext(q=0.5, digits=20))
    assert result.notes["double_stages"] == stages


def test_degeneracy_integrates_distinct_pairs_and_a_norm(monkeypatch):
    # with every quadrature entry at 10, each pair is a failure row
    monkeypatch.setattr(verify, "_weighted_quadrature_entry",
                        lambda *args: 10.0)
    result = qg.run_suite("degeneracy", QContext(q=0.5))
    pairs = [tuple(row[1:3]) for row in result.failures
             if row[0] == "quadrature"]
    assert len(pairs) == len(set(pairs)) == 6
    assert any(n == m for n, m in pairs)


@pytest.mark.parametrize("seed", [12345, 7])
@pytest.mark.parametrize("q", [0.3, 0.61, 0.95])
def test_degeneracy_integrates_the_chains_of_build_an_bit_for_bit(
        q, seed, monkeypatch):
    # the suite builds only the drawn degrees, from one phi table and one
    # alpha_w / alpha; each quadrature value is the one weights.build_An's
    # chains give
    ctx, weight = QContext(q=q), weights.cosine_weight(0.3)
    entry, values = verify._weighted_quadrature_entry, []

    def recorded(*args):
        values.append(entry(*args))
        return values[-1]
    monkeypatch.setattr(verify, "_weighted_quadrature_entry", recorded)
    assert qg.run_suite("degeneracy", ctx, seed=seed).passed
    family = [weights.build_An(ctx, weight, n).chain for n in range(9)]
    ref = [entry(ctx, weight, family[n], family[m]) for n, m in
           verify._quadrature_pairs(np.random.default_rng(seed), 8, 6)]
    assert np.array(values).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("q", [0.9, 0.95, 0.97, 0.99])
def test_degeneracy_passes_in_double_near_q_one(q):
    # every row integrates the weight; nothing re-checks the dg Gram,
    # whose double roundoff fails from q 0.9
    result = qg.run_suite("degeneracy", QContext(q=q))
    assert result.passed, result.failures
    assert result.max_deviation == result.notes["quadrature_dev"] < 1e-9


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99])
def test_degeneracy_fails_a_misnormalised_weighted_family(q, monkeypatch):
    # A_n scaled by 1 + 1e-6 moves each norm by 2e-6 and leaves the
    # distinct pairs near 0: exactly the norm rows fail
    alpha_w = weights.alpha_w
    monkeypatch.setattr(weights, "alpha_w",
                        lambda w, ctx: alpha_w(w, ctx) * (1 + 1e-6))
    result = qg.run_suite("degeneracy", QContext(q=q))
    assert not result.passed
    assert result.failures and all(row[0] == "quadrature" and row[1] == row[2]
                                   for row in result.failures)
    assert result.max_deviation == pytest.approx(2e-6, rel=1e-3)


def test_sumrule_gap_is_taken_below_double_resolution():
    result = qg.run_suite("sumrule", QContext(q=0.5, digits=40))
    assert result.passed
    assert result.max_deviation <= 1e-40


def test_mac_gram_budget_is_evaluated_once(monkeypatch):
    from qgauss import verify
    calls = []
    budget = verify.gram_budget

    def counted(*args):
        calls.append(args[-2:])
        return budget(*args)

    monkeypatch.setattr(verify, "gram_budget", counted)
    result = qg.run_suite("mac-gram", QContext(q=0.4),
                          nmax=macfarlane.EXACT_NMAX + 1)
    monkeypatch.undo()
    assert calls == [(1e-20, None)]
    assert result.params["digits"] == result.notes["auto_digits"] > 0


def test_mac_gram_keeps_the_exact_double_gram_at_small_sizes():
    # up to EXACT_NMAX the double Gram's exact integer sums need no
    # budget: every entry is exact, so the deviation is zero at any q
    for q in (0.05, 0.2, 0.46, 0.6, 0.95):
        result = qg.run_suite("mac-gram", QContext(q=q),
                              nmax=macfarlane.EXACT_NMAX)
        assert result.params["digits"] is None
        assert result.notes["auto_digits"] is None
        assert result.max_deviation == 0.0 == result.notes["floor"]
    past = qg.run_suite("mac-gram", QContext(q=0.6),
                        nmax=macfarlane.EXACT_NMAX + 1)
    assert past.passed
    assert past.notes["auto_digits"] == past.params["digits"] > 0


def test_mac_gram_explicit_digits_win():
    result = qg.run_suite("mac-gram", QContext(q=0.5, digits=40), nmax=12)
    assert result.passed
    assert result.params["digits"] == 40
    assert result.notes["auto_digits"] is None
    assert result.max_deviation <= result.notes["floor"]


def test_mac_gram_notes_are_strict_json_past_the_double_range():
    # the terms at q = 0.05, nmax = 16 reach ~1e400, beyond a double
    for digits in (None, 20):
        result = qg.run_suite("mac-gram", QContext(q=0.05, digits=digits),
                              nmax=16)
        json.dumps(result.to_dict(), allow_nan=False)
    assert result.notes["floor"] > 1 and "precision_analysis" in result.notes
    assert qg.run_suite("mac-gram", QContext(q=0.21), nmax=16).passed


def test_budgeted_grams_reach_their_predicted_floor():
    # at the digits the budget picks, every mac-gram and circle-mac case
    # keeps 12 digits under its tolerance, and the predicted floor bounds
    # the deviation reached without overstating it by much
    gaps = []
    # mac-gram budgets only past EXACT_NMAX
    past = macfarlane.EXACT_NMAX + 2
    for q in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for nmax in (4, 8, 12, 16, past):
            for suite, kwargs in (("mac-gram", {}),
                                  ("circle-mac", {"points": 128}),
                                  ("circle-mac", {"points": 512})):
                if nmax == past and suite != "mac-gram":
                    continue
                # in double circle-mac takes its exact route, so it runs
                # at the digits its budget picks
                digits = None if suite == "mac-gram" else gram_budget(
                    *circle.circle_mac_magnitudes(q, nmax, **kwargs),
                    circle.MAC_TOL)[1]
                result = qg.run_suite(suite, QContext(q=q, digits=digits),
                                      nmax=nmax, **kwargs)
                case = (suite, q, nmax, kwargs)
                assert result.passed, case
                assert result.max_deviation <= result.tolerance * 1e-12, case
                if result.max_deviation:
                    assert result.max_deviation <= result.notes["floor"], case
                    gaps.append(math.log10(result.notes["floor"]
                                           / result.max_deviation))
    assert statistics.median(gaps) <= 3
