import json

import numpy as np
import pytest

import qgauss as qg
from qgauss import GramReport


@pytest.fixture
def report():
    return GramReport(labels=[0, 1],
                      matrix=np.array([[1.0, 0.001], [0.002, 4.0]]),
                      target=np.array([[1.0, 0.0], [0.0, 4.0]]),
                      notes={"family": "demo"})


def test_deviations(report):
    assert report.max_abs_deviation == pytest.approx(0.002)
    # off-diagonal scale sqrt(1 * 4) = 2
    assert report.max_relative_deviation() == pytest.approx(0.001)


def test_worst_entries_ordering(report):
    worst = report.worst_entries(2)
    assert worst[0][:2] == (1, 0)
    assert worst[1][:2] == (0, 1)


def test_deviation_recomputed_not_cached(report):
    report.matrix[0][1] = 0.5
    assert report.max_abs_deviation == pytest.approx(0.5)


def test_to_dict_is_json_ready(report):
    data = report.to_dict()
    text = json.dumps(data)
    back = json.loads(text)
    assert back["max_abs_deviation"] == pytest.approx(0.002)
    assert back["precision_digits"] is None
    assert back["notes"] == {"family": "demo"}


def test_deviations_pairs_the_largest_with_the_entries(report):
    assert report.deviations().tolist() == [[0.0, 0.001], [0.002, 0.0]]
    # entry (i, j) over sqrt(|T_ii| |T_jj|): 1, 2, 2 and 4
    assert report.deviations(True).tolist() == [[0.0, 0.0005], [0.001, 0.0]]
    for relative in (False, True):
        assert (report.max_relative_deviation() if relative
                else report.max_abs_deviation) == report.deviations(
                    relative).max()


# every GramReport builder at nmax 6, as (ctx, nmax) -> report
BUILDERS = {
    "gram_phi": qg.gram_phi,
    "indefinite_gram": qg.indefinite_gram,
    "circle_gram_dg": qg.circle_gram_dg,
    "circle_gram_mac": qg.circle_gram_mac,
    "parseval_bridge": qg.parseval_bridge,
    "gamma_family_gram": lambda ctx, nmax: qg.gamma_family_gram(ctx, 2, nmax),
}


@pytest.mark.parametrize("digits", [None, 30])
@pytest.mark.parametrize("build", list(BUILDERS))
def test_to_dict_walks_the_deviations_once(monkeypatch, build, digits):
    rep = BUILDERS[build](qg.QContext(q=0.43, digits=digits), 6)
    # both measures as first defined, entry by entry; the relative scale
    # sqrt(|T_ii| |T_jj|) is the product of the two diagonal roots
    M, T = rep.matrix.tolist(), rep.target.tolist()
    size = len(M)
    absolute = [[abs(M[i][j] - T[i][j]) for j in range(size)]
                for i in range(size)]
    relative = []
    for i in range(size):
        relative.append([])
        for j in range(size):
            ti, tj = abs(T[i][i]), abs(T[j][j])
            scl = ti ** 0.5 * tj ** 0.5
            dev = absolute[i][j]
            relative[-1].append(dev / scl if scl > 0 else dev)
    assert rep.deviations().tolist() == absolute
    assert rep.deviations(True).tolist() == relative
    calls, subtractions = [], []
    deviations = GramReport.deviations
    deviation_matrix = GramReport.deviation_matrix

    def counted(self, relative=False):
        calls.append(relative)
        return deviations(self, relative)

    def subtracted(self):
        subtractions.append(1)
        return deviation_matrix(self)

    monkeypatch.setattr(GramReport, "deviations", counted)
    monkeypatch.setattr(GramReport, "deviation_matrix", subtracted)
    data = rep.to_dict()
    assert calls == [False] and subtractions == [1]
    assert data["max_abs_deviation"] == float(max(map(max, absolute)))
    assert data["max_relative_deviation"] == float(max(map(max, relative)))
    assert data["matrix"] == [[float(v) for v in row] for row in M]
    assert data["target"] == [[float(v) for v in row] for row in T]


def test_a_relative_deviation_past_the_squared_range_still_shows():
    # at q = 0.01 circle-dg's diagonal target reaches 9.9e159 at n = 80:
    # the product T_ii T_jj overflows a double, the product of the roots
    # does not, so a doubled entry reads as a relative deviation of 1
    rep = qg.circle_gram_dg(qg.QContext(q=0.01), 80)
    assert abs(rep.target[80, 80]) > 1e154
    rep.matrix[80, 80] *= 2
    assert rep.deviations(True)[80, 80] == pytest.approx(1.0, rel=1e-12)
    assert rep.max_relative_deviation() == pytest.approx(1.0, rel=1e-12)


def test_non_finite_values_are_written_as_null():
    # at q = 0.01 the diagonal q^{-n(n-1)/2} (q, q)_n passes the double
    # range near n = 20; the working digits carry it, a double cannot
    rep = qg.circle_gram_mac(qg.QContext(q=0.01), 20)
    data = rep.to_dict()
    json.dumps(data, allow_nan=False)
    assert data["matrix"][20][20] is None and data["target"][20][20] is None
    assert 0 < data["max_relative_deviation"] < 1e-8
    assert data["matrix"][0][0] == float(rep.matrix[0][0])
