import json

import pytest

import qgauss as qg
from qgauss import GramReport


@pytest.fixture
def report():
    return GramReport(labels=[0, 1],
                      matrix=[[1.0, 0.001], [0.002, 4.0]],
                      target=[[1.0, 0.0], [0.0, 4.0]],
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
    for relative in (False, True):
        worst, entries = report.deviations(relative)
        assert entries == report.entry_deviations(relative)
        assert worst == max(dev for _, _, dev in entries)


@pytest.mark.parametrize("build, digits", [("circle_gram_dg", None),
                                           ("indefinite_gram", 30),
                                           ("circle_gram_mac", 30)])
def test_to_dict_walks_the_deviations_once(monkeypatch, build, digits):
    rep = getattr(qg, build)(qg.QContext(q=0.43, digits=digits), 6)
    # the relative measure as first defined, entry by entry
    expected = []
    for i, (row, trow) in enumerate(zip(rep.matrix, rep.target)):
        for j, (v, t) in enumerate(zip(row, trow)):
            scl = (abs(rep.target[i][i]) * abs(rep.target[j][j])) ** 0.5
            expected.append((i, j, abs(v - t) / scl if scl > 0 else abs(v - t)))
    assert rep.entry_deviations(True) == expected
    expected_rel = max(dev for _, _, dev in expected)
    expected_abs = max(abs(v - t) for row, trow in zip(rep.matrix, rep.target)
                       for v, t in zip(row, trow))
    walks = []
    original = GramReport.entry_deviations

    def counted(self, relative=False):
        walks.append(relative)
        return original(self, relative)

    monkeypatch.setattr(GramReport, "entry_deviations", counted)
    data = rep.to_dict()
    assert walks == [False]
    assert data["max_abs_deviation"] == float(expected_abs)
    assert data["max_relative_deviation"] == float(expected_rel)
    assert data["max_relative_deviation"] > 0
