"""Each suite's measured domain, as a checked record.

The record holds the verdict of every suite at its default size in double
at each q of Q, of limits at nmax 4 to 7, of degeneracy at q 0.99 over
seeds 1 to 5, and of the set-digit cells of the failure table in
ROADMAP.md. It states measured behaviour; it is not a bound. A change
that mends a cell or breaks one updates the record and says why in
CHANGES.md.

An edge cell sits within EDGE_DIGITS of its tolerance, on either side. A
libm or numpy build can move one with no code change, so the failure
message says of each flipped cell whether it is an edge cell.
"""

import math

from qgauss import SUITES, QContext, run_suite

Q = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.83, 0.85,
     0.9, 0.95, 0.99)

# the q of Q at which each suite fails at its default size in double; it
# passes at every other q of Q
FAILS_IN_DOUBLE = {
    "dg-gram": (0.83, 0.85, 0.9, 0.95, 0.99),
    "mac-gram": (),
    "ladders": (0.95, 0.99),
    "commutators": (0.01, 0.05, 0.1, 0.2),
    "circle-dg": (0.9, 0.95, 0.99),
    "circle-mac": (),
    "poisson": (),
    "degeneracy": (),
    "gamma": (0.99,),
    "sumrule": (0.75, 0.8, 0.83, 0.85, 0.9, 0.95, 0.99),
    "sw": (0.95, 0.99),
}

# a cell is (suite, q, digits, keyword arguments); limits takes no q
RECORD = {(suite, q, None, ()): q not in fails
          for suite, fails in FAILS_IN_DOUBLE.items() for q in Q}
# limits fails at nmax 6 on the mac eigenvalue gap, and at 7 also on the
# dg "monotone" and "step-ratio" rows
RECORD.update({("limits", None, None, (("nmax", nmax),)): nmax <= 5
               for nmax in range(4, 8)})
# degeneracy at q 0.99: the pair (8, 0) fails with seeds 4 and 5
RECORD.update({("degeneracy", 0.99, None, (("seed", seed),)): seed <= 3
               for seed in range(1, 6)})
RECORD.update({
    ("dg-gram", 0.83, 20, ()): True,
    ("dg-gram", 0.99, 30, ()): True,
    ("sumrule", 0.99, 30, ()): True,
    # in double B_15 leaves the range at q 0.01: a NaN deviation fails
    ("ladders", 0.01, None, (("nmax", 15),)): False,
    ("ladders", 0.01, 30, (("nmax", 15),)): True,
    ("ladders", 0.99, 30, ()): True,
    ("commutators", 0.01, 30, ()): True,
    ("circle-dg", 0.9, 30, ()): True,
    ("circle-dg", 0.95, 30, ()): True,
    ("circle-dg", 0.99, 30, ()): True,
    # the quadrature runs in double whatever the digits
    ("degeneracy", 0.99, 30, (("seed", 4),)): False,
    ("degeneracy", 0.99, 30, (("seed", 5),)): False,
    ("sw", 0.95, 30, ()): True,
    ("sw", 0.99, 30, ()): True,
    ("gamma", 0.99, 30, ()): True,
})

EDGE_DIGITS = 0.3

# the cells within EDGE_DIGITS of their tolerance, with the headroom in
# digits measured when the record was taken
EDGE = {
    ("ladders", 0.9, None, ()): 0.26,
    ("commutators", 0.3, None, ()): 0.23,
    ("commutators", 0.99, None, ()): 0.16,
    ("degeneracy", 0.99, None, ()): 0.24,
    ("degeneracy", 0.99, None, (("seed", 3),)): 0.24,
    ("limits", None, None, (("nmax", 4),)): 0.30,
    ("limits", None, None, (("nmax", 5),)): 0.12,
    ("dg-gram", 0.83, None, ()): -0.29,
    ("limits", None, None, (("nmax", 6),)): -0.02,
    ("limits", None, None, (("nmax", 7),)): -0.15,
}

# sw judges each of its rows against a tolerance of its own
SW_ROWS = (("bridge_dev", 1e-11), ("orthogonality_dev", 1e-6),
           ("quadrature_dev", 1e-9))


def _digits(tol: float, dev) -> float:
    """log10(tol / dev): inf for no deviation, -inf for a NaN or null one."""
    if dev is None or dev != dev:
        return -math.inf
    return math.log10(tol / dev) if dev else math.inf


def headroom(result) -> float:
    """The digits between a suite's deviation and its tolerance, on its
    tightest row for sw; negative for a failing cell."""
    if result.suite == "sw":
        return min(_digits(tol, result.notes[key]) for key, tol in SW_ROWS)
    return _digits(result.tolerance, result.max_deviation)


def run_cell(cell):
    suite, q, digits, kwargs = cell
    ctx = None if q is None else QContext(q=q, digits=digits)
    return run_suite(suite, ctx, **dict(kwargs))


def test_the_record_covers_every_suite():
    assert set(FAILS_IN_DOUBLE) | {"limits"} == set(SUITES)
    assert set(EDGE) <= set(RECORD)


def test_every_verdict_equals_the_record():
    flips = []
    for cell, recorded in RECORD.items():
        result = run_cell(cell)
        if result.passed != recorded:
            edge = f"an edge cell ({EDGE[cell]:+.2f} digits when recorded)" \
                if cell in EDGE else "not an edge cell"
            flips.append(f"{cell}: recorded {'pass' if recorded else 'fail'}, "
                         f"now {'pass' if result.passed else 'fail'} at "
                         f"{headroom(result):+.2f} digits; {edge}")
    assert not flips, "\n".join(flips)
