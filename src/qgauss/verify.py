"""Named verification suites with documented tolerances.

Each suite runs one block of the library's identity checks and returns a
SuiteResult whose pass/fail decision is the measured deviation against
the suite's documented tolerance; the offending indices always travel
with the result so a failure is diagnosable from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .context import QContext
from .chain import (alpha, commutator_residuals, evaluate, gram_budget,
                    integer_chain, ladder_residuals, scale)
from . import circle as circle_mod
from . import dg as dg_mod
from . import macfarlane as mac_mod
from . import weights as weights_mod
from .quad import integrate_real_line
from .report import GramReport

# the oscillator families by name, in the order the suites report them
FAMILIES = {family.name: family for family in (dg_mod.DG, mac_mod.MAC)}


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    tolerance: float
    max_deviation: float
    params: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON-ready result; a non-finite deviation, here or in a
        failure row, is written as null so the report stays strict JSON."""
        return {
            "suite": self.suite,
            "passed": bool(self.passed),
            "tolerance": float(self.tolerance),
            "max_deviation": _finite(float(self.max_deviation)),
            "params": dict(self.params),
            "failures": [[_finite(x) for x in row] for row in self.failures],
            "notes": dict(self.notes),
        }


def _finite(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _worst(devs) -> float:
    """The largest deviation, 0.0 when there is none, NaN once one is."""
    return float(np.max(np.asarray(devs, dtype=float), initial=0.0))


def _judge(name: str, tol: float, devs, params: dict,
           notes: dict | None = None, label=tuple) -> SuiteResult:
    """Hold every entry of the array devs to the one tolerance tol: the
    result lists each one not <= tol, NaN included, in row-major order as
    [*label(index), deviation], index the list of the entry's indices,
    and carries _worst(devs). No deviations is a ValueError."""
    devs = np.asarray(devs, dtype=float)
    if not devs.size:
        raise ValueError(f"suite {name} has no rows to check")
    failing = ~(devs <= tol)
    failures = [[*label(index), dev] for index, dev in zip(
        np.argwhere(failing).tolist(), devs[failing].tolist())]
    return SuiteResult(name, not failures, tol, _worst(devs), params=params,
                       failures=failures, notes={} if notes is None else notes)


def _gram_suite(name: str, report: GramReport, tol: float, params: dict,
                relative: bool = False, notes: dict | None = None) -> SuiteResult:
    return _judge(name, tol, report.deviations(relative), params,
                  report.notes if notes is None else notes)


def suite_dg_gram(ctx: QContext, nmax: int = 12) -> SuiteResult:
    tol = 1e-10 if nmax <= 12 else 1e-6
    return _gram_suite("dg-gram", dg_mod.gram_phi(ctx, nmax), tol,
                       {"q": float(ctx.q), "nmax": nmax, "digits": ctx.digits})


def suite_mac_gram(ctx: QContext, nmax: int = 5) -> SuiteResult:
    """The twisted Gram at the context's digits or, unset, in exact double
    sums up to mac_mod.EXACT_NMAX and past it at chain.gram_budget's digits
    for tol; the notes set the predicted floor next to the deviation."""
    tol = 1e-8 if nmax <= 10 else 1e-20
    log_condition, digits, floor = gram_budget(
        *mac_mod.twisted_gram_magnitudes(float(ctx.q), nmax), tol, ctx.digits)
    if ctx.digits is None and nmax <= mac_mod.EXACT_NMAX:
        digits, floor = None, 0.0
    auto = None if ctx.digits is not None else digits
    ctx = ctx.with_digits(digits)
    report = mac_mod.indefinite_gram(ctx, nmax)
    notes = {**report.notes, "auto_digits": auto,
             "log10_condition": round(log_condition, 2), "floor": floor}
    result = _gram_suite("mac-gram", report, tol,
                         {"q": float(ctx.q), "nmax": nmax, "digits": digits},
                         notes=notes)
    if not result.passed and digits is not None:  # exact sums have no floor
        near = "past the double range" if floor is None else f"near {floor:.1e}"
        notes["precision_analysis"] = (
            f"The Gram sums cancel terms up to 1e{log_condition:.1f} times "
            f"their result; at {digits} digits roundoff floors the deviation "
            f"{near}, and it reached {result.max_deviation:.1e} against the "
            f"{tol:g} tolerance. Leave --digits unset for the budget's choice.")
    return result


def suite_ladders(ctx: QContext, nmax: int = 10) -> SuiteResult:
    keys = ("lower_residual", "raise_residual")
    checks = [ladder_residuals(ctx, range(1, nmax + 1), family)
              for family in FAMILIES.values()]
    devs = np.array([[[res[key] for key in keys] for res in level]
                     for level in zip(*checks)])
    return _judge("ladders", 1e-11, devs, {"q": float(ctx.q), "nmax": nmax,
                                           "digits": ctx.digits},
                  label=lambda i: (list(FAMILIES)[i[1]], i[0] + 1, keys[i[2]]))


def random_table(ctx: QContext, rng: np.random.Generator,
                 count: int) -> tuple:
    """count random complex chains of 1 to 8 terms on twice-centers in
    [-4, 4], small so that commutator residuals stay meaningful in double,
    as one table (start, rows) for chain.commutator_residuals. Three draws
    make the whole table: each row's term count, uniform numbers whose
    ranks below that count pick its centers, and standard normal real and
    imaginary parts. In double rows is complex; at set digits an object
    array of the same complexes with the integer 0 in its holes."""
    nterms = rng.integers(1, 9, size=count)
    ranks = rng.random((count, 9)).argsort(axis=1).argsort(axis=1)
    values = rng.standard_normal((count, 9, 2)).view(complex)[..., 0]
    if ctx.is_mp:
        values = values.astype(object)
    return -4, np.where(ranks < nterms[:, None], values, 0)


def suite_commutators(ctx: QContext, count: int = 20,
                      seed: int = 12345) -> SuiteResult:
    """The commutator residuals of the count chains of one random_table,
    checked for both families on that one table."""
    table = random_table(ctx, np.random.default_rng(seed), count)
    devs = np.stack(commutator_residuals(
        ctx, [family.relation for family in FAMILIES.values()], table), axis=1)
    return _judge("commutators", 1e-13, devs,
                  {"q": float(ctx.q), "count": count, "seed": seed,
                   "digits": ctx.digits},
                  label=lambda i: (list(FAMILIES)[i[1]], i[0]))


def suite_circle_dg(ctx: QContext, nmax: int = 8,
                    points: int = 512) -> SuiteResult:
    return _gram_suite("circle-dg", circle_mod.circle_gram_dg(ctx, nmax, points),
                       1e-9, {"q": float(ctx.q), "nmax": nmax, "points": points,
                              "digits": ctx.digits}, relative=True)


def suite_circle_mac(ctx: QContext, nmax: int = 5, points: int = 512,
                     conjugate_first: bool = False) -> SuiteResult:
    report = circle_mod.circle_gram_mac(ctx, nmax, points, conjugate_first)
    return _gram_suite("circle-mac", report, circle_mod.MAC_TOL,
                       {"q": float(ctx.q), "nmax": nmax, "points": points,
                        "conjugate_first": conjugate_first,
                        "digits": ctx.digits}, relative=True)


def suite_poisson(c: float = 1.0, grid_points: int = 17) -> SuiteResult:
    dev = circle_mod.poisson_check(c, np.linspace(0.0, 1.0, grid_points))
    return _judge("poisson", 1e-12, [dev],
                  {"c": float(c), "grid_points": grid_points},
                  label=lambda i: ("theta-sum",))


def suite_limits(nmax: int = 4) -> SuiteResult:
    """Small-c limit behavior: the even-part ratio deviation must be flat
    for n = 0, shrink monotonically with an O(c^2) step ratio for n >= 1,
    and the second family's eigenvalues must sit within 0.05 of -n at
    c = 0.05."""
    c_list = [0.2, 0.1, 0.05]
    eig_tol = 0.05
    ratio_window = (0.15, 0.40)
    failures = []
    rows = {}
    gaps = []
    for n in range(nmax + 1):
        scan = dg_mod.harmonic_limit_scan(dg_mod.DG, n, c_list)
        devs = [row["dev"] for row in scan]
        rows[str(n)] = scan
        if n == 0:
            flat = _worst(devs)
            if not flat <= 1e-12:
                failures.append(["dg", n, "flat-ratio", flat])
        else:
            if not devs[0] > devs[1] > devs[2]:
                failures.append(["dg", n, "monotone", [float(d) for d in devs]])
            step = devs[2] / devs[1]
            if not ratio_window[0] <= step <= ratio_window[1]:
                failures.append(["dg", n, "step-ratio", float(step)])
        q = math.exp(-0.05 ** 2)
        gaps.append(abs(mac_mod.MAC.sign * mac_mod.MAC.lam(q, n) + n))
        if not gaps[-1] <= eig_tol:
            failures.append(["mac", n, "eigenvalue-gap", float(gaps[-1])])
    return SuiteResult("limits", not failures, eig_tol, _worst(gaps),
                       params={"nmax": nmax, "c_list": c_list,
                               "ratio_window": list(ratio_window)},
                       failures=failures, notes={"scans": rows})


def _weighted_quadrature_entry(ctx: QContext, weight, fn, gm) -> complex:
    def integrand(x):
        wvals = weight.evaluate(x)
        return (np.conj(wvals) * wvals * np.conj(evaluate(fn, x))
                * evaluate(gm, x))
    return integrate_real_line(integrand, ctx, tol=1e-12)


def _quadrature_pairs(rng: np.random.Generator, nmax: int,
                      count: int) -> list:
    """count pairs (n, m) in [0, nmax] drawn from rng, repeats dropped, and
    (n, n) for the lowest degree n drawn when none is diagonal, so that a
    norm is always among them: a low degree keeps its norm integrand
    inside the rule's first window."""
    drawn = [(int(rng.integers(0, nmax + 1)), int(rng.integers(0, nmax + 1)))
             for _ in range(count)]
    pairs = list(dict.fromkeys(drawn))
    if pairs and all(n != m for n, m in pairs):
        low = min(min(pair) for pair in pairs)
        pairs.append((low, low))
    return pairs


def suite_degeneracy(ctx: QContext, nmax: int = 8,
                     quad_pairs: int = 6, seed: int = 12345) -> SuiteResult:
    """Weighted orthonormality for w = 1 + 0.3 cos(4 pi x): for a seeded
    sample of pairs, the real-line quadrature of |w|^2 A_n* A_m must be
    delta_nm. Only a quadrature sees the weight: in closed form its norm
    cancels against alpha_w, leaving the unweighted Gram."""
    weight = weights_mod.cosine_weight(0.3)
    pairs = _quadrature_pairs(np.random.default_rng(seed), nmax, quad_pairs)
    double = ctx.with_digits(None)  # the rule integrates in double
    factor = weights_mod.alpha_w(weight, double) / alpha(double)
    rows = dg_mod.phi_table(double, max(map(max, pairs), default=0))
    A = {n: scale(integer_chain(double, rows[n]), factor)
         for n in {n for pair in pairs for n in pair}}
    quadrature, errors = [], []
    for n, m in pairs:
        try:
            value = _weighted_quadrature_entry(double, weight, A[n], A[m])
        except RuntimeError as exc:  # the rule ran out of points
            value = math.nan
            errors.append([n, m, str(exc)])
        quadrature.append(abs(value - (1.0 if n == m else 0.0)))
    notes = {"quadrature_dev": _finite(_worst(quadrature))}
    if errors:
        notes["quadrature_errors"] = errors
    if ctx.is_mp:
        notes["double_stages"] = ["quadrature"]
    return _judge("degeneracy", 1e-9, quadrature,
                  {"q": float(ctx.q), "nmax": nmax, "seed": seed,
                   "digits": ctx.digits}, notes,
                  lambda i: ("quadrature", *pairs[i[0]]))


def suite_gamma(ctx: QContext, nweights: int = 3, nmax: int = 6) -> SuiteResult:
    return _gram_suite("gamma", weights_mod.gamma_family_gram(ctx, nweights, nmax),
                       1e-8, {"q": float(ctx.q), "nweights": nweights,
                              "nmax": nmax, "digits": ctx.digits})


def suite_sumrule(ctx: QContext, nmax: int = 10) -> SuiteResult:
    report = GramReport(labels=list(range(nmax + 1)),
                        matrix=dg_mod.daughter_sum_rules(ctx, nmax),
                        target=np.eye(nmax + 1), precision_digits=ctx.digits)
    return _gram_suite("sumrule", report, 1e-12,
                       {"q": float(ctx.q), "nmax": nmax, "digits": ctx.digits})


def suite_sw(ctx: QContext, nmax: int = 6, s=0.5) -> SuiteResult:
    """Substitution bridge (pointwise, relative 1e-11) and the normalized
    du-measure orthogonality (1e-6), analytic and by quadrature (1e-9)
    against the analytic overlaps of dg.sw_gram. Each row fails unless its
    deviation is within its own tolerance, NaN included; the headline
    deviation covers the orthogonality and quadrature rows."""
    bridge = [dg_mod.sw_bridge_residual(ctx, n, s) for n in range(nmax + 1)]
    report = dg_mod.sw_gram(ctx, nmax)
    orth = _worst(report.deviations(True))
    G = report.matrix
    pairs = [(n, m) for n, m in ((0, 1), (1, 2), (2, 4)) if m <= nmax]
    quad = []
    for n, m in pairs:
        num = dg_mod.sw_orthogonality(ctx, n, m, s, "du", "quadrature")
        quad.append(float(abs(G[n, m] - num)
                          / math.sqrt(abs(G[n, n] * G[m, m]))))
    checks = ([(["bridge", n], dev, 1e-11) for n, dev in enumerate(bridge)]
              + [(["orthogonality"], orth, 1e-6)]
              + [(["quadrature", *pair], dev, 1e-9)
                 for pair, dev in zip(pairs, quad)])
    failures = [[*label, dev] for label, dev, tol in checks
                if not dev <= tol]
    notes = {"bridge_dev": _finite(_worst(bridge)),
             "orthogonality_dev": _finite(orth),
             "quadrature_dev": _finite(_worst(quad))}
    if ctx.is_mp:  # the quadrature cross-check runs on a double grid
        notes["double_stages"] = ["quadrature"]
    return SuiteResult("sw", not failures, 1e-6, _worst([orth, *quad]),
                       params={"q": float(ctx.q), "nmax": nmax,
                               "s": float(s), "digits": ctx.digits},
                       failures=failures, notes=notes)


_REGISTRY = {"dg-gram": suite_dg_gram, "mac-gram": suite_mac_gram,
             "ladders": suite_ladders, "commutators": suite_commutators,
             "circle-dg": suite_circle_dg, "circle-mac": suite_circle_mac,
             "poisson": suite_poisson, "limits": suite_limits,
             "degeneracy": suite_degeneracy, "gamma": suite_gamma,
             "sumrule": suite_sumrule, "sw": suite_sw}
SUITES = tuple(_REGISTRY)


def run_suite(name: str, ctx: QContext | None = None, **kwargs) -> SuiteResult:
    """Dispatch a suite by name with its documented defaults.

    A suite receives the keyword arguments that its signature names and
    that are not None, so one set of flags can drive every suite. ctx
    defaults to QContext(q=0.5) at kwargs["digits"]; poisson's c to ctx.c.
    """
    if name not in _REGISTRY:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    suite = _REGISTRY[name]
    params = suite.__code__.co_varnames[:suite.__code__.co_argcount]
    args = {k: v for k, v in kwargs.items() if k in params and v is not None}
    if "ctx" in params:
        args["ctx"] = ctx or QContext(q=0.5, digits=kwargs.get("digits"))
    elif "c" in params and "c" not in args and ctx is not None:
        args["c"] = float(ctx.c)
    return suite(**args)
