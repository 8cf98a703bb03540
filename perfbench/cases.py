"""Seeded case lists for the qgauss benchmark, and the checks that decide
whether each case passed.

A workload is an endless stream of passes; a pass is one list of cases.
Every case carries the deformation parameter q it runs at, drawn from the
workload's seed as a full-mantissa double (round values such as 0.5 take
cheaper exact-Fraction paths in `macfarlane`). Each case kind draws q from
its own range, the range over which that identity holds in the seed's
arithmetic, so that no case fails at the seed; README.md maps where the
seed fails outside those ranges.

A case fails when it raises, when its verdict says `passed: false`, when
its deviation exceeds the tolerance its suite documents, or when CLI
output does not parse to the expected schema.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

import qgauss
from qgauss import cli

# Headroom credited to a case whose deviation is exactly zero (and the cap
# for every other case), in decimal digits below the tolerance.
HEADROOM_CEILING = 12.0

# verify-all: one q per pass, shared by every command of the pass. The
# commutator suite fails below q ~ 0.3 and the sum rule above q ~ 0.74;
# this range keeps both about 0.7 digits inside their tolerances.
VERIFY_ALL_Q = (0.40, 0.65)

# The twisted-norm check of `coeffs --family mac` loses digits like the
# mac Gram does, so it gets the double mac path's tolerance.
DG_NORM_TOL = 1e-10
MAC_NORM_TOL = 1e-8
GRAM_TOL = {"dg": 1e-10, "mac": 1e-8, "gamma": 1e-8}
CIRCLE_TOL = {"dg": 1e-9, "mac": 1e-8}
WEIGHTS_TOL = 1e-10
PARSEVAL_TOL = 1e-9


@dataclass(frozen=True)
class Case:
    """One unit of work: a kind, the q it runs at, and its parameters.

    kind "cli" runs `qgauss.cli.main(argv)`; kind "suite" runs
    `qgauss.run_suite`; "parseval" and "indefinite-gram" call those
    library functions directly.
    """

    kind: str
    q: float
    params: tuple = ()

    @property
    def args(self) -> dict:
        return dict(self.params)

    def label(self) -> str:
        a = self.args
        if self.kind == "cli":
            argv = a["argv"]
            name = argv[0]
            if "--family" in argv:
                name += "-" + argv[argv.index("--family") + 1]
            if "--suite" in argv:
                name += "-" + argv[argv.index("--suite") + 1]
            return "cli:" + name
        if self.kind == "suite":
            return a["suite"] + ("" if a.get("digits") is None
                                 else f"@{a['digits']}")
        return self.kind + ("" if a.get("digits") is None
                            else f"@{a['digits']}")


@dataclass
class Outcome:
    ok: bool
    deviation: float | None = None
    tolerance: float | None = None
    reason: str = ""
    digest: str | None = None
    bytes_out: int = 0

    def headroom(self) -> float | None:
        """log10(tolerance / deviation), capped at HEADROOM_CEILING."""
        if self.deviation is None or self.tolerance is None:
            return None
        if self.deviation == 0.0:
            return HEADROOM_CEILING
        return min(HEADROOM_CEILING, math.log10(self.tolerance / self.deviation))

    def same_result(self, other: "Outcome") -> bool:
        return (self.ok == other.ok and self.deviation == other.deviation
                and self.tolerance == other.tolerance
                and self.digest == other.digest)


class SchemaError(ValueError):
    """CLI output that does not parse to the expected shape."""


def judge(deviation, tolerance, passed: bool = True, **kw) -> Outcome:
    """The failure classifier: a case passes only when its own verdict is
    `passed` and its deviation is finite and within the tolerance."""
    dev = float(deviation)
    tol = float(tolerance)
    if not passed:
        return Outcome(False, dev, tol, "verdict passed=false", **kw)
    if not math.isfinite(dev) or dev > tol:
        return Outcome(False, dev, tol, f"deviation {dev:.3e} > {tol:g}", **kw)
    return Outcome(True, dev, tol, **kw)


# -- case lists ---------------------------------------------------------------

GOLDEN = (5 ** 0.5 - 1) / 2


class Draws:
    """The inputs of a pass stream. The i-th draw of pass k is
    frac(offset_i + k * golden) with seeded offsets, so over any run of
    passes every slot's inputs spread evenly across their range and the
    cost of a slot hardly depends on the seed. Chain seeds for the
    commutator suite come from an ordinary seeded generator."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"qgauss-bench/{workload}/{seed}")
        self.offsets: list = []
        self.k = -1
        self.i = 0

    def next_pass(self):
        self.k += 1
        self.i = 0

    def unit(self) -> float:
        if self.i == len(self.offsets):
            self.offsets.append(self.rng.random())
        u = (self.offsets[self.i] + self.k * GOLDEN) % 1.0
        self.i += 1
        return u

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def randint(self, lo: int, hi: int) -> int:
        return lo + int(self.unit() * (hi - lo + 1))

    def chain_seed(self) -> int:
        return self.rng.randint(1, 10 ** 6)


def _suite(draws, lo, hi, name, digits=None, **kw) -> Case:
    return Case("suite", draws.uniform(lo, hi),
                tuple(sorted({"suite": name, "digits": digits, **kw}.items())))


def verify_all_pass(draws: Draws) -> list:
    """Every CLI subcommand once and `verify` on all 12 suites at their
    default sizes, all at one q."""
    q = draws.uniform(*VERIFY_ALL_Q)
    qs = ["--q", repr(q)]

    def cli_case(*argv):
        return Case("cli", q, (("argv", tuple(argv) + tuple(qs)),))

    n_dg, n_mac = draws.randint(2, 8), draws.randint(2, 4)
    e_dg, e_mac = draws.randint(0, 6), draws.randint(0, 3)
    cases = [
        cli_case("coeffs", "--family", "dg", "--n", str(n_dg),
                 "--format", "json"),
        cli_case("coeffs", "--family", "mac", "--n", str(n_mac),
                 "--format", "json"),
        cli_case("eval", "--family", "dg", "--n", str(e_dg),
                 "--grid", f"-8:{e_dg + 8}:{20 * (e_dg + 16) + 1}"),
        cli_case("eval", "--family", "mac", "--n", str(e_mac),
                 "--grid", f"-{e_mac + 8}:{e_mac + 8}:{40 * (e_mac + 8) + 1}"),
        cli_case("gram", "--family", "dg"),
        cli_case("gram", "--family", "mac"),
        cli_case("gram", "--family", "gamma"),
        cli_case("circle", "--family", "dg"),
        cli_case("circle", "--family", "mac"),
        cli_case("weights"),
        cli_case("limit", "--family", "dg", "--n", str(draws.randint(1, 4)),
                 "--format", "json"),
        cli_case("limit", "--family", "mac", "--n", str(draws.randint(1, 4)),
                 "--format", "json"),
    ]
    for suite in qgauss.SUITES:
        cases.append(cli_case("verify", "--suite", suite,
                              "--seed", str(draws.chain_seed())))
    return cases


def sweep_double_pass(draws: Draws) -> list:
    """Large double-precision cases, a fresh q for each."""
    cases = []
    for nmax in (16, 22, 28):
        cases.append(_suite(draws, 0.2, 0.7, "dg-gram", nmax=nmax))
    for nmax in (10, 13, 16):
        cases.append(_suite(draws, 0.2, 0.55, "sumrule", nmax=nmax))
    for nweights, nmax in ((2, 6), (3, 8), (4, 10)):
        cases.append(_suite(draws, 0.2, 0.75, "gamma", nweights=nweights,
                            nmax=nmax))
    for nmax in (8, 12, 16):
        cases.append(_suite(draws, 0.2, 0.75, "circle-dg", nmax=nmax))
    for nmax in (8, 12):
        cases.append(Case("parseval", draws.uniform(0.2, 0.75),
                          (("nmax", nmax),)))
    for nmax in (8, 10, 12):
        cases.append(Case("indefinite-gram", draws.uniform(0.2, 0.9),
                          (("digits", None), ("nmax", nmax))))
    for nmax in (12, 18, 24):
        cases.append(_suite(draws, 0.35, 0.75, "ladders", nmax=nmax))
    for count in (100, 150, 200):
        cases.append(_suite(draws, 0.5, 0.9, "commutators", count=count,
                            seed=draws.chain_seed()))
    return cases


def sweep_mp_pass(draws: Draws) -> list:
    """Multiprecision cases, a fresh q for each: auto-budgeted circle-mac
    and mac-gram, and the double suites at user-set digits."""
    cases = []
    for nmax in (5, 7, 10):
        cases.append(_suite(draws, 0.6, 0.9, "circle-mac", nmax=nmax,
                            points=128))
    for nmax in (8, 10, 12):
        cases.append(_suite(draws, 0.2, 0.9, "mac-gram", nmax=nmax))
    for digits in (20, 40, 60):
        cases.append(_suite(draws, 0.2, 0.9, "dg-gram", digits, nmax=8))
        cases.append(_suite(draws, 0.2, 0.9, "ladders", digits, nmax=6))
        cases.append(_suite(draws, 0.2, 0.9, "commutators", digits, count=10,
                            seed=draws.chain_seed()))
        cases.append(_suite(draws, 0.2, 0.9, "sumrule", digits, nmax=6))
        cases.append(Case("indefinite-gram", draws.uniform(0.2, 0.9),
                          (("digits", digits), ("nmax", 8))))
    return cases


_PASS_BUILDERS = {"verify-all": verify_all_pass,
                  "sweep-double": sweep_double_pass,
                  "sweep-mp": sweep_mp_pass}
WORKLOADS = tuple(_PASS_BUILDERS)


def passes(workload: str, seed: int):
    """The workload's endless stream of passes; the same seed always gives
    the same stream."""
    build = _PASS_BUILDERS[workload]
    draws = Draws(workload, seed)
    while True:
        draws.next_pass()
        yield build(draws)


def reference_cases() -> list:
    """The fixed CLI cases whose seed results are kept in seed_record.json:
    one verify-all pass, plus cases whose output the seed gets wrong or
    prints imprecisely (circle-mac past nmax 10 at q = 0.5, and the
    auto-raised mac-gram whose params echo q as 0.5000000000000001)."""
    draws = Draws("reference", 0)
    draws.next_pass()
    cases = verify_all_pass(draws)
    for argv in (("verify", "--suite", "circle-mac", "--nmax", "11",
                  "--points", "128"),
                 ("verify", "--suite", "circle-mac", "--nmax", "12",
                  "--points", "128"),
                 ("verify", "--suite", "mac-gram", "--nmax", "8")):
        cases.append(Case("cli", 0.5, (("argv", argv + ("--q", "0.5")),)))
    return cases


# -- running and checking one case ------------------------------------------

def run_case(case: Case, scratch_dir: str) -> Outcome:
    """Run one case and judge it. Any exception the program raises is a
    failed case, not a benchmark error."""
    try:
        if case.kind == "cli":
            return _run_cli(case, scratch_dir)
        if case.kind == "suite":
            return _run_suite(case)
        if case.kind == "parseval":
            report = qgauss.parseval_bridge(qgauss.QContext(q=case.q),
                                            case.args["nmax"])
            return judge(report.max_abs_deviation, PARSEVAL_TOL)
        if case.kind == "indefinite-gram":
            return _run_indefinite(case)
        raise ValueError(f"unknown case kind {case.kind!r}")
    except SchemaError as exc:
        return Outcome(False, reason=f"schema: {exc}")
    except (Exception, SystemExit) as exc:
        return Outcome(False, reason=f"{type(exc).__name__}: {exc}")


def _run_suite(case: Case) -> Outcome:
    a = case.args
    ctx = qgauss.QContext(q=case.q, digits=a.pop("digits"))
    result = qgauss.run_suite(a.pop("suite"), ctx, **a)
    return judge(result.max_deviation, result.tolerance, result.passed)


def _run_indefinite(case: Case) -> Outcome:
    """The parity-twisted Gram, exact-rational in double and naive at
    user-set digits; judged against the mac-gram suite's tolerance."""
    nmax, digits = case.args["nmax"], case.args["digits"]
    report = qgauss.indefinite_gram(qgauss.QContext(q=case.q, digits=digits),
                                    nmax)
    tol = 1e-8 if nmax <= 10 else 1e-20
    return judge(float(report.max_abs_deviation), tol,
                 bool(report.notes["sign_alternation_ok"]))


def _run_cli(case: Case, scratch_dir: str) -> Outcome:
    argv = list(case.args["argv"])
    report_path = None
    if argv[0] == "verify":
        suite = argv[argv.index("--suite") + 1]
        report_path = os.path.join(scratch_dir, f"verify_{suite}.json")
        argv += ["--out", report_path]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    if report_path is not None:
        with open(report_path, "rb") as fh:
            data = fh.read()
        os.remove(report_path)
    else:
        data = text.encode()
    kw = {"digest": hashlib.sha256(data).hexdigest()[:16],
          "bytes_out": len(data) + (len(text) if report_path else 0)}
    if argv[0] == "verify":
        return _check_verify(argv, code, text, data.decode(), kw)
    if code != 0:
        return Outcome(False, reason=f"exit code {code}", **kw)
    return _CLI_CHECKS[argv[0]](argv, case.q, text, kw)


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _load(text: str, command: str) -> dict:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not JSON: {exc}") from None
    if payload.get("schema") != "qgauss/1" or payload.get("command") != command:
        raise SchemaError(f"missing schema/command marker for {command}")
    return payload


def _overlap_scale(q: float) -> float:
    return math.sqrt(math.pi / (2.0 * -math.log(q)))


def _check_coeffs(argv, q, text, kw) -> Outcome:
    """Norm of the printed coefficients through the closed-form overlap
    integral q^{(x-j)^2} q^{(x-k)^2} -> sqrt(pi/2c^2) q^{(j-k)^2/2}:
    1 for the first family, (-1)^n under the twisted pairing for the
    second."""
    payload = _load(text, "coeffs")
    n = int(_flag(argv, "--n"))
    rows = payload["rows"]
    if [r["k"] for r in rows] != list(range(n + 1)):
        raise SchemaError("coefficient rows do not cover k = 0..n")
    a = np.array([r["re"] for r in rows])
    k = np.arange(n + 1)
    if _flag(argv, "--family") == "dg":
        kernel = q ** ((k[:, None] - k[None, :]) ** 2 / 2.0)
        value, target, tol = a @ kernel @ a * _overlap_scale(q), 1.0, DG_NORM_TOL
    else:
        kernel = q ** ((k[:, None] + k[None, :]) ** 2 / 2.0)
        value, target, tol = (a @ kernel @ a * _overlap_scale(q),
                              (-1.0) ** n, MAC_NORM_TOL)
    return judge(abs(value - target), tol, **kw)


def _check_eval(argv, q, text, kw) -> Outcome:
    """Trapezoid norm of the printed samples: the grids are wide and fine
    enough that the rule is exact to roundoff for these Gaussians."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["c", "q", "family", "n", "x", "value_re", "value_im"]
    if not rows or rows[0] != header:
        raise SchemaError("eval CSV header")
    x = np.array([float(r[4]) for r in rows[1:]])
    v = np.array([float(r[5]) for r in rows[1:]])
    n = int(_flag(argv, "--n"))
    h = x[1] - x[0]
    if _flag(argv, "--family") == "dg":
        return judge(abs(h * float(v @ v) - 1.0), DG_NORM_TOL, **kw)
    # symmetric grid: reversing the samples gives B_n(-x)
    return judge(abs(h * float(v[::-1] @ v) - (-1.0) ** n), MAC_NORM_TOL, **kw)


def _check_gram(argv, q, text, kw) -> Outcome:
    """Deviation recomputed from the printed matrix and target."""
    payload = _load(text, argv[0])
    report = payload["report"]
    m = np.array(report["matrix"], dtype=float)
    t = np.array(report["target"], dtype=float)
    if m.ndim != 2 or m.shape != t.shape or m.shape[0] != m.shape[1]:
        raise SchemaError("Gram matrix and target must be square and alike")
    family = _flag(argv, "--family")
    if argv[0] == "circle":
        diag = np.sqrt(np.abs(np.diag(t)))
        dev = float((np.abs(m - t) / np.outer(diag, diag)).max())
        return judge(dev, CIRCLE_TOL[family], **kw)
    return judge(float(np.abs(m - t).max()), GRAM_TOL[family], **kw)


def _check_weights(argv, q, text, kw) -> Outcome:
    """Orthonormality of the printed weights under the mode kernel
    sqrt(pi/2c^2) exp(-2 pi^2 (m - m')^2 / c^2)."""
    payload = _load(text, "weights")
    count = payload["count"]
    if len(payload["weights"]) != count:
        raise SchemaError("weight count")
    v = np.zeros((count, count), dtype=complex)
    for i, w in enumerate(payload["weights"]):
        for m, re, im in w["modes"]:
            v[i, m] = complex(re, im)
    c2 = -math.log(q)
    d = np.arange(count)
    kernel = _overlap_scale(q) * np.exp(-2.0 * math.pi ** 2
                                        * (d[:, None] - d[None, :]) ** 2 / c2)
    gram = v.conj() @ kernel @ v.T
    return judge(float(np.abs(gram - np.eye(count)).max()), WEIGHTS_TOL, **kw)


def _check_limit(argv, q, text, kw) -> Outcome:
    """The limit study has no tolerance; its claim is that the ratio
    deviation shrinks as c does."""
    payload = _load(text, "limit")
    devs = [row["dev"] for row in payload["rows"]]
    if len(devs) != len(payload["c_list"]):
        raise SchemaError("one row per width expected")
    if not all(a > b for a, b in zip(devs, devs[1:])):
        return Outcome(False, reason=f"limit deviations not shrinking: {devs}",
                       **kw)
    return Outcome(True, **kw)


def _check_verify(argv, code, text, report, kw) -> Outcome:
    result = _load(report, "verify")["result"]
    suite = _flag(argv, "--suite")
    if result.get("suite") != suite or not text.startswith(f"{suite}: "):
        raise SchemaError("verify report or summary names another suite")
    if (code == 0) != bool(result["passed"]):
        raise SchemaError("exit code disagrees with the verdict")
    return judge(result["max_deviation"], result["tolerance"],
                 bool(result["passed"]), **kw)


_CLI_CHECKS = {"coeffs": _check_coeffs, "eval": _check_eval,
               "gram": _check_gram, "circle": _check_gram,
               "weights": _check_weights, "limit": _check_limit}
