"""Run one qgauss benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-double --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. The workload's cases run one after
another on one thread (a closed loop) in this process, in whole passes,
until --seconds have elapsed. Every case is checked as it runs. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
runs a fixed number of passes with every qgauss public function wrapped,
replays each pass untraced to confirm identical verdicts and deviations
and to measure the tracing overhead, and reports the per-module metrics.
Spans are saved under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
RECORD = HERE / "seed_record.json"

# BLAS and OpenMP pools are pinned to one thread: the benchmark drives one
# case at a time and the machine it was tuned on has two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Five passes put at least ten cases beyond p90 of a 21-case pass.
MIN_PASSES = 5
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Traced runs have a fixed length, so their counts repeat exactly.
TRACE_PASSES = {"verify-all": 3, "sweep-double": 1, "sweep-mp": 2}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-all", "sweep-double", "sweep-mp"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a fresh interpreter that imports qgauss, builds the first pass and
    # exits: the unit of setup_s
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_cases():
    """Import the case module against ./src, refusing any other qgauss."""
    if not (SRC / "qgauss" / "__init__.py").is_file():
        raise SystemExit(f"error: no qgauss sources under {SRC}; run from "
                         "the root of a qgauss checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import qgauss
    if Path(qgauss.__file__).resolve().parent != (SRC / "qgauss").resolve():
        raise SystemExit(f"error: imported qgauss from {qgauss.__file__}, "
                         f"not from {SRC}")
    import cases
    return cases


def measure_setup(args) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    qgauss and built the workload's first pass. The child reports the
    moment it is ready on the system-wide monotonic clock."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S,
                              capture_output=True, text=True, cwd=ROOT)
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_pass(cases, pass_cases, scratch, tracer=None):
    """Run one pass; return (wall seconds, per-case seconds, outcomes)."""
    durations, outcomes = [], []
    t_pass = time.perf_counter()
    for case in pass_cases:
        sid = None
        if tracer is not None:
            sid = tracer.open_span(tracer.name_id("case:" + case.label()))
        t0 = time.perf_counter()
        outcome = cases.run_case(case, scratch)
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close_span(sid)
        outcomes.append(outcome)
    return time.perf_counter() - t_pass, durations, outcomes


def end_to_end(cases, args, scratch):
    """Every pass of a workload has the same slots (case kind and size) in
    the same order, with fresh inputs. A slot's time and headroom are its
    medians over the run's passes, so one slow pass cannot move a quantile
    from one slot to another."""
    setup_s = measure_setup(args)
    deadline = time.perf_counter() + args.seconds
    slot_ms, slot_headroom, outcomes = [], [], []
    for pass_cases in cases.passes(args.workload, args.seed):
        _, durations, results = run_pass(cases, pass_cases, scratch)
        slot_ms.append([s * 1e3 for s in durations])
        slot_headroom.append([o.headroom() for o in results])
        outcomes += results
        if len(slot_ms) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
    case_ms = [statistics.median(column) for column in zip(*slot_ms)]
    # a case that raised has no headroom; pass_rate counts it instead
    slot_headroom = [[h for h in column if h is not None]
                     for column in zip(*slot_headroom)]
    headroom_min = min(statistics.median(c) for c in slot_headroom if c)
    headroom = [h for column in slot_headroom for h in column]
    failed = sum(not o.ok for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "total_s": (sum(case_ms) / 1e3, "s"),
        "case_ms_p50": (statistics.median(case_ms), "ms"),
        "case_ms_p90": (statistics.quantiles(case_ms, n=10,
                                             method="inclusive")[-1], "ms"),
        "pass_rate": (1.0 - failed / len(outcomes), "ratio"),
        "headroom_digits_min": (headroom_min, "digits"),
        "headroom_digits_mean": (statistics.fmean(headroom), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    summary = (f"{args.workload} seed={args.seed}: {len(slot_ms)} passes of "
               f"{len(case_ms)} cases, {len(outcomes)} cases ({failed} failed)")
    return outcomes, metrics, summary


def replay_record(cases, scratch):
    """Rerun the fixed reference cases: (outputs whose bytes differ from
    the seed record, cases that fail)."""
    record = json.loads(RECORD.read_text())["cases"]
    reference = cases.reference_cases()
    if [list(c.args["argv"]) for c in reference] != [r["argv"] for r in record]:
        raise SystemExit("error: seed_record.json does not match "
                         "reference_cases(); regenerate it")
    drift = failures = 0
    for case, rec in zip(reference, record):
        outcome = cases.run_case(case, scratch)
        drift += outcome.digest != rec["digest"]
        failures += not outcome.ok
    return drift, failures


def traced(cases, args, scratch):
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    traced_times, plain_times, outcomes = [], [], []
    mismatches = 0
    stream = cases.passes(args.workload, args.seed)
    for _ in range(TRACE_PASSES[args.workload]):
        pass_cases = next(stream)
        tracer.install()
        try:
            wall, _, results = run_pass(cases, pass_cases, scratch, tracer)
        finally:
            tracer.uninstall()
        plain_wall, _, plain = run_pass(cases, pass_cases, scratch)
        traced_times.append(wall)
        plain_times.append(plain_wall)
        outcomes += results
        mismatches += sum(not a.same_result(b) for a, b in zip(results, plain))
    bytes_out = sum(o.bytes_out for o in outcomes)
    drift = reference_failures = 0
    if args.workload == "verify-all":
        drift, reference_failures = replay_record(cases, scratch)
    values = layer_metrics(tracer)
    values.update({
        "cli.bytes_out": bytes_out,
        "cli.output_drift": drift,
        "verify.reference_failures": reference_failures,
        "trace.overhead_s": statistics.median(traced_times)
                            - statistics.median(plain_times),
        "trace.mismatches": mismatches,
        "trace.spans": len(tracer.span_name),
    })
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"))
    metrics = {name: (value, _layer_unit(name)) for name, value in values.items()}
    summary = (f"{args.workload} seed={args.seed} traced: "
               f"{len(traced_times)} passes, {len(outcomes)} cases, "
               f"{mismatches} traced/untraced mismatches, "
               f"{len(tracer.span_name)} spans kept")
    return outcomes, metrics, summary, mismatches


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("working_digits"):
        return "digits"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cases = import_cases()
    if args.setup_only:
        next(cases.passes(args.workload, args.seed))
        print(repr(time.monotonic()))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        mismatches = 0
        if args.trace:
            outcomes, metrics, summary, mismatches = traced(cases, args, scratch)
        else:
            outcomes, metrics, summary = end_to_end(cases, args, scratch)
    failed = sum(not o.ok for o in outcomes)
    for o in outcomes:
        if not o.ok:
            print(f"FAILED: {o.reason}", file=sys.stderr)
    print(summary)
    print(json.dumps({
        "correct": failed == 0 and mismatches == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
