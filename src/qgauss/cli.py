"""Command-line surface: coefficient tables, pointwise evaluation, Gram
reports, circle integrals, weight families, limit studies, and the named
verification suites.

Output is CSV (RFC 4180, one header row, 17-significant-digit lowercase
scientific numbers) or a single JSON object with a "schema": "qgauss/1"
marker. Identical flags produce byte-identical output; nothing here
depends on time, locale, or environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .context import QContext
from .chain import evaluate
from .circle import circle_gram_dg, circle_gram_mac
from .dg import (_limit_grid, build_phi, dg_coefficients, gram_phi,
                 harmonic_limit_scan, limit_ratio_curve)
from .macfarlane import (build_Bn, indefinite_gram, mac_coeffs,
                         mac_harmonic_limit, mac_limit_ratio_curve)
from .weights import gamma_family_gram, orthonormal_weight_family
from .report import GramReport
from .verify import SUITES, run_suite

SCHEMA = "qgauss/1"


@dataclass
class RunConfig:
    """One resolved invocation: the double-precision context of the
    supplied (or default) scale, and every knob a subcommand might read."""

    scale: QContext
    defaulted: bool = False
    family: str | None = None
    n: int | None = None
    nmax: int | None = None
    digits: int | None = None
    points: int | None = None
    fmt: str = "json"
    out: str | None = None
    seed: int = 12345
    count: int | None = None
    nweights: int | None = None

    @property
    def c(self) -> float:
        return self.scale.c

    @property
    def q(self) -> float:
        return self.scale.q

    def context(self) -> QContext:
        return self.scale.with_digits(self.digits)

    def echo(self) -> dict:
        return {"c": self.c, "q": self.q, "supplied": self.scale.supplied,
                "defaulted": self.defaulted, "digits": self.digits,
                "seed": self.seed}


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _config(args) -> RunConfig:
    q, c = getattr(args, "q", None), getattr(args, "c", None)
    if q is not None and c is not None:
        raise SystemExit("error: give exactly one of --q and --c, not both")
    try:
        scale = QContext(c=c) if c is not None else QContext(q=0.5 if q is None else q)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    # every other field is the flag of the same name (fmt is --format),
    # or the field's default where the subcommand has no such flag
    knobs = {f.name: getattr(args, "format" if f.name == "fmt" else f.name,
                             f.default) for f in fields(RunConfig)[2:]}
    return RunConfig(scale=scale, defaulted=q is None and c is None, **knobs)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None):
    payload = {"schema": SCHEMA, **payload}
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _emit_csv(header: list, rows: list, out: str | None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _write(buf.getvalue(), out)


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise SystemExit(f"error: grid must be min:max:count, got {text!r}")
    if count < 1:
        raise SystemExit("error: empty grid")
    return np.linspace(lo, hi, count)


def _emit(cfg: RunConfig, payload: dict, header: list, rows) -> int:
    """The payload plus the config echo as JSON, or the header and the
    (lazily built) rows as CSV, as --format asks."""
    if cfg.fmt == "json":
        _emit_json({**payload, "config": cfg.echo()}, cfg.out)
    else:
        _emit_csv(header, rows, cfg.out)
    return 0


# -- subcommands -------------------------------------------------------------

def cmd_coeffs(cfg: RunConfig, args) -> int:
    ctx = cfg.context()
    n = cfg.n
    if cfg.family == "dg":
        coeffs = dg_coefficients(ctx, n).normalized
        normalization = "phi-unit-norm"
    else:
        table = mac_coeffs(ctx, n)
        coeffs = [table.zeta * e for e in table.E]
        normalization = "zeta-times-E"
    coeffs = [complex(float(v), 0.0) for v in coeffs]
    return _emit(cfg, {
        "command": "coeffs", "family": cfg.family, "n": n,
        "normalization": normalization,
        "rows": [{"k": k, "center": float(k), "re": v.real, "im": v.imag}
                 for k, v in enumerate(coeffs)],
    }, ["c", "q", "family", "n", "normalization", "k", "center",
        "coefficient_re", "coefficient_im"],
        ([_fmt(cfg.c), _fmt(cfg.q), cfg.family, n, normalization,
          k, _fmt(k), _fmt(v.real), _fmt(v.imag)]
         for k, v in enumerate(coeffs)))


def cmd_eval(cfg: RunConfig, args) -> int:
    grid = _parse_grid(args.grid)
    ctx = cfg.context()
    build = build_phi if cfg.family == "dg" else build_Bn
    chain = build(ctx, cfg.n)
    if ctx.digits is None:
        values = np.atleast_1d(np.asarray(evaluate(chain, grid), dtype=complex))
    else:
        values = np.array([complex(evaluate(chain, float(x))) for x in grid])
    return _emit(cfg, {
        "command": "eval", "family": cfg.family, "n": cfg.n,
        "rows": [{"x": float(x), "re": v.real, "im": v.imag}
                 for x, v in zip(grid, values)],
    }, ["c", "q", "family", "n", "x", "value_re", "value_im"],
        ([_fmt(cfg.c), _fmt(cfg.q), cfg.family, cfg.n,
          _fmt(x), _fmt(v.real), _fmt(v.imag)] for x, v in zip(grid, values)))


def _emit_gram(cfg: RunConfig, command: str, report: GramReport) -> int:
    def rows():
        for i, label_i in enumerate(report.labels):
            for j, label_j in enumerate(report.labels):
                v = float(report.matrix[i][j])
                t = float(report.target[i][j])
                yield [_fmt(cfg.c), _fmt(cfg.q), i, j, str(label_i),
                       str(label_j), _fmt(v), _fmt(t), _fmt(v - t)]
    payload = {"command": command}
    if cfg.fmt == "json":
        payload["report"] = report.to_dict()
    return _emit(cfg, payload, ["c", "q", "i", "j", "label_i", "label_j",
                                "value", "target", "deviation"], rows())


def cmd_gram(cfg: RunConfig, args) -> int:
    ctx = cfg.context()
    nmax = 8 if cfg.nmax is None else cfg.nmax
    if cfg.family == "dg":
        report = gram_phi(ctx, nmax)
    elif cfg.family == "mac":
        report = indefinite_gram(ctx, nmax)
    else:
        report = gamma_family_gram(ctx, 3 if cfg.nweights is None
                                   else cfg.nweights, nmax)
    return _emit_gram(cfg, "gram", report)


def cmd_circle(cfg: RunConfig, args) -> int:
    ctx = cfg.context()
    points = 512 if cfg.points is None else cfg.points
    if cfg.family == "dg":
        nmax = 8 if cfg.nmax is None else cfg.nmax
        report = circle_gram_dg(ctx, nmax, points)
    else:
        nmax = 5 if cfg.nmax is None else cfg.nmax
        report = circle_gram_mac(ctx, nmax, points, args.conjugate_first)
    return _emit_gram(cfg, "circle", report)


def cmd_weights(cfg: RunConfig, args) -> int:
    family = orthonormal_weight_family(cfg.context(), cfg.count)
    return _emit(cfg, {
        "command": "weights", "count": cfg.count,
        "weights": [{"index": i,
                     "modes": [[m, v.real, v.imag]
                               for m, v in sorted(w.modes.items())]}
                    for i, w in enumerate(family)],
    }, ["c", "q", "weight_index", "mode", "coeff_re", "coeff_im"],
        ([_fmt(cfg.c), _fmt(cfg.q), i, m, _fmt(v.real), _fmt(v.imag)]
         for i, w in enumerate(family) for m, v in sorted(w.modes.items())))


def cmd_limit(cfg: RunConfig, args) -> int:
    c_list = [float(tok) for tok in args.c_list.split(",") if tok]
    grid = np.arange(0.3, 3.31, 0.15) if args.grid is None \
        else _parse_grid(args.grid)
    if cfg.family == "dg":
        scan = harmonic_limit_scan(cfg.n, c_list, grid)
        curve = limit_ratio_curve
    else:
        scan = mac_harmonic_limit(cfg.n, c_list, grid)
        curve = mac_limit_ratio_curve

    def rows():
        pts = _limit_grid(cfg.n, grid)
        curves = [curve(cfg.n, c, pts) for c in c_list]
        for i, s in enumerate(pts):
            yield [_fmt(s)] + [_fmt(col[i]) for col in curves]
    return _emit(cfg, {"command": "limit", "family": cfg.family, "n": cfg.n,
                       "c_list": c_list, "rows": scan},
                 ["s"] + [f"rho_c{c:g}" for c in c_list], rows())


def cmd_verify(cfg: RunConfig, args) -> int:
    ctx = cfg.context()
    result = run_suite(
        args.suite, ctx=ctx, nmax=cfg.nmax, points=cfg.points, seed=cfg.seed,
        count=cfg.count, nweights=cfg.nweights, c=float(ctx.c),
        conjugate_first=args.conjugate_first, digits=cfg.digits)
    _emit_json({"command": "verify", "config": cfg.echo(),
                "result": result.to_dict()}, cfg.out)
    status = "PASS" if result.passed else "FAIL"
    print(f"{args.suite}: {status} max_deviation={result.max_deviation:.3e} "
          f"tolerance={result.tolerance:g} report={cfg.out or 'stdout'}",
          file=sys.stdout if cfg.out else sys.stderr)
    return 0 if result.passed else 1


COMMANDS = {"coeffs": cmd_coeffs, "eval": cmd_eval, "gram": cmd_gram,
            "circle": cmd_circle, "weights": cmd_weights, "limit": cmd_limit,
            "verify": cmd_verify}


# -- parser ------------------------------------------------------------------

def _add_scale(sp):
    sp.add_argument("--q", type=float, default=None,
                    help="deformation parameter in (0,1); exactly one of "
                         "--q/--c (default: --q 0.5)")
    sp.add_argument("--c", type=float, default=None,
                    help="Gaussian width parameter, q = exp(-c^2)")
    sp.add_argument("--digits", type=int, default=None,
                    help="decimal digits for the high-precision backend "
                         "(default: double precision)")


def _add_output(sp, default_fmt: str):
    sp.add_argument("--format", choices=("csv", "json"), default=default_fmt,
                    help=f"output format (default {default_fmt})")
    sp.add_argument("--out", default=None,
                    help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qgauss",
        description="Gaussian-chain oscillator eigenfunctions: coefficient "
                    "tables, Gram reports, circle integrals, weighted "
                    "families, limit studies, and verification suites.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="coefficient table for one function")
    sp.add_argument("--family", choices=("dg", "mac"), required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_scale(sp)
    _add_output(sp, "csv")

    sp = sub.add_parser("eval", help="evaluate one function on a grid")
    sp.add_argument("--family", choices=("dg", "mac"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--grid", required=True, help="min:max:count")
    _add_scale(sp)
    _add_output(sp, "csv")

    sp = sub.add_parser("gram", help="Gram matrix report")
    sp.add_argument("--family", choices=("dg", "mac", "gamma"), default="dg")
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--nweights", type=int, default=None,
                    help="weight count for the gamma family (default 3)")
    _add_scale(sp)
    _add_output(sp, "json")

    sp = sub.add_parser("circle", help="unit-circle Gram report")
    sp.add_argument("--family", choices=("dg", "mac"), default="dg")
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--points", type=int, default=None, help=(
        "nodes N of the equispaced rule, a power of two >= 64 (default 512); "
        "mac runs the N-node rule in coefficient space, aliasing included"))
    sp.add_argument("--conjugate-first", action="store_true",
                    help="flip the first factor's phase in the mac relation "
                         "(comparison variant)")
    _add_scale(sp)
    _add_output(sp, "json")

    sp = sub.add_parser("weights", help="orthonormal weight family modes")
    sp.add_argument("--count", type=int, default=3)
    _add_scale(sp)
    _add_output(sp, "json")

    sp = sub.add_parser("limit", help="harmonic-oscillator limit study")
    sp.add_argument("--family", choices=("dg", "mac"), default="dg")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c-list", default="0.2,0.1,0.05",
                    help="comma-separated widths (default 0.2,0.1,0.05)")
    sp.add_argument("--grid", default=None,
                    help="min:max:count sample points (default 0.3:3.3:21)")
    _add_scale(sp)
    _add_output(sp, "csv")

    sp = sub.add_parser("verify", help="run one verification suite")
    sp.add_argument("--suite", choices=SUITES, required=True)
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--points", type=int, default=None)
    sp.add_argument("--seed", type=int, default=12345)
    sp.add_argument("--count", type=int, default=None,
                    help="random chains for the commutator suite (default 20)")
    sp.add_argument("--nweights", type=int, default=None)
    sp.add_argument("--conjugate-first", action="store_true")
    _add_scale(sp)
    sp.add_argument("--out", default=None,
                    help="report path; the summary line then goes to "
                         "stdout (default: report to stdout, summary to "
                         "stderr)")

    return p


def _join_grid_values(argv: list) -> list:
    """Fold `--grid -3:3:7` into `--grid=-3:3:7` so a leading minus in the
    grid spec is not mistaken for an option."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--grid" and i + 1 < len(argv) and argv[i + 1].count(":") == 2:
            out.append(f"--grid={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_grid_values(list(argv)))
    return COMMANDS[args.command](_config(args), args)
