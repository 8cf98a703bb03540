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
import itertools
import json
import sys
from functools import cache

import numpy as np

from .context import QContext
from .chain import evaluate
from .circle import circle_gram_dg, circle_gram_mac
from .dg import gram_phi, harmonic_limit_scan, limit_grid, limit_ratio_curve
from .macfarlane import indefinite_gram
from .weights import gamma_family_gram, orthonormal_weight_family
from .report import GramReport, json_floats
from .verify import FAMILIES, SUITES, run_suite

SCHEMA = "qgauss/1"

# the normalization each family's coeffs table names
_NORMALIZATION = {"dg": "phi-unit-norm", "mac": "zeta-times-E"}


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _scale(args) -> tuple[QContext, dict]:
    """The double-precision context of --q or --c (default q = 0.5) and the
    config block that JSON output echoes; seed is 12345 where the
    subcommand has no --seed. An integer flag out of range is a ValueError
    that names the flag."""
    if args.q is not None and args.c is not None:
        raise ValueError("give exactly one of --q and --c, not both")
    for flag, least in (("n", 0), ("nmax", 0), ("digits", 1), ("count", 1),
                        ("nweights", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            need = "nonnegative" if least == 0 else f"at least {least}"
            raise ValueError(f"--{flag} must be {need}, got {value}")
    scale = QContext(c=args.c) if args.c is not None \
        else QContext(q=0.5 if args.q is None else args.q)
    return scale, {"c": scale.c, "q": scale.q, "supplied": scale.supplied,
                   "defaulted": args.q is None and args.c is None,
                   "digits": args.digits,
                   "seed": getattr(args, "seed", 12345)}


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None):
    payload = {"schema": SCHEMA, **payload}
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _csv_line(fields: list) -> str:
    """fields as csv.writer writes them: quoted where they need it, with
    the CRLF line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()


def _emit_csv(header: list, lead: list, cells: str, rows: list,
              out: str | None) -> int:
    """The header, then one line per entry of rows: the fields lead, the
    same on every line and quoted once, then the printf fields cells
    filled from the row. A float cell is "%.16e", which prints what
    _fmt prints; a str cell must come quoted already (_csv_line)."""
    lead_text = _csv_line(lead)[:-2] + "," if lead else ""
    line = lead_text.replace("%", "%%") + cells + "\r\n"
    _write(_csv_line(header) + (line * len(rows))
           % tuple(itertools.chain.from_iterable(rows)), out)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ValueError(f"grid must be min:max:count, got {text!r}")
    if count < 1:
        raise ValueError("empty grid")
    return np.linspace(lo, hi, count)


def _emit(args, echo: dict, payload: dict) -> int:
    """The payload plus the command name and the config echo as JSON."""
    _emit_json({**payload, "command": args.command, "config": echo},
               args.out)
    return 0


# -- subcommands -------------------------------------------------------------

def cmd_coeffs(args, scale: QContext, echo: dict) -> int:
    normalization = _NORMALIZATION[args.family]
    rows = FAMILIES[args.family].table(scale.with_digits(args.digits), args.n)
    coeffs = [float(v) for v in rows[args.n]]
    if args.format == "json":
        return _emit(args, echo, {
            "family": args.family, "n": args.n,
            "normalization": normalization,
            "rows": [{"k": k, "center": float(k), "re": v, "im": 0.0}
                     for k, v in enumerate(json_floats(coeffs))]})
    return _emit_csv(
        ["c", "q", "family", "n", "normalization", "k", "center",
         "coefficient_re", "coefficient_im"],
        [_fmt(scale.c), _fmt(scale.q), args.family, args.n, normalization],
        "%d,%.16e,%.16e,%.16e",
        [(k, k, v, 0.0) for k, v in enumerate(coeffs)], args.out)


def cmd_eval(args, scale: QContext, echo: dict) -> int:
    grid = _parse_grid(args.grid)
    ctx = scale.with_digits(args.digits)
    chain = FAMILIES[args.family].build(ctx, args.n)
    if ctx.digits is None:
        values = np.atleast_1d(np.asarray(evaluate(chain, grid), dtype=complex))
    else:
        values = np.array([complex(evaluate(chain, float(x))) for x in grid])
    table = np.column_stack([grid, values.real, values.imag])
    if args.format == "json":  # strict JSON: null where not finite
        return _emit(args, echo, {
            "family": args.family, "n": args.n,
            "rows": [{"x": x, "re": re, "im": im}
                     for x, re, im in json_floats(table)]})
    return _emit_csv(["c", "q", "family", "n", "x", "value_re", "value_im"],
                     [_fmt(scale.c), _fmt(scale.q), args.family, args.n],
                     "%.16e,%.16e,%.16e", table.tolist(), args.out)


def _emit_gram(args, scale: QContext, echo: dict, report: GramReport) -> int:
    if args.format == "json":
        return _emit(args, echo, {"report": report.to_dict()})
    labels = [_csv_line([str(label)])[:-2] for label in report.labels]
    values, targets = (np.asarray(a, dtype=float).ravel().tolist()
                       for a in (report.matrix, report.target))
    rows = [(i, j, labels[i], labels[j], v, t, v - t) for (i, j), v, t
            in zip(np.ndindex(report.matrix.shape), values, targets)]
    return _emit_csv(
        ["c", "q", "i", "j", "label_i", "label_j", "value", "target",
         "deviation"], [_fmt(scale.c), _fmt(scale.q)],
        "%d,%d,%s,%s,%.16e,%.16e,%.16e", rows, args.out)


def cmd_gram(args, scale: QContext, echo: dict) -> int:
    if args.nweights is not None and args.family != "gamma":
        raise ValueError("--nweights applies only to --family gamma")
    ctx = scale.with_digits(args.digits)
    nmax = 8 if args.nmax is None else args.nmax
    if args.family == "dg":
        report = gram_phi(ctx, nmax)
    elif args.family == "mac":
        report = indefinite_gram(ctx, nmax)
    else:
        report = gamma_family_gram(ctx, 3 if args.nweights is None
                                   else args.nweights, nmax)
    return _emit_gram(args, scale, echo, report)


def cmd_circle(args, scale: QContext, echo: dict) -> int:
    ctx = scale.with_digits(args.digits)
    points = 512 if args.points is None else args.points
    if args.family == "dg":
        if args.conjugate_first:
            raise ValueError("--conjugate-first applies only to --family mac")
        nmax = 8 if args.nmax is None else args.nmax
        report = circle_gram_dg(ctx, nmax, points)
    else:
        nmax = 5 if args.nmax is None else args.nmax
        report = circle_gram_mac(ctx, nmax, points, args.conjugate_first)
    return _emit_gram(args, scale, echo, report)


def cmd_weights(args, scale: QContext, echo: dict) -> int:
    family = orthonormal_weight_family(scale.with_digits(args.digits),
                                       args.count)
    if args.format == "json":
        return _emit(args, echo, {
            "count": args.count,
            "weights": [{"index": i,
                         "modes": [[m, v.real, v.imag]
                                   for m, v in sorted(w.modes.items())]}
                        for i, w in enumerate(family)]})
    return _emit_csv(
        ["c", "q", "weight_index", "mode", "coeff_re", "coeff_im"],
        [_fmt(scale.c), _fmt(scale.q)], "%d,%d,%.16e,%.16e",
        [(i, m, v.real, v.imag) for i, w in enumerate(family)
         for m, v in sorted(w.modes.items())], args.out)


def cmd_limit(args, scale: QContext, echo: dict) -> int:
    try:
        c_list = [float(tok) for tok in args.c_list.split(",") if tok]
    except ValueError:
        c_list = []
    if not c_list:
        raise ValueError("--c-list must be comma-separated widths, got "
                         f"{args.c_list!r}")
    grid = np.arange(0.3, 3.31, 0.15) if args.grid is None \
        else _parse_grid(args.grid)
    family = FAMILIES[args.family]
    if args.format == "json":  # the scan's rows; CSV tabulates the curves
        return _emit(args, echo, {
            "family": args.family, "n": args.n, "c_list": c_list,
            "rows": harmonic_limit_scan(family, args.n, c_list, grid)})
    pts = limit_grid(args.n, grid)
    curves = [limit_ratio_curve(family, args.n, c, pts) for c in c_list]
    return _emit_csv(["s"] + [f"rho_c{c:g}" for c in c_list], [],
                     ",".join(["%.16e"] * (1 + len(c_list))),
                     np.column_stack([pts] + curves).tolist(), args.out)


def cmd_verify(args, scale: QContext, echo: dict) -> int:
    result = run_suite(
        args.suite, scale.with_digits(args.digits), nmax=args.nmax,
        points=args.points, seed=args.seed, count=args.count,
        nweights=args.nweights, conjugate_first=args.conjugate_first)
    _emit_json({"command": "verify", "config": echo,
                "result": result.to_dict()}, args.out)
    status = "PASS" if result.passed else "FAIL"
    print(f"{args.suite}: {status} max_deviation={result.max_deviation:.3e} "
          f"tolerance={result.tolerance:g} report={args.out or 'stdout'}",
          file=sys.stdout if args.out else sys.stderr)
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


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built by the first main call and shared by
    every later one in the process: argparse sets no state on it while
    parsing, and building it costs more than most commands."""
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_join_grid_values(list(argv)))
    try:
        return COMMANDS[args.command](args, *_scale(args))
    except ValueError as exc:  # a bad argument: one line, no traceback
        raise SystemExit(f"error: {exc}")
