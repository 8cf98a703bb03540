"""Spans and counters around calls into qgauss, recorded from outside the
package.

`Tracer.install()` replaces every public function of every qgauss module,
under each module name it is imported into (so `qgauss.dg.inner` is
wrapped as well as `qgauss.chain.inner`), plus a few methods: the
`QContext` constructor, `QContext.qpow` and the `GramReport` deviation
loops. Each wrapped call adds to its function's call count and self time
(its time minus the time of wrapped calls inside it).

Calls to the hot scalar helpers (q-powers, q-numbers, the elementary
chain algebra) are only counted. Every other call is also kept as a span
(name, start, end, parent) in compact arrays, and `write()` saves them
when the run ends.
"""

from __future__ import annotations

import sys
import time
import types
from array import array

import numpy as np

# Generic scalar helpers called per coefficient, left unwrapped.
_UNWRAPPED = {"context.conj", "context.re", "context.im", "context.magnitude",
             "context.as_lattice_shift"}
# Hot helpers: counted and timed, but a span each would swamp the rest.
_COUNT_ONLY_MODULES = {"qnum"}
_COUNT_ONLY = {"context.qpow", "context.QContext", "chain.add", "chain.scale",
               "chain.subtract", "chain.shift", "chain.mul_qlinear",
               "chain.prune", "chain.make_gaussian", "chain.zero_chain",
               "chain.overlap_scale", "chain.alpha", "chain.coeff_distance",
               "chain.relative_coeff_distance"}
# GramReport methods that loop over every entry to measure a deviation.
_REPORT_DEVIATION = ("max_abs_deviation", "max_relative_deviation",
                     "deviation_matrix")


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names: list = []
        self._index: dict = {}
        self.calls: list = []
        self.self_time: list = []
        self.counters: dict = {}
        self.built_phi: set = set()
        self.working_digits: list = []
        # kept spans
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._child_time: list = []   # one accumulator per open wrapped call
        self._open_spans: list = [-1]
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return idx

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def open_span(self, idx: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._open_spans[-1])
        self.span_start.append(self.clock())
        self.span_end.append(0.0)
        self._open_spans.append(sid)
        return sid

    def close_span(self, sid: int):
        self.span_end[sid] = self.clock()
        self._open_spans.pop()

    def _wrapper(self, fn, name: str, keep_span: bool, hook):
        idx = self.name_id(name)
        clock = self.clock
        stack = self._child_time
        calls, self_time = self.calls, self.self_time
        tracer = self

        def wrapped(*args, **kwargs):
            sid = tracer.open_span(idx) if keep_span else -1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                calls[idx] += 1
                self_time[idx] += dur - child
                if stack:
                    stack[-1] += dur
                if keep_span:
                    tracer.close_span(sid)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        wrapped.__doc__ = fn.__doc__
        return wrapped

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap qgauss's public functions wherever they are bound."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "qgauss" or name.startswith("qgauss."))
                   and mod is not None}
        wrappers: dict = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                home = getattr(value, "__module__", "") or ""
                if attr.startswith("_") or not home.startswith("qgauss."):
                    continue
                name = f"{_short(home)}.{value.__name__}"
                if name in _UNWRAPPED:
                    continue
                if id(value) not in wrappers:
                    keep = (name not in _COUNT_ONLY
                            and _short(home) not in _COUNT_ONLY_MODULES)
                    wrappers[id(value)] = self._wrapper(value, name, keep,
                                                        _HOOKS.get(name))
                self._patch(mod, attr, wrappers[id(value)])
        from qgauss.context import QContext
        from qgauss.report import GramReport
        self._patch(QContext, "__init__",
                    self._wrapper(QContext.__init__, "context.QContext",
                                  False, None))
        self._patch(QContext, "qpow",
                    self._wrapper(QContext.qpow, "context.qpow", False, None))
        for attr in _REPORT_DEVIATION:
            original = vars(GramReport)[attr]
            if isinstance(original, property):
                self._patch(GramReport, attr, property(self._wrapper(
                    original.fget, "report.deviation", True, None)))
            else:
                self._patch(GramReport, attr, self._wrapper(
                    original, "report.deviation", True, None))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def stat(self, name: str, field: str):
        idx = self._index.get(name)
        if idx is None:
            return 0
        return {"calls": self.calls, "self": self.self_time}[field][idx]

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(s for n, s in zip(self.names, self.self_time)
                   if n.startswith(prefix))

    def write(self, path: str):
        """Save the kept spans; names[span_name[i]] names span i."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))


# -- per-function counters ---------------------------------------------------

def _pair_terms(name):
    def hook(tracer, args, kwargs, result):
        tracer.count(name, len(args[0].coeffs) * len(args[1].coeffs))
    return hook


def _evaluate_points(tracer, args, kwargs, result):
    tracer.count("chain.evaluate.points", int(np.size(args[1])))


def _build_phi_reuse(tracer, args, kwargs, result):
    ctx, n = args[0], args[1]
    key = (float(ctx.q), ctx.digits, n)
    if key in tracer.built_phi:
        tracer.count("dg.build_phi.repeats")
    tracer.built_phi.add(key)


def _circle_mac(tracer, args, kwargs, result):
    nmax = args[1]
    points = args[2] if len(args) > 2 else kwargs.get("quad_points", 512)
    tracer.count("circle.circle_gram_mac.terms", points * (nmax + 1) ** 2)
    digits = result.notes.get("working_digits")
    tracer.working_digits.append(16 if digits is None else digits)


def _run_suite(tracer, args, kwargs, result):
    """Counts suites whose working precision the auto-budget raised."""
    ctx = args[1] if len(args) > 1 else kwargs.get("ctx")
    user_digits = None if ctx is None else ctx.digits
    if result.notes.get("auto_digits") is not None or (
            result.suite == "circle-mac" and user_digits is None
            and result.notes.get("working_digits") is not None):
        tracer.count("verify.auto_digits_chosen")


_HOOKS = {
    "chain.inner": _pair_terms("chain.inner.terms"),
    "chain.product_daughters": _pair_terms("chain.product_daughters.terms"),
    "chain.evaluate": _evaluate_points,
    "dg.build_phi": _build_phi_reuse,
    "circle.circle_gram_mac": _circle_mac,
    "verify.run_suite": _run_suite,
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-module metrics named in BENCHMARK.json, as plain numbers."""
    t = tracer
    phi_calls = t.stat("dg.build_phi", "calls")
    digits = t.working_digits
    out = {
        "chain.inner.calls": t.stat("chain.inner", "calls"),
        "chain.inner.terms": t.counters.get("chain.inner.terms", 0),
        "chain.inner.self_s": t.stat("chain.inner", "self"),
        "chain.product_daughters.terms":
            t.counters.get("chain.product_daughters.terms", 0),
        "chain.product_daughters.self_s":
            t.stat("chain.product_daughters", "self"),
        "chain.apply_ladder.calls": t.stat("chain.apply_ladder", "calls"),
        "chain.apply_ladder.self_s": t.stat("chain.apply_ladder", "self"),
        "chain.evaluate.points": t.counters.get("chain.evaluate.points", 0),
        "chain.evaluate.self_s": t.stat("chain.evaluate", "self"),
        "qnum.qbinomial.calls": t.stat("qnum.qbinomial", "calls"),
        "qnum.qpochhammer.calls": t.stat("qnum.qpochhammer", "calls"),
        "qnum.self_s": t.module_self("qnum"),
        "dg.gram_phi.self_s": t.stat("dg.gram_phi", "self"),
        "dg.build_phi.calls": phi_calls,
        "dg.build_phi.reuse_ratio":
            t.counters.get("dg.build_phi.repeats", 0) / phi_calls
            if phi_calls else 0.0,
        "macfarlane.indefinite_gram.self_s":
            t.stat("macfarlane.indefinite_gram", "self"),
        "macfarlane.gram_term_budget.self_s":
            t.stat("macfarlane.gram_term_budget", "self"),
        "macfarlane.mac_auto_digits.self_s":
            t.stat("macfarlane.mac_auto_digits", "self"),
        "macfarlane.build_Bn.calls": t.stat("macfarlane.build_Bn", "calls"),
        "circle.circle_gram_mac.self_s":
            t.stat("circle.circle_gram_mac", "self"),
        "circle.circle_gram_mac.terms":
            t.counters.get("circle.circle_gram_mac.terms", 0),
        "circle.circle_gram_mac.working_digits":
            sum(digits) / len(digits) if digits else 0.0,
        "circle.circle_mac_auto_digits.self_s":
            t.stat("circle.circle_mac_auto_digits", "self"),
        "circle.circle_gram_dg.self_s": t.stat("circle.circle_gram_dg", "self"),
        "context.QContext.calls": t.stat("context.QContext", "calls"),
        "context.qpow.calls": t.stat("context.qpow", "calls"),
        "context.qpow.self_s": t.stat("context.qpow", "self"),
        "weights.an_gram.self_s": t.stat("weights.an_gram", "self"),
        "weights.gamma_family_gram.self_s":
            t.stat("weights.gamma_family_gram", "self"),
        "quad.integrate_real_line.calls":
            t.stat("quad.integrate_real_line", "calls"),
        "quad.integrate_real_line.self_s":
            t.stat("quad.integrate_real_line", "self"),
        "report.deviation.self_s": t.stat("report.deviation", "self"),
        "verify.run_suite.calls": t.stat("verify.run_suite", "calls"),
        "verify.self_s": t.module_self("verify"),
        "verify.auto_digits_chosen":
            t.counters.get("verify.auto_digits_chosen", 0),
        "cli.main.self_s": t.stat("cli.main", "self"),
    }
    return out
