"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces public functions of the package's modules
with timing wrappers (and ``uninstall()`` puts the originals back); the
package's source is not touched.  Every wrapped call pushes a frame on one
stack, so a call's self time is its duration minus the time of the
wrapped calls nested in it.

Calls into ``cli``, ``eichler``, ``modforms`` and ``contfrac`` are recorded
as spans (name, start, end, parent span, op id).  The hot ``series``
methods and the symbol evaluators run up to 10^6 times per run, so they
are only accumulated: count, total and self time (and, for products, the
coefficient pairs visited) per parent span.
"""

import functools
import time
from collections import defaultdict

from dedekindsym import cli, contfrac, eichler, modforms, symbols
from dedekindsym.errors import NonConvergence
from dedekindsym.series import TruncSeries

CLI_COMMANDS = ("symbol", "table", "verify", "decompose", "cfrac")

# (layer metric prefix, stats reported), in report order.
LAYERS = (
    [("eichler.reg_to_cusp", ("calls", "self_s")),
     ("eichler.build_D", ("calls", "self_s")),
     ("eichler.build_F", ("calls", "self_s")),
     ("modforms.form_value", ("calls", "total_s")),
     ("modforms.dedekind_symbol_length1", ("calls", "total_s")),
     ("modforms.reciprocity_law_check", ("calls", "total_s"))]
    + [(f"series.init.{k}", ("calls", "total_s")) for k in ("rational", "complex")]
    + [(f"series.mul.{k}", ("calls", "self_s", "terms")) for k in ("rational", "complex")]
    + [(f"series.{m}.{k}", ("calls", "self_s"))
       for m in ("inverse", "exp") for k in ("rational", "complex")]
    + [("series.is_grouplike", ("calls", "total_s")),
       ("symbols.evaluate", ("calls", "self_s")),
       ("contfrac.canonical", ("calls", "total_s")),
       ("contfrac.tails", ("calls", "total_s"))]
    + [(f"cli.{c}", ("calls", "total_s")) for c in CLI_COMMANDS]
)
COUNTERS = ("eichler.nonconvergence",)
STAT_INDEX = {"calls": 0, "total_s": 1, "self_s": 2, "terms": 3}


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for prefix, stats in LAYERS:
        for stat in stats:
            out[f"{prefix}.{stat}"] = "s" if stat.endswith("_s") else "count"
    for name in COUNTERS:
        out[name] = "count"
    return out


def _series_kind(args, result):
    return getattr(args[0], "kind", "invalid")


def _mul_kind(args, result):
    return result.kind if isinstance(result, TruncSeries) else args[0].kind


def _mul_terms(args):
    a, b = args
    return len(a.coeffs) * len(b.coeffs) if isinstance(b, TruncSeries) else 0


class Tracer:
    """In-memory spans and per-parent accumulators for one run."""

    def __init__(self):
        self.spans = []      # [id, parent id, op id, name, start, end, self_s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])  # (parent, name) -> calls, total, self, terms
        self.counters = defaultdict(int)
        self.op_id = None
        self._frames = []    # per open call: [time of the wrapped calls nested in it]
        self._span_stack = []
        self._patches = []

    # -- recording --------------------------------------------------------

    def _call(self, fn, name, span, args, kwargs, kind=None, terms=None):
        parent = self._span_stack[-1] if self._span_stack else None
        rec = None
        if span:
            rec = [len(self.spans), parent[0] if parent else None, self.op_id, name, 0.0, 0.0, 0.0]
            self.spans.append(rec)
            self._span_stack.append(rec)
        frame = [0.0]
        self._frames.append(frame)
        n_terms = terms(args) if terms else 0
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._frames.pop()
            if span:
                self._span_stack.pop()
            dur = end - start
            if self._frames:
                self._frames[-1][0] += dur
            own = dur - frame[0]
            if rec is not None:
                rec[4], rec[5], rec[6] = start, end, own
            label = f"{name}.{kind(args, result)}" if kind else name
            acc = self.stats[(parent[3] if parent else "", label)]
            acc[0] += 1
            acc[1] += dur
            acc[2] += own
            acc[3] += n_terms

    def run_op(self, op_id, fn):
        """Run an op inside its root span; its children share ``op_id``."""
        self.op_id = op_id
        return self._call(fn, "op", True, (), {})

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, name, span, kind=None, terms=None, on_error=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_error is None:
                return tracer._call(original, name, span, args, kwargs, kind, terms)
            try:
                return tracer._call(original, name, span, args, kwargs, kind, terms)
            except on_error:
                tracer.counters["eichler.nonconvergence"] += 1
                raise

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        for c in CLI_COMMANDS:
            self._patch(cli, f"cmd_{c}", f"cli.{c}", True)
        for fn in ("build_D", "build_F"):
            self._patch(eichler, fn, f"eichler.{fn}", True, on_error=NonConvergence)
        self._patch(eichler, "reg_to_cusp", "eichler.reg_to_cusp", True)
        # eichler's own name for form_value is called only on a miss of its
        # form-value cache, so these calls count the misses.
        self._patch(eichler, "form_value", "modforms.form_value", True)
        for fn in ("dedekind_symbol_length1", "reciprocity_law_check"):
            self._patch(modforms, fn, f"modforms.{fn}", True)
        for fn in ("canonical", "tails"):
            self._patch(contfrac, fn, f"contfrac.{fn}", True)
        self._patch(TruncSeries, "__init__", "series.init", False, kind=_series_kind)
        self._patch(TruncSeries, "__mul__", "series.mul", False, kind=_mul_kind, terms=_mul_terms)
        self._patch(TruncSeries, "inverse", "series.inverse", False, kind=_series_kind)
        self._patch(TruncSeries, "exp", "series.exp", False, kind=_series_kind)
        self._patch(TruncSeries, "is_grouplike", "series.is_grouplike", False)
        self._patch(symbols._SeriesFn, "__call__", "symbols.evaluate", False)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- reporting -------------------------------------------------------

    def snapshot(self):
        """Per-layer metrics accumulated so far, summed over parents."""
        totals = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for (_, label), acc in self.stats.items():
            tot = totals[label]
            for i, v in enumerate(acc):
                tot[i] += v
        out = {}
        for prefix, stats in LAYERS:
            for stat in stats:
                out[f"{prefix}.{stat}"] = totals[prefix][STAT_INDEX[stat]]
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out

    def by_parent(self):
        """Accumulators per (parent span, label), for the trace file."""
        return [{"parent": parent, "name": label, "calls": a[0], "total_s": a[1],
                 "self_s": a[2], "terms": a[3]}
                for (parent, label), a in sorted(self.stats.items())]
