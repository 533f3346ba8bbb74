"""Spans and counters around ccsym's layers, for the traced run only.

`install(tracer, spans=True)` replaces every public module-level
function of the ccsym modules with a span-recording wrapper, in the
defining module and in every module that imported it by name
(`ccsym.checks.transport` is the same function as
`ccsym.chen.transport`).  Each `DifferentialForm` subclass's `eval` gets
its own span, and the RationalFunctionA evaluators get spans too.
`install(tracer, spans=False)` instead puts call counters on the
operations that take a few microseconds (algebra and Laurent products,
inverses, Q(i) products); their cost is measured by `algebra_micro`.
Spans and counters go into separate passes, so the counters' cost does
not land in the span times.  The scalar helpers in `ccsym.scalars` are
left unwrapped.

Spans live in flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import random
import statistics
import sys
import time
from array import array
from collections import Counter

SPAN_MODULES = (
    "algebra", "laurent", "symbol", "ratfunc", "paths", "chen", "checks",
    "parsing", "reports", "cli",
)
RATFUNC_METHODS = ("dlog_eval", "eval", "expand_at")
# Per-layer metrics read from the counter passes; all others come from
# the span passes.
COUNTER_METRICS = ("algebra.mul.calls", "algebra.inverse.calls", "laurent.mul.calls", "scalars.mul.calls")
MICRO_REPEATS = 5
MICRO_TARGET_S = 0.1


class Tracer:
    """Spans (name, start, end, parent, check, pass) plus event counters."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.check = array("i")
        self.pass_no = array("i")
        self.stack = [-1]
        self.check_id = -1
        self.pass_id = -1
        self.counts = Counter()

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, observe=None):
        """Wrap fn so each call records a span; observe(args, kwargs,
        result) may add to the counters."""
        nid = self.name_id(name)
        stack, start, end = self.stack, self.start, self.end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            self.span_name.append(nid)
            self.parent.append(stack[-1])
            self.check.append(self.check_id)
            self.pass_no.append(self.pass_id)
            start.append(0)
            end.append(0)
            stack.append(sid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path):
        """All spans, gzip-compressed: a JSON header line with the span
        names, then one `[name, start_ns, end_ns, parent, check, pass]`
        line per span; `name` indexes the header's names, `parent` is a
        line number (0 = first span) or -1."""
        columns = (self.span_name, self.start, self.end, self.parent, self.check, self.pass_no)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "columns": ["name", "start_ns", "end_ns", "parent", "check", "pass"]}))
            fh.write("\n")
            for row in zip(*columns):
                fh.write("[%d,%d,%d,%d,%d,%d]\n" % row)


def self_times(durations, parents):
    """A span's self time is its duration minus its direct children's.
    Spans from one thread nest, so children never overlap each other."""
    out = array("q", durations)
    for child, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= durations[child]
    return out


def _transport_observer(tracer, fn):
    signature = inspect.signature(fn)

    def observe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        segments = len(bound.arguments["path"].segments)
        tracer.counts["paths.segments"] += segments
        tracer.counts["chen.steps"] += segments * bound.arguments["cfg"].steps_per_segment
        tracer.counts["chen.words"] += len(result.coeffs)

    return observe


def install(tracer: Tracer, spans: bool):
    """Wrap the loaded ccsym modules in place (irreversible; traced
    process only): with spans if `spans`, else with call counters."""
    from ccsym.algebra import AlgebraElement
    from ccsym.chen import DifferentialForm
    from ccsym.laurent import LaurentSeries
    from ccsym.ratfunc import RationalFunctionA
    from ccsym.scalars import GaussianRational

    if not spans:
        AlgebraElement.__mul__ = tracer.counter("algebra.mul.calls", AlgebraElement.__mul__)
        AlgebraElement.inverse = tracer.counter("algebra.inverse.calls", AlgebraElement.inverse)
        LaurentSeries.__mul__ = tracer.counter("laurent.mul.calls", LaurentSeries.__mul__)
        GaussianRational.__mul__ = tracer.counter("scalars.mul.calls", GaussianRational.__mul__)
        return

    modules = [m for n, m in sys.modules.items() if n == "ccsym" or n.startswith("ccsym.")]
    wrappers = {}
    for short in SPAN_MODULES:
        module = sys.modules[f"ccsym.{short}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            observe = _transport_observer(tracer, obj) if (short, name) == ("chen", "transport") else None
            wrappers[obj] = tracer.span(f"{short}.{name}", obj, observe)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])

    for method in RATFUNC_METHODS:
        setattr(RationalFunctionA, method,
                tracer.span(f"ratfunc.{method}", getattr(RationalFunctionA, method)))
    pending = list(DifferentialForm.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "eval" in vars(cls):
            cls.eval = tracer.span(f"chen.form_eval.{cls.__name__}", vars(cls)["eval"])


def pass_totals(tracer: Tracer, passes: int) -> list:
    """Per pass: (calls, inclusive ns, self ns) by span name, and self ns
    by layer (the module part of the name)."""
    durations = array("q", (e - s for s, e in zip(tracer.start, tracer.end)))
    selfs = self_times(durations, tracer.parent)
    by_id = [(Counter(), Counter(), Counter()) for _ in range(passes)]
    for nid, p, dur, own in zip(tracer.span_name, tracer.pass_no, durations, selfs):
        calls, incl, self_ns = by_id[p]
        calls[nid] += 1
        incl[nid] += dur
        self_ns[nid] += own
    out = []
    for calls, incl, self_ns in by_id:
        named = [Counter({tracer.names[k]: v for k, v in c.items()}) for c in (calls, incl, self_ns)]
        layers = Counter()
        for name, own in named[2].items():
            layers[name.split(".")[0]] += own
        out.append((*named, layers))
    return out


def layer_metrics(totals, counts: Counter) -> dict:
    """Per-layer numbers of one traced pass from its `pass_totals` entry
    and its counter deltas.  Times are span self times unless named `.us`
    (mean inclusive time per call)."""
    calls, incl, self_ns, layer_self = totals
    form_names = [n for n in calls if n.startswith("chen.form_eval.")]
    form_evals = sum(calls[n] for n in form_names)
    steps = counts["chen.steps"]

    def per_call_us(name_list):
        n = sum(calls[x] for x in name_list)
        return sum(incl[x] for x in name_list) / n / 1e3 if n else 0.0

    return {
        "chen.transport.calls": (calls["chen.transport"], "count"),
        "chen.transport.self_ms": (self_ns["chen.transport"] / 1e6, "ms"),
        "chen.steps": (steps, "count"),
        "chen.step_us": (self_ns["chen.transport"] / 1e3 / steps if steps else 0.0, "us"),
        "chen.words": (counts["chen.words"], "count"),
        "chen.form_evals": (form_evals, "count"),
        "chen.form_eval_us": (per_call_us(form_names), "us"),
        "paths.segments": (counts["paths.segments"], "count"),
        "ratfunc.dlog_eval.calls": (calls["ratfunc.dlog_eval"], "count"),
        "ratfunc.dlog_eval.us": (per_call_us(["ratfunc.dlog_eval"]), "us"),
        "ratfunc.expand_at.calls": (calls["ratfunc.expand_at"], "count"),
        "ratfunc.expand_at.self_ms": (self_ns["ratfunc.expand_at"] / 1e6, "ms"),
        "laurent.factorize.calls": (calls["laurent.factorize"], "count"),
        "laurent.factorize.self_ms": (self_ns["laurent.factorize"] / 1e6, "ms"),
        "laurent.mul.calls": (counts["laurent.mul.calls"], "count"),
        "symbol.cc_symbol.calls": (calls["symbol.cc_symbol"], "count"),
        "symbol.cc_symbol.self_ms": (self_ns["symbol.cc_symbol"] / 1e6, "ms"),
        "algebra.mul.calls": (counts["algebra.mul.calls"], "count"),
        "algebra.inverse.calls": (counts["algebra.inverse.calls"], "count"),
        "scalars.mul.calls": (counts["scalars.mul.calls"], "count"),
        "checks.self_ms": (layer_self["checks"] / 1e6, "ms"),
        "parsing.self_ms": (layer_self["parsing"] / 1e6, "ms"),
        "cli.self_ms": (layer_self["cli"] / 1e6, "ms"),
    }


# -- algebra micro-timings ------------------------------------------------------


def algebra_micro(signatures, seed: int) -> dict:
    """Median µs per mul and per inverse on both backends, on seeded dense
    operands over the given (generators, truncation degree) signatures.
    Each of the MICRO_REPEATS timings loops over the operands for about
    MICRO_TARGET_S seconds."""
    from fractions import Fraction

    from ccsym.algebra import AlgebraSignature, Backend
    from ccsym.scalars import gaussian

    rng = random.Random(f"algebra-micro:{seed}")
    exact_pairs = []
    for gens, degree in signatures:
        sig = AlgebraSignature(tuple(gens), degree, Backend.EXACT)
        monos = [()]
        for _ in gens:
            monos = [m + (e,) for m in monos for e in range(degree)]
        monos = [m for m in monos if sum(m) < degree]

        def element():
            coeffs = {
                m: gaussian(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-2, 2), 3))
                for m in monos
            }
            coeffs[(0,) * len(gens)] = gaussian(rng.choice((1, 2, 3, -1, -2)), rng.randint(-1, 1))
            return sig.element(coeffs)

        exact_pairs.extend((element(), element()) for _ in range(8))
    float_pairs = [(a.widen(), b.widen()) for a, b in exact_pairs]

    def per_op_us(pairs, op):
        started = time.perf_counter()
        for a, b in pairs:
            op(a, b)
        rounds = max(1, round(MICRO_TARGET_S / (time.perf_counter() - started)))
        samples = []
        for _ in range(MICRO_REPEATS):
            started = time.perf_counter()
            for _ in range(rounds):
                for a, b in pairs:
                    op(a, b)
            samples.append((time.perf_counter() - started) / (rounds * len(pairs)) * 1e6)
        return statistics.median(samples)

    def mul(a, b):
        return a * b

    def inverse(a, b):
        return b.inverse()

    return {
        "algebra.mul.float.us": (per_op_us(float_pairs, mul), "us"),
        "algebra.inverse.float.us": (per_op_us(float_pairs, inverse), "us"),
        "algebra.mul.exact.us": (per_op_us(exact_pairs, mul), "us"),
        "algebra.inverse.exact.us": (per_op_us(exact_pairs, inverse), "us"),
    }
