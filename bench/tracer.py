"""Per-layer tracing of ``mbpm``, installed from outside the package.

``Tracer.install`` replaces each traced function at every name a caller
looks it up by: the module attribute where it is defined, every module
that imported it with ``from .x import name``, and the law classes'
sampler methods.  No source file changes, and ``uninstall`` puts the
originals back.

Functions called a bounded number of times per op record a span (name,
start, end, parent span, op id).  Functions called once per replicate,
step, draw or point only add to counters, so tracing stays cheap where
calls are many; a span keeps the summed time of the counters called
directly inside it, which its self time excludes.
"""
from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Leaf laws only: the joint IndependentOffspring delegates to these.
_LAW_CLASSES = (
    "PoissonOffspring", "BernoulliOffspring", "GeometricOffspring", "TableOffspring",
    "FiniteOffspring", "ShiftedPoissonImmigration", "DeterministicImmigration",
    "TableImmigration", "UniformEmigration", "TruncatedGeometricEmigration",
    "InverseCubeEmigration", "DeterministicEmigration",
)
_LAW_GROUPS = {
    "laws.scalar_draws": ("sample", "sample_sum"),
    "laws.batch_draws": ("sample_batch", "sample_sum_batch"),
    "laws.atoms": ("atoms",),
    "laws.raw_moment": ("raw_moment",),
}


def _arg(fn, name):
    """Work-count helper: the value of parameter ``name`` in one call of fn."""
    params = inspect.signature(fn).parameters
    index = list(params).index(name)
    default = params[name].default

    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(name, default)

    return get


def _plan(mbpm):
    """(module, attribute, label, kind, work) for every traced function.

    kind is "span" or "counter"; work maps a call's (args, kwargs) to
    (unit, amount) for functions that count units of work.
    """
    m = mbpm
    rep_n = _arg(m.model.simulate_path, "n")
    draws = _arg(m.model.sample_step_batch, "size")
    em_paths = _arg(m.limits.euler_maruyama, "n_paths")
    em_T = _arg(m.limits.euler_maruyama, "T")
    em_dt = _arg(m.limits.euler_maruyama, "dt")
    return [
        (m.cli, "main", "cli.main", "span", None),
        (m.cli, "run", "cli.run", "span", None),
        (m.model, "spec_from_dict", "model.spec_from_dict", "span", None),
        (m.model, "simulate_path", "model.simulate_path", "counter",
         lambda a, k: ("rep_steps", int(rep_n(a, k)))),
        (m.model, "sample_migration", "model.sample_migration", "counter", None),
        (m.model, "sample_step_batch", "model.sample_step_batch", "span",
         lambda a, k: ("draws", int(draws(a, k)))),
        *[(m.moments, f, f"moments.{f}", "span", None) for f in (
            "cond_mean", "cond_var", "sigma2", "migration_mean", "migration_var",
            "migration_kappa", "migration_atoms")],
        (m.classify, "classify_growth", "classify.classify_growth", "span", None),
        (m.classify, "estimate_exponents", "classify.estimate_exponents", "span", None),
        (m.limits, "euler_maruyama", "limits.euler_maruyama", "span",
         lambda a, k: ("cells", int(em_paths(a, k)) * int(round(em_T(a, k) / em_dt(a, k))))),
        (m.limits, "params_from_spec", "limits.params_from_spec", "span", None),
        (m.limits, "a_seq", "limits.a_seq", "span", None),
        (m.algebra, "perron", "algebra.perron", "span", None),
        (m.montecarlo, "run_ensemble", "montecarlo.run_ensemble", "span", None),
        (m.montecarlo, "stream_for", "montecarlo.stream_for", "counter", None),
        (m.montecarlo, "gamma_cdf", "montecarlo.gamma_cdf", "counter",
         lambda a, k: ("points", int(np.size(a[0] if a else k["x"])))),
        (m.montecarlo, "normal_cdf", "montecarlo.normal_cdf", "counter",
         lambda a, k: ("points", int(np.size(a[0] if a else k["x"])))),
        (m.montecarlo, "ks_statistic", "montecarlo.ks_statistic", "span", None),
        (m.montecarlo, "moment_check", "montecarlo.moment_check", "span", None),
    ]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    counter_s: float  # time of counters called directly inside this span
    in_counter: bool  # opened inside a counter, whose time already covers it


class Tracer:
    """Spans and counters of one traced round; ``reset`` starts the next."""

    def __init__(self):
        self._patches = []
        self.spans = []
        self.counters = {}  # (label, op) -> [calls, inclusive seconds]
        self.work = {}  # (label, unit, op) -> units of work
        self._counter_s = []  # per span: time of counters called directly inside
        self._state = [None, 0]  # innermost open span id, counter depth inside it
        self.op = None  # index of the op being run, set by the caller

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self.work.clear()
        self._counter_s.clear()
        self._state[:] = [None, 0]
        self.op = None

    # -- wrappers ---------------------------------------------------------
    # The counter wrapper runs a million times per round on paths-long, so
    # it keeps its state in closures rather than attribute lookups.

    def _count_work(self, label, work, args, kwargs):
        unit, amount = work(args, kwargs)
        key = (label, unit, self.op)
        self.work[key] = self.work.get(key, 0) + amount

    def _span(self, label, fn, work):
        perf, state, spans, counter_s = time.perf_counter, self._state, self.spans, self._counter_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self._count_work(label, work, args, kwargs)
            parent, depth = state
            sid = len(spans)
            spans.append(None)
            counter_s.append(0.0)
            state[0], state[1] = sid, 0
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                state[0], state[1] = parent, depth
                spans[sid] = Span(sid, label, start, end, parent, self.op,
                                  counter_s[sid], depth > 0)

        return traced

    def _counter(self, label, fn, work):
        perf, state, counters, counter_s = (
            time.perf_counter, self._state, self.counters, self._counter_s)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self._count_work(label, work, args, kwargs)
            state[1] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                state[1] -= 1
                key = (label, self.op)
                rec = counters.get(key)
                if rec is None:
                    rec = counters[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += dur
                if not state[1] and state[0] is not None:
                    counter_s[state[0]] += dur

        return traced

    # -- installation -----------------------------------------------------

    def install(self, mbpm):
        """Wrap every traced function of the imported ``mbpm`` package."""
        modules = [mbpm] + [getattr(mbpm, n) for n in (
            "algebra", "laws", "model", "moments", "classify", "limits", "montecarlo", "cli")]
        for module, attr, label, kind, work in _plan(mbpm):
            original = getattr(module, attr)
            wrapper = (self._span if kind == "span" else self._counter)(label, original, work)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, value))
                        setattr(mod, name, wrapper)
        for group, methods in _LAW_GROUPS.items():
            for cls_name in _LAW_CLASSES:
                cls = getattr(mbpm.laws, cls_name)
                for meth in methods:
                    if meth in cls.__dict__:
                        original = cls.__dict__[meth]
                        self._patches.append((cls, meth, original))
                        setattr(cls, meth, self._counter(group, original, None))

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches = []

    # -- results ----------------------------------------------------------

    def totals(self, ops=None):
        """label -> {"calls", "s", "self_s"} over the given op ids (all if None).

        Span self time is the span's duration minus its child spans and the
        counters called directly inside it; counters report no self time.
        """
        keep = (lambda op: True) if ops is None else (lambda op: op in ops)
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None and not sp.in_counter:
                child[sp.parent] += sp.end - sp.start
        out = {}
        for sp in self.spans:
            if not keep(sp.op):
                continue
            rec = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = sp.end - sp.start
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[sp.id] - sp.counter_s
        for (label, op), (calls, seconds) in self.counters.items():
            if keep(op):
                rec = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": None})
                rec["calls"] += calls
                rec["s"] += seconds
        return out

    def work_totals(self, ops=None):
        """(label, unit) -> units of work over the given op ids (all if None)."""
        out = {}
        for (label, unit, op), amount in self.work.items():
            if ops is None or op in ops:
                out[(label, unit)] = out.get((label, unit), 0) + amount
        return out

    def counts(self):
        """Every exact count of the round, keyed by op: calls and work units."""
        out = {("calls", label, op): c for (label, op), (c, _) in self.counters.items()}
        for sp in self.spans:
            key = ("calls", sp.name, sp.op)
            out[key] = out.get(key, 0) + 1
        out.update({("work", label, unit, op): a for (label, unit, op), a in self.work.items()})
        return out

    def span_records(self):
        """Spans as plain dicts, times in seconds from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        return [
            {"id": sp.id, "name": sp.name, "op": sp.op, "parent": sp.parent,
             "start": sp.start - origin, "end": sp.end - origin,
             "counter_s": sp.counter_s}
            for sp in self.spans
        ]
