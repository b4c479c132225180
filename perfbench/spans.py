"""Span tracing around recnum's public layer functions, and the per-layer
metrics derived from the spans.

The child side (`Tracer`) wraps each function in TARGETS in every `recnum.*`
namespace that holds a reference to it (blockcert, for example, imports
`dirichlet_kernel_abs` by name), keeps spans in memory and exports them at
the end of the operation. The parent side (`layer_metrics`) turns the spans
of one traced pass into the metrics listed in PER_LAYER.

This module imports neither numpy nor recnum at module level, so the parent
process stays free of the program under test.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import sys
import threading
import time


def _certificate_sha256(rep) -> str:
    """sha256 over every certified field of a BlockBoundReport, at full
    precision (float.hex). runtime_s is a timing, not part of the certificate."""
    g = rep.grid
    fields = (rep.a, g.eps.hex(), g.eta.hex(), g.delta.hex(), rep.M2_2.hex(),
              rep.M2_3.hex(), rep.M2.hex(), rep.kappa.hex(), rep.ok, rep.main_nodes)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


# "<module>.<function>": hook(bound arguments, result) -> quantities of the call.
TARGETS = {
    "base.make_context": None,
    "digits.digit_sums_range": lambda a, r: {"ints": int(r.size)},
    "expsum.exp_sum_direct": lambda a, r: {"terms": a["ctx"].term(a["n"])},
    "expsum.exp_sum_recurrent": None,
    "expsum.coefficient_A": None,
    "expsum.one_norm": lambda a, r: {"nodes": r.nodes},
    "expsum.derivative_one_norm": None,
    "expsum.gallagher_check": None,
    "bounds.dirichlet_kernel_abs": lambda a, r: {"evals": int(r.size)},
    "bounds.dirichlet_sup": None,
    "bounds.interval_sup_deriv": None,
    "blockcert.certify_M2_2_detail": lambda a, r: {"main_nodes": r.main_nodes},
    "blockcert.certify_M2_3": None,
    "blockcert.certify_block_bound": lambda a, r: {
        "a": r.a, "sha256": _certificate_sha256(r)},
    "experiments.sieve_spf": lambda a, r: {"bytes": int(r.spf.nbytes)},
    "experiments.almost_prime_count": lambda a, r: {"ints": a["x"]},
    "experiments.von_mangoldt_sum": lambda a, r: {"ints": a["x"]},
    "experiments.generalized_von_mangoldt": lambda a, r: {"ints": a["x"]},
    "experiments.von_mangoldt_table": lambda a, r: {"ints": a["x"]},
    "experiments.bv_discrepancy": lambda a, r: {"ints": a["x"]},
    "cli.main": None,
}

_EXPERIMENTS = ("almost_prime_count", "von_mangoldt_sum", "generalized_von_mangoldt",
                "von_mangoldt_table", "bv_discrepancy")

# Every metric a traced run reports, with its unit, in output order.
PER_LAYER = [
    ("bounds.dirichlet_kernel_abs.calls", "count"),
    ("bounds.dirichlet_kernel_abs.evals", "count"),
    ("bounds.dirichlet_kernel_abs.busy_s", "s"),
    ("bounds.dirichlet_kernel_abs.evals_per_s", "1/s"),
    ("bounds.dirichlet_kernel_abs.bytes_computed", "B"),
    ("bounds.dirichlet_sup.calls", "count"),
    ("bounds.dirichlet_sup.hits", "count"),
    ("bounds.dirichlet_sup.hit_ratio", "ratio"),
    ("bounds.dirichlet_sup.self_s", "s"),
    ("bounds.interval_sup_deriv.calls", "count"),
    ("bounds.interval_sup_deriv.busy_s", "s"),
    ("blockcert.certify_M2_2_detail.busy_s", "s"),
    ("blockcert.certify_M2_2_detail.main_nodes", "count"),
    ("blockcert.certify_M2_2_detail.nodes_per_s", "1/s"),
    ("blockcert.certify_M2_3.busy_s", "s"),
    ("blockcert.certify_block_bound.busy_s", "s"),
    ("blockcert.parallel_eff", "ratio"),
    ("digits.digit_sums_range.calls", "count"),
    ("digits.digit_sums_range.ints", "count"),
    ("digits.digit_sums_range.busy_s", "s"),
    ("digits.digit_sums_range.ints_per_s", "1/s"),
    ("expsum.exp_sum_direct.busy_s", "s"),
    ("expsum.exp_sum_direct.terms", "count"),
    ("expsum.exp_sum_recurrent.busy_s", "s"),
    ("expsum.coefficient_A.calls", "count"),
    ("expsum.one_norm.busy_s", "s"),
    ("expsum.one_norm.nodes", "count"),
    ("expsum.derivative_one_norm.busy_s", "s"),
    ("expsum.gallagher_check.busy_s", "s"),
    ("experiments.sieve_spf.busy_s", "s"),
    ("experiments.sieve_spf.bytes", "B"),
    *[(f"experiments.{f}.{q}", "count" if q == "ints" else "s")
      for f in _EXPERIMENTS for q in ("busy_s", "self_s", "ints")],
    ("base.make_context.calls", "count"),
    ("base.make_context.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records one span per call of a wrapped function: (id, name, start,
    end, parent id, thread id, operation id, quantities).

    A span opened on a worker thread with no open span of its own gets the
    innermost open span of the main thread as its parent: the only threads
    recnum starts are blockcert's pool workers, submitted from the main thread.
    """

    def __init__(self, op: int):
        self.op = op
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._main_tid = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._cached: dict[str, object] = {}

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_tid:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, hook):
        sig = inspect.signature(fn)
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            tid = threading.get_ident()
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, t0, time.perf_counter(), parent, tid, self.op, {}))
                raise
            finally:
                stack.pop()
            t1 = time.perf_counter()
            quantities = hook(sig.bind(*args, **kwargs).arguments, result) if hook else {}
            spans.append((sid, name, t0, t1, parent, tid, self.op, quantities))
            return result

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
            self._cached[name] = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded recnum namespace that refers to it."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "recnum" or n.startswith("recnum.")}
        for name, hook in TARGETS.items():
            mod_name, fn_name = name.split(".")
            orig = getattr(modules["recnum." + mod_name], fn_name)
            wrapper = self._wrap(name, orig, hook)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def export(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "cache": {n: fn.cache_info()._asdict() for n, fn in self._cached.items()},
        }


class _Agg:
    __slots__ = ("calls", "busy", "self_", "sums")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0
        self.sums: dict[str, float] = {}


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def aggregate(traces: list[dict]) -> dict[str, _Agg]:
    """Per-function calls, busy time (thread-seconds), self time (busy minus
    the part of each span that its child spans cover) and summed quantities."""
    aggs: dict[str, _Agg] = {n: _Agg() for n in TARGETS}
    for tr in traces:
        spans = tr["spans"]
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _name, t0, t1, parent, *_ in spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        for sid, name, t0, t1, _parent, _tid, _op, quantities in spans:
            agg = aggs[name]
            agg.calls += 1
            agg.busy += t1 - t0
            agg.self_ += (t1 - t0) - _covered(t0, t1, children.get(sid, []))
            for key, value in quantities.items():
                if isinstance(value, (int, float)):
                    agg.sums[key] = agg.sums.get(key, 0) + value
    return aggs


def certificates(trace: dict) -> list[tuple[int, str, float]]:
    """(a, sha256, busy seconds) of every certify_block_bound call in a trace."""
    return [(q["a"], q["sha256"], t1 - t0)
            for _sid, name, t0, t1, _p, _tid, _op, q in trace["spans"]
            if name == "blockcert.certify_block_bound"]


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(traces: list[dict], parallel_eff: float, overhead_s: float) -> dict:
    """The PER_LAYER metrics of one traced pass. A layer the workload never
    calls reports 0 for every quantity; parallel_eff is 0 where no serial
    certification was made."""
    a = aggregate(traces)
    m: dict[str, float] = {}
    k = a["bounds.dirichlet_kernel_abs"]
    evals = k.sums.get("evals", 0)
    m["bounds.dirichlet_kernel_abs.calls"] = k.calls
    m["bounds.dirichlet_kernel_abs.evals"] = evals
    m["bounds.dirichlet_kernel_abs.busy_s"] = k.busy
    m["bounds.dirichlet_kernel_abs.evals_per_s"] = _rate(evals, k.busy)
    # one float64 read and one float64 written per evaluation (computed, not measured)
    m["bounds.dirichlet_kernel_abs.bytes_computed"] = 16 * evals
    sup = a["bounds.dirichlet_sup"]
    hits = sum(tr["cache"].get("bounds.dirichlet_sup", {}).get("hits", 0) for tr in traces)
    m["bounds.dirichlet_sup.calls"] = sup.calls
    m["bounds.dirichlet_sup.hits"] = hits
    m["bounds.dirichlet_sup.hit_ratio"] = hits / sup.calls if sup.calls else 0.0
    m["bounds.dirichlet_sup.self_s"] = sup.self_
    m["bounds.interval_sup_deriv.calls"] = a["bounds.interval_sup_deriv"].calls
    m["bounds.interval_sup_deriv.busy_s"] = a["bounds.interval_sup_deriv"].busy
    detail = a["blockcert.certify_M2_2_detail"]
    nodes = detail.sums.get("main_nodes", 0)
    m["blockcert.certify_M2_2_detail.busy_s"] = detail.busy
    m["blockcert.certify_M2_2_detail.main_nodes"] = nodes
    m["blockcert.certify_M2_2_detail.nodes_per_s"] = _rate(nodes, detail.busy)
    m["blockcert.certify_M2_3.busy_s"] = a["blockcert.certify_M2_3"].busy
    m["blockcert.certify_block_bound.busy_s"] = a["blockcert.certify_block_bound"].busy
    m["blockcert.parallel_eff"] = parallel_eff
    d = a["digits.digit_sums_range"]
    ints = d.sums.get("ints", 0)
    m["digits.digit_sums_range.calls"] = d.calls
    m["digits.digit_sums_range.ints"] = ints
    m["digits.digit_sums_range.busy_s"] = d.busy
    m["digits.digit_sums_range.ints_per_s"] = _rate(ints, d.busy)
    m["expsum.exp_sum_direct.busy_s"] = a["expsum.exp_sum_direct"].busy
    m["expsum.exp_sum_direct.terms"] = a["expsum.exp_sum_direct"].sums.get("terms", 0)
    m["expsum.exp_sum_recurrent.busy_s"] = a["expsum.exp_sum_recurrent"].busy
    m["expsum.coefficient_A.calls"] = a["expsum.coefficient_A"].calls
    m["expsum.one_norm.busy_s"] = a["expsum.one_norm"].busy
    m["expsum.one_norm.nodes"] = a["expsum.one_norm"].sums.get("nodes", 0)
    m["expsum.derivative_one_norm.busy_s"] = a["expsum.derivative_one_norm"].busy
    m["expsum.gallagher_check.busy_s"] = a["expsum.gallagher_check"].busy
    m["experiments.sieve_spf.busy_s"] = a["experiments.sieve_spf"].busy
    m["experiments.sieve_spf.bytes"] = a["experiments.sieve_spf"].sums.get("bytes", 0)
    for f in _EXPERIMENTS:
        e = a[f"experiments.{f}"]
        m[f"experiments.{f}.busy_s"] = e.busy
        m[f"experiments.{f}.self_s"] = e.self_
        m[f"experiments.{f}.ints"] = e.sums.get("ints", 0)
    m["base.make_context.calls"] = a["base.make_context"].calls
    m["base.make_context.busy_s"] = a["base.make_context"].busy
    m["cli.main.self_s"] = a["cli.main"].self_
    m["trace.spans"] = sum(len(tr["spans"]) for tr in traces)
    m["trace.overhead_s"] = overhead_s
    return m
