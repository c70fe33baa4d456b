"""Spans around the package's public functions, recorded from outside the package.

``Tracer.install`` replaces every binding of each traced function in the
``deadtime`` modules (the defining module and every module that bound it by
``from ... import``) with a wrapper that records a span; ``restore`` puts
the originals back.  Nothing under ``src/`` changes.  Spans stay in memory
until ``layer_metrics`` turns them into the per-layer numbers.

A span records its name, start, end, parent span, thread and operation.
Self time subtracts only children on the same thread; busy time of a name
sums its outermost spans (a call that re-enters a name already open on the
thread records nothing).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    op: int | None
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- counters: what a call did, read from its bound arguments and result ----


def _count_rejection(a, result):
    cfg = a["cfg"]
    est = result[0] if isinstance(result, tuple) else result
    t0, t1 = cfg.t_span
    return {
        "events": int(est.event_count.sum()),
        "component_bins": cfg.components * cfg.n_bins,
        "proposals_bound": cfg.components * cfg.lambda_max * (t1 - t0),
    }


def _count_nodes(a, result):
    return {"nodes": a["grid"].n}


def _count_law_nodes(a, result):
    x = getattr(result.law, "x", None)  # only tabulated laws have nodes
    return {"law_nodes": 0 if x is None else x.size}


def _count_solve(a, result):
    start, final = a["sys"].K, result.order
    return {"final_K": final, "doublings": round(math.log2(final / start))}


COUNTERS = {
    "mc_sim.simulate_rejection": _count_rejection,
    "gamma_chain.integrate": lambda a, r: {"rk4_steps": a["grid"].n - 1},
    "dde.integrate_ppd": _count_nodes,
    "dde.integrate_pprd": _count_nodes,
    "analytic_ppd.solve_with_history": lambda a, r: {"points": a["grid"].n},
    "spectral.qk_array": lambda a, r: {"qk_evals": 2 * a["kmax"] + 1},
    "spectral.solve_active_spectrum": _count_solve,
    "spectral.infer_input_spectrum": lambda a, r: {"condition": r[1]},
    "renewal_map.construct": _count_law_nodes,
    "core.write_law_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
}

#: (module, attribute, span name).  Names are "<module>.<function>"; the
#: three renewal constructions share one name.
TARGETS = [
    ("deadtime.mc_sim", "simulate_rejection", "mc_sim.simulate_rejection"),
    ("deadtime.mc_sim", "simulate_generative", "mc_sim.simulate_generative"),
    ("deadtime.mc_sim", "hazard_pprd", "mc_sim.hazard_pprd"),
    ("deadtime.gamma_chain", "step_response", "gamma_chain.step_response"),
    ("deadtime.gamma_chain", "integrate", "gamma_chain.integrate"),
    ("deadtime.dde", "integrate_ppd", "dde.integrate_ppd"),
    ("deadtime.dde", "integrate_pprd", "dde.integrate_pprd"),
    ("deadtime.analytic_ppd", "step_response", "analytic_ppd.step_response"),
    ("deadtime.analytic_ppd", "solve_with_history", "analytic_ppd.solve_with_history"),
    ("deadtime.spectral", "qk_array", "spectral.qk_array"),
    ("deadtime.spectral", "solve_active_spectrum", "spectral.solve_active_spectrum"),
    ("deadtime.spectral", "output_spectrum", "spectral.output_spectrum"),
    ("deadtime.spectral", "periodic_rate", "spectral.periodic_rate"),
    ("deadtime.spectral", "infer_input_spectrum", "spectral.infer_input_spectrum"),
    ("deadtime.spectral", "cosine_continued_fraction", "spectral.cosine_continued_fraction"),
    ("deadtime.renewal_map", "construct_gamma", "renewal_map.construct"),
    ("deadtime.renewal_map", "construct_lognormal", "renewal_map.construct"),
    ("deadtime.renewal_map", "dead_time_from_interval", "renewal_map.construct"),
    ("deadtime.renewal_map", "minimal_lambda", "renewal_map.minimal_lambda"),
    ("deadtime.renewal_map", "check_hazard_condition", "renewal_map.check_hazard_condition"),
    ("deadtime.renewal_map", "convolution_residual", "renewal_map.convolution_residual"),
    ("deadtime.core", "write_law_csv", "core.write_law_csv"),
    ("deadtime.core", "read_law_csv", "core.read_law_csv"),
]


def load_modules() -> None:
    """Import every traced module, so the first traced repetition pays no import."""
    for mod_name in sorted({t[0] for t in TARGETS} | {"deadtime.cli"}):
        importlib.import_module(mod_name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None

    # --- spans -------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None, push: bool = True) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, parent, threading.get_ident(), self.op, time.perf_counter())
        if push:
            stack.append(span)
        return span

    def close(self, span: Span, pop: bool = True) -> None:
        span.end = time.perf_counter()
        if pop:
            self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn, parent: int | None = None):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(s.name == name for s in self._stack()):
                return fn(*args, **kwargs)
            span = self.open(name, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    # --- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of each target in the loaded ``deadtime`` modules."""
        modules = [m for n, m in sys.modules.items() if n == "deadtime" or n.startswith("deadtime.")]
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        spectrum = sys.modules["deadtime.core"].Spectrum
        from_csv = spectrum.__dict__["from_csv"]
        self._patch(spectrum, "from_csv", classmethod(self.wrap("core.Spectrum.from_csv", from_csv.__func__)))
        self._patch(sys.modules["deadtime.cli"], "ThreadPoolExecutor", self._pool_class())

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Records the pool's lifetime and one span per task on its worker."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._span = tracer.open("cli.pool", push=False)
                self._span.counts = {"workers": self._max_workers}

            def submit(self, fn, /, *args, **kwargs):
                task = tracer.wrap("cli.worker", fn, parent=self._span.id)
                return super().submit(task, *args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                if math.isnan(self._span.end):
                    tracer.close(self._span, pop=False)

        return TracedPool


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced repetition.

    ``ops`` are the operation spans ("cli.<command>" or "lib.<workload>");
    ``spans`` are the layer spans recorded inside them.
    """
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[(s.parent, s.thread)] += s.duration

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_time(name):
        return sum(s.duration - child_time[(s.id, s.thread)] for s in by_name[name])

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def largest(name, key):
        return max((s.counts.get(key, 0) for s in by_name[name]), default=0)

    solver = [s for s in spans if not s.name.startswith(("cli.", "lib."))]
    cli_self = 0.0
    for op in ops:
        if op.name.startswith("cli."):
            inside = [(max(s.start, op.start), min(s.end, op.end)) for s in solver if s.op == op.op]
            cli_self += op.duration - _union_length([iv for iv in inside if iv[1] > iv[0]])
    pool_capacity = sum(s.duration * s.counts["workers"] for s in by_name["cli.pool"])

    rejection_self = self_time("mc_sim.simulate_rejection")
    # a fixed-window integrate_pprd delegates to integrate_ppd: count it once
    def under_dde(s):
        parent = by_id.get(s.parent)
        return parent is not None and parent.name.startswith("dde.")

    dde_top = [s for s in by_name["dde.integrate_ppd"] + by_name["dde.integrate_pprd"]
               if not under_dde(s)]
    return {
        "cli.self_s": cli_self,
        "cli.validate.s": sum(op.duration for op in ops if op.name == "cli.validate"),
        "cli.pool_efficiency": _ratio(busy("cli.worker"), pool_capacity),
        "mc_sim.simulate_rejection.self_s": rejection_self,
        "mc_sim.simulate_rejection.calls": len(by_name["mc_sim.simulate_rejection"]),
        "mc_sim.hazard_pprd.s": busy("mc_sim.hazard_pprd"),
        "mc_sim.hazard_pprd.calls": len(by_name["mc_sim.hazard_pprd"]),
        "mc_sim.ns_per_component_bin": 1e9 * _ratio(
            rejection_self, total("mc_sim.simulate_rejection", "component_bins")),
        "mc_sim.events": total("mc_sim.simulate_rejection", "events"),
        "mc_sim.accept_ratio": _ratio(
            total("mc_sim.simulate_rejection", "events"),
            total("mc_sim.simulate_rejection", "proposals_bound")),
        "mc_sim.simulate_generative.s": busy("mc_sim.simulate_generative"),
        "gamma_chain.step_response.s": busy("gamma_chain.step_response"),
        "gamma_chain.integrate.s": busy("gamma_chain.integrate"),
        "gamma_chain.us_per_rk4_step": 1e6 * _ratio(
            busy("gamma_chain.integrate"), total("gamma_chain.integrate", "rk4_steps")),
        "dde.integrate_ppd.s": busy("dde.integrate_ppd"),
        "dde.integrate_pprd.s": busy("dde.integrate_pprd"),
        "dde.ns_per_node": 1e9 * _ratio(
            sum(s.duration for s in dde_top), sum(s.counts.get("nodes", 0) for s in dde_top)),
        "analytic_ppd.step_response.s": busy("analytic_ppd.step_response"),
        "analytic_ppd.solve_with_history.s": busy("analytic_ppd.solve_with_history"),
        "analytic_ppd.ms_per_point": 1e3 * _ratio(
            busy("analytic_ppd.solve_with_history"),
            total("analytic_ppd.solve_with_history", "points")),
        "spectral.qk_array.s": busy("spectral.qk_array"),
        "spectral.qk_array.calls": len(by_name["spectral.qk_array"]),
        "spectral.qk_evals": total("spectral.qk_array", "qk_evals"),
        "spectral.solve_active_spectrum.self_s": self_time("spectral.solve_active_spectrum"),
        "spectral.final_K": largest("spectral.solve_active_spectrum", "final_K"),
        "spectral.doublings": total("spectral.solve_active_spectrum", "doublings"),
        "spectral.output_spectrum.s": busy("spectral.output_spectrum"),
        "spectral.periodic_rate.self_s": self_time("spectral.periodic_rate"),
        "spectral.infer_input_spectrum.s": busy("spectral.infer_input_spectrum"),
        "spectral.condition": largest("spectral.infer_input_spectrum", "condition"),
        "spectral.cosine_continued_fraction.s": busy("spectral.cosine_continued_fraction"),
        "renewal_map.construct.s": busy("renewal_map.construct"),
        "renewal_map.law_nodes": largest("renewal_map.construct", "law_nodes"),
        "renewal_map.minimal_lambda.s": busy("renewal_map.minimal_lambda"),
        "renewal_map.check_hazard_condition.s": busy("renewal_map.check_hazard_condition"),
        "renewal_map.convolution_residual.s": busy("renewal_map.convolution_residual"),
        "core.write_law_csv.s": busy("core.write_law_csv"),
        "core.read_law_csv.s": busy("core.read_law_csv"),
        "core.law_csv_bytes": total("core.write_law_csv", "bytes"),
        "core.Spectrum.from_csv.s": busy("core.Spectrum.from_csv"),
    }


#: Which end-to-end metric each per-layer metric should move, and on which
#: workload, written down before measuring.  Denominators and harness
#: signals move nothing themselves.
MOVES = {
    "cli.self_s": "wall_s on periodic_sweep, mc_random_window",
    "cli.files_written": "denominator",
    "cli.bytes_written": "denominator",
    "cli.validate.s": "wall_s on periodic_sweep, renewal_table",
    "cli.pool_efficiency": "wall_s, cpu_s on mc_random_window, periodic_sweep",
    "mc_sim.simulate_rejection.self_s": "wall_s on mc_random_window",
    "mc_sim.simulate_rejection.calls": "wall_s on mc_random_window",
    "mc_sim.hazard_pprd.s": "wall_s on mc_random_window; renewal_table through hazard",
    "mc_sim.hazard_pprd.calls": "wall_s on mc_random_window; renewal_table through hazard",
    "mc_sim.ns_per_component_bin": "wall_s on mc_random_window (computed)",
    "mc_sim.events": "denominator of accept_ratio",
    "mc_sim.accept_ratio": "wall_s on mc_random_window (computed)",
    "mc_sim.simulate_generative.s": "wall_s on route_crosscheck",
    "gamma_chain.step_response.s": "wall_s on mc_random_window, route_crosscheck",
    "gamma_chain.integrate.s": "wall_s on route_crosscheck",
    "gamma_chain.us_per_rk4_step": "wall_s on route_crosscheck (computed)",
    "dde.integrate_ppd.s": "wall_s on route_crosscheck",
    "dde.integrate_pprd.s": "wall_s on route_crosscheck",
    "dde.ns_per_node": "wall_s on route_crosscheck (computed)",
    "analytic_ppd.step_response.s": "wall_s on route_crosscheck",
    "analytic_ppd.solve_with_history.s": "wall_s on route_crosscheck",
    "analytic_ppd.ms_per_point": "wall_s on route_crosscheck (computed)",
    "spectral.qk_array.s": "wall_s on renewal_table (dominant), periodic_sweep (small)",
    "spectral.qk_array.calls": "wall_s on renewal_table, periodic_sweep",
    "spectral.qk_evals": "wall_s on renewal_table, periodic_sweep",
    "spectral.solve_active_spectrum.self_s": "wall_s, cpu_s on periodic_sweep, renewal_table",
    "spectral.final_K": "wall_s, cpu_s on periodic_sweep, renewal_table",
    "spectral.doublings": "wall_s, cpu_s on periodic_sweep, renewal_table",
    "spectral.output_spectrum.s": "wall_s on periodic_sweep",
    "spectral.periodic_rate.self_s": "wall_s on periodic_sweep",
    "spectral.infer_input_spectrum.s": "periodic_sweep",
    "spectral.condition": "periodic_sweep",
    "spectral.cosine_continued_fraction.s": "wall_s on route_crosscheck",
    "renewal_map.construct.s": "wall_s, peak_rss_mb on renewal_table",
    "renewal_map.law_nodes": "wall_s, peak_rss_mb on renewal_table",
    "renewal_map.minimal_lambda.s": "wall_s, peak_rss_mb on renewal_table",
    "renewal_map.check_hazard_condition.s": "wall_s, peak_rss_mb on renewal_table",
    "renewal_map.convolution_residual.s": "wall_s, peak_rss_mb on renewal_table",
    "core.write_law_csv.s": "wall_s on renewal_table",
    "core.read_law_csv.s": "wall_s on renewal_table",
    "core.law_csv_bytes": "wall_s on renewal_table",
    "core.Spectrum.from_csv.s": "wall_s on periodic_sweep",
    "check.worst_ratio": "warning signal, not a gate",
    "trace.overhead_s": "traced minus untraced in-process wall time",
    "fail_ratio": "failed / attempted operations; must stay 0",
}
