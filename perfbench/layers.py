"""Per-layer attribution from the benchmark side.

The benchmark never edits ``src/``. It times each layer by swapping the
layer's public entry points for thin wrappers while a traced pass runs
(:meth:`Tracer.installed`), and it reads the counters the program
already exports (``repro.obs.metrics.default_registry()`` in process,
``GET /metrics`` for the service). A wrapper records calls, inclusive
time and self time (inclusive minus the time of wrapped calls nested
inside it), so the self times of all layers plus
``bench.unattributed_s`` add up to the traced wall time.

``PER_LAYER`` is the catalogue of per-layer metrics: for each, the layer
it measures, its unit, and the end-to-end metric (with workload) it is
expected to move. ``BENCHMARK.json`` lists the same names; the self-test
checks that the two agree.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

#: Engine accelerator name -> metric suffix of ``arch.simulate_s.<name>``.
ACCEL_METRIC_NAMES = ("SA-ZVCG", "SA-SMT-T2Q2", "S2TA-W", "S2TA-AW",
                      "SparTen", "Eyeriss-v2")

#: (metric, unit, layer / source, end-to-end metric it should move).
#: End-to-end names are the workload-specific ones the benchmark prints
#: (``fig11.cold_s`` ...); the gated common metric each feeds is given in
#: ``perfbench/README.md``.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("workloads.synth_s", "s", "from_spec.operands_for_layer",
     "fig11.cold_s on fig-functional; predicted zero on dse-overlap"),
    ("workloads.synth_calls", "count", "from_spec.operands_for_layer",
     "fig11.cold_s on fig-functional; predicted zero on dse-overlap"),
    ("workloads.operand_hit_rate", "ratio", "operand_cache.* counters",
     "fig11.cold_s on fig-functional; predicted zero on dse-overlap"),
    ("workloads.synth_mb", "MB", "from_spec.operands_for_layer",
     "fig11.cold_s on fig-functional; predicted zero on dse-overlap"),
    ("arch.simulate_s", "s", "AcceleratorModel.run_gemm_functional",
     "fig11.cold_s / fig12.cold_s on fig-functional; not observable on "
     "serve-mixed (the server runs untraced; runner.compute_s stands in)"),
) + tuple(
    (f"arch.simulate_s.{name}", "s",
     f"{name} run_gemm_functional",
     "fig11.cold_s / fig12.cold_s on fig-functional")
    for name in ACCEL_METRIC_NAMES
) + (
    ("arch.simulated_macs", "MAC", "AcceleratorModel.run_gemm_functional",
     "fig11.cold_s on fig-functional (work, not time)"),
    ("arch.host_ns_per_mac", "ns/MAC", "arch.simulate_s / simulated MACs",
     "fig11.cold_s / fig12.cold_s on fig-functional"),
    ("memory.profile_s", "s", "MemorySystem.profile",
     "fig.warm_s on fig-functional; dse.cold_configs_per_s on dse-overlap"),
    ("memory.profile_calls", "count", "MemorySystem.profile",
     "fig.warm_s on fig-functional; dse.cold_configs_per_s on dse-overlap"),
    ("energy.breakdown_s", "s", "EnergyModel.breakdown",
     "fig.warm_s on fig-functional; dse.cold_configs_per_s on dse-overlap"),
    ("cache.get_s", "s", "ResultCache.get",
     "dse.overlap_s on dse-overlap; fig.warm_s on fig-functional"),
    ("cache.put_s", "s", "ResultCache.put",
     "dse.cold_configs_per_s on dse-overlap"),
    ("cache.hits", "count", "result_cache.hits counter",
     "dse.overlap_s, fig.warm_s; serve.jobs_per_s on repeats"),
    ("cache.misses", "count", "result_cache.misses counter",
     "dse.cold_configs_per_s, fig11.cold_s"),
    ("cache.hit_rate", "ratio", "result_cache.* counters",
     "dse.overlap_s on dse-overlap; serve.jobs_per_s on serve-mixed"),
    ("cache.corrupt", "count", "result_cache.corrupt counter",
     "error_rate (expected 0 everywhere)"),
    ("runner.self_s", "s",
     "simulate_layer_tasks + functional_model_runs self time",
     "serve.latency_p50_s on serve-mixed; dse.cold_configs_per_s"),
    ("runner.tasks", "count", "runner.tasks counter",
     "serve.latency_p50_s on serve-mixed (work, not time)"),
    ("runner.simulated", "count", "runner.simulated counter",
     "serve.latency_p50_s on serve-mixed (work, not time)"),
    ("runner.deduped", "count", "runner.deduped counter",
     "serve.latency_p50_s on serve-mixed"),
    ("runner.pool_batches", "count", "runner.pool_batches counter",
     "serve.latency_p50_s on serve-mixed"),
    ("runner.queue_wait_s", "s", "runner.queue_wait_ns sum over tasks",
     "serve.latency_p50_s on serve-mixed"),
    ("runner.compute_s", "s",
     "runner.compute_ns sum over tasks (synthesis + simulation)",
     "serve.latency_p90_s on serve-mixed (the stand-in for "
     "arch.simulate_s and workloads.synth_s there); fig11.cold_s on "
     "fig-functional"),
    ("runner.degraded", "count", "runner.degraded counter",
     "error_rate (expected 0 everywhere)"),
    ("runner.retries", "count", "runner.retries counter",
     "error_rate (expected 0 everywhere)"),
    ("design.evaluate_s", "s", "dse.evaluate_points (inclusive)",
     "dse.cold_configs_per_s on dse-overlap"),
    ("design.pareto_s", "s", "dse.pareto_frontier_3d",
     "dse.cold_configs_per_s on dse-overlap"),
    ("design.self_s", "s", "dse.run_dse self time",
     "dse.cold_configs_per_s on dse-overlap"),
    ("design.points_evaluated", "count", "dse.evaluate_points arguments",
     "dse.cold_configs_per_s on dse-overlap (work, not time)"),
    ("design.refine_rounds", "count", "run_dse artifact rounds",
     "dse.cold_configs_per_s on dse-overlap (work, not time)"),
    ("experiments.self_s", "s", "fig11/fig12 experiment self time",
     "fig.warm_s on fig-functional"),
    ("serve.admit_s", "s", "client-timed POST /jobs, median",
     "serve.latency_p50_s on serve-mixed"),
    ("serve.queue_wait_s", "s", "job started_s - created_s, median",
     "serve.latency_p50_s / p90_s on serve-mixed (0.1 s idle poll)"),
    ("serve.exec_s", "s", "job finished_s - started_s, median",
     "serve.latency_p90_s on serve-mixed"),
    ("serve.batch_wall_s", "s", "serve.batch_wall_ns histogram mean",
     "serve.jobs_per_s on serve-mixed"),
    ("serve.jobs_per_batch", "count", "serve.jobs_completed / batches",
     "serve.jobs_per_s on serve-mixed"),
    ("serve.dedupe_ratio", "ratio", "deduped submissions / submissions",
     "serve.jobs_per_s on serve-mixed"),
    ("serve.jobs_failed", "count", "serve.jobs_failed counter",
     "error_rate (expected 0 everywhere)"),
    ("serve.jobs_requeued", "count", "serve.jobs_requeued counter",
     "error_rate (expected 0 everywhere)"),
    ("bench.unattributed_s", "s",
     "traced wall minus every layer's self time",
     "none: the share no wrapper explains"),
    ("bench.trace_overhead_s", "s", "traced minus untraced pass wall",
     "none: the cost of the wrappers themselves"),
)

PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _, _
                                   in PER_LAYER}


class Tracer:
    """Self-time attribution over wrapped layer entry points.

    Not thread-safe: the in-process workloads run one serial caller
    (``jobs=1``). ``delays`` maps a layer key to seconds slept inside
    that layer's wrapper; the attribution self-test uses it to slow one
    layer on purpose.
    """

    def __init__(self, delays: Optional[Dict[str, float]] = None):
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.amounts: Dict[str, float] = defaultdict(float)
        self.delays = dict(delays or {})
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, key: str):
        """Time one call of layer ``key``. A call nested inside another
        call of the same key (a subclass calling ``super()``) counts
        once, in the outer call."""
        if any(frame[0] == key for frame in self._stack):
            yield
            return
        frame = [key, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            delay = self.delays.get(key)
            if delay:
                time.sleep(delay)
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            self.calls[key] += 1
            self.incl_ns[key] += elapsed
            self.self_ns[key] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def add(self, key: str, amount: float) -> None:
        self.amounts[key] += amount

    # ------------------------------------------------------------- #

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, owner, attr: str, key: str) -> None:
        """Wrap ``owner.attr`` so each call runs under ``span(key)``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(key):
                return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Swap every layer entry point for its timing wrapper for the
        duration of the block, then restore the originals."""
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        from repro.accel.base import AcceleratorModel
        from repro.arch.memory import MemorySystem
        from repro.design import dse
        from repro.energy.model import EnergyModel
        from repro.eval import experiments, resultcache, runner
        from repro.workloads import from_spec

        synth = from_spec.operands_for_layer

        def operands_for_layer(layer, seed=0, cache=None):
            store = (cache if cache is not None
                     else from_spec.default_operand_cache())
            misses = store.misses
            with self.span("workloads.synth"):
                a, w = synth(layer, seed=seed, cache=cache)
            if store.misses != misses:
                self.add("workloads.synth_bytes", a.nbytes + w.nbytes)
            return a, w

        self._patch(from_spec, "operands_for_layer", operands_for_layer)

        for cls in _subclasses(AcceleratorModel):
            if "run_gemm_functional" in cls.__dict__:
                self._wrap_engine(cls)

        self._timed(MemorySystem, "profile", "memory.profile")
        self._timed(EnergyModel, "breakdown", "energy.breakdown")
        self._timed(resultcache.ResultCache, "get", "cache.get")
        self._timed(resultcache.ResultCache, "put", "cache.put")
        self._timed(runner, "simulate_layer_tasks", "runner")
        self._timed(runner, "functional_model_runs", "runner")
        self._timed(experiments, "fig11_full_models", "experiments")
        self._timed(experiments, "fig12_alexnet_per_layer", "experiments")
        self._timed(dse, "run_dse", "design.run_dse")
        self._timed(dse, "pareto_frontier_3d", "design.pareto")

        evaluate = dse.evaluate_points

        def evaluate_points(points, *args, **kwargs):
            self.add("design.points", len(points))
            with self.span("design.evaluate"):
                return evaluate(points, *args, **kwargs)

        self._patch(dse, "evaluate_points", evaluate_points)

    def _wrap_engine(self, cls) -> None:
        original = cls.__dict__["run_gemm_functional"]

        def run_gemm_functional(accel, a, w, **kwargs):
            key = f"arch.simulate:{accel.name}"
            outer = not any(f[0] == key for f in self._stack)
            with self.span(key):
                result = original(accel, a, w, **kwargs)
            if outer:
                self.add("arch.macs",
                           int(a.shape[0]) * int(a.shape[1])
                           * int(w.shape[1]))
            return result

        self._patch(cls, "run_gemm_functional", run_gemm_functional)

    # ------------------------------------------------------------- #

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer timing metrics of everything traced so far;
        ``wall_s`` is the traced pass's wall time."""
        sec = 1e-9
        simulate = {name: 0.0 for name in ACCEL_METRIC_NAMES}
        for key, ns in self.incl_ns.items():
            if key.startswith("arch.simulate:"):
                name = key.split(":", 1)[1]
                simulate[name] = simulate.get(name, 0.0) + ns * sec
        simulate_s = sum(simulate.values())
        macs = self.amounts["arch.macs"]
        out = {
            "workloads.synth_s": self.incl_ns["workloads.synth"] * sec,
            "workloads.synth_calls": float(self.calls["workloads.synth"]),
            "workloads.synth_mb": self.amounts["workloads.synth_bytes"] / 1e6,
            "arch.simulate_s": simulate_s,
            "arch.simulated_macs": macs,
            "arch.host_ns_per_mac": simulate_s * 1e9 / macs if macs else 0.0,
            "memory.profile_s": self.incl_ns["memory.profile"] * sec,
            "memory.profile_calls": float(self.calls["memory.profile"]),
            "energy.breakdown_s": self.incl_ns["energy.breakdown"] * sec,
            "cache.get_s": self.incl_ns["cache.get"] * sec,
            "cache.put_s": self.incl_ns["cache.put"] * sec,
            "runner.self_s": self.self_ns["runner"] * sec,
            "design.evaluate_s": self.incl_ns["design.evaluate"] * sec,
            "design.pareto_s": self.incl_ns["design.pareto"] * sec,
            "design.self_s": self.self_ns["design.run_dse"] * sec,
            "design.points_evaluated": self.amounts["design.points"],
            "experiments.self_s": self.self_ns["experiments"] * sec,
            "bench.unattributed_s":
                wall_s - sum(self.self_ns.values()) * sec,
        }
        for name in ACCEL_METRIC_NAMES:
            out[f"arch.simulate_s.{name}"] = simulate.get(name, 0.0)
        return out


def _subclasses(cls) -> Iterable[type]:
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(_subclasses(sub))
    return list(dict.fromkeys(seen))


def registry_snapshot() -> Dict[str, dict]:
    """The in-process metrics registry, as the program exports it."""
    from repro.obs import metrics as obs_metrics

    return obs_metrics.default_registry().as_dict()


def counter_metrics(before: Dict[str, dict],
                    after: Dict[str, dict]) -> Dict[str, float]:
    """Per-layer counter metrics from two registry snapshots (the
    in-process registry, or two ``GET /metrics`` documents)."""

    def delta(name: str, field: str = "value") -> float:
        new = after.get(name, {}).get(field) or 0
        old = before.get(name, {}).get(field) or 0
        return float(new - old)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits, misses = delta("result_cache.hits"), delta("result_cache.misses")
    op_hits = delta("operand_cache.hits")
    op_misses = delta("operand_cache.misses")
    return {
        "workloads.operand_hit_rate": ratio(op_hits, op_hits + op_misses),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_rate": ratio(hits, hits + misses),
        "cache.corrupt": delta("result_cache.corrupt"),
        "runner.tasks": delta("runner.tasks"),
        "runner.simulated": delta("runner.simulated"),
        "runner.deduped": delta("runner.deduped"),
        "runner.pool_batches": delta("runner.pool_batches"),
        "runner.queue_wait_s": delta("runner.queue_wait_ns", "sum") / 1e9,
        "runner.compute_s": delta("runner.compute_ns", "sum") / 1e9,
        "runner.degraded": delta("runner.degraded"),
        "runner.retries": delta("runner.retries"),
    }


def complete(metrics: Dict[str, float]) -> Dict[str, float]:
    """Every catalogued per-layer metric, zero where this workload does
    not exercise the layer (in catalogue order)."""
    unknown = set(metrics) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"uncatalogued per-layer metric(s): {sorted(unknown)}")
    return {name: float(metrics.get(name, 0.0)) for name, *_ in PER_LAYER}
