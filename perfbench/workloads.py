"""The benchmark's three workloads.

Each workload turns ``--seed`` into its inputs with a pure function
(``*_inputs``), measures repeated passes over those inputs until the run's
time is spent, checks every output (untimed), and digests every simulated
statistic so two runs of one commit can be compared exactly.

Why these three (see also ``perfbench/README.md``):

- ``fig-functional`` is the command the reproduction exists for: the
  paper's Fig. 11 (S2TA-AW vs SA-ZVCG over four networks) and Fig. 12
  (AlexNet per layer, with SparTen and Eyeriss v2) on the functional
  tier, one serial caller. The cold pass is almost all operand synthesis
  and cycle engines; the warm pass reads the same layers back from the
  result cache and only finalizes them (memory walk, energy).
- ``dse-overlap`` runs no synthesis and no cycle simulation: analytic
  models, finalization, result-cache writes (first sweep) and reads
  (second sweep, sharing about half its points) and Pareto refinement.
  An engine change should leave it unchanged; dropping the analytic disk
  cache should show here.
- ``serve-mixed`` is the only workload through HTTP admission, the SQLite
  queue, scheduler dedupe and batching, and the runner's serial-versus-
  pool choice. A third of its requests repeat a fingerprint, so dedupe
  and cache hits sit beside fresh simulations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from hostspeed import REFERENCE_REP_S, HostSpeed, scaled, user_s
from layers import Tracer, complete, counter_metrics, registry_snapshot

#: The paper's published S2TA-AW averages over SA-ZVCG (Fig. 11) and the
#: tolerance the golden tests hold the simulator to.
PAPER_ENERGY_X = 2.08
PAPER_SPEEDUP_X = 2.11
PAPER_TOLERANCE = 0.35

# The gated times (``setup_s``, ``cold_cpu_s``, ``warm_cpu_s``) are
# user-mode CPU seconds of the processes doing the work, not wall time.
# Much of the repeated work creates and reads small files (result-cache
# entries, the job database), and on the shared two-vCPU reference host
# the kernel's share of that varies tenfold with host state no run
# controls: 2000 atomic small-file writes took 0.05 s to 1.1 s of system
# time, and ten-run spreads of the fastest dse sweep's wall time reached
# half its median. User time also leaves out time the hypervisor steals.
# The host's own speed drifts too, so each measured stretch of CPU time
# (but fig-functional's cold pass) is bracketed by calibration reps and
# scaled to the reference host's speed (``hostspeed.py``). The wall times are still printed by name
# (``fig11.cold_s``, ``dse.cold_s``, ``serve.latency_p90_s`` ...),
# unscaled and ungated.

#: Warm fig11+fig12 repeats run for ``--seconds`` after the cold pass (at
#: least this many); the median repeat's CPU time is reported and the
#: fastest repeat's wall time printed.
FIG_MIN_WARM_REPS = 30

#: Set-up samples per run (the median is reported).
SETUP_SAMPLES = 9


@dataclasses.dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    env: Dict[str, str]
    root: Path
    speed: HostSpeed = dataclasses.field(default_factory=HostSpeed)

    def fresh_dir(self, name: str) -> Path:
        """A new empty directory for the next pass's caches and databases.

        Called before the pass's clock starts. Earlier passes' directories
        stay until the run ends (``run.py`` removes the whole work
        directory): on the reference host, deleting a pass's few thousand
        cache files made the next pass's file creation about ten times
        dearer in kernel time (a dse pass: 1.1 s to 1.5 s of system time
        instead of 0.1 s to 0.2 s) and its user time noisier. The file
        system is flushed first, so no pass is timed while the kernel
        writes back an earlier pass's files.
        """
        os.sync()
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.workdir))


@dataclasses.dataclass
class Outcome:
    """What one run measured and checked."""

    end_to_end: Dict[str, float]
    named: Dict[str, Tuple[float, str]]   # workload-specific, printed
    per_layer: Dict[str, float]
    attempted: int
    failures: List[str]
    failed_ops: int
    digest: str
    notes: List[str] = dataclasses.field(default_factory=list)


def digest_of(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process or, with ``RUSAGE_CHILDREN``, of the
    largest child process it has reaped, counting the grandchildren
    each child reaped (a server's pool workers)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def proc_user_s(pid: int) -> float:
    """User-mode CPU seconds of process ``pid`` (every thread) and of the
    children it has reaped (a server's pool workers, which each batch
    joins), from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # fields[0] is field 3 of proc(5): utime is field 14, cutime 16.
    return (int(fields[11]) + int(fields[13])) / os.sysconf("SC_CLK_TCK")


def median(values) -> float:
    return float(statistics.median(values))


def import_setup_s(ctx: Context, modules: str) -> float:
    """Median user-mode CPU time (scaled) of a fresh interpreter
    importing ``modules`` — what every command of the workload pays
    before doing any work."""
    samples = []
    before = ctx.speed.sample()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.Popen([sys.executable, "-c", f"import {modules}"],
                                env=ctx.env, cwd=ctx.root)
        deadline = threading.Timer(60, os.kill, (proc.pid, signal.SIGKILL))
        deadline.start()
        _, status, usage = os.wait4(proc.pid, 0)
        deadline.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        after = ctx.speed.sample()
        samples.append(scaled(usage.ru_utime, before, after))
        before = after
    return median(samples)


def until_spent(ctx: Context, run_pass: Callable[[int], object],
                min_passes: int = 1) -> list:
    """Run passes while another one is expected to end within
    ``ctx.seconds`` (judged by the mean pass so far), and at least
    ``min_passes``."""
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and (
                elapsed + elapsed / len(passes) > ctx.seconds):
            return passes
        passes.append(run_pass(len(passes)))


def traced_pair(run_pass: Callable[[int, Optional[Tracer], object],
                                   object]):
    """One untraced then one traced pass of the same inputs;
    ``run_pass(index, tracer, untraced_pass)`` must repeat the untraced
    pass's work when given it. Returns ``(untraced, traced, per_layer)``:
    the traced pass's per-layer metrics from the wrappers and the
    in-process registry counters."""
    plain = run_pass(0, None, None)
    tracer = Tracer()
    before = registry_snapshot()
    traced = run_pass(1, tracer, plain)
    per_layer = tracer.metrics(traced.wall_s)
    per_layer.update(counter_metrics(before, registry_snapshot()))
    per_layer["bench.trace_overhead_s"] = traced.wall_s - plain.wall_s
    return plain, traced, per_layer


# ===================================================================== #
# fig-functional
# ===================================================================== #

def fig_inputs(seed: int) -> Dict:
    """The experiments' operand-synthesis seed is the workload seed."""
    return {"seed": int(seed)}


@contextmanager
def captured_runs():
    """Record every ``functional_model_runs`` call's requests and
    results, so checks can see unrounded per-layer numbers."""
    from repro.eval import runner

    calls: List[Tuple[list, list]] = []
    original = runner.__dict__["functional_model_runs"]

    def capture(requests, *args, **kwargs):
        runs = original(requests, *args, **kwargs)
        calls.append((list(requests), runs))
        return runs

    runner.functional_model_runs = capture
    try:
        yield calls
    finally:
        runner.functional_model_runs = original


@dataclasses.dataclass
class FigPass:
    cold11_s: float
    cold12_s: float
    warm_s: List[float]
    cold_cpu_s: float                     # fig11 + fig12 cold, unscaled
    warm_cpu_s: List[float]               # each warm repeat, scaled
    cold: Tuple[object, object]           # fig11, fig12 ExperimentResult
    cold_calls: List[Tuple[list, list]]
    warm_diffs: List[str]                 # warm repeats unequal to cold

    @property
    def wall_s(self) -> float:
        """Timed wall time (the checks between warm repeats excluded)."""
        return self.cold11_s + self.cold12_s + sum(self.warm_s)


def fig_pass(ctx: Context, index: int, tracer: Optional[Tracer] = None,
             quick: bool = False, warm_reps: Optional[int] = None
             ) -> FigPass:
    """Cold fig11 then fig12 on an empty result cache (and empty operand
    and compression memos), then warm repeats of both: ``warm_reps`` of
    them, or by default as many as fit in ``ctx.seconds``. Each warm
    repeat is checked against the cold pass right away, untimed, so
    the heap does not grow with the repeats."""
    from repro.core.gemm import clear_compress_cache
    from repro.eval import experiments
    from repro.eval.resultcache import ResultCache
    from repro.workloads.from_spec import default_operand_cache

    default_operand_cache().clear()
    clear_compress_cache()
    cache = ResultCache(ctx.fresh_dir(f"fig-cache-{index}"))
    kwargs = dict(functional=True, quick=quick,
                  seed=fig_inputs(ctx.seed)["seed"], jobs=1,
                  result_cache=cache)
    with captured_runs() as calls, \
            (tracer.installed() if tracer else nullcontext()):
        cpu, start = user_s(), time.perf_counter()
        cold11 = experiments.fig11_full_models(**kwargs)
        mid = time.perf_counter()
        cold12 = experiments.fig12_alexnet_per_layer(**kwargs)
        # Not scaled: the short calibration rep does not track 20 s of
        # NumPy-bound synthesis and simulation. Scaled by the pass's reps,
        # its ten-run spread was 0.24 of its median; the wall time's 0.08.
        end, cold_cpu = time.perf_counter(), user_s() - cpu
        after = ctx.speed.sample(5)
        cold_calls = list(calls)
        cold_stats = run_stats(cold_calls)
        warm_s, warm_cpu, warm_diffs = [], [], []
        warm_start = time.perf_counter()
        while (len(warm_s) < warm_reps if warm_reps is not None else
               len(warm_s) < FIG_MIN_WARM_REPS
               or time.perf_counter() - warm_start < ctx.seconds):
            del calls[:]
            cpu, t0 = user_s(), time.perf_counter()
            w11 = experiments.fig11_full_models(**kwargs)
            w12 = experiments.fig12_alexnet_per_layer(**kwargs)
            warm_s.append(time.perf_counter() - t0)
            cpu = user_s() - cpu
            before, after = after, ctx.speed.sample()
            warm_cpu.append(scaled(cpu, before, after))
            bad = [name for name, warm, cold in (("fig11", w11, cold11),
                                                  ("fig12", w12, cold12))
                   if warm.rows != cold.rows]
            if not bad and run_stats(calls) != cold_stats:
                bad.append("simulated statistics")
            if bad:
                warm_diffs.append(f"warm repeat {len(warm_s) - 1}: "
                                  f"{', '.join(bad)} differ from the cold "
                                  "pass")
    return FigPass(mid - start, end - mid, warm_s, cold_cpu, warm_cpu,
                   (cold11, cold12), cold_calls, warm_diffs)


def run_stats(calls: List[Tuple[list, list]]) -> list:
    """Every simulated statistic of the captured runs: per-layer cycles,
    event counts, memory traffic by class and energy by component."""
    out = []
    for _, runs in calls:
        for run in runs:
            layers = []
            for r in run.layer_results:
                layers.append({
                    "layer": r.layer.name,
                    "compute_cycles": r.compute_cycles,
                    "memory_cycles": r.memory_cycles,
                    "events": r.events.as_dict(),
                    "dram_by_class": r.memory.by_class(),
                    "energy_pj": dataclasses.asdict(r.breakdown),
                })
            out.append({"accelerator": run.accelerator, "model": run.model,
                        "tech": run.tech, "layers": layers})
    return out


_CONTRACT_ALIASES = {"SA-SMT-T2Q2": "SMT-T2Q2"}


def xval_failures(calls: List[Tuple[list, list]]) -> List[str]:
    """Each functional layer's cycles and DRAM bytes against the
    analytic ``run_model`` under ``XVAL_CONTRACT``."""
    from repro.eval.experiments import XVAL_CONTRACT

    failures = []
    for requests, runs in calls:
        for (accel, spec), run in zip(requests, runs):
            contract = XVAL_CONTRACT[_CONTRACT_ALIASES.get(accel.name,
                                                           accel.name)]
            analytic = accel.run_model(spec, conv_only=True)
            for ana, fun in zip(analytic.layer_results, run.layer_results):
                tag = f"{accel.name}@{accel.tech}/{spec.name}/{fun.layer.name}"
                if contract.cycles is not None:
                    delta = abs(ana.compute_cycles - fun.compute_cycles)
                    if delta > contract.cycles * fun.compute_cycles:
                        failures.append(
                            f"{tag}: cycles {fun.compute_cycles} vs analytic "
                            f"{ana.compute_cycles} outside "
                            f"{contract.cycles:.0%}")
                if contract.exact and (ana.memory.by_class()
                                       != fun.memory.by_class()):
                    failures.append(f"{tag}: DRAM bytes differ from analytic")
    return failures


def fig11_averages(calls: List[Tuple[list, list]]) -> Tuple[float, float]:
    """Unrounded S2TA-AW (energy, speedup) averages over SA-ZVCG from the
    fig11 call (the first captured call of a pass)."""
    requests, runs = calls[0]
    by_key = {(accel.name, spec.name): run
              for (accel, spec), run in zip(requests, runs)}
    models = list(dict.fromkeys(spec.name for _, spec in requests))
    energy, speed = [], []
    for model in models:
        base, aw = by_key["SA-ZVCG", model], by_key["S2TA-AW", model]
        energy.append(base.energy_uj / aw.energy_uj)
        speed.append(base.total_cycles / aw.total_cycles)
    return sum(energy) / len(energy), sum(speed) / len(speed)


def check_fig_pass(p: FigPass, reference: Optional[FigPass]
                   ) -> Tuple[List[str], int, int]:
    """Returns ``(failures, attempted, failed)``; operations are the
    experiment calls (two cold, two per warm repeat)."""
    failures: List[str] = []
    failed = 0
    cold_fail = []
    if reference is None:
        cold_fail += xval_failures(p.cold_calls)
        avg = p.cold[0].rows[-1]
        for value, paper, what in ((avg[5], PAPER_ENERGY_X, "energy"),
                                   (avg[6], PAPER_SPEEDUP_X, "speedup")):
            if abs(value - paper) > PAPER_TOLERANCE:
                cold_fail.append(f"fig11 S2TA-AW average {what} {value} is "
                                 f"outside {paper} +/- {PAPER_TOLERANCE}")
    elif (run_stats(p.cold_calls) != run_stats(reference.cold_calls)
          or p.cold[0].rows != reference.cold[0].rows
          or p.cold[1].rows != reference.cold[1].rows):
        cold_fail.append("cold pass differs from the run's first pass")
    if cold_fail:
        failed += 2
        failures += cold_fail
    failures += p.warm_diffs
    failed += 2 * len(p.warm_diffs)
    return failures, 2 + 2 * len(p.warm_s), failed


def fig_functional(ctx: Context) -> Outcome:
    setup_s = import_setup_s(ctx, "repro.eval.experiments")
    per_layer: Dict[str, float] = {}
    if ctx.trace:
        plain, traced, per_layer = traced_pair(
            lambda i, t, like: fig_pass(
                ctx, i, tracer=t,
                warm_reps=None if like is None else len(like.warm_s)))
        passes = [plain, traced]
    else:
        # One pass: its warm repeats take ``--seconds``.
        passes = [fig_pass(ctx, 0)]
    failures, attempted, failed = [], 0, 0
    for p in passes:
        f, a, n = check_fig_pass(p, None if p is passes[0] else passes[0])
        failures += f
        attempted += a
        failed += n
    first = passes[0]
    energy_x, speedup_x = fig11_averages(first.cold_calls)
    cold11 = median(p.cold11_s for p in passes)
    cold12 = median(p.cold12_s for p in passes)
    warm = min(s for p in passes for s in p.warm_s)
    digest = digest_of(run_stats(first.cold_calls))
    return Outcome(
        end_to_end={"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                    "cold_cpu_s": median(p.cold_cpu_s for p in passes),
                    "warm_cpu_s": median(s for p in passes
                                         for s in p.warm_cpu_s)},
        named={"fig11.cold_s": (cold11, "s"), "fig12.cold_s": (cold12, "s"),
               "fig.warm_s": (warm, "s"),
               "fig11.speedup_err": (abs(speedup_x - PAPER_SPEEDUP_X), "x"),
               "fig11.energy_err": (abs(energy_x - PAPER_ENERGY_X), "x")},
        per_layer=per_layer, attempted=attempted, failures=failures,
        failed_ops=failed, digest=digest,
        notes=[f"fig11 S2TA-AW average: energy {energy_x:.6f}x (paper "
               f"{PAPER_ENERGY_X}x), speedup {speedup_x:.6f}x (paper "
               f"{PAPER_SPEEDUP_X}x)",
               f"{len(passes)} pass(es), "
               f"{sum(len(p.warm_s) for p in passes)} warm repeats"])


# ===================================================================== #
# dse-overlap
# ===================================================================== #

#: At least this many dse passes (about 2.5 s each) per run; the median
#: pass's sweep CPU times are reported and the fastest sweep wall times
#: printed. One sweep's scaled CPU ranged 0.85 s to 1.14 s over sixteen
#: passes of one run.
DSE_MIN_PASSES = 10
DSE_TECHS = ("16nm", "45nm", "65nm")
DSE_DRAM_GBPS = (8.0, 16.0, 32.0, 64.0)
DSE_SRAM_MB = (0.625, 1.25, 2.5, 5.0, 10.0)


def dse_inputs(seed: int) -> Dict:
    """Two sweeps over two tech nodes x two DRAM channels x two SRAM
    sizes (plus the default style/B/A-DBB axes). The second sweep keeps
    the smaller SRAM size and swaps the larger one, so it shares about
    half of the first sweep's points. Keeping the shared size first on
    the axis holds the overlap fixed (1218 of 2180 evaluations hit the
    cache); keeping the larger one instead would hit 962."""
    rng = random.Random(f"dse-overlap/{seed}")
    techs = sorted(rng.sample(DSE_TECHS, 2), key=DSE_TECHS.index)
    dram = [None, rng.choice(DSE_DRAM_GBPS)]
    kept, dropped, added = sorted(rng.sample(DSE_SRAM_MB, 3))
    if rng.random() < 0.5:
        dropped, added = added, dropped
    first = {"techs": techs, "dram_gbps": dram, "sram_mb": [kept, dropped]}
    second = dict(first, sram_mb=[kept, added])
    return {"first": first, "second": second}


def _axes(spec: Dict):
    from repro.design.dse import DSEAxes

    return DSEAxes(techs=tuple(spec["techs"]),
                   dram_gbps=tuple(spec["dram_gbps"]),
                   sram_mb=tuple(spec["sram_mb"]))


@dataclasses.dataclass
class DsePass:
    cold_s: float
    overlap_s: float
    cold_cpu_s: float       # user CPU of each sweep (scaled)
    overlap_cpu_s: float
    first: str              # artifact digests (cache metadata stripped)
    second: str
    shape: Dict             # sizes of pass 0's artifacts, for the notes

    @property
    def wall_s(self) -> float:
        return self.cold_s + self.overlap_s


def _artifact_digest(artifact: Dict) -> str:
    return digest_of({k: v for k, v in artifact.items() if k != "meta"})


def dse_pass(ctx: Context, index: int,
             tracer: Optional[Tracer] = None) -> DsePass:
    from repro.design import dse
    from repro.eval.resultcache import ResultCache

    inputs = dse_inputs(ctx.seed)
    cache = ResultCache(ctx.fresh_dir(f"dse-cache-{index}"))
    reps = [ctx.speed.sample()]
    with tracer.installed() if tracer else nullcontext():
        cpu, start = user_s(), time.perf_counter()
        first = dse.run_dse(_axes(inputs["first"]), jobs=1,
                            result_cache=cache)
        cold_cpu, cold_s = user_s() - cpu, time.perf_counter() - start
        reps.append(ctx.speed.sample())
        cpu, start = user_s(), time.perf_counter()
        second = dse.run_dse(_axes(inputs["second"]), jobs=1,
                             result_cache=cache)
        overlap_cpu, overlap_s = user_s() - cpu, time.perf_counter() - start
        reps.append(ctx.speed.sample())
    shape = {"points": first["space"]["points"],
             "evaluated": [len(first["evaluations"]),
                           len(second["evaluations"])],
             "frontier": [len(first["frontier"]), len(second["frontier"])],
             "refine_rounds": len(first["rounds"]) + len(second["rounds"])
             - 2}
    return DsePass(cold_s, overlap_s, scaled(cold_cpu, *reps[:2]),
                   scaled(overlap_cpu, *reps[1:]),
                   _artifact_digest(first),
                   _artifact_digest(second), shape)


def dse_overlap(ctx: Context) -> Outcome:
    from repro.design import dse

    setup_s = import_setup_s(ctx, "repro.design.dse")
    per_layer: Dict[str, float] = {}
    if ctx.trace:
        plain, traced, per_layer = traced_pair(
            lambda i, t, _: dse_pass(ctx, i, tracer=t))
        per_layer["design.refine_rounds"] = float(
            traced.shape["refine_rounds"])
        passes = [plain, traced]
    else:
        passes = until_spent(ctx, lambda i: dse_pass(ctx, i),
                             min_passes=DSE_MIN_PASSES)
    failures: List[str] = []
    failed = 0
    uncached = _artifact_digest(dse.run_dse(
        _axes(dse_inputs(ctx.seed)["second"]), jobs=1, result_cache=None))
    first = passes[0]
    for i, p in enumerate(passes):
        if p.second != uncached:
            failed += 1
            failures.append(f"pass {i}: overlap sweep artifact differs "
                            "from an uncached sweep of the same axes")
        if p.first != first.first:
            failed += 1
            failures.append(f"pass {i}: first sweep differs from pass 0")
    evaluated = first.shape["evaluated"][0]
    cold = min(p.cold_s for p in passes)
    overlap = min(p.overlap_s for p in passes)
    return Outcome(
        end_to_end={"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                    "cold_cpu_s": median(p.cold_cpu_s for p in passes),
                    "warm_cpu_s": median(p.overlap_cpu_s for p in passes)},
        named={"dse.cold_configs_per_s": (evaluated / cold, "1/s"),
               "dse.cold_s": (cold, "s"), "dse.overlap_s": (overlap, "s")},
        per_layer=per_layer, attempted=2 * len(passes),
        failures=failures, failed_ops=failed,
        digest=digest_of([first.first, first.second]),
        notes=[f"{len(passes)} pass(es); {json.dumps(first.shape)}"])


# ===================================================================== #
# serve-mixed
# ===================================================================== #

SERVE_MODELS = ("lenet5", "alexnet", "mobilenet_v1")
SERVE_ACCELS = ("sa-zvcg", "sa-smt", "s2ta-w", "s2ta-aw", "sparten",
                "eyeriss-v2")
SERVE_TIERS = ("analytic", "functional")
#: Closed loop: this many client threads, each submit-then-wait. Fixed
#: (not the host's core count) so the load is the same on every host;
#: it equals ``nproc`` on the two-core reference host.
SERVE_CLIENTS = 2
SERVE_POLL_S = 0.01
#: Every pass sends each distinct request once and half of them again,
#: so a third of all requests repeat a fingerprint.
SERVE_REPEAT_SHARE = 0.5
#: Passes are short (about 8 s on the reference host); three give the
#: p90 at least ten samples beyond it, and a median over passes that
#: differ in how the scheduler happened to batch (and so in how many
#: process pools it started). The median pass's server CPU times are
#: reported and the fastest pass's wall times printed.
SERVE_MIN_PASSES = 3
#: Warm resubmission rounds per pass; the server's CPU time over all of
#: them is reported per round.
SERVE_WARM_ROUNDS = 10


def serve_inputs(seed: int) -> List[Dict]:
    """One request per (model, accelerator, tier) with its seed drawn
    from a three-seed pool, then half of them again, shuffled.
    Functional requests run in quick mode."""
    rng = random.Random(f"serve-mixed/{seed}")
    pool = rng.sample(range(1000), 3)
    distinct = []
    for model in SERVE_MODELS:
        for accel in SERVE_ACCELS:
            for tier in SERVE_TIERS:
                request = {"model": model, "accelerator": accel,
                           "tier": tier, "seed": rng.choice(pool)}
                if tier == "functional":
                    request["quick"] = True
                distinct.append(request)
    repeats = rng.sample(distinct, int(len(distinct) * SERVE_REPEAT_SHARE))
    requests = distinct + [dict(r) for r in repeats]
    rng.shuffle(requests)
    return requests


class Server:
    """``python -m repro serve`` in its own process, fresh DB and result
    cache, default ``--jobs auto``, on an ephemeral port."""

    def __init__(self, ctx: Context, name: str):
        from repro.serve.api import http_json

        self.dir = ctx.fresh_dir(name)
        env = dict(ctx.env, REPRO_CACHE_DIR=str(self.dir / "cache"))
        self.stderr = open(self.dir / "stderr.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--db", str(self.dir / "jobs.sqlite3")],
            cwd=ctx.root, env=env, stdout=subprocess.PIPE,
            stderr=self.stderr, start_new_session=True)
        try:
            self.url = self._await_url(start + 60)
            while http_json("GET", f"{self.url}/healthz")[0] != 200:
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def user_s(self) -> float:
        """User CPU of the server and the pool workers it has joined."""
        return proc_user_s(self.proc.pid)

    def _await_url(self, deadline: float) -> str:
        line = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                line = self.proc.stdout.readline()
                match = re.search(rb"serving on (http://\S+)", line)
                if match:
                    return match.group(1).decode()
            if self.proc.poll() is not None:
                break
        raise RuntimeError(f"repro serve did not start (last output "
                           f"{line!r}); see {self.dir / 'stderr.log'}")

    def stop(self) -> None:
        """Interrupt the server and reap it; ``self.usage`` is then its
        whole life's resource usage, pool workers included."""
        if self.proc.returncode is None:
            # Not ``send_signal``, whose ``poll`` could reap the process
            # and lose its resource usage.
            os.kill(self.proc.pid, signal.SIGINT)
            killer = threading.Timer(30, os.kill,
                                     (self.proc.pid, signal.SIGKILL))
            killer.start()
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            killer.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.stdout.close()
        self.stderr.close()


@dataclasses.dataclass
class Submission:
    request: Dict
    latency_s: float = 0.0
    admit_s: float = 0.0
    deduped: bool = False
    job: Optional[Dict] = None
    error: Optional[str] = None


def _closed_loop(url: str, requests: List[Dict]
                 ) -> Tuple[List[Submission], float]:
    """``SERVE_CLIENTS`` threads, each taking the next request, POSTing
    it and polling every ``SERVE_POLL_S`` until the job is terminal.
    Returns the submissions (in request order) and the wall time from
    first submit to last observed completion."""
    from repro.serve.api import submit_job, wait_for_job

    subs = [Submission(r) for r in requests]
    lock = threading.Lock()
    cursor = iter(range(len(subs)))

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            sub = subs[i]
            start = time.perf_counter()
            try:
                body = submit_job(url, sub.request)
                sub.admit_s = time.perf_counter() - start
                sub.deduped = bool(body["deduped"])
                sub.job = wait_for_job(url, body["id"], timeout_s=150,
                                       poll_s=SERVE_POLL_S)
            except (OSError, ValueError, RuntimeError) as exc:
                sub.error = f"{type(exc).__name__}: {exc}"
            sub.latency_s = time.perf_counter() - start

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(SERVE_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=170)
    wall = time.perf_counter() - start
    if any(t.is_alive() for t in threads):
        raise RuntimeError("serve clients did not finish within 170 s")
    return subs, wall


@dataclasses.dataclass
class ServePass:
    cold: List[Submission]
    cold_s: float
    warm: List[Submission]        # every warm round's submissions
    warm_s: List[float]           # one wall time per warm round
    cold_cpu_s: float             # server + pool workers' user CPU
    warm_cpu_s: float             # the same, per warm round (both scaled)
    metrics: Dict[str, dict]


def serve_pass(ctx: Context, index: int) -> ServePass:
    from repro.serve.api import http_json

    requests = serve_inputs(ctx.seed)
    server = Server(ctx, f"serve-{index}")
    try:
        # The server idles while the calibration reps run.
        before = ctx.speed.sample(3)
        cpu = server.user_s()
        cold, cold_s = _closed_loop(server.url, requests)
        cold_cpu = server.user_s() - cpu
        warm_reps = [ctx.speed.sample(3)]
        cold_cpu = scaled(cold_cpu, before, warm_reps[0])
        # Warm: the same requests again; every one dedupes onto a done job.
        warm, warm_s, warm_cpu = [], [], 0.0
        for _ in range(SERVE_WARM_ROUNDS):
            cpu = server.user_s()
            subs, wall = _closed_loop(server.url, requests)
            warm_cpu += server.user_s() - cpu
            warm_reps.append(ctx.speed.sample())
            warm += subs
            warm_s.append(wall)
        status, body = http_json("GET", f"{server.url}/metrics")
        metrics = body.get("metrics", {}) if status == 200 else {}
    finally:
        server.stop()
    return ServePass(cold, cold_s, warm, warm_s, cold_cpu,
                     scaled(warm_cpu / SERVE_WARM_ROUNDS, *warm_reps),
                     metrics)


def _request_key(request: Dict) -> str:
    return json.dumps(request, sort_keys=True)


def serve_reference(requests: List[Dict]) -> Dict[str, Dict]:
    """In-process ``run_requests`` of every distinct request, no cache."""
    from repro.serve.jobs import parse_request, run_requests

    distinct = {_request_key(r): r for r in requests}
    keys = sorted(distinct)
    results = run_requests([parse_request(distinct[k]) for k in keys],
                           jobs=1, result_cache=None)
    # Served documents went through JSON; compare like with like.
    return {k: json.loads(json.dumps(res)) for k, res in zip(keys, results)}


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def serve_mixed(ctx: Context) -> Outcome:
    setups = []
    before = ctx.speed.sample()
    for i in range(SETUP_SAMPLES):
        server = Server(ctx, f"serve-setup-{i}")
        server.stop()
        after = ctx.speed.sample()
        setups.append(scaled(server.usage.ru_utime, before, after))
        before = after
    passes = until_spent(ctx, lambda i: serve_pass(ctx, i),
                         min_passes=SERVE_MIN_PASSES)
    reference = serve_reference(serve_inputs(ctx.seed))
    failures: List[str] = []
    failed = attempted = 0
    for i, p in enumerate(passes):
        for phase, subs in (("cold", p.cold), ("warm", p.warm)):
            for sub in subs:
                attempted += 1
                problem = sub.error
                if problem is None and sub.job["state"] != "done":
                    problem = (f"job {sub.job['id']} ended "
                               f"{sub.job['state']}: {sub.job.get('error')}")
                if problem is None and (sub.job["result"]
                                        != reference[_request_key(
                                            sub.request)]):
                    problem = "served result differs from run_requests"
                if problem is None and phase == "warm" and not sub.deduped:
                    problem = "warm resubmission was not deduped"
                if problem is not None:
                    failed += 1
                    failures.append(f"pass {i} {phase} {sub.request}: "
                                    f"{problem}")
    latencies = [s.latency_s for p in passes for s in p.cold]
    p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
    beyond = sum(1 for v in latencies if v > p90)
    cold = min(p.cold_s for p in passes)
    per_layer: Dict[str, float] = {}
    if ctx.trace:
        per_layer = serve_layer_metrics(passes)
    return Outcome(
        end_to_end={"setup_s": median(setups),
                    # The largest server or pool worker: every server
                    # (which joins its workers) has been reaped by now.
                    # The benchmark's own in-process reference run is a
                    # check, not served work, so it is left out.
                    "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
                    "cold_cpu_s": median(p.cold_cpu_s for p in passes),
                    "warm_cpu_s": median(p.warm_cpu_s for p in passes)},
        named={"serve.jobs_per_s": (len(passes[0].cold) / cold, "1/s"),
               "serve.cold_s": (cold, "s"),
               "serve.warm_s": (min(s for p in passes for s in p.warm_s),
                                "s"),
               "serve.latency_p50_s": (p50, "s"),
               "serve.latency_p90_s": (p90, "s")},
        per_layer=per_layer, attempted=attempted, failures=failures,
        failed_ops=failed, digest=digest_of(reference),
        notes=[f"{len(passes)} pass(es) of {len(passes[0].cold)} requests "
               f"({len(reference)} distinct), {SERVE_CLIENTS} clients; "
               f"latency n={len(latencies)}, {beyond} samples beyond p90"])


def serve_layer_metrics(passes: List[ServePass]) -> Dict[str, float]:
    """Per-stage serve numbers from client timing, job timestamps and
    each pass's ``GET /metrics`` (a fresh server per pass, so each
    document is that pass's delta)."""
    merged: Dict[str, Dict[str, float]] = {}
    for p in passes:
        for name, metric in p.metrics.items():
            into = merged.setdefault(name, {})
            for field in ("value", "sum", "count"):
                into[field] = into.get(field, 0) + (metric.get(field) or 0)
    out = counter_metrics({}, merged)
    jobs = {}
    for p in passes:
        for sub in p.cold:
            if sub.job is not None and sub.job.get("started_s") is not None:
                jobs[(id(p), sub.job["id"])] = sub.job

    def counter(name: str, field: str = "value") -> float:
        return float(merged.get(name, {}).get(field, 0))

    completed, batches = (counter("serve.jobs_completed"),
                          counter("serve.batches"))
    submitted = sum(len(p.cold) for p in passes)
    out.update({
        "serve.admit_s": median(s.admit_s for p in passes for s in p.cold),
        "serve.queue_wait_s": median(j["started_s"] - j["created_s"]
                                     for j in jobs.values()),
        "serve.exec_s": median(j["finished_s"] - j["started_s"]
                               for j in jobs.values()),
        "serve.batch_wall_s": (counter("serve.batch_wall_ns", "sum") / 1e9
                               / max(1.0, counter("serve.batch_wall_ns",
                                                  "count"))),
        "serve.jobs_per_batch": completed / batches if batches else 0.0,
        "serve.dedupe_ratio": sum(s.deduped for p in passes
                                  for s in p.cold) / submitted,
        "serve.jobs_failed": counter("serve.jobs_failed"),
        "serve.jobs_requeued": counter("serve.jobs_requeued"),
        # The server runs untraced: nothing is wrapped in this workload.
        "bench.trace_overhead_s": 0.0,
    })
    return out


WORKLOADS: Dict[str, Tuple[Callable[[Context], Outcome], Callable]] = {
    "fig-functional": (fig_functional, fig_inputs),
    "dse-overlap": (dse_overlap, dse_inputs),
    "serve-mixed": (serve_mixed, serve_inputs),
}


def run_workload(name: str, ctx: Context) -> Outcome:
    outcome = WORKLOADS[name][0](ctx)
    rep_s = median(ctx.speed.samples)
    outcome.notes.append(
        f"host speed: calibration rep {rep_s:.4f} s user CPU (median of "
        f"{len(ctx.speed.samples)}; {REFERENCE_REP_S} s on the reference "
        "host); gated CPU times are scaled by the reps around each")
    if ctx.trace:
        outcome.per_layer = complete(outcome.per_layer)
    return outcome

