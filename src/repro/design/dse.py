"""Distributed, adaptive design-space exploration — Sec. 7 at scale.

The paper's Sec. 7 sweep walks a few dozen ``AxBxC_MxN`` points on one
workload and picks the lowest-power design inside an area budget
(:data:`SEC7_AXES` + :func:`evaluate_points` +
:func:`select_lowest_power` — ``repro sweep`` is exactly that). This
module grows that tabulated sweep into a real DSE engine in the style
of Timeloop/Accelergy-class infrastructure:

- **Keyspace**: the cross product of array geometry (M, N), TPE dims
  (A, C), datapath style (time-unrolled DP1Mx vs dot-product DPxM8),
  the DBB weight bound B, the per-layer activation DBB bound, SRAM
  size, DRAM bandwidth and technology node — thousands of points,
  enumerated in one deterministic order (:class:`DSESpace`).
- **Evaluation** runs through the parallel runner
  (:func:`repro.eval.runner.simulate_layer_tasks`) as analytic (or,
  optionally, functional) layer tasks. Analytic points are closed-form
  and cheaper to recompute than to read back, so only functional-tier
  payloads go to the result cache (:mod:`repro.eval.resultcache`).
- **Pareto extraction** defaults to three dimensions — (energy, cycles,
  area) — so latency-optimal designs survive alongside the paper's
  power pick; Sec. 7's power-area plane is the same function given
  ``objectives=("power_mw", "area_mm2")``.
- **Adaptive refinement**: the space is sampled coarsely (every
  ``coarse_stride``-th point), then re-enumerated densely around the
  frontier — each round evaluates the unevaluated neighborhood of every
  frontier point, widening the ring each time the frontier survives a
  round unchanged, until it has been stable for ``stable_rounds``
  consecutive rounds (or the neighborhood is exhausted, which proves
  stability outright).
- **Sharding**: ``shard=(i, n)`` deterministically partitions the
  coarse sample across hosts; each shard freezes its evaluations into
  a JSON artifact and :func:`merge_artifacts` unions them and runs the
  (cheap) refinement — producing an artifact identical to
  an unsharded run by construction (asserted in
  ``tests/design/test_dse.py``).
- **Checkpoint/resume**: ``checkpoint=PATH`` atomically snapshots the
  evaluated set plus refinement state every ``checkpoint_every`` coarse
  points and at every refine-round boundary; ``resume=PATH`` picks the
  sweep back up after a crash (or a SIGKILL) and, because evaluation is
  per-point pure and the frontier is a pure function of the evaluation
  set, produces an artifact identical to an uninterrupted run.

``repro dse`` is the CLI front-end; ``benchmarks/bench_dse_throughput``
freezes configs-evaluated-per-second into ``BENCH_*.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.design.space import DesignPoint, enumerate_design_space
from repro.eval.tables import ExperimentResult
from repro.models.specs import BLOCK_SIZE, LayerSpec
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import traced
from repro.workloads.typical import typical_conv_layer

__all__ = [
    "DSEAxes",
    "DSEPoint",
    "DSEEvaluation",
    "DSESpace",
    "DSE_CHECKPOINT_VERSION",
    "DSE_OBJECTIVES",
    "SEC7_AXES",
    "evaluate_points",
    "load_checkpoint",
    "pareto_frontier_3d",
    "run_dse",
    "merge_artifacts",
    "parse_shard",
    "render_artifact",
    "select_lowest_power",
]

#: Bumped whenever the checkpoint payload shape changes; resume refuses
#: checkpoints from another version outright.
DSE_CHECKPOINT_VERSION = 1

#: Fields of :class:`DesignPoint` that span the design axis; two designs
#: of the same datapath style are neighbors when at most two of these
#: differ (under the exact MAC budget a single field can never change
#: alone, so distance two is the tightest real adjacency).
_DESIGN_FIELDS = ("tpe_a", "tpe_c", "rows", "cols", "weight_nnz")

#: The DSE engine's minimized objectives (:class:`DSEEvaluation` fields).
DSE_OBJECTIVES = ("energy_uj", "cycles", "area_mm2")


@dataclass(frozen=True)
class DSEAxes:
    """The swept axes. Every tuple is one ordered axis; neighbors step
    one index along exactly one axis."""

    styles: Tuple[bool, ...] = (True, False)  # time-unrolled, dot-product
    weight_nnz: Tuple[int, ...] = (2, 4, 8)   # DBB weight bound B
    a_nnz: Tuple[int, ...] = (2, 3, 4, 8)     # per-layer A-DBB bound
    sram_mb: Tuple[float, ...] = (1.25, 2.5, 5.0)
    dram_gbps: Tuple[Optional[float], ...] = (None,)  # None = default channel
    techs: Tuple[str, ...] = ("16nm",)

    def __post_init__(self):
        for name in ("styles", "weight_nnz", "a_nnz", "sram_mb",
                     "dram_gbps", "techs"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"axis {name} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"axis {name} has duplicate values")
        for nnz in self.weight_nnz + self.a_nnz:
            if not 1 <= nnz <= BLOCK_SIZE:
                raise ValueError(
                    f"DBB bounds must be in [1, {BLOCK_SIZE}], got {nnz}")
        if any(s <= 0 for s in self.sram_mb):
            raise ValueError("sram_mb values must be positive")
        if any(bw is not None and bw <= 0 for bw in self.dram_gbps):
            raise ValueError("dram_gbps values must be positive (or None)")

    def as_dict(self) -> dict:
        return {
            "styles": list(self.styles),
            "weight_nnz": list(self.weight_nnz),
            "a_nnz": list(self.a_nnz),
            "sram_mb": list(self.sram_mb),
            "dram_gbps": list(self.dram_gbps),
            "techs": list(self.techs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DSEAxes":
        return cls(
            styles=tuple(bool(s) for s in data["styles"]),
            weight_nnz=tuple(int(b) for b in data["weight_nnz"]),
            a_nnz=tuple(int(a) for a in data["a_nnz"]),
            sram_mb=tuple(float(s) for s in data["sram_mb"]),
            dram_gbps=tuple(None if bw is None else float(bw)
                            for bw in data["dram_gbps"]),
            techs=tuple(str(t) for t in data["techs"]),
        )


#: The paper's Sec. 7 sweep: time-unrolled TPEs, B=4 weights, the typical
#: conv layer at 4/8 A-DBB, the default 2.5 MB SRAM, DRAM and 16 nm node.
SEC7_AXES = DSEAxes(styles=(True,), weight_nnz=(4,), a_nnz=(4,),
                    sram_mb=(2.5,))


@dataclass(frozen=True)
class DSEPoint:
    """One fully-specified configuration in the DSE keyspace."""

    design: DesignPoint
    a_nnz: int = 4
    sram_mb: float = 2.5
    dram_gbps: Optional[float] = None
    tech: str = "16nm"

    @property
    def uid(self) -> str:
        """Stable identity — the shard partition and artifact key."""
        style = "tu" if self.design.time_unrolled else "dp"
        bw = "def" if self.dram_gbps is None else f"{self.dram_gbps:g}"
        return (f"{self.design.notation}.{style}.a{self.a_nnz}"
                f".s{self.sram_mb:g}.bw{bw}.{self.tech}")

    def build(self):
        """Instantiate the accelerator at this point (clock derated for
        the TPE dims, SRAM resized — before the lazy memory system or
        the area model ever observe it)."""
        accel = self.design.build(tech=self.tech,
                                  dram_gbps=self.dram_gbps)
        accel.sram_mb = self.sram_mb
        accel.clock_ghz = accel.clock_ghz * self.design.clock_ghz
        return accel

    def layer(self) -> LayerSpec:
        """The reference workload, pruned to this point's DBB bounds."""
        return typical_conv_layer(
            w_density=self.design.weight_nnz / BLOCK_SIZE,
            a_density=self.a_nnz / BLOCK_SIZE)


@dataclass(frozen=True)
class DSEEvaluation:
    """Flattened PPA of one evaluated point (JSON-artifact row)."""

    uid: str
    notation: str
    time_unrolled: bool
    weight_nnz: int
    a_nnz: int
    sram_mb: float
    dram_gbps: Optional[float]
    tech: str
    power_mw: float
    area_mm2: float
    cycles: int
    energy_uj: float

    @property
    def objectives(self) -> Tuple[float, int, float]:
        """(energy, cycles, area) — all minimized."""
        return (self.energy_uj, self.cycles, self.area_mm2)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DSEEvaluation":
        return cls(**data)


def _dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Pareto dominance on minimized objective tuples: ``a`` is no
    worse everywhere and strictly better somewhere."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_frontier_3d(
    evaluations: Iterable[DSEEvaluation],
    objectives: Sequence[str] = DSE_OBJECTIVES,
) -> List[DSEEvaluation]:
    """Non-dominated points on the minimized ``objectives`` (field
    names; (energy, cycles, area) by default, (power, area) for Sec. 7).

    Exact objective ties all survive, and the result — content and
    order — is a pure function of the evaluation *set*, independent of
    input order (the property tests in ``tests/design/test_dse.py``).
    """
    # Lexicographic order puts every dominator before what it dominates,
    # so one pass against the kept points suffices.
    ranked = sorted(
        ((tuple(getattr(e, name) for name in objectives), e.uid, e)
         for e in evaluations),
        key=lambda scored: scored[:2])
    frontier: List[Tuple[Tuple[float, ...], DSEEvaluation]] = []
    for values, _, entry in ranked:
        if not any(_dominates(kept, values) for kept, _ in frontier):
            frontier.append((values, entry))
    return [entry for _, entry in frontier]


def select_lowest_power(
    evaluations: Iterable[DSEEvaluation],
    area_budget_mm2: float = math.inf,
) -> DSEEvaluation:
    """The paper's Sec. 7 selection rule: lowest power within the area
    budget.

    Power ties break toward the smaller die, then the uid, so the pick
    is deterministic regardless of enumeration order.
    """
    feasible = [e for e in evaluations if e.area_mm2 <= area_budget_mm2]
    if not feasible:
        raise ValueError(
            f"no design fits the {area_budget_mm2} mm^2 budget")
    return min(feasible, key=lambda e: (e.power_mw, e.area_mm2, e.uid))


class DSESpace:
    """The enumerated keyspace: deterministic order, uid index and the
    neighbor topology the refinement loop walks."""

    def __init__(self, axes: Optional[DSEAxes] = None):
        self.axes = axes or DSEAxes()
        self.designs: List[DesignPoint] = []
        for style in self.axes.styles:
            for nnz in self.axes.weight_nnz:
                self.designs.extend(enumerate_design_space(
                    time_unrolled=style, weight_nnz=nnz))
        self.points: List[DSEPoint] = [
            DSEPoint(design=design, a_nnz=a, sram_mb=sram,
                     dram_gbps=bw, tech=tech)
            for design in self.designs
            for a in self.axes.a_nnz
            for sram in self.axes.sram_mb
            for bw in self.axes.dram_gbps
            for tech in self.axes.techs
        ]
        self._by_uid: Dict[str, DSEPoint] = {p.uid: p for p in self.points}
        if len(self._by_uid) != len(self.points):
            raise ValueError("DSE point uids collide — axes misconfigured")
        self._design_neighbors: Optional[
            Dict[DesignPoint, List[DesignPoint]]] = None

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, uid: str) -> DSEPoint:
        return self._by_uid[uid]

    def __contains__(self, uid: str) -> bool:
        return uid in self._by_uid

    # ------------------------------------------------------------- #
    # topology
    # ------------------------------------------------------------- #

    def _design_adjacency(self) -> Dict[DesignPoint, List[DesignPoint]]:
        if self._design_neighbors is None:
            adjacency: Dict[DesignPoint, List[DesignPoint]] = {
                d: [] for d in self.designs}
            for i, a in enumerate(self.designs):
                for b in self.designs[i + 1:]:
                    if a.time_unrolled != b.time_unrolled:
                        continue
                    distance = sum(
                        getattr(a, f) != getattr(b, f)
                        for f in _DESIGN_FIELDS)
                    if 1 <= distance <= 2:
                        adjacency[a].append(b)
                        adjacency[b].append(a)
            self._design_neighbors = adjacency
        return self._design_neighbors

    def neighbors(self, uid: str) -> List[DSEPoint]:
        """Points one step away: the same design with one scalar axis
        (A-DBB, SRAM, DRAM bandwidth, tech) stepped by one, plus the
        adjacent designs (axis distance <= 2 under the MAC budget) with
        every scalar axis held."""
        point = self._by_uid[uid]
        out: List[DSEPoint] = []
        scalar_axes = (
            ("a_nnz", self.axes.a_nnz),
            ("sram_mb", self.axes.sram_mb),
            ("dram_gbps", self.axes.dram_gbps),
            ("tech", self.axes.techs),
        )
        for attr, values in scalar_axes:
            idx = values.index(getattr(point, attr))
            for j in (idx - 1, idx + 1):
                if 0 <= j < len(values):
                    out.append(dataclasses.replace(point,
                                                   **{attr: values[j]}))
        for design in self._design_adjacency()[point.design]:
            out.append(dataclasses.replace(point, design=design))
        return out

    def neighborhood(self, uids: Iterable[str],
                     radius: int = 1) -> List[DSEPoint]:
        """The union of <= ``radius``-hop neighbors of ``uids``
        (excluding the seeds), in deterministic uid order."""
        seeds = set(uids)
        seen = set(seeds)
        ring = list(seeds)
        collected: Dict[str, DSEPoint] = {}
        for _ in range(max(1, radius)):
            nxt: List[str] = []
            for uid in ring:
                for q in self.neighbors(uid):
                    if q.uid not in seen:
                        seen.add(q.uid)
                        collected[q.uid] = q
                        nxt.append(q.uid)
            ring = nxt
            if not ring:
                break
        return [collected[uid] for uid in sorted(collected)]


# ----------------------------------------------------------------- #
# evaluation
# ----------------------------------------------------------------- #

def evaluate_points(
    points: Sequence[DSEPoint],
    fidelity: str = "analytic",
    seed: int = 0,
    max_m: Optional[int] = None,
    jobs: Optional[int] = None,
    result_cache=None,
) -> Dict[str, DSEEvaluation]:
    """Evaluate each point's reference workload through the parallel
    runner; returns ``{uid: evaluation}`` in ``points`` order.

    ``fidelity="analytic"`` (default) prices the closed-form layer
    events — sub-millisecond per point, which is what makes a
    thousands-of-points sweep interactive, and never touches
    ``result_cache``. ``"functional"`` simulates synthesized INT8
    operands on the cycle simulator (``seed`` / ``max_m`` as in the
    full-model experiments) and memoizes its payloads there.
    """
    from repro.eval.runner import LayerSimTask, simulate_layer_tasks

    if fidelity not in ("analytic", "functional"):
        raise ValueError(f"unknown fidelity {fidelity!r}")
    analytic = fidelity == "analytic"
    staged = []
    tasks = []
    for point in points:
        accel = point.build()
        layer = point.layer()
        staged.append((point, accel, layer))
        tasks.append(LayerSimTask(accel, layer, seed=seed, max_m=max_m,
                                  analytic=analytic))
    payloads = simulate_layer_tasks(tasks, jobs=jobs,
                                    result_cache=result_cache)
    out: Dict[str, DSEEvaluation] = {}
    for (point, accel, layer), (compute_cycles, events) in zip(staged,
                                                               payloads):
        result = accel._finalize_layer(layer, compute_cycles, events)
        runtime_s = result.cycles / (accel.clock_ghz * 1e9)
        power_mw = (result.energy_pj * 1e-12 / runtime_s * 1e3
                    if runtime_s else 0.0)
        out[point.uid] = DSEEvaluation(
            uid=point.uid,
            notation=point.design.notation,
            time_unrolled=point.design.time_unrolled,
            weight_nnz=point.design.weight_nnz,
            a_nnz=point.a_nnz,
            sram_mb=point.sram_mb,
            dram_gbps=point.dram_gbps,
            tech=point.tech,
            power_mw=power_mw,
            area_mm2=accel.area_mm2(),
            cycles=result.cycles,
            energy_uj=result.energy_uj,
        )
    return out


# ----------------------------------------------------------------- #
# the engine
# ----------------------------------------------------------------- #

def parse_shard(text: str) -> Tuple[int, int]:
    """``"i/n"`` -> ``(i, n)`` with 0 <= i < n."""
    try:
        index_text, count_text = text.split("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(
            f"shard must look like I/N (e.g. 0/4), got {text!r}") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must satisfy 0 <= I < N, got {text!r}")
    return index, count


def _space_config(axes: DSEAxes, coarse_stride: int, stable_rounds: int,
                  fidelity: str, seed: int, max_m: Optional[int]) -> dict:
    return {
        "axes": axes.as_dict(),
        "coarse_stride": coarse_stride,
        "stable_rounds": stable_rounds,
        "fidelity": fidelity,
        "seed": seed,
        "max_m": max_m,
    }


def _signature(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _cache_meta(result_cache) -> dict:
    if result_cache is None:
        return {"enabled": False}
    lookups = result_cache.hits + result_cache.misses
    return {
        "enabled": True,
        "hits": result_cache.hits,
        "misses": result_cache.misses,
        "hit_rate": (result_cache.hits / lookups) if lookups else 0.0,
    }


def _artifact(config: dict, total_points: int, phase: str,
              shard: Optional[Tuple[int, int]],
              evaluations: Dict[str, DSEEvaluation],
              frontier: List[DSEEvaluation], rounds: List[dict],
              result_cache) -> dict:
    space = dict(config)
    space["signature"] = _signature(config)
    space["points"] = total_points
    return {
        "artifact": "dse",
        "space": space,
        "phase": phase,
        "shard": (None if shard is None
                  else {"index": shard[0], "count": shard[1]}),
        "evaluations": [evaluations[uid].as_dict()
                        for uid in sorted(evaluations)],
        "frontier": [e.uid for e in frontier],
        "rounds": rounds,
        "meta": {"cache": _cache_meta(result_cache)},
    }


def _write_json_atomic(path: Path, data: dict) -> None:
    """Write-to-temp + ``os.replace`` so a crash mid-write can never
    leave a torn checkpoint — the previous one survives intact."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(data, handle, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _checkpoint_payload(config: dict, total_points: int,
                        shard: Optional[Tuple[int, int]],
                        evaluations: Dict[str, DSEEvaluation],
                        coarse_done: int,
                        refine: Optional[dict]) -> dict:
    space = dict(config)
    space["signature"] = _signature(config)
    space["points"] = total_points
    return {
        "artifact": "dse-checkpoint",
        "version": DSE_CHECKPOINT_VERSION,
        "space": space,
        "shard": (None if shard is None
                  else {"index": shard[0], "count": shard[1]}),
        "coarse_done": coarse_done,
        "evaluations": [evaluations[uid].as_dict()
                        for uid in sorted(evaluations)],
        "refine": refine,
    }


def load_checkpoint(path) -> dict:
    """Read and validate a DSE checkpoint written by ``run_dse``.

    Raises ``ValueError`` on anything that is not a compatible
    checkpoint: wrong artifact kind, wrong version, or a space
    signature that no longer matches its own stored configuration
    (corruption, or a hand-edited file)."""
    data = json.loads(Path(path).read_text())
    if data.get("artifact") != "dse-checkpoint":
        raise ValueError(f"{path}: not a DSE checkpoint")
    if data.get("version") != DSE_CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: checkpoint version {data.get('version')!r} != "
            f"{DSE_CHECKPOINT_VERSION}")
    space = data["space"]
    config = _space_config(
        DSEAxes.from_dict(space["axes"]), space["coarse_stride"],
        space["stable_rounds"], space["fidelity"], space["seed"],
        space["max_m"])
    if _signature(config) != space.get("signature"):
        raise ValueError(
            f"{path}: space signature mismatch — checkpoint is corrupt "
            f"or was written against a different space definition")
    if not 0 <= int(data.get("coarse_done", -1)):
        raise ValueError(f"{path}: bad coarse_done")
    return data


def _refine(space: DSESpace, evaluations: Dict[str, DSEEvaluation],
            config: dict, jobs: Optional[int], result_cache,
            max_rounds: int = 64,
            rounds: Optional[List[dict]] = None, stable: int = 0,
            save=None) -> Tuple[List[DSEEvaluation], List[dict]]:
    """The adaptive loop: evaluate the frontier's neighborhood each
    round, widening the ring while the frontier holds, until it has
    been stable for ``stable_rounds`` rounds or the whole reachable
    neighborhood is evaluated (which proves stability).

    ``rounds``/``stable`` seed the loop from a checkpoint; the frontier
    itself is recomputed from the evaluation set (of which it is a pure
    function), so they are the *only* path-dependent state. ``save``,
    when given, is called after every completed round with
    ``(evaluations, {"rounds": ..., "stable": ...})``.
    """
    stable_rounds = config["stable_rounds"]
    frontier = pareto_frontier_3d(evaluations.values())
    if rounds is None:
        rounds = [{"round": 0, "new_points": len(evaluations),
                   "evaluated": len(evaluations),
                   "frontier_size": len(frontier)}]
    else:
        rounds = [dict(r) for r in rounds]
    while stable < stable_rounds and len(rounds) <= max_rounds:
        frontier_uids = [e.uid for e in frontier]
        candidates = [p for p in space.neighborhood(frontier_uids,
                                                    radius=stable + 1)
                      if p.uid not in evaluations]
        if not candidates:
            # Every point reachable from the frontier is evaluated and
            # none displaced it: stable by exhaustion.
            break
        with obs_trace.span(f"refine-round-{len(rounds)}", "dse",
                            candidates=len(candidates)):
            evaluations.update(evaluate_points(
                candidates, fidelity=config["fidelity"],
                seed=config["seed"], max_m=config["max_m"], jobs=jobs,
                result_cache=result_cache))
        new_frontier = pareto_frontier_3d(evaluations.values())
        stable = (stable + 1
                  if [e.uid for e in new_frontier] == frontier_uids
                  else 0)
        frontier = new_frontier
        rounds.append({"round": len(rounds), "new_points": len(candidates),
                       "evaluated": len(evaluations),
                       "frontier_size": len(frontier)})
        if save is not None:
            save(evaluations, {"rounds": rounds, "stable": stable})
    return frontier, rounds


@traced("dse", "experiment")
def run_dse(
    axes: Optional[DSEAxes] = None,
    coarse_stride: int = 4,
    stable_rounds: int = 2,
    fidelity: str = "analytic",
    seed: int = 0,
    max_m: Optional[int] = None,
    jobs: Optional[int] = None,
    result_cache=None,
    shard: Optional[Tuple[int, int]] = None,
    checkpoint=None,
    checkpoint_every: int = 256,
    resume=None,
) -> dict:
    """Run the sweep and return the JSON-ready artifact.

    Unsharded: coarse sample -> adaptive refinement -> final artifact.
    With ``shard=(i, n)``: evaluate slice ``i`` of the coarse sample
    only and return a ``phase="coarse"`` partial artifact;
    :func:`merge_artifacts` over all ``n`` shards completes the
    refinement and yields an artifact identical to the unsharded run.

    ``checkpoint=PATH`` atomically snapshots progress every
    ``checkpoint_every`` coarse points and after every refinement
    round. ``resume=PATH`` restores a snapshot and continues; the run
    configuration (axes, stride, fidelity, seed, ...) is taken from
    the checkpoint — the corresponding arguments are ignored — so a
    resumed run is the *same* run and its final artifact equals the
    uninterrupted one. When resuming without an explicit
    ``checkpoint``, new snapshots keep going to the resume path, so a
    crash-restart loop needs only ``resume=PATH``.
    """
    if checkpoint_every < 1:
        raise ValueError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}")
    evaluations: Dict[str, DSEEvaluation] = {}
    coarse_done = 0
    refine_state: Optional[dict] = None
    if resume is not None:
        state = load_checkpoint(resume)
        stored = state["space"]
        axes = DSEAxes.from_dict(stored["axes"])
        coarse_stride = stored["coarse_stride"]
        stable_rounds = stored["stable_rounds"]
        fidelity = stored["fidelity"]
        seed = stored["seed"]
        max_m = stored["max_m"]
        shard = (None if state["shard"] is None
                 else (state["shard"]["index"], state["shard"]["count"]))
        evaluations = {row["uid"]: DSEEvaluation.from_dict(row)
                       for row in state["evaluations"]}
        coarse_done = int(state["coarse_done"])
        refine_state = state["refine"]
        if checkpoint is None:
            checkpoint = resume
    if coarse_stride < 1:
        raise ValueError(f"coarse_stride must be >= 1, got {coarse_stride}")
    if stable_rounds < 1:
        raise ValueError(f"stable_rounds must be >= 1, got {stable_rounds}")
    space = DSESpace(axes)
    config = _space_config(space.axes, coarse_stride, stable_rounds,
                           fidelity, seed, max_m)
    coarse = space.points[::coarse_stride]
    owned = coarse if shard is None else coarse[shard[0]::shard[1]]
    if coarse_done > len(owned):
        raise ValueError(
            f"checkpoint has {coarse_done} coarse points but the space "
            f"only owns {len(owned)} — wrong checkpoint for this space")
    checkpoint_path = None if checkpoint is None else Path(checkpoint)

    def save(refine: Optional[dict]) -> None:
        if checkpoint_path is None:
            return
        _write_json_atomic(checkpoint_path, _checkpoint_payload(
            config, len(space), shard, evaluations, coarse_done, refine))
        obs_metrics.default_registry().counter("dse.checkpoints").inc()

    pending = owned[coarse_done:]
    with obs_trace.span("coarse" if shard is None else "coarse-shard",
                        "dse", points=len(owned), pending=len(pending)):
        if checkpoint_path is None:
            evaluations.update(evaluate_points(
                pending, fidelity=fidelity, seed=seed, max_m=max_m,
                jobs=jobs, result_cache=result_cache))
            coarse_done = len(owned)
        else:
            for start in range(0, len(pending), checkpoint_every):
                chunk = pending[start:start + checkpoint_every]
                evaluations.update(evaluate_points(
                    chunk, fidelity=fidelity, seed=seed, max_m=max_m,
                    jobs=jobs, result_cache=result_cache))
                coarse_done += len(chunk)
                save(refine_state)
    if shard is not None:
        return _artifact(config, len(space), "coarse", shard,
                         evaluations, [], [], result_cache)
    frontier, rounds = _refine(
        space, evaluations, config, jobs, result_cache,
        rounds=None if refine_state is None else refine_state["rounds"],
        stable=0 if refine_state is None else int(refine_state["stable"]),
        save=None if checkpoint_path is None else
        (lambda _evals, refine: save(refine)))
    return _artifact(config, len(space), "final", None, evaluations,
                     frontier, rounds, result_cache)


def merge_artifacts(artifacts: Sequence[dict],
                    jobs: Optional[int] = None,
                    result_cache=None) -> dict:
    """Union per-shard coarse artifacts and complete the refinement.

    Every shard must come from the same space (signature match) and the
    shard set must be exactly ``0..n-1``. The refinement evaluates its
    candidates here (at functional fidelity through the result cache,
    so a merge host reuses the shards' payloads when they share one) —
    the merged artifact equals the unsharded run's by construction.
    """
    if not artifacts:
        raise ValueError("nothing to merge")
    signatures = {a["space"]["signature"] for a in artifacts}
    if len(signatures) != 1:
        raise ValueError(
            f"shards come from different spaces: {sorted(signatures)}")
    for art in artifacts:
        if art.get("phase") != "coarse" or not art.get("shard"):
            raise ValueError(
                "merge takes per-shard coarse artifacts "
                "(produced by --shard I/N)")
    counts = {a["shard"]["count"] for a in artifacts}
    if len(counts) != 1:
        raise ValueError(f"inconsistent shard counts: {sorted(counts)}")
    count = counts.pop()
    indices = sorted(a["shard"]["index"] for a in artifacts)
    if indices != list(range(count)):
        raise ValueError(
            f"need shards 0..{count - 1} exactly once, got {indices}")
    reference = artifacts[0]["space"]
    axes = DSEAxes.from_dict(reference["axes"])
    space = DSESpace(axes)
    config = _space_config(axes, reference["coarse_stride"],
                           reference["stable_rounds"],
                           reference["fidelity"], reference["seed"],
                           reference["max_m"])
    evaluations: Dict[str, DSEEvaluation] = {}
    for art in artifacts:
        for row in art["evaluations"]:
            entry = DSEEvaluation.from_dict(row)
            evaluations[entry.uid] = entry
    frontier, rounds = _refine(space, evaluations, config, jobs,
                               result_cache)
    return _artifact(config, len(space), "final", None, evaluations,
                     frontier, rounds, result_cache)


# ----------------------------------------------------------------- #
# rendering
# ----------------------------------------------------------------- #

def render_artifact(artifact: dict, top: int = 12) -> ExperimentResult:
    """Human-readable summary table of a DSE artifact."""
    evaluations = [DSEEvaluation.from_dict(row)
                   for row in artifact["evaluations"]]
    frontier_uids = set(artifact["frontier"])
    ranked = sorted(evaluations, key=lambda e: (e.objectives, e.uid))
    rows = [
        [e.notation,
         "time-unrolled" if e.time_unrolled else "dot-product",
         e.a_nnz,
         e.sram_mb,
         "default" if e.dram_gbps is None else f"{e.dram_gbps:g} GB/s",
         e.tech,
         round(e.energy_uj, 1),
         e.cycles,
         round(e.area_mm2, 2),
         round(e.power_mw, 1),
         "yes" if e.uid in frontier_uids else "no"]
        for e in ranked[:top]
    ]
    space = artifact["space"]
    notes = [
        f"{space['points']} points in the space; "
        f"{len(evaluations)} evaluated "
        f"(coarse stride {space['coarse_stride']}, "
        f"{space['fidelity']} fidelity)",
    ]
    if artifact["phase"] == "coarse":
        shard = artifact["shard"]
        notes.append(
            f"partial shard {shard['index']}/{shard['count']} — merge "
            f"all shards with `repro dse --merge` for the frontier")
    else:
        notes.append(
            f"(energy x cycles x area) Pareto frontier: "
            f"{len(frontier_uids)} points, stable after "
            f"{len(artifact['rounds'])} refinement round(s)")
    cache = artifact["meta"]["cache"]
    if cache.get("enabled") and cache["hits"] + cache["misses"]:
        notes.append(
            f"result cache: {cache['hits']} hits / {cache['misses']} "
            f"misses ({cache['hit_rate']:.1%} hit rate)")
    return ExperimentResult(
        artifact="DSE",
        title="adaptive AxBxC_MxN design-space exploration "
              "(typical conv, per-point DBB bounds)",
        headers=["design", "style", "A-DBB", "SRAM MB", "DRAM", "tech",
                 "energy uJ", "cycles", "area mm2", "power mW",
                 "frontier"],
        rows=rows,
        notes=notes,
    )
