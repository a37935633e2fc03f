"""The distributed, adaptive design-space exploration engine
(:mod:`repro.design.dse`).

The ISSUE-7 acceptance bounds, asserted here:

- a 2-way sharded run, merged from its per-shard artifacts, is
  identical to the unsharded run (everything but the cache ``meta``);
- a warm functional-fidelity re-sweep is served from the result cache,
  while an analytic re-sweep with a cache attached equals the cold
  sweep and stores nothing (analytic payloads stay out of the cache);
- adaptive refinement terminates with a stable (energy, cycles, area)
  Pareto frontier, pinned on a restricted axes slice.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.dse import (
    DSE_OBJECTIVES,
    DSEAxes,
    DSEEvaluation,
    DSEPoint,
    DSESpace,
    evaluate_points,
    merge_artifacts,
    pareto_frontier_3d,
    parse_shard,
    render_artifact,
    run_dse,
)
from repro.eval.resultcache import ResultCache

#: A small slice of the keyspace: one style, one B, three A-DBB bounds
#: — 114 points, a sub-second sweep with non-trivial refinement.
SMALL = DSEAxes(styles=(True,), weight_nnz=(4,), a_nnz=(2, 4, 8),
                sram_mb=(2.5,))


def _sans_meta(artifact):
    return {k: v for k, v in artifact.items() if k != "meta"}


class TestAxes:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            DSEAxes(a_nnz=())

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(ValueError):
            DSEAxes(sram_mb=(2.5, 2.5))

    def test_dbb_bounds_validated(self):
        with pytest.raises(ValueError):
            DSEAxes(weight_nnz=(9,))
        with pytest.raises(ValueError):
            DSEAxes(a_nnz=(0,))

    def test_roundtrips_through_dict(self):
        axes = DSEAxes(dram_gbps=(None, 8.0), techs=("16nm", "65nm"))
        assert DSEAxes.from_dict(axes.as_dict()) == axes


class TestSpace:
    def test_default_space_is_thousands_of_points(self):
        assert len(DSESpace()) >= 2000

    def test_enumeration_is_deterministic(self):
        first = [p.uid for p in DSESpace(SMALL).points]
        second = [p.uid for p in DSESpace(SMALL).points]
        assert first == second
        assert len(first) == len(set(first))

    def test_neighbors_stay_in_space_and_are_symmetric(self):
        space = DSESpace(SMALL)
        point = space.points[len(space) // 2]
        neighbors = space.neighbors(point.uid)
        assert neighbors
        for other in neighbors:
            assert other.uid in space
            back = [p.uid for p in space.neighbors(other.uid)]
            assert point.uid in back

    def test_scalar_axis_neighbors_step_one_index(self):
        space = DSESpace(SMALL)
        point = next(p for p in space.points if p.a_nnz == 4)
        steps = {n.a_nnz for n in space.neighbors(point.uid)
                 if n.design == point.design}
        assert steps == {2, 8}  # both neighbors on the a_nnz axis

    def test_design_neighbors_share_style(self):
        space = DSESpace(DSEAxes(styles=(True, False), weight_nnz=(4,),
                                 a_nnz=(4,), sram_mb=(2.5,)))
        point = space.points[0]
        for other in space.neighbors(point.uid):
            assert (other.design.time_unrolled
                    == point.design.time_unrolled)


def _evaluation(tag, energy, cycles, area):
    return DSEEvaluation(
        uid=f"p{tag}", notation=f"n{tag}", time_unrolled=True,
        weight_nnz=4, a_nnz=4, sram_mb=2.5, dram_gbps=None,
        tech="16nm", power_mw=1.0, area_mm2=float(area),
        cycles=int(cycles), energy_uj=float(energy))


#: Both planes the one Pareto function serves: the DSE engine's default
#: and Sec. 7's (power, area).
OBJECTIVE_SETS = pytest.mark.parametrize(
    "objectives", [DSE_OBJECTIVES, ("power_mw", "area_mm2")],
    ids=["energy-cycles-area", "power-area"])


def _scored(tag, objectives, values):
    """Synthetic evaluation whose ``objectives`` take ``values`` (the
    rest held constant), so small integer grids force exact ties."""
    fields = {"energy_uj": 1.0, "cycles": 100, "area_mm2": 1.0,
              "power_mw": 1.0}
    fields.update(zip(objectives, values))
    return DSEEvaluation(
        uid=f"p{tag:02d}", notation=f"n{tag}", time_unrolled=True,
        weight_nnz=4, a_nnz=4, sram_mb=2.5, dram_gbps=None,
        tech="16nm", **fields)


_GRIDS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                            st.integers(0, 3)),
                  min_size=1, max_size=24)


class TestParetoFrontier3D:
    def test_nondominated_and_keeps_ties(self):
        tied_a = _evaluation(1, 1.0, 10, 2.0)
        tied_b = _evaluation(2, 1.0, 10, 2.0)
        dominated = _evaluation(3, 2.0, 20, 3.0)
        tradeoff = _evaluation(4, 0.5, 40, 5.0)
        frontier = pareto_frontier_3d(
            [dominated, tied_a, tradeoff, tied_b])
        uids = [e.uid for e in frontier]
        assert "p1" in uids and "p2" in uids
        assert "p3" not in uids
        assert "p4" in uids  # wins on energy, loses on cycles/area

    def test_order_independent(self):
        rnd = random.Random(7)
        evals = [_evaluation(i, rnd.choice([1.0, 2.0, 3.0]),
                             rnd.choice([10, 20, 30]),
                             rnd.choice([1.0, 2.0]))
                 for i in range(30)]
        reference = pareto_frontier_3d(evals)
        for _ in range(10):
            rnd.shuffle(evals)
            assert pareto_frontier_3d(evals) == reference

    @OBJECTIVE_SETS
    @given(grid=_GRIDS, rnd=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_order_independent_on_tied_grids(self, objectives, grid, rnd):
        """The frontier — content *and* order — is a pure function of
        the evaluation set."""
        evals = [_scored(i, objectives, values)
                 for i, values in enumerate(grid)]
        shuffled = list(evals)
        rnd.shuffle(shuffled)
        assert (pareto_frontier_3d(shuffled, objectives)
                == pareto_frontier_3d(evals, objectives))

    @OBJECTIVE_SETS
    @given(grid=_GRIDS)
    @settings(max_examples=60, deadline=None)
    def test_keeps_exact_ties(self, objectives, grid):
        """Dominance requires a strict improvement, so objective-tied
        points survive or fall together — never an arbitrary winner."""
        evals = [_scored(i, objectives, values)
                 for i, values in enumerate(grid)]
        frontier = pareto_frontier_3d(evals, objectives)
        assert frontier
        kept = {tuple(getattr(e, name) for name in objectives)
                for e in frontier}
        for e in evals:
            if tuple(getattr(e, name) for name in objectives) in kept:
                assert e in frontier


class TestRunDSE:
    def test_pinned_stable_frontier(self):
        """The refinement converges to one frontier point on the SMALL
        slice: the paper's 8x4x4_8x8 at the tightest A-DBB bound —
        pinned exactly (uid) and numerically (objectives)."""
        artifact = run_dse(SMALL, coarse_stride=3, jobs=1)
        assert artifact["phase"] == "final"
        assert artifact["frontier"] == [
            "8x4x4_8x8.tu.a2.s2.5.bwdef.16nm"]
        best = next(e for e in artifact["evaluations"]
                    if e["uid"] == artifact["frontier"][0])
        assert best["cycles"] == 112924
        assert best["energy_uj"] == pytest.approx(52.7, abs=0.1)
        assert best["area_mm2"] == pytest.approx(3.70, abs=0.01)

    def test_refinement_terminates_with_stable_frontier(self):
        artifact = run_dse(SMALL, coarse_stride=4, stable_rounds=2,
                           jobs=1)
        rounds = artifact["rounds"]
        assert 2 <= len(rounds) <= 65
        evaluated = [r["evaluated"] for r in rounds]
        assert evaluated == sorted(evaluated)
        assert evaluated[-1] == len(artifact["evaluations"])
        # The frontier is genuinely non-dominated over everything seen.
        evals = [DSEEvaluation.from_dict(e)
                 for e in artifact["evaluations"]]
        assert artifact["frontier"] == [
            e.uid for e in pareto_frontier_3d(evals)]

    def test_coarse_stride_one_evaluates_everything(self):
        tiny = DSEAxes(styles=(True,), weight_nnz=(4,), a_nnz=(4,),
                       sram_mb=(1.25, 2.5))
        artifact = run_dse(tiny, coarse_stride=1, jobs=1)
        assert len(artifact["evaluations"]) == len(DSESpace(tiny))

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            run_dse(SMALL, coarse_stride=0)
        with pytest.raises(ValueError):
            run_dse(SMALL, stable_rounds=0)
        with pytest.raises(ValueError):
            evaluate_points([], fidelity="rtl")


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("2/2", "-1/2", "0/0", "x", "1", "1/2/3"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shards_partition_the_coarse_sample(self):
        shards = [run_dse(SMALL, coarse_stride=3, jobs=1, shard=(i, 3))
                  for i in range(3)]
        owned = [
            {e["uid"] for e in s["evaluations"]} for s in shards]
        assert not (owned[0] & owned[1] or owned[0] & owned[2]
                    or owned[1] & owned[2])
        coarse = {p.uid for p in DSESpace(SMALL).points[::3]}
        assert owned[0] | owned[1] | owned[2] == coarse

    def test_merge_identical_to_unsharded(self):
        """The ISSUE-7 headline bound: shard 0/2 + shard 1/2, merged,
        equals the unsharded artifact — evaluations, frontier and
        refinement rounds alike."""
        unsharded = run_dse(SMALL, coarse_stride=3, jobs=1)
        shards = [run_dse(SMALL, coarse_stride=3, jobs=1, shard=(i, 2))
                  for i in range(2)]
        for shard in shards:
            assert shard["phase"] == "coarse"
            assert shard["frontier"] == []
        merged = merge_artifacts(shards, jobs=1)
        assert _sans_meta(merged) == _sans_meta(unsharded)

    def test_merge_rejects_incomplete_or_foreign_shards(self):
        s0, s1 = (run_dse(SMALL, coarse_stride=3, jobs=1, shard=(i, 2))
                  for i in range(2))
        with pytest.raises(ValueError):
            merge_artifacts([])
        with pytest.raises(ValueError):
            merge_artifacts([s0])  # shard 1 missing
        with pytest.raises(ValueError):
            merge_artifacts([s0, s0])  # duplicate index
        other = run_dse(SMALL, coarse_stride=4, jobs=1, shard=(1, 2))
        with pytest.raises(ValueError):
            merge_artifacts([s0, other])  # different space signature
        final = run_dse(SMALL, coarse_stride=3, jobs=1)
        with pytest.raises(ValueError):
            merge_artifacts([final, s1])  # not a coarse shard


class TestResultCacheIntegration:
    #: Functional fidelity at a tiny row cap: the tier that is cached.
    FUNCTIONAL = {"fidelity": "functional", "max_m": 8}

    @pytest.mark.functional
    def test_warm_resweep_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cold = run_dse(SMALL, coarse_stride=3, jobs=1, result_cache=cache,
                       **self.FUNCTIONAL)
        cache.hits = cache.misses = 0
        warm = run_dse(SMALL, coarse_stride=3, jobs=1, result_cache=cache,
                       **self.FUNCTIONAL)
        assert _sans_meta(warm) == _sans_meta(cold)
        assert warm["meta"]["cache"]["hit_rate"] == 1.0

    @pytest.mark.functional
    def test_shards_share_payloads_with_the_merge_host(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        shards = [run_dse(SMALL, coarse_stride=3, jobs=1, shard=(i, 2),
                          result_cache=cache, **self.FUNCTIONAL)
                  for i in range(2)]
        merged = merge_artifacts(shards, jobs=1, result_cache=cache)
        # Re-merging is pure cache traffic: zero new simulations.
        cache.hits = cache.misses = 0
        again = merge_artifacts(shards, jobs=1, result_cache=cache)
        assert _sans_meta(again) == _sans_meta(merged)
        assert again["meta"]["cache"]["hit_rate"] == 1.0

    def test_analytic_resweep_with_cache_writes_nothing(self, tmp_path):
        """Analytic points are cheaper to recompute than to read back:
        a re-sweep with a cache attached equals the cold sweep, and the
        cache stays empty with no lookups counted."""
        cold = run_dse(SMALL, coarse_stride=3, jobs=1)
        cache = ResultCache(tmp_path / "rc")
        for _ in range(2):
            again = run_dse(SMALL, coarse_stride=3, jobs=1,
                            result_cache=cache)
            assert _sans_meta(again) == _sans_meta(cold)
        stats = cache.stats()
        assert (stats["entries"], stats["hits"], stats["misses"],
                stats["puts"]) == (0, 0, 0, 0)
        assert "result cache:" not in render_artifact(again).render()


class TestFidelity:
    @pytest.mark.functional
    def test_functional_fidelity_runs_the_cycle_simulator(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        space = DSESpace(DSEAxes(styles=(True,), weight_nnz=(4,),
                                 a_nnz=(4,), sram_mb=(2.5,)))
        point = next(p for p in space.points
                     if p.design.notation == "8x4x4_8x8")
        functional = evaluate_points([point], fidelity="functional",
                                     max_m=32, jobs=1,
                                     result_cache=cache)[point.uid]
        analytic = evaluate_points([point], fidelity="analytic",
                                   max_m=32, jobs=1,
                                   result_cache=cache)[point.uid]
        assert functional.cycles > 0 and analytic.cycles > 0
        # Only the functional payload is stored.
        assert cache.stats()["entries"] == 1

    def test_point_build_applies_every_axis(self):
        design = next(iter(DSESpace(SMALL).points)).design
        point = DSEPoint(design=design, a_nnz=2, sram_mb=5.0,
                         dram_gbps=8.0, tech="65nm")
        accel = point.build()
        assert accel.tech == "65nm"
        assert accel.sram_mb == 5.0
        assert accel.memory.dram.bytes_per_cycle * accel.clock_ghz \
            == pytest.approx(8.0)
        layer = point.layer()
        assert layer.a_nnz == 2
        assert layer.w_nnz == design.weight_nnz


class TestRender:
    def test_render_mentions_frontier_and_counts(self):
        artifact = run_dse(SMALL, coarse_stride=3, jobs=1)
        text = render_artifact(artifact, top=5).render()
        assert "8x4x4_8x8" in text
        assert "Pareto frontier" in text
        assert "114 points in the space" in text

    def test_render_flags_partial_shards(self):
        shard = run_dse(SMALL, coarse_stride=3, jobs=1, shard=(0, 2))
        text = render_artifact(shard).render()
        assert "partial shard 0/2" in text


class TestCheckpointResume:
    """Crash-safe sweeps: checkpoints are atomic snapshots of the only
    path-dependent state (evaluations, coarse progress, refine
    rounds/stable counter), so a resumed run's artifact is identical to
    an uninterrupted one — from any interruption point."""

    def test_resume_mid_coarse_equals_uninterrupted(self, tmp_path,
                                                    monkeypatch):
        import repro.design.dse as dse_mod

        base = run_dse(axes=SMALL, coarse_stride=4)
        ckpt = tmp_path / "ck.json"
        real = dse_mod.evaluate_points
        calls = {"n": 0}

        def bomb(points, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt   # "SIGKILL" mid-coarse
            return real(points, **kwargs)

        monkeypatch.setattr(dse_mod, "evaluate_points", bomb)
        with pytest.raises(KeyboardInterrupt):
            run_dse(axes=SMALL, coarse_stride=4,
                    checkpoint=str(ckpt), checkpoint_every=5)
        monkeypatch.setattr(dse_mod, "evaluate_points", real)

        state = dse_mod.load_checkpoint(ckpt)
        assert 0 < state["coarse_done"] < len(DSESpace(SMALL).points[::4])
        resumed = run_dse(resume=str(ckpt))
        assert _sans_meta(resumed) == _sans_meta(base)

    def test_resume_mid_refine_equals_uninterrupted(self, tmp_path,
                                                    monkeypatch):
        import repro.design.dse as dse_mod

        base = run_dse(axes=SMALL, coarse_stride=4)
        ckpt = tmp_path / "ck.json"
        coarse_points = len(DSESpace(SMALL).points[::4])
        real = dse_mod.evaluate_points
        calls = {"n": 0}
        import math
        coarse_calls = math.ceil(coarse_points / 5)

        def bomb(points, **kwargs):
            calls["n"] += 1
            if calls["n"] > coarse_calls + 1:   # die in refine round 2
                raise KeyboardInterrupt
            return real(points, **kwargs)

        monkeypatch.setattr(dse_mod, "evaluate_points", bomb)
        try:
            run_dse(axes=SMALL, coarse_stride=4,
                    checkpoint=str(ckpt), checkpoint_every=5)
            interrupted = False
        except KeyboardInterrupt:
            interrupted = True
        monkeypatch.setattr(dse_mod, "evaluate_points", real)

        if interrupted:   # refinement had >= 2 rounds to interrupt
            state = dse_mod.load_checkpoint(ckpt)
            assert state["refine"] is not None
        resumed = run_dse(resume=str(ckpt))
        assert _sans_meta(resumed) == _sans_meta(base)

    def test_resume_of_finished_checkpoint_is_idempotent(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        base = run_dse(axes=SMALL, coarse_stride=4,
                       checkpoint=str(ckpt))
        again = run_dse(resume=str(ckpt))
        assert _sans_meta(again) == _sans_meta(base)

    def test_checkpoint_validation(self, tmp_path):
        import json

        from repro.design.dse import load_checkpoint

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"artifact": "dse"}))
        with pytest.raises(ValueError, match="not a DSE checkpoint"):
            load_checkpoint(bad)

        ckpt = tmp_path / "ck.json"
        run_dse(axes=SMALL, coarse_stride=8, checkpoint=str(ckpt))
        data = json.loads(ckpt.read_text())
        data["space"]["coarse_stride"] = 2   # tampered config
        ckpt.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="signature"):
            load_checkpoint(ckpt)
