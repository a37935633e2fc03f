"""Tests for the SA-SMT staging-FIFO queueing simulator."""

import numpy as np
import pytest

from repro.arch.smt import SMTArrayModel


def _rng():
    return np.random.default_rng(7)


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            SMTArrayModel(threads=0)
        with pytest.raises(ValueError):
            SMTArrayModel(fifo_depth=0)
        with pytest.raises(ValueError):
            SMTArrayModel(pes=0)
        with pytest.raises(ValueError):
            SMTArrayModel(skew=-1)

    def test_bad_densities(self):
        model = SMTArrayModel()
        with pytest.raises(ValueError):
            model.simulate(1.5, 0.5)
        with pytest.raises(ValueError):
            model.simulate(0.5, -0.1)
        with pytest.raises(ValueError):
            model.simulate(0.5, 0.5, stream_length=0)


class TestPaperCalibration:
    """Fig. 3: ~1.6x (T2Q2) and ~1.8x (T2Q4) at 50%/50% sparsity."""

    def test_t2q2_speedup(self):
        model = SMTArrayModel(threads=2, fifo_depth=2)
        speedup = model.speedup(0.5, 0.5, 1152, rng=_rng())
        assert 1.45 <= speedup <= 1.75

    def test_t2q4_speedup(self):
        model = SMTArrayModel(threads=2, fifo_depth=4)
        speedup = model.speedup(0.5, 0.5, 1152, rng=_rng())
        assert 1.75 <= speedup <= 2.0

    def test_deeper_fifo_helps(self):
        q2 = SMTArrayModel(fifo_depth=2).speedup(0.5, 0.5, 1152, rng=_rng())
        q4 = SMTArrayModel(fifo_depth=4).speedup(0.5, 0.5, 1152, rng=_rng())
        assert q4 > q2


class TestQueueingBehaviour:
    def test_dense_streams_no_speedup(self):
        # Fully dense operands: every slot needs the MAC, so T2 degrades
        # to ~1x (the FIFO is always the bottleneck).
        model = SMTArrayModel(threads=2, fifo_depth=2)
        result = model.simulate(1.0, 1.0, 512, rng=_rng())
        assert result.speedup <= 1.1

    def test_very_sparse_saturates_at_t(self):
        model = SMTArrayModel(threads=2, fifo_depth=4)
        result = model.simulate(0.1, 0.1, 2048, rng=_rng())
        assert result.speedup == pytest.approx(2.0, abs=0.15)

    def test_speedup_monotone_in_sparsity(self):
        model = SMTArrayModel(threads=2, fifo_depth=2)
        speedups = [
            model.speedup(d, d, 1024, rng=_rng())
            for d in (0.9, 0.7, 0.5, 0.3)
        ]
        assert all(a <= b + 0.05 for a, b in zip(speedups, speedups[1:]))

    def test_fifo_events_balance(self):
        model = SMTArrayModel(threads=2, fifo_depth=2, pes=16)
        result = model.simulate(0.5, 0.5, 256, rng=_rng())
        assert result.events.fifo_push_ops == result.events.fifo_pop_ops
        assert result.events.fifo_push_ops == result.events.mac_ops

    def test_stall_cycles_counted(self):
        model = SMTArrayModel(threads=2, fifo_depth=2, pes=256)
        result = model.simulate(0.8, 0.8, 512, rng=_rng())
        assert result.stall_cycles > 0
        assert result.cycles > 512

    def test_utilization_bounded(self):
        model = SMTArrayModel()
        result = model.simulate(0.5, 0.5, 512, rng=_rng())
        assert 0.0 < result.mac_utilization <= 1.0

    def test_termination_guard(self):
        # Even pathological parameters terminate (bounded cycle count).
        model = SMTArrayModel(threads=4, fifo_depth=1, pes=512)
        result = model.simulate(1.0, 1.0, 128, rng=_rng())
        assert result.cycles <= 128 * 4 * 4 + 64 + 128 + model.skew


def _per_cycle_reference(model, weight_density, act_density,
                         stream_length, rng):
    """The queueing loop with one ``rng.binomial`` draw per cycle:
    ``(cycles, stall_cycles, pushes, pops)``."""
    p_useful = weight_density * act_density
    occupancy = np.zeros(model.pes, dtype=np.int64)
    consumed = cycles = stall_cycles = pushes = pops = 0
    max_cycles = stream_length * model.threads * 4 + 64
    while consumed < stream_length and cycles < max_cycles:
        cycles += 1
        served = occupancy > 0
        occupancy[served] -= 1
        pops += int(np.count_nonzero(served))
        arrivals = rng.binomial(model.threads, p_useful, size=model.pes)
        if np.any(occupancy + arrivals > model.fifo_depth):
            stall_cycles += 1
            continue
        occupancy += arrivals
        pushes += int(arrivals.sum())
        consumed += 1
    cycles += int(occupancy.max()) + model.skew
    pops += int(occupancy.sum())
    return cycles, stall_cycles, pushes, pops


class TestChunkedArrivalDraws:
    """Arrivals drawn in multi-cycle batches reproduce the per-cycle
    draws exactly, and leave the generator in the same state."""

    @pytest.mark.parametrize("threads, fifo_depth", [(2, 2), (2, 4)])
    def test_matches_per_cycle_reference_over_density_grid(
            self, threads, fifo_depth):
        model = SMTArrayModel(threads=threads, fifo_depth=fifo_depth)
        for w in (0.05, 0.5, 0.95):
            for a in (0.2, 0.6, 1.0):
                rng, ref_rng = _rng(), _rng()
                result = model.simulate(w, a, 1500, rng=rng)
                expected = _per_cycle_reference(model, w, a, 1500, ref_rng)
                assert (result.cycles, result.stall_cycles,
                        result.events.fifo_push_ops,
                        result.events.fifo_pop_ops) == expected
                assert rng.random() == ref_rng.random()

    def test_termination_guard_matches_reference(self):
        model = SMTArrayModel(threads=4, fifo_depth=1, pes=512)
        result = model.simulate(1.0, 1.0, 128, rng=_rng())
        expected = _per_cycle_reference(model, 1.0, 1.0, 128, _rng())
        assert (result.cycles, result.stall_cycles) == expected[:2]

    def test_smt_speedups_unchanged(self):
        from repro.accel.smt import SmtSA

        smt = SmtSA()
        for w, a in ((0.3, 0.4), (0.5, 0.5), (0.9, 0.8)):
            ref = _per_cycle_reference(
                smt._queue_model, w, a, 1152,
                np.random.default_rng(round(w * 100) * 101 + round(a * 100)))
            dense = smt.threads * 1152 + smt._queue_model.skew
            assert smt.speedup_at(w, a) == max(1.0, dense / ref[0])
