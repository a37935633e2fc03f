"""SA-SMT staging-FIFO queueing simulator (Sec. 2.2, Fig. 3).

SMT-SA time-multiplexes ``T`` independent operand streams (threads) onto
each PE's single MAC. Zero products are skipped, so a PE only needs its
MAC when *both* operands of a thread are non-zero — probability
``d_w * d_a`` for random sparsity. Matching pairs wait in a per-PE
staging FIFO of depth ``Q``; when any PE's FIFO would overflow, the
systolic operand propagation stalls globally (streams cannot advance
selectively in a systolic array).

The paper's INT8 re-implementation measures ~1.6x (T2Q2) and ~1.8x
(T2Q4) speedup at 50%/50% weight/activation sparsity, *with* a large
energy overhead from the FIFO traffic. This Monte Carlo reproduces the
speedup mechanism (capped at T, degraded by overflow stalls that shrink
as Q grows) and counts the FIFO events that drive the energy overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arch.events import EventCounts

__all__ = ["SMTArrayModel", "SMTResult"]

#: Most cycles' arrival rows drawn from the generator in one call.
_DRAW_CYCLES = 1024


@dataclass
class SMTResult:
    """Outcome of one SMT array simulation."""

    cycles: int
    stall_cycles: int
    speedup: float          # vs a dense SA running the same T tiles
    mac_utilization: float
    events: EventCounts


class SMTArrayModel:
    """Monte Carlo queueing model of an SMT systolic array.

    Parameters
    ----------
    threads:
        ``T`` — streams multiplexed per PE (paper evaluates T2).
    fifo_depth:
        ``Q`` — staging FIFO depth per PE (paper evaluates Q2 and Q4).
    pes:
        Number of PEs sharing the globally-coupled stall signal. More PEs
        means more frequent worst-case overflow, i.e. lower speedup. The
        default of 48 (with the 32x64 array's skew of 94) calibrates the
        model to the paper's measured 1.6x (T2Q2) / 1.8x (T2Q4) at
        50%/50% sparsity; physically it reflects stall elasticity — a
        FIFO overflow backpressures a neighbourhood, not all 2048 PEs.
    skew:
        Wavefront fill/drain steps charged once per tile.
    """

    def __init__(self, threads: int = 2, fifo_depth: int = 2, pes: int = 48,
                 skew: int = 94):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if fifo_depth < 1:
            raise ValueError(f"fifo_depth must be >= 1, got {fifo_depth}")
        if pes < 1:
            raise ValueError(f"pes must be >= 1, got {pes}")
        if skew < 0:
            raise ValueError(f"skew must be >= 0, got {skew}")
        self.threads = threads
        self.fifo_depth = fifo_depth
        self.pes = pes
        # Wavefront fill/drain of the output-stationary schedule; the
        # paper's 32x64 array has rows+cols-2 = 94 skew steps per tile.
        self.skew = skew

    def simulate(
        self,
        weight_density: float,
        act_density: float,
        stream_length: int = 2048,
        rng: Optional[np.random.Generator] = None,
    ) -> SMTResult:
        """Run the queueing simulation for one synthetic GEMM.

        ``stream_length`` is the per-thread operand stream length (the
        reduction dimension of the tile). A dense SA processes the same
        ``T`` tiles in ``T * stream_length`` cycles, which defines the
        speedup denominator.
        """
        for name, d in (("weight", weight_density), ("act", act_density)):
            if not 0.0 <= d <= 1.0:
                raise ValueError(f"{name} density must be in [0, 1], got {d}")
        if stream_length < 1:
            raise ValueError(f"stream_length must be >= 1, got {stream_length}")
        rng = rng or np.random.default_rng(0)
        p_useful = weight_density * act_density
        occupancy = np.zeros(self.pes, dtype=np.int64)
        consumed = 0
        cycles = 0
        stall_cycles = 0
        total_pushes = 0
        total_pops = 0
        # Hard bound so adversarial parameters cannot hang the simulation.
        max_cycles = stream_length * self.threads * 4 + 64
        # Per-cycle arrival rows are drawn up to _DRAW_CYCLES at a time
        # (a bulk binomial draw yields the same values as per-cycle
        # draws). Each batch is no longer than the cycles certain to
        # run, so every drawn row is used and ``rng`` ends in the same
        # state as with one draw per cycle.
        draws = np.empty((0, self.pes), dtype=np.int64)
        row = 0
        while consumed < stream_length and cycles < max_cycles:
            if row == draws.shape[0]:
                batch = min(_DRAW_CYCLES, stream_length - consumed,
                            max_cycles - cycles)
                draws = rng.binomial(self.threads, p_useful,
                                     size=(batch, self.pes))
                row = 0
            cycles += 1
            # Service: each PE's MAC pops at most one pending pair.
            served = occupancy > 0
            occupancy[served] -= 1
            total_pops += int(np.count_nonzero(served))
            # Arrivals: all threads advance one stream element in lockstep
            # unless some PE's FIFO would overflow.
            arrivals = draws[row]
            row += 1
            if np.any(occupancy + arrivals > self.fifo_depth):
                stall_cycles += 1
                continue  # global stall: operand wavefront frozen
            occupancy += arrivals
            total_pushes += int(arrivals.sum())
            consumed += 1
        # Drain the FIFOs, then account the wavefront fill/drain skew.
        remaining = int(occupancy.max()) if occupancy.size else 0
        cycles += remaining + self.skew
        total_pops += int(occupancy.sum())
        # The dense SA pays the skew once for the same tile, not per thread.
        dense_cycles = self.threads * stream_length + self.skew
        speedup = dense_cycles / cycles if cycles else 0.0
        useful_macs = total_pushes
        events = EventCounts(
            mac_ops=useful_macs,
            gated_mac_ops=cycles * self.pes - useful_macs,
            fifo_push_ops=total_pushes,
            fifo_pop_ops=total_pops,
            cycles=cycles,
        )
        utilization = useful_macs / (cycles * self.pes) if cycles else 0.0
        return SMTResult(
            cycles=cycles,
            stall_cycles=stall_cycles,
            speedup=speedup,
            mac_utilization=utilization,
            events=events,
        )

    def speedup(
        self,
        weight_density: float,
        act_density: float,
        stream_length: int = 2048,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Convenience wrapper returning only the speedup factor."""
        return self.simulate(
            weight_density, act_density, stream_length, rng=rng
        ).speedup
