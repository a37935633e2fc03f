"""One result type for every functional GEMM engine.

The paper's artifacts price cycles and hardware events (fired and gated
MACs, operand hops, SRAM bytes); none of them reads the numeric output
matrix. :class:`GemmSimResult` therefore carries the cycles and events
the engine computed eagerly, and computes the output only when someone
reads :attr:`GemmSimResult.output` — running the kernel the engine named
on the operands it kept, then caching the result and dropping the
operands. The full-model functional tier never reads it; the
whole-network simulator (:mod:`repro.arch.netsim`) and the bit-exactness
tests do, and see exactly the matrix an eager engine would have built.

The operands are held by reference until the first read, so they must
not be mutated in between (the operand memos of
:mod:`repro.workloads.from_spec` and :func:`repro.eval.functional_operands`
already hand out read-only arrays).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.arch.events import EventCounts

if TYPE_CHECKING:
    from repro.arch.systolic import Mode

__all__ = ["GemmSimResult"]


class GemmSimResult:
    """Cycles and events of one simulated GEMM, with a lazy output.

    ``mode`` is the systolic execution mode (``None`` for the
    fixed-dataflow engines); ``pe_loads`` holds per-PE work of the
    engines that schedule onto discrete PEs (SparTen's greedy filter
    assignment, Eyeriss v2's mesh slots, SCNN's multiplier issue slots).
    ``kernel(*operands)`` computes the output on first read.
    """

    def __init__(self, cycles: int, events: EventCounts,
                 mode: Optional["Mode"] = None,
                 pe_loads: Optional[np.ndarray] = None, *,
                 kernel: Callable[..., np.ndarray], operands: tuple):
        self.cycles = cycles
        self.events = events
        self.mode = mode
        self.pe_loads = pe_loads
        self._kernel: Optional[Callable[..., np.ndarray]] = kernel
        self._operands: tuple = operands
        self._output: Any = None

    @property
    def output(self) -> np.ndarray:
        """The INT accumulation matrix ``C = A @ W`` (computed once)."""
        if self._kernel is not None:
            self._output = self._kernel(*self._operands)
            self._kernel = None
            self._operands = ()
        return self._output

    @property
    def load_balance(self) -> float:
        """Mean/max PE load — 1.0 is a perfectly balanced schedule."""
        peak = self.pe_loads.max(initial=0)
        return float(self.pe_loads.mean() / peak) if peak else 1.0
