"""Concrete operand synthesis from analytic :class:`LayerSpec`s.

The functional full-model pipeline (``AcceleratorModel.run_model_functional``)
needs real INT8 tensors for every layer of a benchmark network, matched to
the analytic density profile the performance model prices:

- the GEMM shape is the spec's ``m``/``k``/``n`` (the im2col lowering of
  :mod:`repro.nn.im2col` — ``k`` is the patch axis DBB blocks run along,
  and need not be a multiple of ``BZ``);
- weights satisfy the layer's W-DBB bound (``w_nnz`` per ``BZ`` block)
  with element density ``layer.w_density``;
- activations satisfy the layer's A-DBB bound (``a_nnz`` per block, so
  the simulator's DAP pass is a no-op and all four execution modes see
  the *same* element density ``layer.a_density``, exactly as the analytic
  models assume).

Density is hit *exactly in total*: the per-block non-zero counts are a
largest-remainder allocation of ``round(rows * width * density)``
non-zeros across blocks (random tie-breaking keeps the allocation
unbiased), with uniformly random positions inside each block and uniform
non-zero INT8 magnitudes. The exact total is what lets the fixed-dataflow
baselines (SparTen / Eyeriss v2 / SCNN) cross-validate their
sparsity-compressed SRAM and DRAM byte counters *bit-for-bit* between the
analytic and functional tiers: ``count_nonzero`` of a synthesized operand
equals the analytic models' ``round(elements * density)`` closed form
whenever ``density <= nnz_cap / BLOCK_SIZE`` (above the cap the operand
saturates at the cap, as before).

A block's positions are those of its smallest uniform random keys. They
are found by threshold, not by a per-block sort: an 8-input sorting
network (19 min/max comparators) runs over cache-sized chunks of blocks
laid out as 8 columns, and each block keeps the keys up to its
``nnz``-th smallest. The rare block whose threshold key ties the next
one falls back to ``np.argsort``, so the choice equals a per-block
argsort ranking bit for bit and the seed-fixed operand bytes do not
depend on how the selection is computed.

Generated operands are memoized in :class:`OperandCache`, an LRU bounded
by a *byte budget* rather than an entry count (a single VGG conv layer's
activation matrix is ~29 MB; entry-count caches like ``lru_cache`` grow
unboundedly in bytes). Cached arrays are returned read-only and shared
across every accelerator variant in a sweep, so each layer's operands are
synthesized once per (shape, density, seed) point.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.models.specs import BLOCK_SIZE, LayerSpec
from repro.obs import trace as obs_trace

__all__ = [
    "blocked_density_operand",
    "spec_operands",
    "OperandCache",
    "operands_for_layer",
    "default_operand_cache",
]


def blocked_density_operand(
    rows: int,
    width: int,
    nnz_cap: int,
    density: float,
    rng: np.random.Generator,
    dtype=np.int8,
) -> np.ndarray:
    """Random ``(rows, width)`` tensor: per-block NNZ cap + element density.

    Blocks of ``BLOCK_SIZE`` run along the last axis; ``width`` need not
    be a multiple of it (the ragged tail block simply has fewer candidate
    positions). Every block holds at most ``nnz_cap`` non-zeros, and the
    total non-zero count over the valid ``rows * width`` region equals
    ``round(rows * width * density)`` *exactly* (largest-remainder
    allocation of the per-block real-valued targets, clipped to the cap —
    the exact total holds whenever ``density <= nnz_cap / BLOCK_SIZE``;
    above it the tensor saturates at the cap). Random tie-breaking among
    equal fractional remainders keeps the allocation unbiased.

    Each block's ``nnz[b]`` positions are the ones holding its ``nnz[b]``
    smallest uniform random keys (see :func:`_choose_positions`).
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if not 1 <= nnz_cap <= BLOCK_SIZE:
        raise ValueError(
            f"nnz_cap must be in [1, {BLOCK_SIZE}], got {nnz_cap}")
    kb = -(-width // BLOCK_SIZE)
    padded = kb * BLOCK_SIZE
    tail = width - (kb - 1) * BLOCK_SIZE
    # Per-block bookkeeping for one row of blocks: every block is full
    # except the ragged tail, so rows differ only in their allocation.
    valid = np.full(kb, BLOCK_SIZE, dtype=np.int8)
    valid[-1] = tail
    # Largest-remainder allocation of the exact total across blocks
    # (same ``round`` expression as the analytic models' stored-byte
    # closed forms, so the two tiers agree bit-for-bit on nnz).
    cap = np.minimum(nnz_cap, valid)
    target = density * valid
    nnz_row = np.minimum(np.floor(target), cap).astype(np.int8)
    total = min(int(round(rows * width * density)), rows * int(cap.sum()))
    deficit = total - rows * int(nnz_row.sum())
    frac = target - np.floor(target)
    tiebreak = rng.random(rows * kb).reshape(rows, kb)
    nnz = np.tile(nnz_row, (rows, 1))
    _allocate_deficit(nnz, cap, frac, tiebreak, deficit)
    # Each draw is freed once used, so the per-block arrays never all
    # coexist with the magnitude and sign draws.
    del tiebreak
    keys = rng.random((rows * kb, BLOCK_SIZE), dtype=np.float32)
    if tail < BLOCK_SIZE:
        keys.reshape(rows, kb, BLOCK_SIZE)[:, -1, tail:] = np.inf
    mask = _choose_positions(keys, nnz.reshape(-1))
    del keys
    magnitude = rng.integers(1, 128, size=mask.shape, dtype=np.int16)
    sign = rng.integers(0, 2, size=mask.shape, dtype=np.int16)
    # In-place (same RNG draws, same values as the where(mask, m*s, 0)
    # formulation — the seed-fixed operand streams must not change):
    sign *= 2
    sign -= 1
    np.multiply(magnitude, sign, out=magnitude)
    np.multiply(magnitude, mask, out=magnitude, casting="unsafe")
    out = magnitude.astype(dtype)
    return out.reshape(rows, padded)[:, :width]


def _allocate_deficit(nnz: np.ndarray, cap: np.ndarray, frac: np.ndarray,
                      tiebreak: np.ndarray, deficit: int) -> None:
    """Add ``deficit`` non-zeros to ``nnz`` in place, one per block in
    order of decreasing ``frac`` then increasing ``tiebreak``, skipping
    blocks at their ``cap`` and wrapping round until none is left.

    ``nnz`` (C-contiguous) and ``tiebreak`` have one entry per block;
    ``cap`` and ``frac`` broadcast against them, so a synthesized
    operand passes one row of blocks for each. Blocks are ordered by
    their flat C index where ``frac`` and ``tiebreak`` both tie."""
    if deficit <= 0:
        return
    if deficit <= nnz.size and bool((nnz < cap).all()):
        bump = _first_blocks(frac, tiebreak, deficit)
        if bump is not None:
            nnz += bump
            return
    flat = nnz.reshape(-1)
    cap = np.broadcast_to(cap, nnz.shape).reshape(-1)
    order = np.lexsort((tiebreak.reshape(-1),
                        -np.broadcast_to(frac, nnz.shape).reshape(-1)))
    while deficit > 0:
        room = order[(cap - flat)[order] > 0]
        bump = room[:deficit]
        flat[bump] += 1
        deficit -= bump.size


def _first_blocks(frac: np.ndarray, tiebreak: np.ndarray, count: int
                  ) -> Optional[np.ndarray]:
    """The first ``count`` blocks of ``np.lexsort((tiebreak, -frac))``
    as a boolean mask shaped like ``tiebreak``, without the full sort:
    ``frac`` (broadcast against ``tiebreak``) takes few distinct values
    (a synthesized operand has two, full blocks and the ragged tail), so
    whole levels are taken from the highest down and the boundary level
    contributes the blocks whose tiebreak is at most its ``count``-th
    smallest (``np.partition``). ``None`` when that tiebreak value ties
    the next one (the stable sort would then break the tie by index)."""
    chosen = np.zeros(tiebreak.shape, dtype=bool)
    for level in np.unique(frac)[::-1]:
        members = np.broadcast_to(frac == level, tiebreak.shape)
        size = int(np.count_nonzero(members))
        if size <= count:
            chosen |= members
            count -= size
            if count == 0:
                break
            continue
        keys = tiebreak.reshape(-1) if size == tiebreak.size \
            else tiebreak[members]
        low = np.partition(keys, (count - 1, count))
        if low[count - 1] == low[count]:
            return None
        chosen |= members & (tiebreak <= low[count - 1])
        break
    return chosen


# Batcher's odd-even merge sort network for 8 inputs (19 comparators).
_SORT8 = ((0, 1), (2, 3), (4, 5), (6, 7),
          (0, 2), (1, 3), (4, 6), (5, 7),
          (1, 2), (5, 6),
          (0, 4), (1, 5), (2, 6), (3, 7),
          (2, 4), (3, 5),
          (1, 2), (3, 4), (5, 6))


def _network_schedule() -> Tuple[tuple, np.ndarray]:
    """:data:`_SORT8` as buffer-row steps ``(lo, hi, spare)`` over an
    ``(BLOCK_SIZE + 3)``-row work buffer whose rows ``1..BLOCK_SIZE``
    hold the inputs and whose last row starts as the spare.

    Each comparator writes its minimum into the spare and its maximum
    over ``hi`` in place; ``lo``'s row becomes the next spare, so no
    row is copied back. Also returns the final buffer row of each
    sorted position ``0..BLOCK_SIZE + 1`` (rows 0 and ``BLOCK_SIZE + 1``
    stay put)."""
    row = list(range(BLOCK_SIZE + 2))
    spare = BLOCK_SIZE + 2
    steps = []
    for i, j in _SORT8:
        lo, hi = row[i + 1], row[j + 1]
        steps.append((lo, hi, spare))
        row[i + 1], spare = spare, lo
    return tuple(steps), np.array(row, dtype=np.intp)


_NETWORK_STEPS, _SORTED_ROW = _network_schedule()

# Blocks per pass of the sorting network: the (11, chunk) float32 work
# buffer stays within a core's L2 cache.
_CHUNK_BLOCKS = 1 << 14


def _run_network(work: np.ndarray) -> None:
    """Sort the columns of ``work``'s input rows in place (sorted
    position ``i`` lands in row ``_SORTED_ROW[i + 1]``)."""
    for lo, hi, spare in _NETWORK_STEPS:
        np.minimum(work[lo], work[hi], out=work[spare])
        np.maximum(work[lo], work[hi], out=work[hi])


def _choose_positions(keys: np.ndarray, nnz: np.ndarray) -> np.ndarray:
    """Boolean mask of each block's ``nnz[b]`` smallest keys.

    ``keys`` is ``(blocks, BLOCK_SIZE)`` (padding positions hold
    ``+inf``) and ``nnz[b]`` at most the block's valid positions. The
    result equals ranking each row with ``np.argsort`` and marking its
    first ``nnz[b]`` entries, without the per-row sort: chunk by chunk,
    the keys are transposed to ``BLOCK_SIZE`` rows and sorted column-wise
    by the :data:`_SORT8` min/max network, and each block keeps the keys
    ``<=`` its ``nnz[b]``-th smallest. That threshold picks exactly
    ``nnz[b]`` positions unless the next-larger key equals it; those
    few tied blocks are re-chosen with the ``argsort`` itself, so the
    mask matches the per-row ranking whatever order the sort gives
    equal keys.
    """
    blocks = keys.shape[0]
    mask = np.empty(keys.shape, dtype=bool)
    width = min(blocks, _CHUNK_BLOCKS)
    # Row 0 (-inf) and row BLOCK_SIZE + 1 (+inf) bracket the sorted keys
    # so nnz == 0 selects nothing and nnz == BLOCK_SIZE never ties.
    buf = np.empty((BLOCK_SIZE + 3, width), dtype=keys.dtype)
    buf[0] = -np.inf
    buf[BLOCK_SIZE + 1] = np.inf
    flat = buf.reshape(-1)
    # Flat offset of sorted position i's row; a block's column is added.
    offset = _SORTED_ROW * width
    cols = np.arange(width)
    tied = []
    for start in range(0, blocks, width):
        chunk = keys[start:start + width]
        count = nnz[start:start + width]
        n = chunk.shape[0]
        buf[1:BLOCK_SIZE + 1, :n] = chunk.T
        _run_network(buf[:, :n])
        threshold = flat.take(offset[count] + cols[:n])
        above = flat.take(offset[count + 1] + cols[:n])
        np.less_equal(chunk, threshold[:, None], out=mask[start:start + n])
        tie = np.flatnonzero(threshold == above)
        if tie.size:
            tied.append(tie + start)
    if tied:
        tied = np.concatenate(tied)
        order = np.argsort(keys[tied], axis=1)
        chosen = np.arange(BLOCK_SIZE)[None, :] < nnz[tied, None]
        redo = np.zeros_like(chosen)
        np.put_along_axis(redo, order, chosen, axis=1)
        mask[tied] = redo
    return mask


def spec_operands(
    layer: LayerSpec,
    seed: int = 0,
    dtype=np.int8,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthesize ``(A, W)`` INT8 operands for one analytic layer spec.

    ``A`` is ``(m, k)`` with blocks along ``k`` capped at ``a_nnz``;
    ``W`` is ``(k, n)`` whose transpose is W-DBB compliant at ``w_nnz``
    (i.e. compressible by the hardware's static weight path). Densities
    match ``layer.a_density`` / ``layer.w_density`` in expectation.
    """
    with obs_trace.span(layer.name, "synthesize",
                        m=layer.m, k=layer.k, n=layer.n, seed=seed):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, layer.m, layer.k, layer.n,
                                    layer.w_nnz, layer.a_nnz]))
        w = blocked_density_operand(
            layer.n, layer.k, layer.w_nnz, min(layer.w_density, 1.0),
            rng, dtype=dtype).T
        a = blocked_density_operand(
            layer.m, layer.k, layer.a_nnz, min(layer.a_density, 1.0),
            rng, dtype=dtype)
        return a, w


class OperandCache:
    """Byte-budget LRU memo for synthesized layer operands.

    Keys on the fields that determine the generated tensors (GEMM shape,
    DBB bounds, densities, seed); evicts least-recently-used entries once
    the resident operand bytes exceed ``max_bytes``. Entries larger than
    the whole budget are synthesized but never retained. Cached arrays
    are marked read-only — they are shared across accelerator variants.

    **Multi-process semantics** (the parallel experiment runner,
    :mod:`repro.eval.runner`): the cache is *process-local*. Worker
    processes never share entries, budget accounting or hit/miss stats
    with the parent or each other — a ``fork``-started worker inherits a
    copy-on-write snapshot of the parent's entries (read-only arrays,
    shared physical pages until evicted) and diverges from there; a
    ``spawn``-started worker begins empty. The pool initializer calls
    :meth:`resize` in each worker so that every worker's budget is its
    share of the parent's total — the aggregate resident bytes across
    workers stay within one configured budget, and no cross-process
    locking is needed because no state is shared. Within one process the
    cache is additionally thread-safe (a lock guards the LRU structure).
    """

    def __init__(self, max_bytes: int = 512 * 1024 * 1024):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" \
            = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.races = 0

    @staticmethod
    def _key(layer: LayerSpec, seed: int) -> tuple:
        # Exact densities: synthesis uses them unrounded, so specs that
        # differ anywhere in a density may differ in non-zero count.
        return (layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz,
                layer.w_density, layer.a_density, seed)

    def get(self, layer: LayerSpec, seed: int = 0
            ) -> Tuple[np.ndarray, np.ndarray]:
        key = self._key(layer, seed)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return hit
            self.misses += 1
        # Synthesis runs outside the lock (it is the expensive part and
        # touches no shared state); a racing thread may synthesize the
        # same entry concurrently, in which case the first insert wins
        # (identical read-only arrays) and the loser's copy is dropped
        # without touching the byte accounting.
        a, w = spec_operands(layer, seed=seed)
        a.setflags(write=False)
        w.setflags(write=False)
        item_bytes = a.nbytes + w.nbytes
        with self._lock:
            raced = self._entries.get(key)
            if raced is not None:
                self._entries.move_to_end(key)
                self.races += 1
                return raced
            if item_bytes <= self.max_bytes:
                self._entries[key] = (a, w)
                self.current_bytes += item_bytes
                self._evict_to_budget()
        return a, w

    def _evict_to_budget(self) -> None:
        """Drop LRU entries until within budget (lock held by caller)."""
        while self.current_bytes > self.max_bytes and len(self._entries) > 1:
            _, (ea, ew) = self._entries.popitem(last=False)
            self.current_bytes -= ea.nbytes + ew.nbytes
            self.evictions += 1

    def resize(self, max_bytes: int) -> None:
        """Re-budget the cache (evicting LRU entries if shrinking) —
        how the parallel runner's pool initializer gives each worker its
        share of the parent's budget."""
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        with self._lock:
            self.max_bytes = max_bytes
            # A shrunk budget may strand a single oversized entry; the
            # loop below keeps at least one entry, so drop it explicitly
            # when even alone it exceeds the new budget.
            self._evict_to_budget()
            if self.current_bytes > self.max_bytes and self._entries:
                _, (ea, ew) = self._entries.popitem(last=False)
                self.current_bytes -= ea.nbytes + ew.nbytes
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0
            self.reset_stats()

    def reset_stats(self) -> None:
        """Zero the counters without dropping entries — pool workers
        call this at init so fork-inherited parent counts never pollute
        the deltas they return with their task payloads."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.races = 0

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "races": self.races,
            "entries": len(self._entries),
            "bytes": self.current_bytes,
        }

    def __len__(self) -> int:
        return len(self._entries)


_DEFAULT_CACHE = OperandCache()


def default_operand_cache() -> OperandCache:
    """The process-wide operand cache shared by the functional runners."""
    return _DEFAULT_CACHE


def operands_for_layer(
    layer: LayerSpec,
    seed: int = 0,
    cache: Optional[OperandCache] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Memoized ``(A, W)`` operands for one layer (read-only arrays)."""
    cache = _DEFAULT_CACHE if cache is None else cache
    return cache.get(layer, seed=seed)
