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
whenever ``density <= nnz_cap / block_size`` (above the cap the operand
saturates at the cap, as before).

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
    block_size: int = BLOCK_SIZE,
    dtype=np.int8,
) -> np.ndarray:
    """Random ``(rows, width)`` tensor: per-block NNZ cap + element density.

    Blocks run along the last axis; ``width`` need not be a multiple of
    ``block_size`` (the ragged tail block simply has fewer candidate
    positions). Every block holds at most ``nnz_cap`` non-zeros, and the
    total non-zero count over the valid ``rows * width`` region equals
    ``round(rows * width * density)`` *exactly* (largest-remainder
    allocation of the per-block real-valued targets, clipped to the cap —
    the exact total holds whenever ``density <= nnz_cap / block_size``;
    above it the tensor saturates at the cap). Random tie-breaking among
    equal fractional remainders keeps the allocation unbiased.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if not 1 <= nnz_cap <= block_size:
        raise ValueError(
            f"nnz_cap must be in [1, {block_size}], got {nnz_cap}")
    kb = -(-width // block_size)
    padded = kb * block_size
    # Valid (non-padding) positions per block along one row.
    valid = np.full(kb, block_size, dtype=np.int64)
    tail = width - (kb - 1) * block_size
    valid[-1] = tail
    valid = np.broadcast_to(valid, (rows, kb)).reshape(-1)
    # Largest-remainder allocation of the exact total across blocks
    # (same ``round`` expression as the analytic models' stored-byte
    # closed forms, so the two tiers agree bit-for-bit on nnz).
    cap = np.minimum(nnz_cap, valid)
    target = density * valid
    nnz = np.minimum(np.floor(target).astype(np.int64), cap)
    total = min(int(round(rows * width * density)), int(cap.sum()))
    deficit = total - int(nnz.sum())
    frac = target - np.floor(target)
    tiebreak = rng.random(valid.size)
    _allocate_deficit(nnz, cap, frac, tiebreak, deficit)
    # Choose nnz[b] positions per block among its valid ones: rank random
    # keys per block (invalid positions get +inf) and keep the smallest.
    keys = rng.random((valid.size, block_size), dtype=np.float32)
    keys[np.arange(block_size)[None, :] >= valid[:, None]] = np.inf
    order = np.argsort(keys, axis=1)
    chosen = np.arange(block_size, dtype=np.int64)[None, :] < nnz[:, None]
    mask = np.zeros_like(chosen)
    np.put_along_axis(mask, order, chosen, axis=1)
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
    blocks at their ``cap`` and wrapping round until none is left."""
    if deficit <= 0:
        return
    if deficit <= nnz.size and bool((nnz < cap).all()):
        bump = _first_blocks(frac, tiebreak, deficit)
        if bump is not None:
            nnz[bump] += 1
            return
    order = np.lexsort((tiebreak, -frac))
    while deficit > 0:
        room = order[(cap - nnz)[order] > 0]
        bump = room[:deficit]
        nnz[bump] += 1
        deficit -= bump.size


def _first_blocks(frac: np.ndarray, tiebreak: np.ndarray, count: int
                  ) -> Optional[np.ndarray]:
    """The first ``count`` indices of ``np.lexsort((tiebreak, -frac))``
    as a set, without the full sort: ``frac`` takes few distinct values
    (a synthesized operand has two, full blocks and the ragged tail), so
    whole levels are taken from the highest down and the boundary level
    contributes its ``count`` smallest tiebreaks via ``argpartition``.
    ``None`` when the boundary tiebreak value is tied (the stable sort
    would then break the tie by index)."""
    taken = []
    remaining = np.ones(frac.size, dtype=bool)
    while count > 0:
        level = frac[remaining].max()
        members = np.flatnonzero(remaining & (frac == level))
        if members.size <= count:
            taken.append(members)
            remaining[members] = False
            count -= members.size
            continue
        keys = tiebreak[members]
        part = np.argpartition(keys, (count - 1, count))
        if keys[part[count - 1]] == keys[part[count]]:
            return None
        taken.append(members[part[:count]])
        break
    return np.concatenate(taken)


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
        return (layer.m, layer.k, layer.n, layer.w_nnz, layer.a_nnz,
                round(layer.w_density, 6), round(layer.a_density, 6), seed)

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
