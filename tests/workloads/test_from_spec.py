"""Tests for spec-driven operand synthesis and the operand memo layers.

Covers the three memoization surfaces of the functional pipeline:
the from-spec :class:`OperandCache` (byte-budget LRU), the experiment
sweep memo :func:`repro.eval.functional_operands` (read-only guarantee),
and the weight-compression memo hit/miss accounting in
:func:`repro.core.gemm.compress_cached`.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbb import DBBSpec
from repro.core.pruning import is_dbb_compliant
from repro.core.sparsity import density
from repro.models import alexnet_spec, vgg16_spec
from repro.models.specs import BLOCK_SIZE, LayerKind, LayerSpec
from repro.workloads import from_spec
from repro.workloads.from_spec import (
    OperandCache,
    blocked_density_operand,
    operands_for_layer,
    spec_operands,
)


def _layer(m=64, k=96, n=32, w_nnz=4, a_nnz=4, w_density=None,
           a_density=None, name="L"):
    return LayerSpec(name, LayerKind.CONV, m=m, k=k, n=n,
                     w_nnz=w_nnz, a_nnz=a_nnz,
                     weight_density=w_density, act_density=a_density)


def _row_block_nnz(x):
    """Per-row DBB block non-zero counts (blocks never cross rows)."""
    pad = (-x.shape[1]) % BLOCK_SIZE
    xp = np.pad(x, ((0, 0), (0, pad)))
    return np.count_nonzero(
        xp.reshape(x.shape[0], -1, BLOCK_SIZE), axis=2)


class TestBlockedDensityOperand:
    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 8),
           st.floats(0.05, 1.0), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_cap_and_shape_hold_on_ragged_widths(self, rows, width, cap,
                                                 dens, seed):
        rng = np.random.default_rng(seed)
        out = blocked_density_operand(rows, width, cap,
                                      min(dens, cap / BLOCK_SIZE), rng)
        assert out.shape == (rows, width)
        assert out.dtype == np.int8
        assert _row_block_nnz(out).max(initial=0) <= cap

    def test_density_matches_target(self):
        rng = np.random.default_rng(0)
        out = blocked_density_operand(512, 1200, 4, 0.45, rng)
        assert density(out) == pytest.approx(0.45, abs=0.01)

    def test_full_density_is_exact(self):
        rng = np.random.default_rng(1)
        out = blocked_density_operand(16, 37, 8, 1.0, rng)
        assert density(out) == 1.0

    def test_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            blocked_density_operand(4, 8, 0, 0.5, rng)
        with pytest.raises(ValueError):
            blocked_density_operand(4, 8, 4, 1.5, rng)


def _allocation_inputs(rows, width, nnz_cap, dens, seed):
    """The per-block ``(nnz, cap, frac, tiebreak, deficit)`` state that
    :func:`blocked_density_operand` hands to the deficit allocation."""
    kb = -(-width // BLOCK_SIZE)
    valid = np.full(kb, BLOCK_SIZE, dtype=np.int64)
    valid[-1] = width - (kb - 1) * BLOCK_SIZE
    valid = np.broadcast_to(valid, (rows, kb)).reshape(-1)
    cap = np.minimum(nnz_cap, valid)
    target = dens * valid
    nnz = np.minimum(np.floor(target).astype(np.int64), cap)
    total = min(int(round(rows * width * dens)), int(cap.sum()))
    frac = target - np.floor(target)
    tiebreak = np.random.default_rng(seed).random(valid.size)
    return nnz, cap, frac, tiebreak, total - int(nnz.sum())


def _exact_allocation(nnz, cap, frac, tiebreak, deficit):
    """The reference: a full lexsort, bumped round by round."""
    nnz = nnz.copy()
    order = np.lexsort((tiebreak, -frac))
    while deficit > 0:
        room = order[(cap - nnz)[order] > 0]
        bump = room[:deficit]
        nnz[bump] += 1
        deficit -= bump.size
    return nnz


class TestDeficitAllocation:
    """The fast deficit allocation equals the exact lexsort loop."""

    @given(st.integers(1, 40), st.integers(1, 70), st.integers(1, 8),
           st.floats(0.0, 1.0), st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_loop(self, rows, width, nnz_cap, dens, seed):
        nnz, cap, frac, tiebreak, deficit = _allocation_inputs(
            rows, width, nnz_cap, dens, seed)
        expected = _exact_allocation(nnz, cap, frac, tiebreak, deficit)
        from_spec._allocate_deficit(nnz, cap, frac, tiebreak, deficit)
        np.testing.assert_array_equal(nnz, expected)

    @pytest.mark.parametrize("width", [61, 59])
    def test_over_cap_density_falls_back(self, width, monkeypatch):
        """density > nnz_cap/BZ saturates the full blocks while the
        ragged tail still has room: the fast path must not run, and the
        loop still matches the reference."""
        calls = []
        monkeypatch.setattr(from_spec, "_first_blocks",
                            lambda *args: calls.append(args))
        nnz, cap, frac, tiebreak, deficit = _allocation_inputs(
            5, width, 2, 0.3, seed=7)
        assert deficit > 0
        expected = _exact_allocation(nnz, cap, frac, tiebreak, deficit)
        from_spec._allocate_deficit(nnz, cap, frac, tiebreak, deficit)
        assert calls == []
        np.testing.assert_array_equal(nnz, expected)

    def test_tied_boundary_tiebreak_falls_back(self):
        """Equal tiebreaks straddling the boundary: the stable sort
        breaks the tie by index, which argpartition cannot promise."""
        frac = np.array([0.5, 0.5, 0.5, 0.5, 0.25])
        tiebreak = np.array([0.9, 0.3, 0.1, 0.3, 0.0])
        assert from_spec._first_blocks(frac, tiebreak, 2) is None
        nnz = np.zeros(5, dtype=np.int64)
        cap = np.full(5, 4, dtype=np.int64)
        expected = _exact_allocation(nnz, cap, frac, tiebreak, 2)
        from_spec._allocate_deficit(nnz, cap, frac, tiebreak, 2)
        np.testing.assert_array_equal(nnz, expected)
        np.testing.assert_array_equal(nnz, [0, 1, 1, 0, 0])

    @given(st.integers(1, 40), st.integers(1, 70), st.integers(1, 8),
           st.floats(0.0, 1.0), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_row_broadcast_matches_flat(self, rows, width, nnz_cap, dens,
                                        seed):
        """The operand passes one row of ``cap``/``frac`` against a 2-D
        ``nnz``; that allocates exactly like the flat per-block form."""
        nnz, cap, frac, tiebreak, deficit = _allocation_inputs(
            rows, width, nnz_cap, dens, seed)
        kb = -(-width // BLOCK_SIZE)
        expected = _exact_allocation(nnz, cap, frac, tiebreak, deficit)
        nnz2 = nnz.astype(np.int8).reshape(rows, kb)
        from_spec._allocate_deficit(nnz2, cap[:kb].astype(np.int8),
                                    frac[:kb], tiebreak.reshape(rows, kb),
                                    deficit)
        np.testing.assert_array_equal(nnz2.reshape(-1), expected)


def _argsort_positions(keys, nnz):
    """The reference choice: rank each block's keys with ``argsort`` and
    mark the first ``nnz[b]`` ranked positions."""
    order = np.argsort(keys, axis=1)
    chosen = np.arange(BLOCK_SIZE)[None, :] < nnz[:, None]
    mask = np.zeros_like(chosen)
    np.put_along_axis(mask, order, chosen, axis=1)
    return mask


@st.composite
def _keyed_blocks(draw):
    """``(keys, nnz)`` with keys from a tiny alphabet (ties straddle the
    threshold), ``+inf`` on each block's invalid tail and ``nnz[b]`` in
    ``[0, valid]``."""
    blocks = draw(st.integers(1, 60))
    alphabet = np.array(draw(st.lists(
        st.floats(0.0, 1.0, width=32), min_size=1, max_size=3)),
        dtype=np.float32)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = alphabet[rng.integers(0, alphabet.size, (blocks, BLOCK_SIZE))]
    valid = rng.integers(1, BLOCK_SIZE + 1, blocks)
    keys[np.arange(BLOCK_SIZE)[None, :] >= valid[:, None]] = np.inf
    nnz = rng.integers(0, valid + 1).astype(np.int8)
    return keys, nnz


class TestChoosePositions:
    """The sorting-network threshold choice equals per-block argsort."""

    @given(_keyed_blocks(), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_matches_argsort_reference(self, blocks, chunk):
        keys, nnz = blocks
        with mock.patch.object(from_spec, "_CHUNK_BLOCKS", chunk):
            mask = from_spec._choose_positions(keys, nnz)
        np.testing.assert_array_equal(mask, _argsort_positions(keys, nnz))
        np.testing.assert_array_equal(mask.sum(axis=1), nnz)

    def test_distinct_keys_match_reference_across_chunks(self):
        rng = np.random.default_rng(0)
        blocks = 3 * from_spec._CHUNK_BLOCKS + 5
        keys = rng.random((blocks, BLOCK_SIZE), dtype=np.float32)
        keys[::7, 5:] = np.inf
        nnz = rng.integers(0, BLOCK_SIZE + 1, blocks).astype(np.int8)
        nnz[::7] = np.minimum(nnz[::7], 5)
        np.testing.assert_array_equal(from_spec._choose_positions(keys, nnz),
                                      _argsort_positions(keys, nnz))

    def test_tied_threshold_takes_argsort_fallback(self):
        keys = np.full((2, BLOCK_SIZE), 0.5, dtype=np.float32)
        keys[1, ::2] = 0.25
        nnz = np.array([3, 2], dtype=np.int8)
        with mock.patch.object(from_spec.np, "argsort",
                               wraps=np.argsort) as argsort:
            mask = from_spec._choose_positions(keys, nnz)
        assert argsort.call_args.args[0].shape == (2, BLOCK_SIZE)
        np.testing.assert_array_equal(mask, _argsort_positions(keys, nnz))

    def test_network_sorts_every_binary_input(self):
        """0-1 principle: a comparator network that sorts all 2^8
        binary inputs sorts every input."""
        inputs = (np.arange(256)[:, None] >> np.arange(BLOCK_SIZE)) & 1
        work = np.empty((BLOCK_SIZE + 3, 256), dtype=np.float32)
        work[1:BLOCK_SIZE + 1] = inputs.T
        from_spec._run_network(work)
        ranked = work[from_spec._SORTED_ROW[1:BLOCK_SIZE + 1]]
        np.testing.assert_array_equal(ranked, np.sort(inputs.T, axis=0))
        assert len(from_spec._SORT8) == 19


#: sha256 over ``A.tobytes() + W.tobytes()`` of :func:`spec_operands`.
#: None of these layers has a tied threshold key, so the bytes do not
#: depend on how ``np.argsort`` orders equal keys.
_OPERAND_DIGESTS = {
    # AlexNet conv1: ragged k=363, activation density 1.0.
    ("alexnet", "conv1", 0):
        "6cf9b0669342437dc4d3caacb9df148a5506fb59eb17a7ec2e8fe3c63b5d122f",
    ("alexnet", "conv1", 1):
        "1ede54c50c6812fc7563c1703fc173ed36388c98503d04048443cf07b147e3e8",
    # AlexNet conv2: a_nnz=4, weight density exactly w_nnz/8.
    ("alexnet", "conv2", 0):
        "e8ef60c7218377b60963f33593a7cd85ba67548f8189094424279425c5653152",
    ("alexnet", "conv2", 1):
        "9109673e34c0e749fd0ddd292c9304c465902f985b094d8e22d602235e3753b0",
    # AlexNet conv5: a_nnz=2 with a fractional activation target.
    ("alexnet", "conv5", 0):
        "79605aa98006ed624a08ddd9b2f58e73f41e98fd2bd7e6ac571597c213a17c15",
    ("alexnet", "conv5", 1):
        "48e009237ed7b73e43b8b069cbe2a504faea12efaa815a35cb228e9c38b530d4",
    # VGG-16 conv1_1: k=27, a single ragged block per row.
    ("vgg16", "conv1_1", 0):
        "9b0b2dab3a1c3697e6d1119bd289dca01525e8ff36d4d44fb64232a7e36363bc",
    ("vgg16", "conv1_1", 1):
        "67443bd994e2fc4938ff42447ec2101b49ce91e38fc31e3fbf8093d3f7e5ce82",
}

_PIN_MODELS = {"alexnet": alexnet_spec, "vgg16": vgg16_spec}


class TestOperandBytesPinned:
    """Seed-fixed operand bytes: any change to the RNG draws, their
    order or the position choice shows here first."""

    @pytest.mark.parametrize("model, layer, seed", sorted(_OPERAND_DIGESTS))
    def test_digest(self, model, layer, seed):
        a, w = spec_operands(_PIN_MODELS[model]().layer(layer), seed=seed)
        digest = hashlib.sha256(a.tobytes() + w.tobytes()).hexdigest()
        assert digest == _OPERAND_DIGESTS[model, layer, seed]


class TestSpecOperands:
    def test_shapes_and_compliance(self):
        layer = _layer(m=33, k=90, n=17, w_nnz=3, a_nnz=2,
                       a_density=0.2)
        a, w = spec_operands(layer)
        assert a.shape == (33, 90)
        assert w.shape == (90, 17)
        pad = (-90) % BLOCK_SIZE
        wt = np.concatenate(
            [w.T, np.zeros((17, pad), dtype=w.dtype)], axis=1)
        assert is_dbb_compliant(wt, DBBSpec(BLOCK_SIZE, 3))
        assert _row_block_nnz(a).max() <= 2

    def test_densities_track_spec(self):
        layer = _layer(m=256, k=512, n=128, w_nnz=4, a_nnz=4,
                       a_density=0.45)
        a, w = spec_operands(layer)
        assert density(w) == pytest.approx(0.5, abs=0.01)
        assert density(a) == pytest.approx(0.45, abs=0.01)

    def test_deterministic_per_seed(self):
        layer = _layer()
        a1, w1 = spec_operands(layer, seed=3)
        a2, w2 = spec_operands(layer, seed=3)
        a3, _ = spec_operands(layer, seed=4)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(w1, w2)
        assert not np.array_equal(a1, a3)

    def test_dap_is_noop_on_generated_activations(self):
        """All four execution modes must see the same element density."""
        from repro.core.dap import dap_prune

        layer = _layer(m=64, k=64, a_nnz=3, a_density=0.3)
        a, _ = spec_operands(layer)
        pruned = dap_prune(a, DBBSpec(BLOCK_SIZE, 3)).pruned
        np.testing.assert_array_equal(a, pruned)


class TestOperandCache:
    def test_hit_miss_accounting(self):
        cache = OperandCache(max_bytes=1 << 30)
        layer = _layer()
        a1, w1 = cache.get(layer)
        a2, w2 = cache.get(layer)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert a1 is a2 and w1 is w2
        cache.get(layer, seed=1)
        assert cache.stats()["misses"] == 2

    def test_arrays_are_read_only(self):
        cache = OperandCache(max_bytes=1 << 30)
        a, w = cache.get(_layer())
        with pytest.raises(ValueError):
            a[0, 0] = 1
        with pytest.raises(ValueError):
            w[0, 0] = 1

    def test_evicts_under_byte_budget(self):
        layer_bytes = 64 * 96 + 96 * 32  # one (A, W) pair
        cache = OperandCache(max_bytes=3 * layer_bytes)
        layers = [_layer(name=f"L{i}") for i in range(5)]
        for i, layer in enumerate(layers):
            cache.get(layer, seed=i)
        stats = cache.stats()
        assert stats["bytes"] <= cache.max_bytes
        assert stats["evictions"] >= 2
        assert len(cache) <= 3
        # The most recent entry is resident, the oldest evicted.
        cache.get(layers[-1], seed=4)
        assert cache.stats()["hits"] == 1
        cache.get(layers[0], seed=0)
        assert cache.stats()["misses"] == 6

    def test_lru_order_refreshes_on_hit(self):
        layer_bytes = 64 * 96 + 96 * 32
        cache = OperandCache(max_bytes=2 * layer_bytes)
        a = _layer(name="A")
        b = _layer(name="B")
        cache.get(a, seed=0)
        cache.get(b, seed=1)
        cache.get(a, seed=0)      # refresh A
        cache.get(_layer(name="C"), seed=2)  # evicts B, not A
        hits_before = cache.stats()["hits"]
        cache.get(a, seed=0)
        assert cache.stats()["hits"] == hits_before + 1

    def test_oversized_entry_not_retained(self):
        cache = OperandCache(max_bytes=64)
        a, w = cache.get(_layer())
        assert len(cache) == 0
        assert a.nbytes + w.nbytes > 64
        # still read-only and usable
        assert not a.flags.writeable

    def test_eviction_follows_insertion_order_without_hits(self):
        """With no intervening hits, the byte budget evicts strictly in
        insertion order (oldest first) — the LRU degenerates to FIFO."""
        layer_bytes = 64 * 96 + 96 * 32
        cache = OperandCache(max_bytes=2 * layer_bytes)
        layers = [_layer(name=f"O{i}") for i in range(4)]
        for i, layer in enumerate(layers):
            cache.get(layer, seed=i)
        assert cache.stats()["evictions"] == 2
        # Probe newest-first so hits don't perturb the order under test:
        # the two newest survive, the two oldest were evicted in order.
        cache.get(layers[3], seed=3)
        cache.get(layers[2], seed=2)
        assert cache.stats()["hits"] == 2
        cache.get(layers[1], seed=1)
        cache.get(layers[0], seed=0)
        assert cache.stats()["misses"] == 4 + 2

    def test_eviction_order_exact_sequence(self):
        """Pinpoint which entry each insertion evicts."""
        layer_bytes = 64 * 96 + 96 * 32
        cache = OperandCache(max_bytes=2 * layer_bytes)
        a, b, c = (_layer(name=n) for n in "ABC")
        cache.get(a, seed=0)
        cache.get(b, seed=1)
        assert cache.stats()["evictions"] == 0
        cache.get(c, seed=2)          # budget forces out A (oldest)
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] == 2 * layer_bytes
        cache.get(b, seed=1)          # hit: B was spared
        cache.get(c, seed=2)          # hit: C resident
        assert cache.stats()["hits"] == 2
        cache.get(a, seed=0)          # miss: A was the eviction victim
        assert cache.stats()["misses"] == 4
        assert cache.stats()["evictions"] == 2  # re-inserting A ousts B

    def test_budget_boundary_is_inclusive(self):
        """An entry whose bytes equal the budget exactly is retained."""
        layer = _layer()
        a, w = spec_operands(layer)
        exact = OperandCache(max_bytes=a.nbytes + w.nbytes)
        exact.get(layer)
        assert len(exact) == 1
        just_under = OperandCache(max_bytes=a.nbytes + w.nbytes - 1)
        just_under.get(layer)
        assert len(just_under) == 0

    def test_shared_across_variant_sweep(self):
        """One synthesis feeds every accelerator in a sweep."""
        from repro.accel import S2TAAW, ZvcgSA

        cache = OperandCache(max_bytes=1 << 30)
        layer = _layer(m=32, k=64, n=16, a_density=0.4)
        for accel in (ZvcgSA(), S2TAAW()):
            accel.run_layer_functional(layer, cache=cache)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_default_cache_used_by_helper(self):
        from repro.workloads.from_spec import default_operand_cache

        layer = _layer(m=8, k=16, n=8, name="default-cache-probe")
        a, w = operands_for_layer(layer, seed=12345)
        a2, _ = operands_for_layer(layer, seed=12345)
        assert a is a2
        assert default_operand_cache() is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            OperandCache(max_bytes=0)

    def test_densities_closer_than_1e6_get_distinct_entries(self):
        """Synthesis uses the exact density, so the key must too: these
        two specs differ by two activation non-zeros."""
        cache = OperandCache(max_bytes=1 << 30)
        near = _layer(m=4096, k=1152, n=8, a_nnz=8, a_density=0.4)
        nearer = _layer(m=4096, k=1152, n=8, a_nnz=8, a_density=0.4000004)
        a_near, _ = cache.get(near)
        a_nearer, _ = cache.get(nearer)
        assert cache.stats()["misses"] == 2
        assert np.count_nonzero(a_near) == 1887437
        assert np.count_nonzero(a_nearer) == 1887439
        assert np.count_nonzero(spec_operands(nearer)[0]) == 1887439


class TestFunctionalOperandsMemo:
    def test_read_only_flags_enforced(self):
        from repro.eval import functional_operands

        a, w = functional_operands(16, 32, 8)
        assert not a.flags.writeable
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1
        a2, w2 = functional_operands(16, 32, 8)
        assert a is a2 and w is w2  # lru_cache identity


class TestCompressCacheStats:
    def test_hit_miss_accounting_across_mode_sweep(self):
        """Reading the outputs of a WDBB sweep compresses each weight
        tensor once."""
        from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
        from repro.core.gemm import (
            clear_compress_cache,
            compress_cache_stats,
        )

        layer = _layer(m=16, k=64, n=16, w_nnz=4, a_density=0.5)
        a, w = spec_operands(layer)
        sim = SystolicArray(SystolicConfig(
            rows=2, cols=2, mode=Mode.WDBB, w_spec=DBBSpec(8, 4),
            tpe_a=2, tpe_c=2))
        clear_compress_cache()
        for _ in range(3):
            sim.run_gemm(a, w).output
        stats = compress_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        clear_compress_cache()
        assert compress_cache_stats() == {"hits": 0, "misses": 0,
                                          "entries": 0}

    def test_distinct_tensors_get_distinct_entries(self):
        """The memo is content-addressed: one miss per distinct weight
        tensor, independent of which layer/seed produced it."""
        from repro.core.gemm import (
            clear_compress_cache,
            compress_cache_stats,
            compress_cached,
        )

        clear_compress_cache()
        tensors = []
        for seed in range(3):
            _, w = spec_operands(_layer(m=8, k=64, n=8), seed=seed)
            tensors.append(np.ascontiguousarray(w.T))
        for w in tensors:
            compress_cached(w, DBBSpec(8, 4))
        assert compress_cache_stats()["misses"] == 3
        assert compress_cache_stats()["entries"] == 3
        for w in tensors:
            compress_cached(w, DBBSpec(8, 4))
        assert compress_cache_stats()["hits"] == 3
        # a different (looser) spec over the same bytes is its own entry
        compress_cached(tensors[0], DBBSpec(8, 8))
        assert compress_cache_stats()["misses"] == 4
        clear_compress_cache()

    def test_functional_layer_run_compresses_nothing(self):
        """run_layer_functional on the W-DBB variant counts events
        without compressing any weights: nobody reads the output."""
        from repro.accel import S2TAW
        from repro.core.gemm import (
            clear_compress_cache,
            compress_cache_stats,
        )

        layer = _layer(m=16, k=64, n=16, a_density=0.5)
        cache = OperandCache(max_bytes=1 << 24)
        clear_compress_cache()
        accel = S2TAW(rows=2, cols=2, tpe_a=2, tpe_c=2)
        for _ in range(3):
            accel.run_layer_functional(layer, cache=cache)
        assert compress_cache_stats() == {"hits": 0, "misses": 0,
                                          "entries": 0}


def _worker_cache_probe(args):
    """Pool worker: exercise this process's default operand cache and
    report its budget/stats (module-level so the pool can pickle it)."""
    import os

    from repro.workloads.from_spec import default_operand_cache

    m, k, n, seed = args
    cache = default_operand_cache()
    layer = LayerSpec("probe", LayerKind.CONV, m=m, k=k, n=n,
                      w_nnz=4, a_nnz=4)
    a, w = cache.get(layer, seed=seed)
    return {
        "pid": os.getpid(),
        "max_bytes": cache.max_bytes,
        "current_bytes": cache.current_bytes,
        "misses": cache.misses,
        "read_only": (not a.flags.writeable) and (not w.flags.writeable),
    }


class TestOperandCacheMultiProcess:
    """The runner's documented process-local cache semantics: workers
    never corrupt or double-count the parent's byte budget."""

    def test_resize_rebudgets_and_evicts(self):
        cache = OperandCache(max_bytes=1 << 20)
        big = _layer(m=256, k=512, n=128)
        cache.get(big)
        assert cache.current_bytes > 0
        cache.resize(1)  # smaller than any entry: everything evicts
        assert cache.max_bytes == 1
        assert cache.current_bytes == 0
        assert len(cache) == 0
        with pytest.raises(ValueError):
            cache.resize(0)

    def test_resize_keeps_entries_within_new_budget(self):
        cache = OperandCache(max_bytes=1 << 22)
        small = _layer(m=8, k=16, n=8)
        cache.get(small)
        resident = cache.current_bytes
        cache.resize(resident + 1)
        assert len(cache) == 1
        assert cache.current_bytes == resident

    def test_workers_get_budget_share_and_parent_stays_intact(self):
        """Each pool worker runs under its budget share; the parent's
        cache never sees the workers' traffic (no double counting)."""
        from repro.eval.runner import _pool_context, _worker_init
        from repro.workloads.from_spec import default_operand_cache
        from concurrent.futures import ProcessPoolExecutor

        parent = default_operand_cache()
        parent_stats_before = parent.stats()
        workers = 4
        share = parent.max_bytes // workers
        jobs = [(64 + 8 * i, 96, 32, i) for i in range(8)]
        with ProcessPoolExecutor(
                max_workers=workers, mp_context=_pool_context(),
                initializer=_worker_init, initargs=(share,)) as pool:
            reports = list(pool.map(_worker_cache_probe, jobs))
        assert all(r["read_only"] for r in reports)
        assert all(r["max_bytes"] == share for r in reports)
        # Aggregate resident bytes across workers respect the parent
        # budget: every worker is individually capped at its share.
        assert all(r["current_bytes"] <= share for r in reports)
        per_pid_peak = {}
        for r in reports:
            per_pid_peak[r["pid"]] = max(
                per_pid_peak.get(r["pid"], 0), r["current_bytes"])
        assert sum(per_pid_peak.values()) <= parent.max_bytes
        # The parent's accounting is untouched by worker traffic.
        assert parent.stats() == parent_stats_before

    def test_thread_safety_under_concurrent_get(self):
        """Concurrent same-process getters never corrupt the budget
        accounting (the lock added for the parallel runner)."""
        import threading

        cache = OperandCache(max_bytes=1 << 22)
        layers = [_layer(m=16 + i, k=64, n=16, name=f"t{i}")
                  for i in range(6)]
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    for layer in layers:
                        cache.get(layer)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        resident = sum(a.nbytes + w.nbytes
                       for a, w in cache._entries.values())
        assert cache.current_bytes == resident
        assert cache.current_bytes <= cache.max_bytes
