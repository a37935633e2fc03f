"""Lazy-output contract of :class:`repro.arch.result.GemmSimResult`.

Every functional engine returns cycles and events eagerly and computes
the numeric output only on first read. The property below checks, over
small random shapes and densities, that the lazy ``output`` equals the
eager reference kernel of each mode, and that reading it leaves
``cycles`` and ``events`` untouched.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.eyeriss import EyerissV2Engine
from repro.arch.scnn import SCNNEngine
from repro.arch.sparten import SparTenEngine
from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
from repro.core.dap import dap_prune
from repro.core.dbb import DBBSpec, compress
from repro.core.gemm import dbb_gemm, dense_gemm
from repro.core.sparsity import random_unstructured

SPEC = DBBSpec(8, 4)


def _operands(seed, m, k, n, a_density, w_density, a_cap, w_dbb):
    """Random INT8-range operands; ``a_cap`` optionally pre-prunes the
    activations to that many non-zeros per block (so DAP may be a
    no-op), ``w_dbb`` makes the weights 4/8 DBB-compliant."""
    rng = np.random.default_rng(seed)
    a = random_unstructured((m, k), a_density, rng=rng).astype(np.int64)
    w = random_unstructured((k, n), w_density, rng=rng).astype(np.int64)
    if a_cap is not None:
        a = dap_prune(a, DBBSpec(8, a_cap)).pruned
    if w_dbb:  # top-NNZ per block along K, ragged K allowed
        w = dap_prune(w.T, SPEC).pruned.T
    return a, w


def _eager_reference(engine, a, w, a_nnz, w_dense):
    """The kernel each engine ran eagerly before outputs became lazy."""
    if engine == "wdbb" and not w_dense:
        return dbb_gemm(a, compress(w.T, SPEC))
    if engine == "awdbb" and a_nnz < 8:
        return dense_gemm(dap_prune(a, DBBSpec(8, a_nnz)).pruned, w)
    return dense_gemm(a, w)


def _run(engine, a, w, a_nnz, w_dense):
    if engine in ("dense", "zvcg"):
        mode = Mode.DENSE if engine == "dense" else Mode.ZVCG
        return SystolicArray(SystolicConfig(rows=3, cols=2, mode=mode)
                             ).run_gemm(a, w)
    if engine in ("wdbb", "awdbb"):
        mode = Mode.WDBB if engine == "wdbb" else Mode.AWDBB
        sim = SystolicArray(SystolicConfig(
            rows=2, cols=3, mode=mode, w_spec=SPEC, a_spec=SPEC,
            tpe_a=2, tpe_c=2))
        kwargs = {"w_dense": w_dense}
        if mode is Mode.AWDBB:
            kwargs["a_nnz"] = a_nnz
        return sim.run_gemm(a, w, **kwargs)
    engines = {"sparten": SparTenEngine, "eyeriss": EyerissV2Engine,
               "scnn": SCNNEngine}
    return engines[engine]().run_gemm(a, w)


class TestLazyOutput:
    @given(
        engine=st.sampled_from(["dense", "zvcg", "wdbb", "awdbb",
                                "sparten", "eyeriss", "scnn"]),
        dims=st.tuples(st.integers(1, 19), st.integers(1, 41),
                       st.integers(1, 19)),
        a_density=st.floats(0.0, 1.0),
        w_density=st.floats(0.0, 1.0),
        a_nnz=st.integers(1, 8),
        a_cap=st.one_of(st.none(), st.integers(1, 8)),
        w_dense=st.booleans(),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=150, deadline=None)
    def test_lazy_output_equals_eager_reference(
            self, engine, dims, a_density, w_density, a_nnz, a_cap,
            w_dense, seed):
        m, k, n = dims
        w_dense = w_dense and engine in ("wdbb", "awdbb")
        a, w = _operands(seed, m, k, n, a_density, w_density, a_cap,
                         w_dbb=not w_dense)
        result = _run(engine, a, w, a_nnz, w_dense)
        cycles = result.cycles
        events = result.events.as_dict()
        expected = _eager_reference(engine, a, w, a_nnz, w_dense)
        np.testing.assert_array_equal(result.output, expected)
        assert result.output is result.output  # computed once, cached
        assert result.cycles == cycles
        assert result.events.as_dict() == events
