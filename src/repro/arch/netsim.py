"""Whole-network cycle-level simulation.

Drives a quantized model (:class:`repro.nn.quantized.QuantizedSequential`)
through the systolic-array simulator one GEMM at a time: each layer's
INT8 operands execute on the configured array (DBB modes included),
psums requantize through the integer pipeline, and the per-layer cycle
counts and hardware events accumulate. The simulated network output is
**bit-exact** with the pure integer execution path — asserted in the
tests — because the array computes the same INT32 accumulations.

Layers whose weights do not satisfy the configured W-DBB bound (e.g.
the excluded first conv) automatically fall back to ZVCG execution,
mirroring the hardware's dense-fallback mode (Sec. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.arch.events import EventCounts
from repro.arch.result import GemmSimResult
from repro.arch.systolic import Mode, SystolicArray, SystolicConfig
from repro.nn.layers import AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.quantized import QuantizedSequential
from repro.quant.int8 import requantize

__all__ = ["LayerSimRecord", "NetworkSimResult", "simulate_network"]


@dataclass
class LayerSimRecord:
    """One GEMM layer's simulated execution."""

    name: str
    mode: Mode
    result: GemmSimResult

    @property
    def cycles(self) -> int:
        return self.result.cycles


@dataclass
class NetworkSimResult:
    """Full-network simulation outcome."""

    output: np.ndarray
    records: List[LayerSimRecord] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.records)

    @property
    def total_events(self) -> EventCounts:
        total = EventCounts()
        for record in self.records:
            total += record.result.events
        return total

    def record(self, name: str) -> LayerSimRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(f"no simulated layer {name!r}")


def _layer_mode(config: SystolicConfig, qlayer, first: bool) -> Mode:
    """Choose the execution mode for one layer under a DBB config."""
    if config.mode in (Mode.DENSE, Mode.ZVCG):
        return config.mode
    compliant = qlayer.weights_compliant(config.w_spec)
    if not compliant or first:
        return Mode.ZVCG  # hardware dense fallback (+ ZVCG gating)
    return config.mode


def simulate_network(
    qmodel: QuantizedSequential,
    x: np.ndarray,
    config: SystolicConfig,
    a_nnz: Optional[Dict[str, int]] = None,
) -> NetworkSimResult:
    """Simulate every GEMM layer of a quantized model on one array.

    ``a_nnz`` optionally overrides the per-layer activation DBB bound in
    ``AWDBB`` mode (dense bypass with ``8``). Non-GEMM layers (ReLU,
    pooling, flatten) execute functionally — they run on the MCU
    cluster, whose cost the energy model charges per cycle.
    """
    a_nnz = a_nnz or {}
    records: List[LayerSimRecord] = []
    from repro.quant.int8 import quantize

    q = quantize(x, qmodel.input_params)
    first_gemm = True
    for layer in qmodel._float_model.layers:
        if isinstance(layer, (Conv2d, Linear)):
            qlayer = qmodel.gemm_layers[layer.name]
            mode = _layer_mode(config, qlayer, first_gemm)
            sim = SystolicArray(SystolicConfig(
                rows=config.rows, cols=config.cols, mode=mode,
                w_spec=config.w_spec, a_spec=config.a_spec,
                tpe_a=config.tpe_a if mode in (Mode.WDBB, Mode.AWDBB) else 1,
                tpe_c=config.tpe_c if mode in (Mode.WDBB, Mode.AWDBB) else 1,
            ))
            if isinstance(layer, Linear):
                a_matrix = q.astype(np.int64)
                reshape = None
            else:
                n = q.shape[0]
                a_matrix, oh, ow = layer.lower(q.astype(np.int64))
                reshape = (n, oh, ow, layer.out_channels)
            kwargs = {}
            if mode is Mode.AWDBB:
                kwargs["a_nnz"] = a_nnz.get(layer.name,
                                            config.a_spec.max_nnz)
            result = sim.run_gemm(a_matrix,
                                  qlayer.weights_q.astype(np.int64),
                                  **kwargs)
            acc = result.output
            if qlayer.bias_q is not None:
                acc = acc + qlayer.bias_q
            q = requantize(acc, qlayer.multiplier, qlayer.shift)
            if reshape is not None:
                q = q.reshape(reshape)
            records.append(LayerSimRecord(name=layer.name, mode=mode,
                                          result=result))
            first_gemm = False
        elif isinstance(layer, ReLU):
            q = np.maximum(q, 0)
        elif isinstance(layer, MaxPool2d):
            q = layer.forward(q)
        elif isinstance(layer, AvgPool2d):
            q = np.rint(layer.forward(q.astype(np.float64))).astype(q.dtype)
        elif isinstance(layer, Flatten):
            q = layer.forward(q)
        else:
            raise NotImplementedError(
                f"cannot simulate layer type {type(layer).__name__}"
            )
    final_gemm = qmodel._float_model.gemm_layers[-1]
    out_params = qmodel._act_params[final_gemm.name]
    output = (q.astype(np.float64) - out_params.zero_point) * out_params.scale
    return NetworkSimResult(output=output, records=records)
