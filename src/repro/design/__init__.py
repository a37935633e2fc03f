"""Design-space exploration — the paper's RTL-generator methodology.

Sec. 7: "we implement a parameterized Python RTL generator to explore
the full design space, defined by five main parameters: the three TPE
dimensions (A, B, C) and the dimension of the entire SA (M, N)". This
package reproduces that flow in model form:

- :mod:`repro.design.space`: enumerate ``AxBxC_MxN`` design points under
  the 4 TOPS peak-throughput constraint.
- :mod:`repro.design.dse`: the one design-point evaluator. Sec. 7 is
  :data:`~repro.design.dse.SEC7_AXES` through
  :func:`~repro.design.dse.evaluate_points`, its area-vs-power frontier
  and :func:`~repro.design.dse.select_lowest_power` — which the paper
  (and this model) resolve to the time-unrolled 8x4x4 outer-product
  TPE. The same engine scales the sweep into a distributed, adaptive
  exploration of the full ``AxBxC_MxN`` x (A-DBB bound, SRAM size, DRAM
  bandwidth, tech) keyspace: coarse-sampled, then refined around the
  (energy x cycles x area) Pareto frontier, with deterministic
  ``--shard I/N`` partitioning and merge-equals-unsharded artifacts
  (the ``repro dse`` CLI).
- :mod:`repro.design.rtlgen`: emit the structural netlist summary
  (module hierarchy with port widths) a given design point would
  generate — the artifact the paper's generator hands to the EDA flow.
"""

from repro.design.dse import (
    SEC7_AXES,
    DSEAxes,
    DSEEvaluation,
    DSEPoint,
    DSESpace,
    evaluate_points,
    merge_artifacts,
    pareto_frontier_3d,
    run_dse,
    select_lowest_power,
)
from repro.design.rtlgen import generate_structure
from repro.design.space import DesignPoint, enumerate_design_space

__all__ = [
    "DesignPoint",
    "enumerate_design_space",
    "generate_structure",
    "SEC7_AXES",
    "DSEAxes",
    "DSEPoint",
    "DSEEvaluation",
    "DSESpace",
    "evaluate_points",
    "pareto_frontier_3d",
    "select_lowest_power",
    "run_dse",
    "merge_artifacts",
]
