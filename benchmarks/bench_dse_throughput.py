"""DSE evaluation-throughput tracking (configs evaluated per second).

Not a paper artifact — this benchmark freezes the sustained rate at
which the design-space exploration engine (:mod:`repro.design.dse`)
pushes configurations through the analytic evaluation path, cold (no
result cache): every point builds its accelerator, prices the
closed-form layer events and finalizes through the memory-hierarchy/
energy pipeline. This is the rate that bounds how large a space one
host can cover, so a regression here (a slow constructor, an
accidental functional-tier dispatch, a pool fan-out of sub-millisecond
tasks) directly shrinks explorable spaces. There is no warm regime:
analytic payloads are never stored in the result cache, because
re-evaluating them is cheaper than reading them back.

The record carries ``extra_info.configs_per_s``;
``tools/check_bench_regression.py`` prefers that metric for these
records, so the nightly gate fails on a >10% throughput drop. ``jobs``
is pinned to 1: per-point analytic evaluation is sub-millisecond, so a
process-pool fan-out would benchmark pickling overhead, not the engine
(``make nightly`` exports ``REPRO_JOBS=0``, which must not leak in
here).
"""

import time

from repro.design.dse import DSEAxes, run_dse

#: Large enough for a stable rate and to exercise refinement, small
#: enough to keep the nightly suite snappy (~700 points evaluated).
AXES = DSEAxes()
COARSE_STRIDE = 4


def _timed_sweep(benchmark, scenario, result_cache):
    wallclock = {}

    def body():
        start = time.perf_counter()
        artifact = run_dse(AXES, coarse_stride=COARSE_STRIDE, jobs=1,
                           result_cache=result_cache)
        wallclock["s"] = time.perf_counter() - start
        return artifact

    artifact = benchmark.pedantic(body, rounds=1, iterations=1)
    evaluated = len(artifact["evaluations"])
    assert evaluated >= 500, \
        f"sweep covered only {evaluated} points — not a meaningful rate"
    assert artifact["frontier"], "sweep produced no Pareto frontier"
    benchmark.extra_info["scenario"] = scenario
    benchmark.extra_info["configs_evaluated"] = evaluated
    benchmark.extra_info["wallclock_s"] = round(wallclock["s"], 4)
    benchmark.extra_info["configs_per_s"] = round(
        evaluated / wallclock["s"], 2)
    return artifact


def test_bench_dse_analytic_cold(benchmark):
    _timed_sweep(benchmark, "cold", result_cache=None)

