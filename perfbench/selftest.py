"""Self-test of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 perfbench/selftest.py

It checks three things and exits non-zero if any fails:

1. ``BENCHMARK.json`` names exactly the workloads, end-to-end metrics and
   per-layer metrics (with units) that ``run.py`` and ``layers.py``
   produce.
2. Every workload's inputs are a pure function of the seed: two fresh
   interpreters with different hash seeds build identical inputs, and
   another seed builds different ones.
3. Attribution: slowing one layer from the benchmark side (a sleep in the
   wrapper around ``MemorySystem.profile``) is named by the traced
   per-layer metrics (``memory.profile_s`` moves by the injected time and
   moves most), while the simulated statistics stay identical. It uses
   the fig-functional pass in quick mode to stay short.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Seconds slept per ``MemorySystem.profile`` call in the slowed pass.
INJECTED_DELAY_S = 0.002


def check_catalogue() -> list:
    import run
    from layers import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if ({m["name"]: m["unit"] for m in spec["per_layer"]}
            != {name: unit for name, unit, _, _ in PER_LAYER}):
        problems.append("BENCHMARK.json per_layer differs from layers.py")
    if ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            != run.END_TO_END_UNITS):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    return problems


def check_inputs_pure() -> list:
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); "
            "from workloads import WORKLOADS; "
            "print(json.dumps({n: [f(s) for s in (0, 1, 7)] "
            "for n, (_, f) in WORKLOADS.items()}, sort_keys=True))")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(ROOT / "src"))
        outputs.append(subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    problems = []
    if outputs[0] != outputs[1]:
        problems.append("workload inputs depend on more than the seed")
    for name, by_seed in json.loads(outputs[0]).items():
        if by_seed[0] == by_seed[1] or by_seed[1] == by_seed[2]:
            problems.append(f"{name}: different seeds give the same inputs")
    return problems


def check_attribution() -> list:
    from layers import PER_LAYER_UNITS, Tracer
    from workloads import Context, fig_pass, run_stats

    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    ctx = Context(seed=0, seconds=1.0, trace=True,
                  workdir=Path(tempfile.mkdtemp(dir=work)), env={},
                  root=ROOT)
    passes = {}
    try:
        for label, delays in (("base", {}), ("slowed", {
                "memory.profile": INJECTED_DELAY_S})):
            tracer = Tracer(delays)
            p = fig_pass(ctx, 0, tracer=tracer, quick=True, warm_reps=3)
            passes[label] = (p, tracer.metrics(p.wall_s),
                             tracer.calls["memory.profile"])
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    base, slowed = passes["base"], passes["slowed"]
    problems = []
    if run_stats(base[0].cold_calls) != run_stats(slowed[0].cold_calls):
        problems.append("slowing a layer changed the simulated statistics")
    moved = {name: slowed[1][name] - base[1][name]
             for name in base[1]
             if PER_LAYER_UNITS[name] == "s" and not name.startswith("bench.")}
    ranked = sorted(moved, key=moved.get, reverse=True)
    expected = slowed[2] * INJECTED_DELAY_S
    warm_moved = (sum(slowed[0].warm_s) - sum(base[0].warm_s))
    print(f"attribution: injected {expected:.3f} s into memory.profile; "
          f"largest moves: " + ", ".join(
              f"{name} {moved[name]:+.3f} s" for name in ranked[:3])
          + f"; warm passes {warm_moved:+.3f} s")
    if ranked[0] != "memory.profile_s":
        problems.append(f"the slowed layer was not named: {ranked[0]} "
                        "moved most")
    if not 0.9 * expected <= moved["memory.profile_s"] <= 1.5 * expected:
        problems.append(f"memory.profile_s moved "
                        f"{moved['memory.profile_s']:.3f} s, expected "
                        f"about {expected:.3f} s")
    return problems


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    problems = []
    for check in (check_catalogue, check_inputs_pure, check_attribution):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
