"""The repository's benchmark: one workload per run, at a given seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig-functional --seed 0 \
        --seconds 15 --trace 0

``--trace 0`` measures with nothing wrapped and prints every end-to-end
metric; ``--trace 1`` adds one traced pass and prints every per-layer
metric instead. Human-readable lines (host fingerprint, simulated-
statistics digest, the workload's named metrics, checks) come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every check passed, 1 when a correctness check failed or the
workload raised (the JSON line is printed, with ``"correct": false``),
and 2 when the run could not start (for example without ``src/repro``).

Each run is isolated: the ``REPRO_*`` environment is cleared, and every
cache, job database and temporary file lives in a fresh directory under
``perfbench/.work/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Every variable the program reads that could change what a run does.
ISOLATED_ENV = ("REPRO_JOBS", "REPRO_FAULTS", "REPRO_TRACE",
                "REPRO_TASK_TIMEOUT", "REPRO_CACHE_DIR", "REPRO_RESULT_CACHE",
                "REPRO_SERVE_DB")

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("fig-functional", "dse-overlap", "serve-mixed")

#: The gated end-to-end metrics, common to every workload (what each
#: means per workload is in ``perfbench/README.md``).
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "cold_cpu_s": "s",
                    "warm_cpu_s": "s"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def isolated_env(workdir: Path) -> dict:
    """The environment every run and child process sees."""
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    env["TMPDIR"] = str(workdir / "tmp")
    # One thread per caller: BLAS threads only spin here (fig11 cold:
    # the same wall time, 28 s instead of 17 s of CPU on two cores) and
    # would contend with the serve pool's workers.
    for name in BLAS_THREAD_ENV:
        env[name] = "1"
    return env


def source_digest() -> str:
    """Hash of every file under ``src/`` — identifies the code measured
    where no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "commit": git_commit(), "src_sha256": source_digest()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    try:
        env = isolated_env(workdir)
        (workdir / "tmp").mkdir()
        os.environ.clear()
        os.environ.update(env)
        tempfile.tempdir = env["TMPDIR"]
        sys.path.insert(0, str(SRC))
        from workloads import Context, run_workload

        ctx = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), workdir=workdir, env=env,
                      root=ROOT)
        host = host_fingerprint()
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"host: {json.dumps(host, sort_keys=True)}")
        try:
            outcome = run_workload(args.workload, ctx)
        except Exception as exc:
            # A server that never started, clients still waiting at the
            # deadline, a set-up command that failed: the run is one
            # failed operation, reported like any other failed check.
            traceback.print_exc()
            print(f"CHECK FAILED: the workload raised {exc!r}",
                  file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1,
                              "failed": 1, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not outcome.failures
    print(f"digest: {outcome.digest} ({args.workload}, seed {args.seed}; "
          "every simulated statistic)")
    for note in outcome.notes:
        print(f"note: {note}")
    error_rate = outcome.failed_ops / max(1, outcome.attempted)
    print(f"error_rate = {error_rate:g} ({outcome.failed_ops} failed or "
          f"incorrect of {outcome.attempted} operations)")
    for name, (value, unit) in outcome.named.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        from layers import PER_LAYER_UNITS

        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in outcome.per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in outcome.end_to_end.items()}
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "host": host,
              "digest": outcome.digest, "error_rate": error_rate,
              "named": {k: v for k, (v, _) in outcome.named.items()}}
    print(f"record: {json.dumps(record, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed_ops, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
