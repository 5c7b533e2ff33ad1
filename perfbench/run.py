"""cubeforms benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it imports ``cubeforms`` from ``src/``.
``--trace 0`` measures set-up, then repeats whole passes of the workload
while another pass is expected to end within S seconds, and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics of ``tracer.PER_LAYER``.  The last
stdout line is the result object; the line before it is the full record
(environment, per-pass samples, failure fraction).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from cubeforms import cli\n"
    "cli.bundled_config_names()\n"
    "print(time.perf_counter() - t0)\n"
)
# (metric name, unit, better) reported by an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("pass_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "CUBEFORMS_DISABLE_JIT")


def import_cli():
    if not (SRC / "cubeforms" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'cubeforms'} not found; run from a cubeforms checkout")
    sys.path.insert(0, str(SRC))
    from cubeforms import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported cubeforms from {cli.__file__}, not {SRC}")
    return cli


def setup_seconds() -> list[float]:
    """Fresh-process import of cubeforms plus config discovery; the first,
    unmeasured process leaves the bytecode cache warm, as a user has it."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    from cubeforms import _kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        describe = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=30, env=env)
        git = describe.stdout.strip() if describe.returncode == 0 else None
    except OSError:
        git = None
    return {
        "workload": workload,
        "seed": seed if workloads.WORKLOADS[workload][1] else None,
        "seed_note": None if workloads.WORKLOADS[workload][1]
        else "deterministic workload; --seed does not change its inputs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "kernels_backend": _kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_describe": git,
        "machine": platform.machine(),
    }


def timed_pass(workload: str, cli, seed: int, span=workloads._noop_span):
    t0, c0 = time.perf_counter(), time.process_time()
    attempted, failed = workloads.run_pass(workload, cli, seed, WORKDIR, span)
    return time.perf_counter() - t0, time.process_time() - c0, attempted, failed


def measure(workload: str, cli, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds()
    walls, cpus = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        wall, cpu, a, f = timed_pass(workload, cli, seed)
        walls.append(wall)
        cpus.append(cpu)
        attempted += a
        failed += f
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(walls),
        "pass_cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    record = {"setup_s_samples": setup, "pass_s_samples": walls, "pass_cpu_s_samples": cpus,
              "attempted": attempted, "failed": failed}
    return metrics, record


def measure_traced(workload: str, cli, seed: int) -> tuple[dict, dict]:
    untraced, _, a0, f0 = timed_pass(workload, cli, seed)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced, _, a1, f1 = timed_pass(workload, cli, seed, tr.span)
    finally:
        tr.uninstall()
    values = tr.metrics(traced, untraced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}
    trace_file = WORKDIR / f"trace_{workload}.json"
    tr.write(trace_file, {"workload": workload, "seed": seed})
    record = {"untraced_pass_s": untraced, "traced_pass_s": traced, "spans": len(tr.spans),
              "missing_layers": tr.missing, "trace_file": str(trace_file.relative_to(ROOT)),
              "attempted": a0 + a1, "failed": f0 + f1}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.CHECK_SEED,
                        help="feeds the random pullback maps of exact_check")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    WORKDIR.mkdir(exist_ok=True)
    env = environment(args.workload, args.seed)
    if args.trace:
        metrics, record = measure_traced(args.workload, cli, args.seed)
    else:
        metrics, record = measure(args.workload, cli, args.seed, args.seconds)
    record["failed_frac"] = record["failed"] / record["attempted"]
    print(json.dumps({"environment": env, **record}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
