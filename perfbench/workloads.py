"""The three benchmark workloads and their golden-output checks.

Each pass is closed-loop: one caller runs the public CLI entry point
(``cli.main``) in this process with its default ``threads=1`` and waits for
each result before the next call.  An operation is one check of
``cubeforms check`` or one (config, N) level of ``cubeforms converge``; it
fails if the call raises, exits non-zero, reports FAIL, or differs from
the golden value in ``golden.json``, recorded at commit b57962b.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import re
import shutil
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())
ERROR_RTOL = 1e-12
CHECK_SEED = 2024  # the seed `cubeforms check` uses for its random maps

AFFINE = ("q1k0_uniform", "q2k2_uniform", "p2k2_uniform", "s3k0_uniform",
          "s2k1_uniform", "s2k1_parallelotope", "q1k0_uniform3d", "q2k2_uniform3d")
CURVILINEAR = ("q2k2_trapezoid", "q1k2_trapezoid", "p2k2_trapezoid",
               "s3k0_trapezoid", "s2k1_trapezoid", "q2k2_trilinear3d")

# name -> (why it is in the benchmark, whether --seed changes its inputs)
WORKLOADS = {
    "exact_check": (
        "cubeforms check defaults (162 checks): exact rational algebra, mostly pullbacks; "
        "no mesh or numeric kernel work",
        True,
    ),
    "converge_affine": (
        "cubeforms converge on the 8 uniform/parallelotope configs (30 levels): "
        "constant Jacobians, projection-heavy",
        False,
    ),
    "converge_curvilinear": (
        "cubeforms converge on the 6 trapezoidal/trilinear3d configs (23 levels): "
        "per-point Jacobians, exact mesh validation dominates",
        False,
    ),
}


def _noop_span(_name):
    return contextlib.nullcontext()


@contextlib.contextmanager
def pullback_seed(verify, seed: int):
    """Feed ``seed`` to the random maps of ``check_pullback_inclusions``.

    ``cubeforms check`` exposes no seed, so the default of the function's
    ``seed`` parameter is swapped for the pass; module attributes stay the
    same objects.
    """
    fn = inspect.unwrap(verify.check_pullback_inclusions)
    saved = fn.__defaults__
    names = fn.__code__.co_varnames[: fn.__code__.co_argcount]
    pos = names.index("seed") - (len(names) - len(saved))
    fn.__defaults__ = saved[:pos] + (seed,) + saved[pos + 1:]
    try:
        yield
    finally:
        fn.__defaults__ = saved


def _call(cli, argv, span) -> tuple[int | None, str]:
    out = io.StringIO()
    try:
        with span("cli.main"), contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, out.getvalue()


def check_pass(cli, seed: int, span=_noop_span, pullback_maps: int = 5) -> tuple[int, int]:
    """One ``cubeforms check`` run; returns (attempted, failed)."""
    expected = GOLDEN["check"]
    argv = ["check"]
    if pullback_maps != 5:
        argv += ["--pullback-maps", str(pullback_maps)]
        expected = [n for n in expected
                    if not (m := re.search(r" map=(\d+)$", n)) or int(m.group(1)) < pullback_maps]
    with pullback_seed(cli.verify, seed):
        rc, text = _call(cli, argv, span)
    if rc is None:
        return len(expected), len(expected)
    got = [line for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
    want = ["PASS " + name for name in expected]
    failed = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
    if rc != 0:
        failed = max(failed, 1)
    return len(expected), min(failed, len(expected))


def _levels_failed(csv_path: Path, golden: list[list]) -> int:
    try:
        with open(csv_path, newline="") as fh:
            got = [(int(r["N"]), float(r["error"])) for r in csv.DictReader(fh)]
    except (OSError, KeyError, ValueError):
        return len(golden)
    # written so that a NaN error counts as a mismatch
    bad = sum(n != gn or not abs(e - ge) <= ERROR_RTOL * abs(ge)
              for (n, e), (gn, ge) in zip(got, golden))
    return min(len(golden), bad + abs(len(got) - len(golden)))


def converge_pass(cli, configs, workdir: Path, span=_noop_span) -> tuple[int, int]:
    """``cubeforms converge <name> --out <tmp>`` for each config; returns
    (attempted levels, failed levels)."""
    attempted = failed = 0
    out = Path(tempfile.mkdtemp(dir=workdir))
    try:
        for name in configs:
            golden = GOLDEN["converge"][name]
            attempted += len(golden)
            rc, _ = _call(cli, ["converge", name, "--out", str(out)], span)
            failed += len(golden) if rc != 0 else _levels_failed(out / f"{name}.csv", golden)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return attempted, failed


def run_pass(workload: str, cli, seed: int, workdir: Path, span=_noop_span) -> tuple[int, int]:
    if workload == "exact_check":
        return check_pass(cli, seed, span)
    configs = AFFINE if workload == "converge_affine" else CURVILINEAR
    return converge_pass(cli, configs, workdir, span)
