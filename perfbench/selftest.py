"""Smoke-size self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the metric tables in run.py and tracer.py,
that traced call counts equal their analytic values and repeat exactly,
and that an untraced pass leaves every wrapped attribute untouched.
Exits 1 and lists each problem if any check fails.
"""

from __future__ import annotations

import json
import re
import sys

import run
import tracer
import workloads

SMOKE_CONFIG = "q1k0_uniform"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract keys")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds is a whole number in 1..60")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workloads match workloads.WORKLOADS")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "each workload has a one-line why")
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    expect(e2e == list(run.END_TO_END), "end_to_end matches run.END_TO_END")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"]), "end_to_end bounds are in (0, 0.25]")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(layer == list(tracer.PER_LAYER), "per_layer matches tracer.PER_LAYER")
    names = [m[0] for m in e2e + layer] + [w["name"] for w in spec["workloads"]]
    expect(all(NAME_RE.match(n) for n in names) and len(names) == len(set(names)),
           "metric and workload names are valid and unique")
    expect(all(UNIT_RE.match(m[1]) for m in e2e + layer), "units are valid")


def snapshot() -> dict:
    import numpy.linalg

    mods = {k: m for k, m in sys.modules.items() if k == "cubeforms" or k.startswith("cubeforms.")}
    snap = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
    snap[("numpy.linalg", "lstsq")] = numpy.linalg.lstsq
    return snap


def same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def smoke_pass(cli, span) -> tuple[int, int]:
    a0, f0 = workloads.check_pass(cli, workloads.CHECK_SEED, span, pullback_maps=1)
    a1, f1 = workloads.converge_pass(cli, [SMOKE_CONFIG], run.WORKDIR, span)
    return a0 + a1, f0 + f1


def traced_smoke(cli) -> dict:
    tr = tracer.Tracer()
    tr.install()
    try:
        _, failed = smoke_pass(cli, tr.span)
    finally:
        tr.uninstall()
    expect(failed == 0 and not tr.missing, "traced smoke pass matches golden, no layer missing")
    return tr.metrics(0.0, 0.0)


def main() -> int:
    check_benchmark_json()
    cli = run.import_cli()
    run.WORKDIR.mkdir(exist_ok=True)
    before = snapshot()
    during: list[bool] = []

    def probe_span(_name):
        during.append(same(before, snapshot()))
        return workloads._noop_span(_name)

    _, failed = smoke_pass(cli, probe_span)
    expect(failed == 0, "untraced smoke pass matches golden")
    expect(bool(during) and all(during) and same(before, snapshot()),
           "untraced pass leaves every wrapped attribute untouched")

    first = traced_smoke(cli)
    expect(same(before, snapshot()), "uninstall restores every wrapped attribute")
    cfg = cli.parse_config(cli.bundled_config_path(SMOKE_CONFIG).read_text())
    levels = cfg.subdivision_list
    expect(first["meshlab.element_l2_error.calls"] == sum(n ** cfg.n for n in levels),
           "meshlab.element_l2_error.calls = sum of N^n over levels")
    expect(first["meshlab.build_mesh.calls"] == len(levels),
           "meshlab.build_mesh.calls = number of levels")
    expect(first["dofs.unisolvence_matrix.calls"] == 27, "dofs.unisolvence_matrix.calls = 27")
    expect(first["meshlab.lstsq.calls"] == first["meshlab.element_l2_error.calls"],
           "one meshlab lstsq per element")
    expect(set(first) == {m for m, _, _ in tracer.PER_LAYER}, "traced run reports every per-layer metric")

    second = traced_smoke(cli)
    calls = [m for m in first if m.endswith(".calls")]
    expect(all(first[m] == second[m] for m in calls), "traced .calls counts repeat exactly")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
