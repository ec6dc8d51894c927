"""Self-test of the benchmark at smoke size (about two minutes).

    python3 perfbench/selftest.py

Checks that every workload reports every metric of BENCHMARK.json with its
unit and no failure, that two traced runs give identical work counts, that
the tracer puts every binding back, that injected wrong answers are counted
as failures, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

COUNT_UNITS = {"count"}


def quiet_run(*args, **kwargs) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(*args, **kwargs)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)
    print("ok  ", message, flush=True)


def declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def units_of(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    run.prepare()
    import semilink.flows
    import semilink.linker
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json lists exactly the implemented workloads")
    originals = {name: getattr(semilink.flows, name) for name in ("local_cut", "is_k_connected")}

    for name in workloads.WORKLOADS:
        plain = quiet_run(name, 1, 1, trace=False, smoke=True)
        expect(units_of(plain) == declared("end_to_end"),
               f"{name}: every end-to-end metric with its unit")
        expect(plain["failed"] == 0 and plain["correct"] and plain["attempted"] > 0,
               f"{name}: {plain['attempted']} ops, none failed")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()),
               f"{name}: no end-to-end metric reads 0")
        first = quiet_run(name, 1, 1, trace=True, smoke=True)
        second = quiet_run(name, 1, 1, trace=True, smoke=True)
        expect(units_of(first) == declared("per_layer"),
               f"{name}: every per-layer metric with its unit")
        expect(first["failed"] == 0, f"{name}: traced run has no failure")
        counts = {m: v["value"] for m, v in first["metrics"].items() if v["unit"] in COUNT_UNITS}
        again = {m: v["value"] for m, v in second["metrics"].items() if v["unit"] in COUNT_UNITS}
        expect(counts == again, f"{name}: work counts identical across two traced runs")
        expect(not tracing.installed_wrappers() and all(
            getattr(semilink.flows, k) is v for k, v in originals.items()),
            f"{name}: tracer restored every binding")

    original = semilink.flows.is_k_connected
    semilink.flows.is_k_connected = lambda d, k: not original(d, k)
    try:
        bad = quiet_run("connectivity-decide", 1, 1, trace=False, smoke=True)
    finally:
        semilink.flows.is_k_connected = original
    expect(bad["failed"] == bad["attempted"] > 0,
           f"negated is_k_connected: {bad['failed']}/{bad['attempted']} ops failed")

    link = semilink.linker.link

    def swapped(instance, *args, **kwargs):
        out = link(instance, *args, **kwargs)
        if isinstance(out, semilink.linker.LinkageCertificate) and len(out.paths) > 1:
            out = dataclasses.replace(out, paths=(out.paths[1], out.paths[0]) + out.paths[2:])
        return out

    semilink.linker.link = swapped
    try:
        bad = quiet_run("link-stream", 1, 1, trace=False, smoke=True)
    finally:
        semilink.linker.link = link
    expect(bad["failed"] > 0 and not bad["correct"],
           f"swapped certificate paths: {bad['failed']}/{bad['attempted']} ops failed")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "link-stream",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(out.returncode != 0 and '"metrics"' not in out.stdout,
           f"without src/ the benchmark exits {out.returncode} and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
