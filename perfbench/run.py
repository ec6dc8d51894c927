"""semilink benchmark: one seeded workload in a closed loop, one client.

    python3 perfbench/run.py --workload link-stream --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the library is imported from its
``src/`` directory and nowhere else.  BLAS and the library run on one thread.

``--trace 0`` runs whole cycles of the workload's operations until the next
cycle would pass ``--seconds``, checks every answer, and reports the
end-to-end metrics.  Their times are scaled to a reference host speed: a
short fixed probe runs five times a second, and the time between
two probes is scaled by ``REF_PROBE_S`` over their mean (see ``HostSpeed``).
The unscaled figures are printed on the ``detail`` line.  ``--trace 1`` runs the workload's fixed number of trace
cycles, each op once plain and once with every public layer function wrapped
in a timing span, and reports per-layer self times and work counts plus the
tracing overhead.  The spans are written to ``.perfbench_out/`` in the
checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import array
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "SEMILINK_THREADS")
SETUP_REPEATS = 5
PROBE_SWEEPS = 40       # sweeps in one timing of the host-speed probe
PROBE_EVERY_S = 0.2     # interval of the probe timer
REF_PROBE_S = 0.6e-3    # probe time of the reference host (a quiet Xeon VM)
_PROBE_MATRIX = None
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, semilink; "
                "print(time.perf_counter() - t)")

END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB",
              "setup_s": "s"}

# Per-layer metrics of the traced run: (name, unit, span name, field).
_CALLS_BUSY = ("flows.is_k_connected", "flows.vertex_connectivity",
               "flows.max_disjoint_paths", "flows.min_weight_disjoint_paths",
               "dominators.find_nearly_in_dominating",
               "dominators.find_nearly_out_dominating", "dominators.goodness_scores",
               "certificates.verify_linkage_certificate",
               "digraph.reduce_to_minimal_path", "oracle.exists_disjoint_linkage",
               "oracle.max_disjoint_ST_paths_bruteforce")
_BUSY = ("dominators.is_nearly_in_dominating_set", "linker.link",
         "linker.build_dominating_set", "linker.classify_terminals",
         "linker.initial_path_system", "linker.adjust_paths",
         "linker.finalize_deliveries", "linker.build_launches", "linker.build_bridges",
         "counterexample.build_counterexample", "counterexample.verify_construction_rules",
         "counterexample.verify_property_two",
         "counterexample.sampled_connectivity_check")
PER_LAYER = [
    ("flows.local_cut.calls", "count", "flows.local_cut", "calls"),
    ("flows.local_cut.busy_s", "s", "flows.local_cut", "busy_s"),
    ("flows.local_cut.capped_share", "ratio", "flows.local_cut", "capped"),
    ("flows.local_cut.direct_arc_share", "ratio", "flows.local_cut", "direct_arc"),
    ("flows.local_cut.paths_returned", "count", "flows.local_cut", "paths_returned"),
    *[(f"{s}.{f}", "count" if f == "calls" else "s", s, f)
      for s in _CALLS_BUSY for f in ("calls", "busy_s")],
    *[(f"{s}.busy_s", "s", s, "busy_s") for s in _BUSY],
    ("linker.adjust_paths.rounds", "count", "linker.adjust_paths", "rounds"),
    ("linker.certificate_ratio", "ratio", "linker.link", "certificates"),
    ("oracle.exists_disjoint_linkage.nodes_explored", "count",
     "oracle.exists_disjoint_linkage", "nodes_explored"),
    ("generators.busy_s", "s", "generators.*", "busy_s"),
    ("trace.ops_per_s", "1/s", None, None),
    ("trace.untraced_ops_per_s", "1/s", None, None),
    ("trace.ops_per_s_ratio", "ratio", None, None),
]
_SHARES = {"capped", "direct_arc", "certificates"}  # divided by the span's calls


def prepare() -> None:
    """Pin thread counts and make ``import semilink`` load this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "semilink" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no semilink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semilink
    if Path(semilink.__file__).resolve().parent != SRC / "semilink":
        raise SystemExit(f"perfbench: semilink imported from {semilink.__file__}")


def import_seconds() -> float:
    """Import time of numpy and semilink in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def environment(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "library_threads_arg": 1, "seed": seed}


def probe_seconds() -> float:
    """Least of three timings of a fixed probe: one-step reachability sweeps
    over a 251-vertex boolean matrix, the kind of work the library does."""
    global _PROBE_MATRIX
    if _PROBE_MATRIX is None:
        import numpy as np
        _PROBE_MATRIX = np.random.default_rng(0).random((251, 251)) < 0.5
    adj = _PROBE_MATRIX
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(PROBE_SWEEPS):
            row = adj[i]
            int((adj[row].any(axis=0) & ~row).sum())
        times.append(time.perf_counter() - t0)
    return min(times)


class HostSpeed:
    """Scales wall times to the reference host speed.

    The shared host slows every computation by up to 1.6x, for seconds to
    minutes at a time.  While measuring, a timer signal runs the probe every
    ``PROBE_EVERY_S``, also in the middle of an operation.  An operation's
    time is split at the probes: each stretch between two probes counts its
    length times ``REF_PROBE_S`` over the mean of those two probe times, and
    the probes' own time does not count.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self._busy = False
        self._old_handler = None

    def _probe(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        value = probe_seconds()
        self.starts.append(t0)
        self.values.append(value)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._probe()
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._probe()

    def scaled(self, a: float, b: float) -> tuple[float, float]:
        """Scaled and raw length of the interval [a, b], probes left out."""
        i = bisect.bisect_right(self.ends, a) - 1
        scaled = raw = 0.0
        while i + 1 < len(self.starts):
            lo, hi = max(a, self.ends[i]), min(b, self.starts[i + 1])
            if hi > lo:
                raw += hi - lo
                scaled += (hi - lo) * 2 * REF_PROBE_S / (self.values[i] + self.values[i + 1])
            if self.starts[i + 1] >= b:
                break
            i += 1
        return scaled, raw


class Tally:
    """Outcome of a stretch of operations: durations of verified ops, failures.

    Each op's start and end are kept in flat arrays, so that the memory the
    bookkeeping takes hardly grows with the run; ``close`` turns them into
    durations, scaled by a ``HostSpeed`` when one was given.
    """

    def __init__(self, speed: HostSpeed | None = None):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.speed = speed
        self._kinds: list[str] = []
        self._kind = array.array("H")   # index into _kinds
        self._start = array.array("d")
        self._end = array.array("d")
        self._verified = array.array("B")
        self.seconds = 0.0  # time spent inside the library, failed ops included
        self.raw_seconds = 0.0
        self.times: dict[str, list[float]] = {}
        self.raw: list[float] = []

    def run_cycle(self, ops) -> None:
        for op in ops:
            self.run_op(op)

    def run_op(self, op, tracer=None, op_id=None) -> None:
        """Time one call; check its answer untraced and untimed."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = op_id
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # any exception is a failed op
            self._record(op.kind, t0, time.perf_counter(), False)
            self._fail(op.kind, exc)
            return
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.paused = True
        try:
            op.check(result)
        except Exception as exc:
            self._record(op.kind, t0, t1, False)
            self._fail(op.kind, exc)
            return
        finally:
            if tracer is not None:
                tracer.paused = False
        self._record(op.kind, t0, t1, True)

    def _record(self, kind: str, t0: float, t1: float, verified: bool) -> None:
        if kind not in self._kinds:
            self._kinds.append(kind)
        self._kind.append(self._kinds.index(kind))
        self._start.append(t0)
        self._end.append(t1)
        self._verified.append(verified)

    def close(self) -> "Tally":
        """Turn the recorded intervals into durations; call once, at the end."""
        for k, t0, t1, verified in zip(self._kind, self._start, self._end, self._verified):
            kind = self._kinds[k]
            scaled, raw = self.speed.scaled(t0, t1) if self.speed else (t1 - t0, t1 - t0)
            self.seconds += scaled
            self.raw_seconds += raw
            if verified:
                self.times.setdefault(kind, []).append(scaled)
                self.raw.append(raw)
        return self

    def _fail(self, kind: str, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")

    def all_times(self) -> list[float]:
        return sorted(t for ts in self.times.values() for t in ts)

    def ops_per_s(self) -> float:
        return len(self.all_times()) / self.seconds if self.seconds else 0.0


def combined(*tallies: Tally) -> Tally:
    """Counts and errors of several stretches; durations are not merged."""
    total = Tally()
    for part in tallies:
        total.attempted += part.attempted
        total.failed += part.failed
        total.errors += part.errors
    return total


def tail_latency(times: list[float]) -> dict | None:
    """The highest percentile that still has at least ten samples above it."""
    if len(times) < 20:
        return None
    n = len(times)
    return {"value_ms": times[n - 11] * 1e3, "percentile": 100.0 * (n - 10) / n,
            "samples": n, "beyond": 10}


def setup_seconds(wl, seed: int, smoke: bool):
    """Set-up time scaled to the reference host: a fresh interpreter's
    numpy and semilink import plus input generation."""
    before = probe_seconds()
    t_import = import_seconds()
    t0 = time.perf_counter()
    inputs = wl.generate(seed, smoke)
    raw = t_import + time.perf_counter() - t0
    return raw * 2 * REF_PROBE_S / (before + probe_seconds()), raw, inputs


def measure(wl, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict, Tally]:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        scaled, raw, inputs = setup_seconds(wl, seed, smoke)
        setups.append(scaled)
        raw_setups.append(raw)
    refs = wl.references(inputs)
    warm = Tally()
    for j in range(wl.warmup_cycles):
        warm.run_cycle(wl.cycle(inputs, refs, j))
    speed = HostSpeed()
    timed = Tally(speed)
    with speed:
        start = time.perf_counter()
        j = wl.warmup_cycles
        while True:
            c0 = time.perf_counter()
            timed.run_cycle(wl.cycle(inputs, refs, j))
            j += 1
            now = time.perf_counter()
            if now - start + (now - c0) > seconds:
                break
    timed.close()
    times = timed.all_times()
    metrics = {
        "ops_per_s": timed.ops_per_s(),
        "latency_p50_ms": statistics.median(times) * 1e3 if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    total = combined(warm, timed)
    raw = sorted(timed.raw)
    detail = {
        "cycles": j - wl.warmup_cycles,
        "fail_ratio": total.failed / total.attempted,
        "latency_tail": tail_latency(times),
        "p50_ms_by_kind": {k: statistics.median(v) * 1e3 for k, v in timed.times.items()},
        "ops_by_kind": {k: len(v) for k, v in timed.times.items()},
        "setup_runs_s": setups,
        "unscaled": {"ops_per_s": len(raw) / timed.raw_seconds if timed.raw_seconds else 0.0,
                     "latency_p50_ms": statistics.median(raw) * 1e3 if raw else 0.0,
                     "setup_s": statistics.median(raw_setups)},
        "probe_ms": {"median": statistics.median(speed.values) * 1e3,
                     "min": min(speed.values) * 1e3, "max": max(speed.values) * 1e3,
                     "count": len(speed.values)},
        "references": refs,
    }
    return metrics, detail, total


def measure_traced(wl, seed: int, smoke: bool) -> tuple[dict, dict, Tally]:
    import tracing

    inputs = wl.generate(seed, smoke)
    refs = wl.references(inputs)
    warm = Tally()
    for j in range(wl.warmup_cycles):
        warm.run_cycle(wl.cycle(inputs, refs, j))
    cycles = range(wl.warmup_cycles, wl.warmup_cycles + wl.trace_cycles)
    tracer = tracing.Tracer()
    with tracer:
        wl.generate(seed, smoke)  # spans under op "setup"
    plain, traced = Tally(), Tally()
    # Every op runs plain and traced back to back, alternating which side
    # goes first, so both sides see the same host state and cache warmth.
    index = 0
    for j in cycles:
        for i, op in enumerate(wl.cycle(inputs, refs, j)):
            for side in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
                if side == "plain":
                    plain.run_op(op)
                    continue
                with tracer:
                    traced.run_op(op, tracer, f"{j}.{i}")
            index += 1
    plain.close()
    traced.close()
    leftover = tracing.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers installed: {leftover}")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(spans_file)

    agg = tracing.aggregate(tracer.spans)
    generators = {"calls": 0, "busy_s": 0.0}
    for name, entry in agg.items():
        if name.startswith("generators."):
            generators["calls"] += entry["calls"]
            generators["busy_s"] += entry["busy_s"]
    agg["generators.*"] = generators
    overhead = {"trace.ops_per_s": traced.ops_per_s(),
                "trace.untraced_ops_per_s": plain.ops_per_s()}
    overhead["trace.ops_per_s_ratio"] = (overhead["trace.ops_per_s"]
                                         / overhead["trace.untraced_ops_per_s"]
                                         if overhead["trace.untraced_ops_per_s"] else 0.0)
    metrics = {}
    for name, _unit, span, field in PER_LAYER:
        if span is None:
            metrics[name] = overhead[name]
            continue
        entry = agg.get(span, {})
        value = entry.get(field, 0)
        if field in _SHARES:
            value = value / entry["calls"] if entry.get("calls") else 0.0
        metrics[name] = value
    total = combined(warm, plain, traced)
    detail = {"fail_ratio": total.failed / total.attempted, "cycles": len(cycles),
              "wrapped_bindings": tracer.wrapped, "spans": len(tracer.spans),
              "spans_file": str(spans_file.relative_to(ROOT)),
              "busy_s_by_span": {k: round(v["busy_s"], 6) for k, v in sorted(agg.items())}}
    return metrics, detail, total


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns the result object printed on the last line."""
    import workloads

    wl = workloads.WORKLOADS[name]
    if trace:
        values, detail, tally = measure_traced(wl, seed, smoke)
        units = {m: unit for m, unit, _, _ in PER_LAYER}
    else:
        values, detail, tally = measure(wl, seed, seconds, smoke)
        units = END_TO_END
    detail["errors"] = tally.errors
    print("environment: " + json.dumps(environment(seed), sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True, default=str))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
