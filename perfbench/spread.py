"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload hard-family --seeds 1-10 --seconds 20

For every metric: the median of the runs and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, also for the unscaled times of the ``detail`` line.  Runs are made
one after another, never in parallel.  The summary is printed and, with
``--out``, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        if key in ("environment", "detail"):
            result[key] = json.loads(rest)
    result["wall_s"] = wall
    return result


def summarize(rows: list[dict]) -> dict:
    """Median and quartile spread of each metric over runs of name -> value."""
    summary = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "iqr_share": (q3 - q1) / med if med else 0.0,
                         "values": values}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workload:
        runs = []
        for seed in seed_list(args.seeds):
            result = one_run(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 6)
                                              for k, v in result["metrics"].items()}),
                  "failed", result["failed"], flush=True)
        report[workload] = {"seeds": seed_list(args.seeds),
                            "environment": runs[0].get("environment"),
                            "failed": sum(r["failed"] for r in runs),
                            "attempted": sum(r["attempted"] for r in runs),
                            "metrics": summarize([{m: v["value"] for m, v in r["metrics"].items()}
                                                  for r in runs]),
                            "wall_s": [r["wall_s"] for r in runs],
                            "latency_tail": [r.get("detail", {}).get("latency_tail")
                                             for r in runs]}
        if not args.trace:
            report[workload]["unscaled"] = summarize([r["detail"]["unscaled"] for r in runs])
        for name, s in report[workload]["metrics"].items():
            print(f"  {workload} {name}: median {s['median']:.6g} "
                  f"spread {s['iqr_share']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
