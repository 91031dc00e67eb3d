"""Record a bench-trajectory point: every metric on every workload, with the
run-to-run spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload, runs the benchmark RUNS times untraced (seeds 1..RUNS)
and once traced, one run at a time, and writes per metric the median, the
quartiles and the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives them).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if res.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {res.stderr.strip()}")
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    out = {"python": platform.python_version(), "machine": platform.machine(),
           "cores": os.cpu_count(), "run_seconds": BENCHMARK["run_seconds"],
           "runs": RUNS, "workloads": {}}
    for w in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [one_run(w, seed, 0) for seed in range(1, RUNS + 1)]
        e2e = {name: summary([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
        traced = one_run(w, 1, 1)
        out["workloads"][w] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        for name, s in e2e.items():
            print(f"{w:12s} {name:14s} median {s['median']:12.6g} spread {s['spread']:.3f}",
                  flush=True)
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
