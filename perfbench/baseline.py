"""Repeat the benchmark over ten seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/baseline.py --first-seed 1000 --write

For every workload in BENCHMARK.json it makes ten untraced runs, run i
with seed first-seed + i, and two traced runs at the pinned seed.  It
prints each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, as the bounds
in BENCHMARK.json are read).  With --write it adds this set, with its run
context and every run's values, to perfbench/baseline.json, replacing a
stored set with the same first seed.  When another set is stored, it
prints how far each end-to-end median lies from the first set's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACED_RUNS = 2
PINNED_SEED = 12345


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stderr}")
    return result


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def run_context() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "numpy": np.__version__,
            "python": platform.python_version(),
            "loadavg_at_start": list(os.getloadavg()),
            "date": time.strftime("%Y-%m-%d")}


def summarise_set(first_seed: int, bench: dict) -> dict:
    out = {"first_seed": first_seed, "context": run_context(), "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in (w["name"] for w in bench["workloads"]):
        seeds = [first_seed + i for i in range(RUNS)]
        results = [run_once(name, seed, bench["run_seconds"], 0) for seed in seeds]
        traced = [run_once(name, PINNED_SEED, bench["run_seconds"], 1)
                  for _ in range(TRACED_RUNS)]
        metrics = {key: summarise([r["metrics"][key]["value"] for r in results])
                   for key in results[0]["metrics"]}
        for key, s in metrics.items():
            print(f"{name:14s} {key:12s} median {s['median']:.4g}  "
                  f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.4f}  "
                  f"(bound {bounds[key]})", flush=True)
        layers = {}
        for key, spec in traced[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in traced]
            if spec["unit"] == "count" and len(set(values)) != 1:
                raise SystemExit(f"{name} {key} differs between traced runs: {values}")
            layers[key] = summarise(values)
        out["workloads"][name] = {
            "seeds": seeds,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
            "traced": layers,
        }
    return out


def compare(first: dict, later: dict, bench: dict) -> None:
    """Print how much worse each end-to-end median of `later` is than the
    one of `first`, as a share of the first."""
    print(f"set {later['first_seed']} against set {first['first_seed']}:")
    for name, w in later["workloads"].items():
        for m in bench["end_to_end"]:
            a = first["workloads"][name]["metrics"][m["name"]]["median"]
            b = w["metrics"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print(f"{name:14s} {m['name']:12s} {a:.4g} -> {b:.4g}  worse by "
                  f"{worse:+.4f}  (bound {m['bound']}: "
                  f"{'agree' if worse <= m['bound'] else 'DISAGREE'})")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1000,
                   help="untraced run i uses seed first-seed + i")
    p.add_argument("--write", action="store_true",
                   help="add this set to perfbench/baseline.json")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    this = summarise_set(args.first_seed, bench)
    path = HERE / "baseline.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"sets": []}
    sets = [s for s in stored["sets"] if s["first_seed"] != args.first_seed] + [this]
    if len(sets) > 1:
        compare(sets[0], this, bench)
    if args.write:
        sys.path.insert(0, str(HERE))
        from spans import SHOULD_MOVE

        out = {"run_seconds": bench["run_seconds"], "layer_table": SHOULD_MOVE,
               "sets": sets}
        path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
