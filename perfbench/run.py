"""Capacity benchmark: run one workload, check every output, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload figure1 --seed 12345 --seconds 30 --trace 0

Each workload is a closed loop: one caller starts the next pass only when
the previous one has finished.  After an untimed warm-up, the workload's
first operation, passes repeat until --seconds have gone by.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
setup_s (median time for a fresh interpreter to import the package and
finish the workload's first operation) and peak_rss_mb (peak resident
memory of this process).  --trace 1 runs pairs of one untraced and one
traced pass and reports the per-layer metrics: counts from one traced
pass (they must repeat exactly), times as medians over the traced passes,
and trace.overhead_frac as the median over pairs of traced over untraced
wall time, minus one.  The spans are written to .bench_out/ when the run
ends.  Names and units of the metrics are those of BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 9

# prints "done" when the first operation has finished, then the problems
# its check finds
SETUP_CODE = """\
import json, sys
sys.path[:0] = {paths!r}
import workloads
workload = workloads.WORKLOADS[{name!r}]()
output = workload.first_op({seed!r})
print("done", flush=True)
outcome = workloads.Outcome()
workload.check(output, {seed!r}, workloads.load_reference(), outcome)
print(json.dumps(outcome.problems))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(workload, seed: int, problems: list) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    the package and finished the workload's first operation."""
    code = SETUP_CODE.format(paths=[str(HERE), str(SRC)], name=workload.name, seed=seed)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, cwd=ROOT) as proc:
        lines = []
        for line in proc.stdout:
            if line == "done\n":
                break
            lines.append(line)
        elapsed = time.perf_counter() - t0
        lines.extend(proc.stdout)
    try:
        found = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        found = None
    if found is None:
        problems.append(f"setup: exit {proc.returncode}: {''.join(lines)[-300:]}")
    else:
        problems.extend(f"setup: {p}" for p in found)
    return elapsed


def timed(workload, seed):
    t0 = time.perf_counter()
    output = workload.run(seed)
    return time.perf_counter() - t0, output


def run_plain(workload, seed, seconds, check):
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, output = timed(workload, seed)
        walls.append(wall)
        check(output)
    return walls


def run_traced(workload, seed, seconds, check, problems, units):
    """Pairs of one untraced and one traced pass, the order alternating from
    pair to pair; per-layer metrics and the spans of every traced pass."""
    overheads, per_pass, all_spans = [], [], []
    main_thread = threading.get_ident()
    start = time.perf_counter()
    while not overheads or time.perf_counter() - start < seconds:
        tracer = spans.Tracer(run=len(overheads))
        walls = {}
        for traced in (True, False) if len(overheads) % 2 else (False, True):
            if traced:
                tracer.install()
            try:
                walls[traced], output = timed(workload, seed)
            finally:
                tracer.uninstall()
            check(output)
        overheads.append(walls[True] / walls[False] - 1)
        problems.extend(spans.self_check(tracer.spans, main_thread,
                                         workload.pool_threads, workload.substreams))
        per_pass.append(spans.layer_metrics(tracer.spans))
        all_spans.extend(tracer.spans)

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units[name] == "count":
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    return metrics, all_spans


def write_spans(path: Path, records) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in records:
            fh.write(json.dumps(span.as_record()) + "\n")


def main(argv=None, registry=None) -> int:
    args = parse_args(argv)
    if not (SRC / "backscatter_capacity" / "__init__.py").is_file():
        print(f"run.py: the library source is missing: {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads as wl

    ref = wl.load_reference()
    if ref["numpy"] != np.__version__:
        print(f"run.py: the references were generated with numpy {ref['numpy']} and "
              f"this is numpy {np.__version__}; Monte Carlo draws are numpy-defined, so "
              "regenerate them with perfbench/make_refs.py in a change of their own",
              file=sys.stderr)
        return 3
    registry = registry or wl.WORKLOADS
    if args.workload not in registry:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(registry)}", file=sys.stderr)
        return 1
    workload = registry[args.workload]()

    outcome = wl.Outcome()
    problems = outcome.problems

    def check(output):
        workload.check(output, args.seed, ref, outcome)

    # warm-up: imports finish and the library's caches fill before timing
    warm = wl.Outcome()
    workload.check(workload.first_op(args.seed), args.seed, ref, warm)
    problems.extend(warm.problems)
    if args.trace:
        metrics, records = run_traced(workload, args.seed, args.seconds, check,
                                      problems, units)
        write_spans(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl", records)
    else:
        setup = [time_setup(workload, args.seed, problems) for _ in range(SETUP_RUNS)]
        walls = run_plain(workload, args.seed, args.seconds, check)
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        print(f"{workload.name}: {len(walls)} timed passes "
              f"{', '.join(f'{w:.3f}' for w in walls)} s")

    for problem in problems[:20]:
        print(f"run.py: {problem}", file=sys.stderr)
    correct = outcome.failed == 0 and not problems
    print(f"{workload.name} seed={args.seed}: attempted={outcome.attempted} "
          f"failed={outcome.failed} declined={outcome.declined} correct={correct} "
          f"(numpy {np.__version__}, Python {platform.python_version()})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
