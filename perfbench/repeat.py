"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads verify,monte-carlo] [--trace 1]
                                [--out perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles and
the spread (interquartile range over median) next to the metric's bound
in BENCHMARK.json.  ``--out`` also writes the summary with the commit,
Python, numpy and CPU count it was measured on.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """The result line of one run, and how long the run took."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1]), time.perf_counter() - start


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def environment() -> dict[str, str]:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"commit": commit or "unknown", "python": platform.python_version(),
            "numpy": numpy, "nproc": str(os.cpu_count()), "machine": platform.machine()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs, durations = zip(*(one_run(workload, seed, args.seconds, args.trace)
                                for seed in args.seeds))
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed requests, "
              f"all correct: {all(r['correct'] for r in runs)}, "
              f"longest run {max(durations):.1f} s")
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            summary[workload][name] = stats
            bound = bounds[name]
            flag = "" if bound is None else (
                f"bound {bound}  {'ok' if stats['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {name:24s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}  {flag}")
            print("      runs " + " ".join(f"{v:.4g}" for v in stats["runs"]))
    if args.out:
        record = {**environment(), "seeds": args.seeds, "seconds": args.seconds,
                  "trace": args.trace, "workloads": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
