"""Benchmark of the knoedel command line, end to end and per layer.

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from
``src``.  The run measures set-up in fresh interpreters, then runs the
workload in a child process (``worker.py``) and prints one line per
metric followed by a last line of JSON:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``, with ``--trace 1`` the ``per_layer`` ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters before the workload and as many after it, so the
# median spans the run.
SETUP_RUNS = 10
# Time from a fresh interpreter to the CLI imported and its parser built;
# numpy goes first so its share can be read off.
SETUP_CODE = (
    "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t); "
    "import knoedel.cli; knoedel.cli.build_parser()"
)
RUN_LIMIT_S = 160  # the worker's deadline; set-up after it needs a few seconds more


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("KNOEDEL_MAX_STEPS", None)
    # knoedel makes no BLAS calls.  One BLAS thread keeps numpy's import
    # from starting a thread pool, whose start-up time depends on whether
    # the other CPU is busy.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float], list[float]]:
    """Fresh set-ups: wall times, the same at nominal speed, and the numpy
    import times inside them at nominal speed."""
    command = [sys.executable, "-c", SETUP_CODE]
    walls, scaled, numpy_s = [], [], []
    for _ in range(SETUP_RUNS):
        before = speed.EXACT.time()
        start = time.perf_counter()
        done = subprocess.run(command, env=env, check=True, capture_output=True, text=True,
                              timeout=60)
        walls.append(time.perf_counter() - start)
        after = speed.EXACT.time()
        scaled.append(speed.EXACT.scaled(walls[-1], before, after))
        numpy_s.append(speed.EXACT.scaled(float(done.stdout), before, after))
    return walls, scaled, numpy_s


def _latency_stats(per_request: list[list[float]]) -> tuple[float, float, float]:
    """One pass with each request at its median, and p50 and p90 of all samples."""
    latencies = [t for ts in per_request for t in ts]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    # The pass at per-request medians is robust to a slow moment.
    return sum(statistics.median(ts) for ts in per_request), deciles[4], deciles[8]


def _throughput(raw: dict) -> float:
    """Correct requests per second over the whole passes.  The pass cut
    short at the deadline is left out: which requests it holds depends on
    the seed's order, not on the program."""
    whole = raw["attempted"] // raw["requests"]
    correct_share = 1 - raw["failed"] / raw["attempted"]
    return whole * raw["requests"] * correct_share / sum(raw["pass_times"][:whole])


def end_to_end(raw: dict, setup_s: float) -> dict[str, float]:
    wall_s, p50, p90 = _latency_stats(raw["latencies"])
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "req_per_s": _throughput(raw),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict, numpy_s: float) -> dict[str, float]:
    return {
        **raw["layers"],
        "setup.numpy_import_s": numpy_s,
        # Wall clock on both sides: traced passes time no loop.
        "trace.overhead_ratio": statistics.median(raw["traced_pass_times"])
        / statistics.median(map(sum, zip(*raw["wall_latencies"]))),
    }


def zero_shares(requests: list[list[str]]) -> str:
    """Shares of coeff requests that are off the residue class or beyond the frontier."""
    coeffs = [checks.options(r) for r in requests if r[0] == "coeff"]
    if not coeffs:
        return "no coeff requests"
    off = sum(workloads.residue(o["model"], o["state"]) != int(o["steps"]) % 3 for o in coeffs)
    beyond = sum(o["state"] != "beta"
                 and int(o["state"]) > workloads.frontier(o["model"], int(o["steps"]))
                 for o in coeffs)
    return (f"{len(coeffs)} coeff requests: off-residue share {off / len(coeffs):.3f}, "
            f"beyond-frontier share {beyond / len(coeffs):.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "knoedel" / "cli.py").is_file():
        return fail(f"no program to measure: {ROOT / 'src' / 'knoedel'} is missing")
    spec = json.loads(spec_path.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    started = time.perf_counter()
    env = program_env()
    try:
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       capture_output=True, timeout=60)  # warm caches
        setup = measure_setup(env)
    except (subprocess.SubprocessError, ValueError) as exc:
        return fail(f"set-up failed: {exc}")
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--spans", str(HERE / "out" / f"spans-{args.workload}.jsonl")]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {RUN_LIMIT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        return fail(f"worker exited with code {done.returncode}")
    raw = json.loads(done.stdout.splitlines()[-1])
    try:
        setup = [a + b for a, b in zip(setup, measure_setup(env))]
    except (subprocess.SubprocessError, ValueError) as exc:
        return fail(f"set-up failed: {exc}")
    setup_wall_s, setup_s, numpy_s = map(statistics.median, setup)

    metrics = per_layer(raw, numpy_s) if args.trace else end_to_end(raw, setup_s)
    if set(metrics) != set(wanted):
        return fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")

    requests = workloads.generate(args.workload, args.seed)
    passes = len(raw["pass_times"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{raw['requests']} requests per pass, {passes} untraced passes, "
          f"{sum(map(len, raw['latencies']))} latency samples")
    print(zero_shares(requests))
    print(f"failed_ratio {raw['failed'] / raw['attempted']:.6f} "
          f"({raw['failed']} of {raw['attempted']} requests)")
    wall_s, p50, p90 = _latency_stats(raw["wall_latencies"])
    print(f"wall clock, not scaled: setup_s {setup_wall_s:.4f}, wall_s {wall_s:.4f}, "
          f"latency_p50_s {p50:.4f}, latency_p90_s {p90:.4f}")
    for problem in raw["problems"]:
        print(f"  FAILED {problem}")
    if args.trace:
        print(f"spans {raw['spans']}, traced passes {len(raw['traced_pass_times'])}")
    for name, unit in wanted.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
