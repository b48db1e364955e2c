"""Run one workload in-process and print its raw measurements as JSON.

``run.py`` starts this in a child process of its own, so the peak
resident memory it reports belongs to one workload.  Requests go through
``knoedel.cli.main(argv)`` one after another (a closed loop, one client)
with stdout captured; passes over the request list repeat until
``--seconds`` have passed, the last one cut short where the next request
would overrun.  Each request's wall time is also scaled to the
machine's nominal speed (``speed.py``), from the workload's loop timed
right before and right after it and sampled during it.

With ``--trace 1`` untraced and traced passes alternate, the traced ones
with the layer spans of ``tracing.py`` installed and no loop timed, so
span times hold only the program and the tracer.  Every traced output
must equal the untraced one byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from knoedel import cli  # noqa: E402

DIGESTS = HERE / "digests.json"


def call(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or the exception raised), stdout and stderr of one request."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed request is counted, never fatal
        code = repr(exc)
    return code, out.getvalue(), err.getvalue()


def _output_bytes(args, result) -> dict:
    return {"output_bytes": len(result[1].encode())}


class Run:
    """Request list, output verdicts and timings of one benchmark run."""

    def __init__(self, requests: list[list[str]], recorded: list[str] | None,
                 loop: speed.Loop = speed.EXACT):
        self.requests = requests
        self.recorded = recorded
        self.loop = loop
        self.sampler = speed.Sampler(loop)
        self.verdicts: dict[int, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Per request and untraced pass: wall seconds, and seconds at
        # nominal speed.
        self.wall_latencies: list[list[float]] = [[] for _ in requests]
        self.latencies: list[list[float]] = [[] for _ in requests]
        self.pass_times: list[float] = []

    def one_pass(self, tracer: tracing.Tracer | None = None,
                 deadline: float | None = None) -> float:
        """Issue every request once, in order, and return the summed request
        time: at nominal speed untraced, wall-clock traced.  With a
        ``deadline`` (a ``perf_counter`` time), stop before the first
        request that the previous pass says would end after it."""
        total = 0.0
        before = self.loop.time()
        for index, argv in enumerate(self.requests):
            if deadline is not None and time.perf_counter() + self.wall_latencies[index][-1] > deadline:
                break
            gc.collect()
            if tracer is None:
                (code, out, err), wall, during = self.sampler.measure(call, argv)
                after = self.loop.time()
                scaled = self.loop.scaled(wall, before, after, during)
                before = after
                self.wall_latencies[index].append(wall)
                self.latencies[index].append(scaled)
                total += scaled
            else:
                tracer.request = f"{len(self.pass_times)}:{index}"
                start = time.perf_counter()
                code, out, err = tracer.span("cli.command", call, (argv,),
                                             counters=_output_bytes)
                total += time.perf_counter() - start
            self._judge(index, argv, code, out, err)
        return total

    def _judge(self, index: int, argv: list[str], code, out: str, err: str) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit {code}: {err.strip()[:200]}"]
        else:
            digest = hashlib.sha256(out.encode()).hexdigest()
            if index not in self.verdicts:
                found = checks.check(argv, out)
                if self.recorded is not None and self.recorded[index] != digest:
                    found.append("stdout differs from the digest recorded for the default seed")
                self.verdicts[index] = (digest, found)
            first_digest, problems = self.verdicts[index]
            if digest != first_digest:
                problems = ["stdout differs from the first run of the same request"]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(argv)}: {'; '.join(problems[:3])}")


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    if seed != workloads.DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()

    requests = workloads.generate(args.workload, args.seed)
    run = Run(requests, recorded_digests(args.workload, args.seed),
              speed.WORKLOAD_LOOPS[args.workload])
    traced_times: list[float] = []
    layers: list[dict] = []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    if args.trace:
        elapsed = 0.0
        # Another pair of passes only if it is expected to end within --seconds.
        while not run.pass_times or elapsed * (1 + 1 / len(run.pass_times)) <= args.seconds:
            run.pass_times.append(run.one_pass())
            first = len(tracer.spans)
            tracer.install()
            try:
                traced_times.append(run.one_pass(tracer))
            finally:
                tracer.uninstall()
            layers.append(tracing.layer_metrics(tracer.spans, first))
            elapsed = time.perf_counter() - start
    else:
        # One whole pass, then passes until --seconds are up; the last
        # one ends early with the requests that would overrun.
        deadline = start + args.seconds
        run.pass_times.append(run.one_pass())
        # Later passes can grow the heap a little, and how many fit in
        # --seconds depends on the machine.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while True:
            issued = run.attempted
            total = run.one_pass(deadline=deadline)
            if run.attempted == issued:
                break
            run.pass_times.append(total)
            if run.attempted - issued < len(requests):
                break
    if args.trace and args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.spans)

    if args.trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "requests": len(requests),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "pass_times": run.pass_times,
        "latencies": run.latencies,
        "wall_latencies": run.wall_latencies,
        "peak_rss_mb": peak / (2**20 if sys.platform == "darwin" else 2**10),
    }
    if args.trace:
        result["traced_pass_times"] = traced_times
        result["spans"] = len(tracer.spans)
        result["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
