"""Tests for the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import speed
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL_REQUESTS = [
    ["table", "--model", "double-large", "--steps", "9", "--format", "csv"],
    ["table", "--model", "double-small", "--steps", "8", "--format", "json"],
    ["coeff", "--model", "double-large", "--state", "4", "--steps", "14", "--source", "dp",
     "--p", "2/7", "--format", "csv"],
    ["coeff", "--model", "double-large", "--state", "7", "--steps", "14",
     "--source", "closed-form", "--format", "json"],
    ["coeff", "--model", "double-small", "--state", "beta", "--steps", "11",
     "--source", "closed-form", "--format", "csv"],
    ["series", "--which", "f0", "--order", "12", "--format", "csv"],
    ["series", "--which", "t", "--order", "12", "--format", "json"],
    ["simulate", "--model", "double-small", "--steps", "7", "--trials", "5000",
     "--seed", "3", "--format", "csv"],
    ["verify", "--order", "5", "--max-steps", "9", "--seed", "5"],
]


def _stdout(argv):
    code, out, _ = worker.call(argv)
    assert code == 0
    return out


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    assert all(isinstance(arg, str) for argv in first for arg in argv)


def test_closed_forms_zero_shares_are_about_ten_percent():
    line = run.zero_shares(workloads.generate("closed-forms", 3))
    assert "off-residue share 0.108" in line and "beyond-frontier share 0.108" in line


def test_closed_forms_reach_the_top_of_the_double_large_band():
    tops = [int(o["state"]) / workloads.frontier(o["model"], int(o["steps"]))
            for o in map(checks.options, workloads.generate("closed-forms", 3))
            if "state" in o and o["model"] == workloads.LARGE and o["state"] != "beta"
            and int(o["steps"]) > 900]
    assert sum(0.99 < top <= 1 for top in tops) == 2


def test_digests_cover_the_default_seed_pass():
    recorded = json.loads(worker.DIGESTS.read_text())
    for workload in workloads.GENERATORS:
        assert len(recorded[workload]) == len(workloads.generate(workload, workloads.DEFAULT_SEED))


def test_printed_metric_names_are_in_benchmark_json():
    raw = {"latencies": [[0.1], [0.2], [0.3]], "wall_latencies": [[0.1], [0.2], [0.3]],
           "pass_times": [0.6], "requests": 3, "attempted": 3, "failed": 0,
           "peak_rss_mb": 40.0, "layers": tracing.layer_metrics([]),
           "traced_pass_times": [0.7]}
    assert set(run.end_to_end(raw, 0.2)) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(run.per_layer(raw, 0.1)) == {m["name"] for m in SPEC["per_layer"]}


def test_throughput_leaves_out_the_pass_cut_short():
    raw = {"requests": 4, "attempted": 10, "failed": 0, "pass_times": [2.0, 2.0, 0.5]}
    assert run._throughput(raw) == pytest.approx(2.0)
    raw["failed"] = 5
    assert run._throughput(raw) == pytest.approx(1.0)


@pytest.mark.parametrize("argv", SMALL_REQUESTS, ids=lambda a: " ".join(a[:3]))
def test_checker_accepts_real_output(argv):
    assert checks.check(argv, _stdout(argv)) == []


def test_checker_flags_corrupted_table():
    argv = SMALL_REQUESTS[0]
    lines = _stdout(argv).splitlines()
    fields = lines[5].split(",")
    fields[3] = str(int(fields[3]) + 1)  # one numerator off by one
    lines[5] = ",".join(fields)
    problems = checks.check(argv, "\n".join(lines) + "\n")
    assert any("do not sum to 1" in p for p in problems)


def test_checker_flags_mass_off_the_residue_class():
    argv = ["coeff", "--model", "double-large", "--state", "5", "--steps", "14",
            "--source", "dp", "--format", "csv"]
    out = _stdout(argv)
    assert checks.check(argv, out) == []
    header, row = out.splitlines()
    forged = row.replace(",0,1,0,off-residue", ",1,3,0.333333333333,off-residue")
    assert forged != row
    assert checks.check(argv, f"{header}\n{forged}\n")


def test_checker_flags_failed_verification():
    argv = SMALL_REQUESTS[-1]
    out = _stdout(argv).replace("overall: PASS", "overall: FAIL")
    assert checks.check(argv, out)


def test_traced_and_untraced_outputs_agree():
    bench = worker.Run(SMALL_REQUESTS, None)
    bench.one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bench.one_pass(tracer)
    finally:
        tracer.uninstall()
    assert bench.attempted == 2 * len(SMALL_REQUESTS)
    assert bench.failed == 0, bench.problems
    layers = tracing.layer_metrics(tracer.spans)
    for name in ("models.dp_table.calls", "models.brute_force.paths", "closedforms.coeff.calls",
                 "exactmath.reversion.calls", "montecarlo.draws", "verification.checks",
                 "cli.decimal_string.calls"):
        assert layers[name] > 0, name


def _traced(requests):
    bench = worker.Run(requests, None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bench.one_pass(tracer)
    finally:
        tracer.uninstall()
    assert bench.failed == 0, bench.problems
    return tracer.spans


@pytest.mark.parametrize("which", ["t", "inv1mt", "u1", "f0", "g0"])
def test_series_requests_are_charged_to_the_series_layer(which):
    spans = _traced([["series", "--which", which, "--order", "20"]])
    assert tracing.layer_metrics(spans)["closedforms.series.self_s"] > 0
    # The whole expansion runs inside one series span, directly under the
    # request; only formatting follows it there.
    command = [i for i, span in enumerate(spans) if span[0] == "cli.command"]
    children = [span[0] for span in spans if span[3] in command]
    assert children[0] == "closedforms.series"
    assert set(children[1:]) <= {"cli.decimal_string", "cli.emit", "trace.counters"}


def test_simulate_records_its_array_bytes():
    argv = ["simulate", "--model", "double-large", "--steps", "6", "--trials", "4000",
            "--seed", "2", "--format", "csv"]
    layers = tracing.layer_metrics(_traced([argv]))
    assert layers["montecarlo.draws"] == 24000
    assert layers["montecarlo.array_bytes"] > 24000


def test_tracer_restores_the_originals():
    from knoedel import cli, closedforms, exactmath
    before = (dict(cli.SERIES_TOKENS), closedforms.f_state_coeff, exactmath.TruncatedSeries.__mul__)
    _traced([["series", "--which", "t", "--order", "5"]])
    assert before == (dict(cli.SERIES_TOKENS), closedforms.f_state_coeff,
                      exactmath.TruncatedSeries.__mul__)


@pytest.mark.parametrize("loop", [speed.EXACT, speed.ARRAYS], ids=["exact", "arrays"])
def test_times_scale_with_the_speed_of_the_machine(loop):
    nominal = loop.nominal_s
    assert loop.scaled(2.0, nominal, nominal) == 2.0
    # Twice as slow around the request: half the wall time at nominal speed.
    assert loop.scaled(2.0, 2 * nominal, 2 * nominal) == 1.0
    assert loop.time() > 0


def test_loops_during_a_request_outvote_the_two_around_it():
    nominal = speed.EXACT.nominal_s
    assert speed.EXACT.scaled(2.0, nominal, nominal, [2 * nominal] * 3) == pytest.approx(1.0)
    assert speed.EXACT.scaled(2.0, nominal, nominal, [2 * nominal]) == pytest.approx(2.0)


def test_sampler_times_the_loop_during_a_long_call_only():
    sampler = speed.Sampler(speed.EXACT)

    def spin(seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass
        return "done"

    result, wall, during = sampler.measure(spin, 5 * sampler.INTERVAL)
    assert result == "done"
    assert len(during) >= 3
    assert wall == pytest.approx(5 * sampler.INTERVAL, rel=0.1)
    assert sampler.measure(spin, sampler.INTERVAL / 10)[2] == []
    time.sleep(2 * sampler.INTERVAL)  # the timer is off again: no SIGALRM ends the test


def test_every_workload_has_a_loop():
    assert set(speed.WORKLOAD_LOOPS) == set(workloads.GENERATORS)


def test_self_time_excludes_children():
    spans = [("a", 0.0, 10.0, -1, "0:0", None), ("b", 1.0, 4.0, 0, "0:0", None),
             ("exactmath.binom_general", 2.0, 3.0, 1, "0:0", None)]
    layers = tracing.layer_metrics(spans)
    assert layers["exactmath.binom_general.self_s"] == 1.0
    assert layers["exactmath.binom_general.calls"] == 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
