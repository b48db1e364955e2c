"""Tests for the command line interface, including exit codes."""

import ast
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knoedel
from knoedel import cli, closedforms, verification
from knoedel.cli import _emit, decimal_string, main
from knoedel.models import WalkModel, dp_numerators, dp_table, state_sort_key

REPO = Path(__file__).resolve().parent.parent
PYPROJECT = REPO / "pyproject.toml"
DEMOS = REPO / "demos"
README = REPO / "README.md"

# What an installer's console-script wrapper does: load the entry point
# named in argv[1:3], make argv look as if the script itself was run, and
# exit with whatever the target returns.
CONSOLE_SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1], sys.argv[2]
sys.argv[0:3] = [name]
entry = EntryPoint(name=name, value=value, group="console_scripts")
sys.exit(entry.load()())
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def int_str_limit(digits):
    """Python's integer-to-string limit set to ``digits`` inside the block."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def localcontext_decimal(value, digits):
    """Rounding as ``decimal_string`` did it before it cached its contexts."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def emitted(rows, fmt, header):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(rows, fmt, header)
    return out.getvalue()


def dict_writer_output(header, dict_rows):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(header), lineterminator="\n")
    writer.writeheader()
    writer.writerows(dict_rows)
    return out.getvalue()


def test_decimal_string_rounds_significant_digits():
    assert decimal_string(Fraction(16, 27), 12) == "0.592592592593"
    assert decimal_string(Fraction(1, 3), 4) == "0.3333"
    assert decimal_string(Fraction(0), 12) == "0"
    assert decimal_string(Fraction(2), 5) == "2"
    assert decimal_string(Fraction(1, 4), 12) == "0.25"
    assert decimal_string(Fraction(1, 10**30), 12) == "1E-30"
    assert decimal_string(Fraction(123456, 1), 3) == "1.23E+5"


@given(
    st.fractions(min_value=0, max_value=10**6) | st.fractions(),
    st.integers(min_value=1, max_value=60),
)
@example(Fraction(1, 4), 12)
@example(Fraction(1, 4), 1)
@example(Fraction(1, 10**30), 12)
@example(Fraction(3, 10**30), 40)
@example(Fraction(0), 1)
@example(Fraction(123456789, 1000), 3)
def test_decimal_string_matches_a_local_context(value, digits):
    assert decimal_string(value, digits) == localcontext_decimal(value, digits)


# Field text that CSV quoting, JSON escaping or %-formatting could trip on.
awkward_text = st.text(alphabet=st.sampled_from('a,"\\\n\r%s{}: \u00e9\u20ac\U0001f600\t')) | st.text()
field_values = awkward_text | st.integers() | st.integers(-10**80, 10**80) | st.booleans()


@st.composite
def headers_and_rows(draw):
    """Every command prints at least one row under at least one column."""
    header = tuple(draw(st.lists(awkward_text, min_size=1, max_size=6, unique=True)))
    width = st.tuples(*[field_values] * len(header))
    return header, draw(st.lists(width, min_size=1, max_size=5))


@given(headers_and_rows())
@example((("%s", "%%", "\u00e9"), [("%d", 10**70, True), ("", -3, False)]))
def test_emit_matches_json_dumps_and_dict_writer(header_rows):
    header, rows = header_rows
    dict_rows = [dict(zip(header, row)) for row in rows]
    assert emitted(rows, "json", header) == json.dumps(dict_rows, indent=2) + "\n"
    assert emitted(rows, "csv", header) == dict_writer_output(header, dict_rows)


def old_table_output(model, steps, digits, fmt):
    """``table`` stdout as dict rows through ``json.dumps``/``DictWriter``."""
    rows = [
        {
            "model": model.name,
            "step": dist.step,
            "state": str(state),
            "num": dist.prob(state).numerator,
            "den": dist.prob(state).denominator,
            "decimal": localcontext_decimal(dist.prob(state), digits),
        }
        for dist in dp_table(model, steps)
        for state in dist.support()
    ]
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    return dict_writer_output(list(rows[0]), rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("digits", [3, 40])
@pytest.mark.parametrize("p", [None, "2/7"])
@pytest.mark.parametrize("model", ["double-large", "double-small"])
def test_table_output_matches_dict_rows(capsys, model, p, digits, fmt):
    walk = (WalkModel.double_large if model == "double-large" else WalkModel.double_small)(
        None if p is None else Fraction(p)
    )
    argv = ["table", "--model", model, "--steps", "40", "--digits", str(digits), "--format", fmt]
    code, out, err = run_cli(capsys, *argv, *([] if p is None else ["--p", p]))
    assert code == 0 and err == ""
    assert out == old_table_output(walk, 40, digits, fmt)


@st.composite
def walks(draw):
    """Either walk with p = a/b for some b <= 12."""
    b = draw(st.integers(min_value=2, max_value=12))
    p = Fraction(draw(st.integers(min_value=1, max_value=b - 1)), b)
    kind = draw(st.sampled_from([WalkModel.double_large, WalkModel.double_small]))
    return kind(p)


@settings(max_examples=60, deadline=None)
@given(
    walks(),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=50),
    st.sampled_from(["csv", "json"]),
)
@example(WalkModel.double_small(Fraction(1, 2)), 0, 1, "json")
@example(WalkModel.double_large(Fraction(11, 12)), 60, 50, "csv")
def test_table_matches_the_fraction_route(walk, steps, digits, fmt):
    """``table`` prints the bytes of the route through ``dp_table``,
    ``support()`` and one rounded ``Fraction`` per mass."""
    argv = ["table", "--model", walk.name, "--steps", str(steps), "--digits", str(digits),
            "--format", fmt, "--p", str(walk.p)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == old_table_output(walk, steps, digits, fmt)
    for _, _, row in dp_numerators(walk, 0, steps):
        states = [state for state, _ in row]
        assert states == sorted(states, key=state_sort_key)


def test_table_csv_output(capsys):
    code, out, err = run_cli(
        capsys, "table", "--model", "double-large", "--steps", "2"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "model,step,state,num,den,decimal",
        "double-large,0,0,1,1,1",
        "double-large,1,2,1,3,0.333333333333",
        "double-large,1,beta,2,3,0.666666666667",
        "double-large,2,1,8,9,0.888888888889",
        "double-large,2,4,1,9,0.111111111111",
    ]


def test_table_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--model", "double-small", "--steps", "3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {
        "model": "double-small",
        "step": 0,
        "state": "0",
        "num": 1,
        "den": 1,
        "decimal": "1",
    }
    final = [r for r in rows if r["step"] == 3]
    assert [(r["state"], r["num"], r["den"]) for r in final] == [("0", 5, 9), ("3", 4, 9)]


def test_table_respects_step_cap(capsys):
    """``table`` and ``simulate --steps`` share the cap of 200."""
    for command in (["table"], ["simulate", "--trials", "10"]):
        code, out, err = run_cli(capsys, *command, "--model", "double-large", "--steps", "201")
        assert code == 2 and out == ""
        assert err == "error: steps 201 exceeds the safety cap 200\n"
        code, out, err = run_cli(capsys, *command, "--model", "double-small", "--steps", "200")
        assert code == 0 and err == ""
        assert out.splitlines()[-1].startswith("double-small,200,")


def test_step_cap_ignores_the_environment(capsys, monkeypatch):
    """``KNOEDEL_MAX_STEPS``, which once moved the cap, no longer does."""
    monkeypatch.setenv("KNOEDEL_MAX_STEPS", "1000")
    code, out, err = run_cli(capsys, "table", "--model", "double-large", "--steps", "201")
    assert code == 2 and out == ""
    assert err == "error: steps 201 exceeds the safety cap 200\n"


DP_COEFF = ["coeff", "--model", "double-large", "--state", "0", "--source", "dp"]


def test_coeff_dp_respects_its_own_step_cap(capsys):
    """``coeff --source dp`` is capped at 1000 steps, not at the 200 of
    ``table``, and the closed form's own cap is higher."""
    code, out, err = run_cli(capsys, *DP_COEFF, "--steps", "1001")
    assert code == 2 and out == ""
    assert err == "error: steps 1001 exceeds the safety cap 1000\n"
    code, out, err = run_cli(capsys, *DP_COEFF, "--steps", "1000")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "double-large,1000,0,dp,0,1,0,off-residue"
    code, out, _ = run_cli(capsys, *DP_COEFF[:-1], "closed-form", "--steps", "1001")
    assert code == 0 and out.splitlines()[1].startswith("double-large,1001,0,closed-form,")
    code, _, err = run_cli(capsys, *DP_COEFF, "--steps", "-1")
    assert code == 2 and err == "error: steps must be non-negative\n"


CLOSED_FORM_COEFF = ["coeff", "--source", "closed-form"]


@pytest.mark.parametrize("model, state, steps", [
    ("double-small", "0", 300000),
    ("double-large", "0", 15003),
    ("double-large", "beta", 15001),
    ("double-small", "15001", 15001),
])
def test_coeff_closed_form_refuses_past_its_step_cap(capsys, model, state, steps):
    """A state that can carry mass past 15000 steps is refused before any
    sum; at 300000 steps the sum would take 13 s to reach a value too long
    to print."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *CLOSED_FORM_COEFF, "--model", model, "--state", state,
                             "--steps", str(steps))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: steps {steps} exceeds the safety cap 15000\n"


@pytest.mark.parametrize("model, state, steps, note", [
    ("double-large", "1", 300000, "off-residue"),
    ("double-large", "beta", 300000, "off-residue"),
    # On the residue class, beyond the frontier of 600000 and 300000.
    ("double-large", "900000", 300000, ""),
    ("double-small", "300003", 300000, ""),
])
def test_coeff_closed_form_answers_zeros_past_its_step_cap(capsys, model, state, steps, note):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *CLOSED_FORM_COEFF, "--model", model, "--state", state,
                             "--steps", str(steps))
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert out.splitlines()[1] == f"{model},{steps},{state},closed-form,0,1,0,{note}"


def test_coeff_dp_refuses_huge_denominators_before_the_dp(capsys, monkeypatch):
    """The DP's largest denominator b**denominator_power may have at most
    4300 digits, the budget and message of ``table`` and ``simulate``:
    (10**8 - 1)**537 has 4296 digits and (10**8 - 1)**538 has 4304, and
    10**600000 and 10**4299000 are refused without being built (the
    second takes about 2 s to build)."""
    with int_str_limit(4300):
        code, out, err = run_cli(capsys, *DP_COEFF, "--steps", "537", "--p", "1/99999999")
        assert code == 0 and err == ""
        assert out.splitlines()[1].startswith("double-large,537,0,dp,")
        def dp_distribution(model, steps):
            raise AssertionError(f"the DP ran to {steps} steps")

        monkeypatch.setattr(cli, "dp_distribution", dp_distribution)
        for steps, p in (("538", "1/99999999"), ("300", "1e-2000"), ("1000", "1e-4299")):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *DP_COEFF, "--steps", steps, "--p", p)
            assert time.perf_counter() - start < 1
            assert code == 2 and out == ""
            assert err == (f"error: the exact value at {steps} steps has more than 4300 digits, "
                           "past Python's limit for integer-to-string conversion\n")


def test_coeff_closed_form_beta(capsys):
    code, out, _ = run_cli(
        capsys,
        "coeff",
        "--model",
        "double-small",
        "--state",
        "beta",
        "--steps",
        "5",
        "--source",
        "closed-form",
    )
    assert code == 0
    assert out.splitlines()[1] == "double-small,5,beta,closed-form,19,81,0.234567901235,"


def test_coeff_defaults_to_dp(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--model", "double-large", "--state", "0", "--steps", "1"
    )
    assert code == 0
    assert out.splitlines()[1] == "double-large,1,0,dp,0,1,0,off-residue"


def test_coeff_dp_accepts_general_probability(capsys):
    code, out, _ = run_cli(
        capsys,
        "coeff", "--model", "double-large", "--state", "2", "--steps", "1",
        "--p", "1/2",
    )
    assert code == 0
    assert out.splitlines()[1] == "double-large,1,2,dp,1,2,0.5,"


def test_coeff_closed_form_rejects_general_probability(capsys):
    code, _, err = run_cli(
        capsys,
        "coeff", "--model", "double-large", "--state", "2", "--steps", "1",
        "--p", "1/2", "--source", "closed-form",
    )
    assert code == 2
    assert "balanced" in err


def test_coeff_rejects_bad_state(capsys):
    code, _, err = run_cli(
        capsys, "coeff", "--model", "double-large", "--state", "sigma", "--steps", "1"
    )
    assert code == 2
    assert "invalid state" in err


# Each command meets a value of more than 4300 digits, Python's default
# int-to-string limit, and names the step it first meets it at.
UNPRINTABLE = [
    # The closed-form value's denominator 3^(3N-j) at 15000 steps.
    (["coeff", "--model", "double-large", "--state", "0", "--steps", "15000",
      "--source", "closed-form"], 15000),
    # Denominators 10^6000 at step 3: p = 1/10^2000 over three draws.
    (["table", "--model", "double-large", "--steps", "3", "--p", "1e-2000"], 3),
    # The same step refused before a DP over 100 steps of 2000-digit weights.
    (["table", "--model", "double-large", "--steps", "100", "--p", "1e-2000"], 3),
    # Denominators 10^4500 at step 4; the first double-small step moves
    # 0 -> 1 on either colour, so it adds no factor.
    (["simulate", "--model", "double-small", "--steps", "4", "--trials", "5",
      "--p", "1e-1500"], 4),
    # Refused before the simulation and the DP of 200 steps.
    (["simulate", "--model", "double-small", "--steps", "200", "--trials", "10",
      "--p", "1e-2000"], 200),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_coeff_past_the_int_string_limit_is_usage_error(capsys, fmt):
    runs = []
    with int_str_limit(4300):
        for command, _ in UNPRINTABLE:
            start = time.perf_counter()
            runs.append(run_cli(capsys, *command, "--format", fmt))
            runs[-1] += (time.perf_counter() - start,)
    for (command, step), (code, out, err, elapsed) in zip(UNPRINTABLE, runs):
        assert code == 2, command[0]
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "4300 digits" in err
        assert f" at {step} steps " in err
        assert elapsed < 3, f"{' '.join(command)} took {elapsed:.1f} s"


@pytest.mark.parametrize(
    "p",
    ["1e-100", f"2/{7**60}", f"{7**60 - 1}/{7**60}", f"3/{2**500}"],
    ids=["1e-100", "2/7^60", "(7^60-1)/7^60", "3/2^500"],
)
@pytest.mark.parametrize("model", ["double-large", "double-small"])
def test_table_refuses_the_step_a_row_scan_would(capsys, model, p):
    """At the lowest int-to-string limit, 640 digits, ``table`` names the
    first step whose masses a scan of the whole DP finds past the limit."""
    walk = (WalkModel.double_large if model == "double-large" else WalkModel.double_small)(
        Fraction(p)
    )
    steps = 40
    with int_str_limit(640):
        code, out, err = run_cli(capsys, "table", "--model", model, "--steps", str(steps), "--p", p)
    scan = next(
        dist.step for dist in dp_table(walk, steps)
        if any(mass.denominator >= 10**640 for mass in dist.probabilities.values())
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: the exact value at {scan} steps ")


@pytest.mark.parametrize("n, want", [(639, 0), (640, 2)])
def test_p_exponent_meets_the_limit_of_the_written_out_number(capsys, n, want):
    """At the int-to-string limit of 640 digits, ``--p 1e-N`` gets the exit
    code of ``--p 1/10^N`` written out in digits, which ``int`` refuses
    from N = 640 on."""
    spellings = [f"1e-{n}", "1/1" + "0" * n]
    with int_str_limit(640):
        runs = [
            run_cli(capsys, "table", "--model", "double-small", "--steps", "1", "--p", p)
            for p in spellings
        ]
    for p, (code, out, err) in zip(spellings, runs):
        assert code == want, p[:10]
        if want:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_p_with_a_huge_exponent_exits_at_once():
    """``Fraction("1e-100000000")`` would build 10**100000000 first."""
    result = run_python("-c", """\
import sys, time
from knoedel.cli import main
sys.set_int_max_str_digits(4300)
start = time.perf_counter()
code = main(["table", "--model", "double-small", "--steps", "1", "--p", "1e-100000000"])
print(code, time.perf_counter() - start)
""", timeout=20)
    code, elapsed = result.stdout.split()
    assert code == "2", result.stderr
    assert float(elapsed) < 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


# Inputs whose size checks all rest on Python's integer-to-string limit.
# When a limit of 0 switched the checks off, each of the first three ran
# past 20 s and the fourth wrote 100 MB.  When a limit of 100000 raised
# them, the fifth ran past 20 s and the last wrote 50 KB.
LIMIT_OFF_REFUSALS = {
    "table": ["table", "--model", "double-large", "--steps", "200", "--p", "1e-3000"],
    "simulate": ["simulate", "--model", "double-large", "--steps", "200", "--trials", "1",
                 "--p", "1e-3000"],
    "p-exponent": ["table", "--model", "double-small", "--steps", "3", "--p", "1e-100000000"],
    "digits": ["series", "--which", "t", "--order", "2", "--digits", "100000000"],
    "table-mid-p": ["table", "--model", "double-large", "--steps", "100", "--p", "1e-400"],
    "mid-digits": ["series", "--which", "t", "--order", "2", "--digits", "50000"],
}


@pytest.mark.parametrize("setting", ["0", "100000"], ids=["off", "raised"])
@pytest.mark.parametrize("argv", LIMIT_OFF_REFUSALS.values(), ids=LIMIT_OFF_REFUSALS.keys())
def test_limit_switched_off_keeps_every_size_budget(monkeypatch, argv, setting):
    """With ``PYTHONINTMAXSTRDIGITS`` switched off (0) or raised past its
    default, the default limit of 4300 digits still holds."""
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", setting)
    start = time.perf_counter()
    result = run_python("-m", "knoedel", *argv, timeout=20)
    assert time.perf_counter() - start < 5
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "4300" in result.stderr


def test_series_tokens(capsys):
    code, out, _ = run_cli(capsys, "series", "--which", "inv1mt", "--order", "2")
    assert code == 0
    assert out.splitlines()[1:] == [
        "inv1mt,0,1,1,1",
        "inv1mt,1,4,27,0.148148148148",
    ]
    code, out, _ = run_cli(capsys, "series", "--which", "u1", "--order", "1")
    assert out.splitlines()[1] == "u1,0,2,3,0.666666666667"
    code, out, _ = run_cli(capsys, "series", "--which", "t", "--order", "3")
    assert out.splitlines()[3] == "t,2,32,729,0.0438957475995"
    code, out, _ = run_cli(capsys, "series", "--which", "f0", "--order", "2")
    assert out.splitlines()[2] == "f0,1,16,27,0.592592592593"
    code, out, _ = run_cli(capsys, "series", "--which", "g0", "--order", "2")
    assert out.splitlines()[2] == "g0,1,5,9,0.555555555556"


def test_series_order_bounds(capsys):
    code, _, err = run_cli(capsys, "series", "--which", "t", "--order", "0")
    assert code == 2 and "order" in err
    code, _, err = run_cli(capsys, "series", "--which", "t", "--order", "201")
    assert code == 2 and "order" in err


def test_digits_flag(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--which", "t", "--order", "2", "--digits", "4"
    )
    assert out.splitlines()[2] == "t,1,4,27,0.1481"
    code, out, err = run_cli(
        capsys, "series", "--which", "t", "--order", "2", "--digits", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "digits" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("digits", [640, 641])
def test_digits_up_to_the_int_string_limit(capsys, digits):
    """``--digits`` obeys the limit the num and den columns obey."""
    argv = ["coeff", "--model", "double-large", "--state", "2", "--steps", "1"]
    with int_str_limit(640):
        code, out, err = run_cli(capsys, *argv, "--digits", str(digits))
    if digits == 640:
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "double-large,1,2,dp,1,3,0." + "3" * 640 + ","
    else:
        assert code == 2 and out == ""
        assert err == (
            "error: digits must be at most 640, "
            "Python's limit for integer-to-string conversion\n"
        )


def test_simulate_output_and_determinism(capsys):
    argv = [
        "simulate", "--model", "double-large", "--steps", "4",
        "--trials", "20000", "--seed", "7",
    ]
    code, first, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    header = first.splitlines()[0]
    assert header == (
        "model,steps,trials,seed,state,count,frequency,num,den,"
        "exact_decimal,deviation,four_sigma_bound,within"
    )
    assert all(line.endswith(",True") for line in first.splitlines()[1:])
    code, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_simulate_requires_positive_trials(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--model", "double-large", "--steps", "2", "--trials", "0"
    )
    assert code == 2
    assert "trials" in err


class SimulationReached(Exception):
    """Raised by a stand-in for ``montecarlo.simulate``."""


def test_trials_cap_refuses_before_simulating(capsys, monkeypatch):
    """Over-cap trial counts, and a non-positive one on ``verify``, exit 2
    with one line and never reach the simulation; 10**6 trials by 100
    steps does."""
    def simulate(config):
        raise SimulationReached(config.trials)

    monkeypatch.setattr(cli.montecarlo, "simulate", simulate)
    for argv in (
        ["simulate", "--model", "double-large", "--steps", "12", "--trials", "100000000000"],
        ["verify", "--order", "5", "--max-steps", "9", "--trials", "100000000000"],
        ["verify", "--order", "5", "--max-steps", "9", "--trials", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "trials" in err and "Traceback" not in err
    argv = ["simulate", "--model", "double-small", "--steps", "100", "--trials", "1000000"]
    with pytest.raises(SimulationReached):
        main(argv)
    for trials, steps in ((10**8, 0), (10**8, 1), (10**6, 100), (20000, 6)):
        cli._check_trials(trials, steps)
    for trials, steps in ((10**8 + 1, 0), (10**6 + 1, 100)):
        with pytest.raises(cli.UsageError, match="safety cap"):
            cli._check_trials(trials, steps)


def test_verify_passes_at_reduced_sizes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--order", "5", "--max-steps", "9", "--trials", "2000"
    )
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("PASS", "overall")) for line in lines)
    assert lines[-1].startswith("overall: PASS")


def test_verify_respects_step_and_order_caps(capsys):
    for flag in ("--max-steps", "--order"):
        code, out, err = run_cli(capsys, "verify", flag, "201", "--trials", "100")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verify_at_both_caps_finishes_within_budget(capsys):
    """The largest sizes verify accepts still answer in bounded time."""
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "verify", "--order", "200", "--max-steps", "200", "--trials", "100"
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.splitlines()[-1].startswith("overall: PASS")
    assert elapsed < 30, f"verify at both caps took {elapsed:.1f} s"


def test_verify_detects_corrupted_formula(capsys, monkeypatch):
    """Negative control: a wrong closed form must fail verification."""
    monkeypatch.setattr(closedforms, "fbeta_coeff", lambda m: Fraction(1, 2))
    code, out, _ = run_cli(
        capsys, "verify", "--order", "5", "--max-steps", "9", "--trials", "2000"
    )
    assert code == 1
    assert "FAIL closed-form-grid" in out
    assert out.splitlines()[-1].startswith("overall: FAIL")


def test_usage_errors_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--model", "wrong", "--steps", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_invalid_probability_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "table", "--model", "double-large", "--steps", "2", "--p", "7/3"
    )
    assert code == 2
    assert "probability" in err


def test_error_lines_quote_a_short_prefix(capsys):
    """A 5000-character argument is echoed as its first 40 characters."""
    text = "1/" + "0" * 4998
    code, out, err = run_cli(capsys, "table", "--model", "double-large", "--steps", "2",
                             "--p", text)
    assert code == 2 and out == ""
    assert err == f"error: invalid probability {text[:40]!r}...\n"
    code, out, err = run_cli(capsys, "coeff", "--model", "double-large", "--steps", "2",
                             "--state", "x" * 5000)
    assert code == 2 and out == ""
    assert err == f"error: invalid state {'x' * 40!r}...\n"


# Values on both sides of every step cap, and --p spellings around the
# int-to-string limit and far past it, valid and not.
FUZZ_STEPS = st.sampled_from([-1, 0, 1, 2, 3, 200, 201, 1000, 1001, 15000, 15001])
FUZZ_P = st.fractions(Fraction(1, 60), Fraction(59, 60), max_denominator=60).map(str) | (
    st.sampled_from([f"1e-{k}" for k in (639, 640, 4299, 4300, 10**8, 10**30)]
                    + ["1/1" + "0" * 4300, "0", "1", "7/3", "-1/2", "1/0", "1e", "nan", "p"])
)


def fuzz_trials(steps):
    """Small trial counts, and counts just past ``TRIAL_DRAW_CAP`` draws at
    ``steps`` steps or far past it: none that would really simulate long."""
    return (
        st.sampled_from([-1, 0, 1, 2, 50])
        | st.integers(1, 3).map(lambda k: cli.TRIAL_DRAW_CAP // max(steps, 1) + k)
        | st.integers(10**9, 10**30)
    )


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["table", "coeff", "simulate", "series", "verify"]))
    argv = [command]

    def option(flag, values, required=False):
        if required or draw(st.booleans()):
            value = draw(values)
            argv.extend([flag, str(value)])
            return value

    if command == "verify":
        option("--order", st.sampled_from([1, 2, 3, 200, 201]))
        option("--max-steps", FUZZ_STEPS)
        option("--trials", fuzz_trials(verification.SIMULATION_STEPS), required=True)
        option("--seed", st.integers(-1, 2**64))
        return argv
    if command == "series":
        option("--which", st.sampled_from([*cli.SERIES_TOKENS, "u2"]), required=True)
        option("--order", st.sampled_from([0, 1, 2, 200, 201]), required=True)
    else:
        option("--model", st.sampled_from(["double-large", "double-small"]), required=True)
        option("--p", FUZZ_P)
        steps = option("--steps", FUZZ_STEPS, required=True)
    if command == "coeff":
        option("--state", st.sampled_from(["0", "1", "2", "3", "beta", "15001", "x"]),
               required=True)
        option("--source", st.sampled_from(["dp", "closed-form"]))
    if command == "simulate":
        option("--trials", fuzz_trials(steps), required=True)
        option("--seed", st.integers(-1, 2**64))
    option("--format", st.sampled_from(["csv", "json"]))
    option("--digits", st.sampled_from([-1, 0, 1, 12, 4300, 4301]))
    return argv


@settings(max_examples=100, deadline=None)
@given(fuzz_argv(), st.sampled_from([4300, 0, 10**5]))
def test_any_argv_answers_or_refuses_in_one_line(argv, limit):
    """Every run exits 0, 1 or 2 within a few seconds, without a
    traceback, at the default integer-to-string limit and with the limit
    switched off or raised; 1 comes only from ``verify``, and a refusal past
    argparse is one ``error:`` line on stderr and nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with int_str_limit(limit), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    elapsed = time.perf_counter() - start
    assert "Traceback" not in err.getvalue()
    assert elapsed < 10, f"{elapsed:.1f} s"
    if code == ("argparse", 2):
        return
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


# In-process calls of every kind of outcome: CSV and JSON tables, a DP
# and a closed-form coefficient, a series, and argparse refusing a walk.
MAIN_CALLS = [
    ["table", "--model", "double-large", "--steps", "6"],
    ["coeff", "--model", "double-small", "--state", "beta", "--steps", "5", "--source", "dp"],
    ["coeff", "--model", "double-small", "--state", "beta", "--steps", "5",
     "--source", "closed-form", "--format", "json"],
    ["series", "--which", "t", "--order", "4"],
    ["table", "--model", "wrong", "--steps", "2"],
    ["table", "--model", "double-small", "--steps", "5", "--format", "json"],
]


def test_parser_built_once_answers_like_fresh_ones(capsys):
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    fresh = []
    for argv in MAIN_CALLS:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    cli._parser.cache_clear()
    reused = [outcome(argv) for argv in MAIN_CALLS]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0]
    assert "invalid choice: 'wrong'" in reused[4][2]


def console_scripts():
    """The ``[project.scripts]`` table of the repository's ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def run_python(*args, timeout=60):
    """Run a child interpreter that imports the same ``knoedel`` as this test."""
    package_root = str(Path(knoedel.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_console_script_entry_point():
    scripts = console_scripts()
    assert scripts == {"knoedel": "knoedel.cli:main"}
    [(name, value)] = scripts.items()

    result = run_python(
        "-c", CONSOLE_SCRIPT_WRAPPER, name, value,
        "coeff", "--model", "double-large", "--state", "0",
        "--steps", "3", "--source", "closed-form",
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == (
        "double-large,3,0,closed-form,16,27,0.592592592593,"
    )

    result = run_python(
        "-c", CONSOLE_SCRIPT_WRAPPER, name, value,
        "table", "--model", "double-large", "--steps", "2", "--p", "7/3",
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")
    assert "probability" in result.stderr


def test_table_process_does_not_import_numpy():
    """Only ``simulate`` (and ``verify``, through it) needs numpy, and the
    trials cap refuses before it is imported."""
    result = run_python("-c", """\
import contextlib, io, sys
import knoedel.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = knoedel.cli.main(["table", "--model", "double-large", "--steps", "3"])
assert code == 0, code
def simulate(config):
    raise AssertionError("simulate was called")
knoedel.cli.montecarlo.simulate = simulate
for argv in (["simulate", "--model", "double-large", "--steps", "2"], ["verify"]):
    with contextlib.redirect_stderr(io.StringIO()):
        assert knoedel.cli.main([*argv, "--trials", "100000000000"]) == 2
assert "numpy" not in sys.modules, "numpy was imported"
""")
    assert result.returncode == 0, result.stderr


def test_module_invocation():
    for module in ("knoedel.cli", "knoedel"):
        result = run_python("-m", module, "series", "--which", "t", "--order", "2")
        assert result.returncode == 0
        assert result.stdout.splitlines()[2] == "t,1,4,27,0.148148148148"


def test_readme_library_example_runs_clean():
    readme = README.read_text()
    section = readme[readme.index("## Library example"):]
    code = section[section.index("```python\n") + len("```python\n"):]
    result = run_python("-c", code[:code.index("```")])
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_every_exported_name_has_a_user():
    """Each name in ``knoedel.__all__`` is imported by a demo or named in
    the README, so the top level exports nothing unused."""
    imported = set()
    for demo in DEMOS.glob("*.py"):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "knoedel":
                imported.update(alias.name for alias in node.names)
    named = set(re.findall(r"\w+", README.read_text()))
    assert [name for name in knoedel.__all__ if name not in imported | named] == []
