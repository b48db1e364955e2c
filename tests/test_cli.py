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
from knoedel.exactmath import _WORD, lowest_terms, word_power
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


def csv_rule_output(header, rows):
    """The CSV that ``_emit``'s rule gives, written out on its own: a field
    is quoted, its quotes doubled, when it holds a comma, a quote or a
    newline, or when it is the empty only field of its line; every other
    field, a carriage return or NUL in it too, is its ``str`` as it is."""

    def field(value):
        text = str(value)
        if any(ch in text for ch in ',"\n') or (text == "" and len(header) == 1):
            return '"' + text.replace('"', '""') + '"'
        return text

    return "".join(",".join(map(field, line)) + "\n" for line in [header, *rows])


def csv_follows_the_rule():
    """Whether this Python's ``csv`` writes a carriage return and a NUL as
    they are, as ``_emit`` does.  3.11 and 3.12 do; 3.13 quotes a field that
    holds a carriage return, and 3.10 refuses a NUL without an escapechar."""
    out = io.StringIO()
    try:
        csv.writer(out, lineterminator="\n").writerow(["cr\r", "nul\x00"])
    except csv.Error:
        return False
    return out.getvalue() == "cr\r,nul\x00\n"


CSV_FOLLOWS_THE_RULE = csv_follows_the_rule()


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
# csv writes a row that is one empty field as "".
@example((("",), [("",)]))
@example((("x",), [("a",), ("",)]))
# A bool column, and an int column holding a bool: ``%d`` would print 1.
@example((("flag", "count"), [(True, 3), (False, True)]))
@example((("100%", "%d"), [("%s", "50%"), ("%%", "%")]))
# One value that needs quoting or escaping among plain ones, so only that
# column is converted value by value.
@example((("a", "b"), [("x", "1,2"), ("y", "3")]))
@example((("a", "b"), [("x", 'say "hi"'), ("y", "3")]))
@example((("a", "b"), [("x", "cr\r"), ("y", "3")]))
@example((("a", "b"), [("x", "\u00e9t\u00e9"), ("y", "3")]))
@example((("big", "small"), [(10**80, -(10**80)), (-(10**80), 10**80)]))
@example((("a", "b"), [("x", "nul\x00"), ("\r", "\x00")]))
# Each edge of ``_plain``'s JSON and CSV tests, next to a plain value in its column.
@example((("a", "b"), [("x", "\x7f"), ("y", "3")]))
@example((("a", "b"), [("x", "\x1f"), ("y", "3")]))
@example((("a", "b"), [("x", "~"), ("y", "3")]))
@example((("a", "b"), [("x", " "), ("y", "3")]))
@example((("a", "b"), [("x", "\\"), ("y", "3")]))
@example((("a", "b"), [("x", '"'), ("y", "3")]))
@example((("a", "b"), [("x", "\u00e9"), ("y", "3")]))
@example((("a", "b"), [("x", ""), ("y", "3")]))
def test_emit_matches_json_dumps_and_dict_writer(header_rows):
    """JSON is ``json.dumps``'s; CSV follows ``_emit``'s rule, and is what
    ``csv.DictWriter`` writes on a Python whose ``csv`` follows it too."""
    header, rows = header_rows
    dict_rows = [dict(zip(header, row)) for row in rows]
    assert emitted(rows, "json", header) == json.dumps(dict_rows, indent=2) + "\n"
    text = emitted(rows, "csv", header)
    assert text == csv_rule_output(header, rows)
    if CSV_FOLLOWS_THE_RULE:
        assert text == dict_writer_output(header, dict_rows)


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
# 5/6 and 1/2**31 reduce masses by ``exactmath.lowest_terms`` for a
# composite b and for b past one 30-bit digit.
@pytest.mark.parametrize("p", [None, "2/7", "5/6", "1/2147483648"])
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


def smallest_prime_factor(n):
    return next((q for q in range(2, 50000) if n % q == 0), n)


# Denominators of p for ``lowest_terms``: primes, composites, and the
# bases around one 30-bit digit and past it, where the word is b itself.
REDUCTION_BASES = [2, 3, 5, 7, 31, 2**31 - 1, 6, 10, 12, 30, 6**20,
                   2**30 - 1, 2**30, 2**31, 10**40]


@st.composite
def masses_over_powers(draw):
    """(b, e, m) with 1 <= m <= b**e, often m carrying a high power of b's
    smallest prime factor, which can outrun the word's."""
    b = draw(st.sampled_from(REDUCTION_BASES))
    e = draw(st.integers(min_value=0, max_value=60))
    m = draw(st.integers(min_value=1, max_value=b**e))
    boosted = m * smallest_prime_factor(b) ** draw(st.integers(min_value=0, max_value=200))
    return b, e, boosted if boosted <= b**e else m


@given(masses_over_powers())
# Each of these takes the full gcd: a composite b whose 2s outrun e, a
# valuation past the word's k = 18 for b = 3, and b past one digit.
@example((6, 2, 8))
@example((3, 40, 3**25))
@example((6**20, 3, 2**70))
@example((2**31, 5, 2**40))
@example((10**40, 2, 10**50))
# e = 0, at step 0 and at double-small's step 1: den and the word are 1.
@example((6, 0, 1))
def test_lowest_terms_matches_fraction(case):
    b, e, m = case
    den = b**e
    k = word_power(b)
    assert k >= 1 and (b**k < _WORD or k == 1) and b ** (k + 1) >= _WORD
    value = Fraction(m, den)
    assert lowest_terms(m, den, b ** min(e, k), b) == (value.numerator, value.denominator)


def test_table_reduces_by_the_denominator_power_not_the_step(capsys):
    """At double-small step 5 a mass sits over b**4, not b**5: 3168/10**4
    reduces to 198/625 (a word of b**5 would give 99/312)."""
    code, out, err = run_cli(capsys, "table", "--model", "double-small", "--steps", "5",
                             "--p", "9/10")
    assert code == 0 and err == ""
    assert "double-small,5,2,198,625,0.3168" in out.splitlines()


@given(
    st.integers(min_value=1, max_value=2**70),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=300),
)
# The edges of the band that builds both powers, with 2**(bits - 1) <=
# base < 2**bits: bits * power = 3 * digits is answered by the lower
# bit-length test, and one more is inside the band and can be True;
# (bits - 1) * power = 4 * digits is inside the band, and so is one less,
# which can be False; one more is answered by the upper test.
@example(7, 100, 100)
@example(10, 1, 1)
@example(8, 1, 1)
@example(16, 100, 100)
@example(2, 401, 100)
# Inside the band, just below and at 10**digits.
@example(10**50 - 1, 1, 50)
@example(10, 50, 50)
def test_too_long_answers_as_the_powers_do(base, power, digits):
    assert cli._too_long(base, power, digits) == (base**power >= 10**digits)


# Mid-size p: a power of ten, or a/b with a large prime b.
LARGE_PRIMES = [10**9 + 7, 2**61 - 1, 2**89 - 1]
MID_P = st.integers(5, 30).map(lambda k: f"1e-{k}") | st.sampled_from(LARGE_PRIMES).flatmap(
    lambda b: st.integers(1, b - 1).map(lambda a: f"{a}/{b}")
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([WalkModel.double_large, WalkModel.double_small]),
    MID_P | st.fractions(Fraction(1, 12), Fraction(11, 12), max_denominator=12).map(str),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=60),
    st.sampled_from(["csv", "json"]),
)
@example(WalkModel.double_large, "1/3", 200, 12, "json")
@example(WalkModel.double_small, "1e-30", 30, 60, "csv")
def test_table_text_bounds_what_table_prints(kind, p, steps, digits, fmt):
    walk = kind(Fraction(p))
    argv = ["table", "--model", walk.name, "--steps", str(steps), "--digits", str(digits),
            "--format", fmt, "--p", p]
    out = io.StringIO()
    with int_str_limit(4300), contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert len(out.getvalue()) <= cli._table_text(walk, steps, digits, fmt)


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


DL, DS =["--model", "double-large"], ["--model", "double-small"]
DP_COEFF = ["coeff", *DL, "--state", "0", "--source", "dp"]
CLOSED_FORM_COEFF = ["coeff", "--source", "closed-form"]


def past_budget(steps, budget=4300):
    """The line that refuses an exact value with more digits than the budget."""
    return (f"error: the exact value at {steps} steps has more than {budget} digits, "
            f"past the digit budget of {budget}\n")


# Each command meets a value of more than 4300 digits, Python's default
# int-to-string limit, and names the step it first meets it at.
UNPRINTABLE = [
    # The closed-form value's denominator 3^(3N-j) at 15000 steps.
    ([*CLOSED_FORM_COEFF, *DL, "--state", "0", "--steps", "15000"], 15000),
    # Denominators 10^6000 at step 3: p = 1/10^2000 over three draws.
    (["table", *DL, "--steps", "3", "--p", "1e-2000"], 3),
    # The same step refused before a DP over 100 steps of 2000-digit weights.
    (["table", *DL, "--steps", "100", "--p", "1e-2000"], 3),
    # Denominators 10^4500 at step 4; the first double-small step moves
    # 0 -> 1 on either colour, so it adds no factor.
    (["simulate", *DS, "--steps", "4", "--trials", "5", "--p", "1e-1500"], 4),
    # Refused before the simulation and the DP of 200 steps.
    (["simulate", *DS, "--steps", "200", "--trials", "10", "--p", "1e-2000"], 200),
]
LONG_P, LONG_STATE = "1/" + "0" * 4998, "x" * 5000

# Every refusal past argparse that is not at a cap constant: (argv,
# integer-to-string limit, the one line on stderr).
REFUSALS = [
    *[([*argv, "--format", fmt], 4300, past_budget(steps))
      for argv, steps in UNPRINTABLE for fmt in ("csv", "json")],
    # ``coeff --source dp`` meets the budget of ``table`` before its DP:
    # (10**8 - 1)**538 has 4304 digits, and 10**4299000 would take 2 s
    # to build.
    ([*DP_COEFF, "--steps", "538", "--p", "1/99999999"], 4300, past_budget(538)),
    ([*DP_COEFF, "--steps", "300", "--p", "1e-2000"], 4300, past_budget(300)),
    ([*DP_COEFF, "--steps", "1000", "--p", "1e-4299"], 4300, past_budget(1000)),
    # ``--p 1e-N`` gets the exit code of 1/10^N written out, which ``int``
    # refuses from N = 640 on at a limit of 640.
    (["table", *DS, "--steps", "1", "--p", "1e-640"], 640,
     "error: the exponent of --p must be below 640 in magnitude: 10**640 is past the digit "
     "budget of 640\n"),
    (["table", *DS, "--steps", "1", "--p", "1/1" + "0" * 640], 640,
     f"error: invalid probability {'1/1' + '0' * 37!r}...\n"),
    # ``--digits`` obeys the limit the num and den columns obey.
    (["coeff", *DL, "--state", "2", "--steps", "1", "--digits", "641"], 640,
     "error: digits must be at most the digit budget of 640\n"),
    (["series", "--which", "t", "--order", "2", "--digits", "0"], 4300,
     "error: digits must be at least 1\n"),
    ([*DP_COEFF, "--steps", "-1"], 4300, "error: steps must be non-negative\n"),
    (["coeff", *DL, "--state", "2", "--steps", "1", "--p", "1/2", "--source", "closed-form"],
     4300, "error: closed forms require the balanced probabilities (p=1/3 for double-large, "
     "p=2/3 for double-small)\n"),
    (["coeff", *DL, "--state", "sigma", "--steps", "1"], 4300,
     "error: invalid state 'sigma'\n"),
    (["table", *DL, "--steps", "2", "--p", "7/3"], 4300,
     "error: red probability must satisfy 0 < p < 1\n"),
    # A 5000-character argument is quoted by its first 40 characters.
    (["table", *DL, "--steps", "2", "--p", LONG_P], 4300,
     f"error: invalid probability {LONG_P[:40]!r}...\n"),
    (["coeff", *DL, "--steps", "2", "--state", LONG_STATE], 4300,
     f"error: invalid state {LONG_STATE[:40]!r}...\n"),
    (["simulate", *DL, "--steps", "2", "--trials", "0"], 4300,
     "error: trials must be positive\n"),
    (["verify", "--order", "5", "--max-steps", "9", "--trials", "0"], 4300,
     "error: trials must be positive\n"),
    (["series", "--which", "t", "--order", "0"], 4300,
     "error: order must be between 1 and 200\n"),
]


def past_cap(name, value, cap):
    return f"error: {name} {value} exceeds the safety cap {cap}\n"


PAST_DRAW_CAP = "error: trials times steps exceeds the safety cap of 100000000 draws\n"
# Seconds any argv may take, from ``test_any_argv_answers_or_refuses_in_one_line``.
ANY_ARGV_SECONDS = 10

# For each cap constant of ``cli``: (requests just inside it, refusals
# just outside it).  An inside request is (argv, stderr, seconds), "" on
# stderr for an answer; a refusal is (argv, the one line on stderr).
CAPS = {
    # ``table``, ``simulate --steps`` and ``verify --max-steps``.  The
    # largest table at the default p also stays under ``TABLE_TEXT_CAP``.
    "STEP_CAP": (
        [(["table", *DL, "--steps", "200", "--format", "json"], "", ANY_ARGV_SECONDS)],
        [(["table", *DL, "--steps", "201"], past_cap("steps", 201, 200)),
         (["simulate", "--trials", "10", *DL, "--steps", "201"], past_cap("steps", 201, 200)),
         (["verify", "--max-steps", "201", "--trials", "100"],
          past_cap("max-steps", 201, 200))],
    ),
    "DP_STEP_CAP": (
        [([*DP_COEFF, "--steps", "1000", "--p", "1/7"], "", ANY_ARGV_SECONDS)],
        [([*DP_COEFF, "--steps", "1001"], past_cap("steps", 1001, 1000))],
    ),
    # A closed-form value that carries mass is past the digit budget from
    # about 9020 steps on (for states up to 120 the last answered step is
    # 9020 for double-large and 9021 for double-small), so the inside
    # request, the slowest sum at the cap, is refused after its sum,
    # within 3 s.  Past the cap a state that can carry mass is refused
    # before any sum; at 300000 steps the sum would take 13 s.
    "CLOSED_FORM_STEP_CAP": (
        [([*CLOSED_FORM_COEFF, *DL, "--state", "9000", "--steps", "15000"],
          past_budget(15000), 3)],
        [([*CLOSED_FORM_COEFF, *DS, "--state", "0", "--steps", "300000"],
          past_cap("steps", 300000, 15000)),
         ([*CLOSED_FORM_COEFF, *DL, "--state", "0", "--steps", "15003"],
          past_cap("steps", 15003, 15000)),
         ([*CLOSED_FORM_COEFF, *DL, "--state", "beta", "--steps", "15001"],
          past_cap("steps", 15001, 15000)),
         ([*CLOSED_FORM_COEFF, *DS, "--state", "15001", "--steps", "15001"],
          past_cap("steps", 15001, 15000))],
    ),
    # ``series --order`` and ``verify --order``; verify's exit 0 means
    # every suite passed at both of its caps.
    "SERIES_ORDER_CAP": (
        [(["series", "--which", "g0", "--order", "200", "--format", "json"], "",
          ANY_ARGV_SECONDS),
         (["verify", "--order", "200", "--max-steps", "200", "--trials", "100"], "", 30)],
        [(["series", "--which", "t", "--order", "201"],
          "error: order must be between 1 and 200\n"),
         (["verify", "--order", "201", "--trials", "100"],
          "error: order must be between 2 and 200\n")],
    ),
    "TRIAL_DRAW_CAP": (
        [(["simulate", *DS, "--steps", "200", "--trials", "500000"], "", ANY_ARGV_SECONDS)],
        [(["simulate", *DS, "--steps", "200", "--trials", "500001"], PAST_DRAW_CAP),
         (["simulate", *DL, "--steps", "12", "--trials", "100000000000"], PAST_DRAW_CAP),
         (["verify", "--order", "5", "--max-steps", "9", "--trials", "100000000000"],
          PAST_DRAW_CAP)],
    ),
    # The largest tables at p = 1e-21 and 1e-60, and one step more; the
    # table of 200 steps at 1e-21 would print 58 MB.
    "TABLE_TEXT_CAP": (
        [(["table", *DL, "--p", "1e-21", "--steps", "83"], "", ANY_ARGV_SECONDS),
         (["table", *DL, "--p", "1e-60", "--steps", "58"], "", ANY_ARGV_SECONDS)],
        [(["table", *DL, "--p", f"1e-{k}", "--steps", str(n)],
          f"error: a table of {n} steps may print {size} characters, past the safety cap "
          "of 6000000\n")
         for k, n, size in ((21, 84, 6021116), (21, 200, 77427452), (60, 59, 6042794))],
    ),
}

# Requests answered at the edge of a refusal: (argv, integer-to-string
# limit, the start of stdout's last line, with its "\n" where it is all of it).
ANSWERS = [
    (["table", *DS, "--steps", "200"], 4300, "double-small,200,"),
    (["simulate", "--trials", "10", *DS, "--steps", "200"], 4300, "double-small,200,"),
    ([*DP_COEFF, "--steps", "1000"], 4300, "double-large,1000,0,dp,0,1,0,off-residue\n"),
    # The closed form's cap is not the DP's.
    ([*CLOSED_FORM_COEFF, *DL, "--state", "0", "--steps", "1001"], 4300,
     "double-large,1001,0,closed-form,"),
    # (10**8 - 1)**537 has 4296 digits.
    ([*DP_COEFF, "--steps", "537", "--p", "1/99999999"], 4300, "double-large,537,0,dp,"),
    (["table", *DS, "--steps", "1", "--p", "1e-639"], 640, "double-small,1,1,1,1,1\n"),
    (["table", *DS, "--steps", "1", "--p", "1/1" + "0" * 639], 640, "double-small,1,1,1,1,1\n"),
    (["coeff", *DL, "--state", "2", "--steps", "1", "--digits", "640"], 640,
     "double-large,1,2,dp,1,3,0." + "3" * 640 + ",\n"),
    (["table", *DL, "--p", "1e-21", "--steps", "83"], 4300, "double-large,83,"),
]


def argv_id(argv, limit=4300):
    """A short test id: argv without ``--model`` and the dashes, each word
    cut to 12 characters, and a limit other than 4300."""
    words = [arg.removeprefix("--").removeprefix("double-") for arg in argv if arg != "--model"]
    words = [word if len(word) <= 12 else word[:9] + "..." for word in words]
    return " ".join(words) + ("" if limit == 4300 else f" @{limit}")


CAP_REFUSALS = [(argv, 4300, line) for _, outside in CAPS.values() for argv, line in outside]


@pytest.mark.parametrize("argv, limit, line", REFUSALS + CAP_REFUSALS,
                         ids=[argv_id(argv, limit) for argv, limit, _ in REFUSALS + CAP_REFUSALS])
def test_refusal(capsys, monkeypatch, argv, limit, line):
    """Each refusal exits 2 within 1 s, with its one line on stderr and
    nothing on stdout, before any DP, simulation or suite runs, and
    whatever ``KNOEDEL_MAX_STEPS`` says: it once moved the step cap."""
    def reached(*args, **kwargs):
        raise AssertionError(f"{argv[0]} ran {args or kwargs}")

    for module, name in ((cli, "dp_numerators"), (cli, "dp_distribution"),
                         (cli.montecarlo, "simulate"), (cli.verification, "run_verification")):
        monkeypatch.setattr(module, name, reached)
    monkeypatch.setenv("KNOEDEL_MAX_STEPS", "1000")
    start = time.perf_counter()
    with int_str_limit(limit):
        code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", line)


@pytest.mark.parametrize("argv, limit, last", ANSWERS,
                         ids=[argv_id(argv, limit) for argv, limit, _ in ANSWERS])
def test_answer_at_a_refusal_edge(capsys, argv, limit, last):
    with int_str_limit(limit):
        code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.splitlines(keepends=True)[-1].startswith(last)


def test_every_cap_has_requests_on_both_sides():
    """A cap constant in ``cli`` lands with requests on each side of it,
    and each refusal past it names its value."""
    assert set(CAPS) == {name for name in vars(cli) if name.endswith("_CAP")}
    for name, (inside, outside) in CAPS.items():
        assert inside and outside, name
        assert all(str(getattr(cli, name)) in line for _, line in outside), name


# Peak resident memory any request just inside a cap may reach, in bytes.
MEMORY_BUDGET = 64 * 10**6

# Runs main on argv[1:] with stdout to the null device, and prints its
# exit code, its seconds and the process's peak RSS in KiB.  The peak is
# Linux's VmHWM, the child's own: ``ru_maxrss`` keeps the parent's peak
# across exec, so under pytest it reads pytest's.
BUDGET_CHILD = """\
import contextlib, os, sys, time
from knoedel.cli import main
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    start = time.perf_counter()
    code = main(sys.argv[1:])
    elapsed = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, elapsed, peak)
"""
INSIDE_CAPS = [row for inside, _ in CAPS.values() for row in inside]


@pytest.mark.parametrize("argv, line, seconds", INSIDE_CAPS,
                         ids=[argv_id(argv) for argv, _, _ in INSIDE_CAPS])
def test_time_and_memory_inside_a_cap(argv, line, seconds):
    """Each request just inside a cap, in a child process of its own,
    keeps its exit code, stderr and time bound, and peaks at no more
    than ``MEMORY_BUDGET``."""
    result = run_python("-c", BUDGET_CHILD, *argv, timeout=seconds + 30)
    assert result.returncode == 0, result.stderr
    code, elapsed, peak_kib = result.stdout.split()
    assert (int(code), result.stderr) == (2 if line else 0, line)
    assert float(elapsed) < seconds
    peak = int(peak_kib) * 1024
    assert peak <= MEMORY_BUDGET, f"peak RSS {peak / 10**6:.1f} MB"


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


# Inputs whose size checks all rest on Python's integer-to-string limit,
# and the line each is refused with.  When a limit of 0 switched the
# checks off, each of the first three ran past 20 s and the fourth wrote
# 100 MB.  When a limit of 100000 raised them, the fifth ran past 20 s
# and the last wrote 50 KB.
DIGITS_PAST_BUDGET = "error: digits must be at most the digit budget of 4300\n"
LIMIT_OFF_REFUSALS = {
    "table": (["table", *DL, "--steps", "200", "--p", "1e-3000"], past_budget(2)),
    "simulate": (["simulate", *DL, "--steps", "200", "--trials", "1", "--p", "1e-3000"],
                 past_budget(200)),
    "p-exponent": (["table", *DS, "--steps", "3", "--p", "1e-100000000"],
                   "error: the exponent of --p must be below 4300 in magnitude: 10**4300 "
                   "is past the digit budget of 4300\n"),
    "digits": (["series", "--which", "t", "--order", "2", "--digits", "100000000"],
               DIGITS_PAST_BUDGET),
    "table-mid-p": (["table", *DL, "--steps", "100", "--p", "1e-400"], past_budget(11)),
    "mid-digits": (["series", "--which", "t", "--order", "2", "--digits", "50000"],
                   DIGITS_PAST_BUDGET),
}


@pytest.mark.parametrize("setting", ["0", "100000"], ids=["off", "raised"])
@pytest.mark.parametrize("argv, line", LIMIT_OFF_REFUSALS.values(), ids=LIMIT_OFF_REFUSALS.keys())
def test_limit_switched_off_keeps_every_size_budget(monkeypatch, argv, line, setting):
    """With ``PYTHONINTMAXSTRDIGITS`` switched off (0) or raised past its
    default, the default limit of 4300 digits still holds."""
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", setting)
    start = time.perf_counter()
    result = run_python("-m", "knoedel", *argv, timeout=20)
    assert time.perf_counter() - start < 5
    assert (result.returncode, result.stdout, result.stderr) == (2, "", line)


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_series_tokens_print_their_recurrence_rows_at_the_order_cap(capsys, fmt):
    """At the order cap, every ``series`` token prints the bytes of rows
    built from its series function, all five stepped from one recurrence
    table, which tests/test_closedforms.py proves in t; f0 and g0 are also
    checked there against their expansions at t(x)."""
    order = cli.SERIES_ORDER_CAP
    for which, series in (("t", closedforms.t_series),
                          ("inv1mt", closedforms.inv_one_minus_t_series),
                          ("u1", closedforms.bad_factor_root_series),
                          ("f0", closedforms.f0_series), ("g0", closedforms.g0_series)):
        rows = [
            {"series": which, "k": k, "num": value.numerator, "den": value.denominator,
             "decimal": decimal_string(value, 12)}
            for k, value in enumerate(series(order).coeffs)
        ]
        code, out, err = run_cli(capsys, "series", "--which", which, "--order", str(order),
                                 "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            assert out == json.dumps(rows, indent=2) + "\n"
        else:
            assert out == dict_writer_output(cli.SERIES_HEADER, rows)


def test_a_series_request_forms_no_fraction(monkeypatch):
    """A ``series`` request calls its token's series function once and
    prints the integer pairs that series holds, forming no ``Fraction``."""
    calls, made = [], []
    token, new = cli.SERIES_TOKENS["g0"], Fraction.__new__

    def counted_token(order):
        calls.append(order)
        return token(order)

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setitem(cli.SERIES_TOKENS, "g0", counted_token)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["series", "--which", "g0", "--order", "200"]) == 0
    assert calls == [200] and made == []
    assert out.getvalue().count("\n") == 201
    # The count sees a Fraction formed while the wrapper is in place.
    assert Fraction(1, 3) and made == [(1, 3)]


def test_digits_flag(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--which", "t", "--order", "2", "--digits", "4"
    )
    assert out.splitlines()[2] == "t,1,4,27,0.1481"


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


class SimulationReached(Exception):
    """Raised by a stand-in for ``montecarlo.simulate``."""


def test_trials_cap_refuses_before_simulating(monkeypatch):
    """``_check_trials`` counts trials times steps, a step count of 0 as
    1; 10**6 trials by 100 steps reach the simulation.  The refusals of
    the command line are in ``CAPS``."""
    def simulate(config):
        raise SimulationReached(config.trials)

    monkeypatch.setattr(cli.montecarlo, "simulate", simulate)
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


def test_verify_detects_corrupted_formula(capsys, monkeypatch):
    """Negative control: a wrong closed form must fail verification."""
    monkeypatch.setattr(closedforms, "fbeta_coeff", lambda m: Fraction(1, 2))
    code, out, _ = run_cli(
        capsys, "verify", "--order", "5", "--max-steps", "9", "--trials", "2000"
    )
    assert code == 1
    assert "FAIL closed-form-grid" in out
    assert out.splitlines()[-1].startswith("overall: FAIL")


VERIFY_SMALL = ["verify", "--order", "5", "--max-steps", "9", "--trials", "2000"]


def verify_rows(out, fmt):
    if fmt == "json":
        return json.loads(out)
    return [
        {**row, "passed": row["passed"] == "True"}
        for row in csv.DictReader(io.StringIO(out))
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_prints_one_row_per_suite(capsys, fmt):
    """``--format text`` is the default output, and CSV or JSON give one
    row per suite: the suites of the text lines, whose checks add up to
    the overall count."""
    code, text, err = run_cli(capsys, *VERIFY_SMALL)
    assert code == 0 and err == ""
    assert run_cli(capsys, *VERIFY_SMALL, "--format", "text") == (0, text, "")
    code, out, err = run_cli(capsys, *VERIFY_SMALL, "--format", fmt)
    assert code == 0 and err == ""
    rows = verify_rows(out, fmt)
    assert [tuple(row) for row in rows] == [cli.VERIFY_HEADER] * 9
    assert [row["suite"] for row in rows] == [line.split()[1] for line in text.splitlines()[:-1]]
    total = re.fullmatch(r"overall: PASS \(9 suites, (\d+) checks\)", text.splitlines()[-1])
    assert sum(int(row["checks"]) for row in rows) == int(total.group(1))
    assert all(row["passed"] and int(row["failures"]) == 0 for row in rows)
    assert all(0 <= float(row["seconds"]) < 30 for row in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_rows_flag_a_failing_suite(capsys, monkeypatch, fmt):
    """A wrong closed form fails the suites the text output names, with
    exit 1 in every format."""
    monkeypatch.setattr(closedforms, "fbeta_coeff", lambda m: Fraction(1, 2))
    code, text, _ = run_cli(capsys, *VERIFY_SMALL)
    assert code == 1
    failed = [line.split()[1] for line in text.splitlines() if line.startswith("FAIL ")]
    assert "closed-form-grid" in failed
    code, out, _ = run_cli(capsys, *VERIFY_SMALL, "--format", fmt)
    assert code == 1
    rows = verify_rows(out, fmt)
    assert [row["suite"] for row in rows if not row["passed"]] == failed
    assert all((int(row["failures"]) > 0) != row["passed"] for row in rows)


def test_usage_errors_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--model", "wrong", "--steps", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# Values on both sides of every step cap, and --p spellings: mid-size,
# around the int-to-string limit and far past it, valid and not.
FUZZ_STEPS = st.sampled_from([-1, 0, 1, 2, 3, 200, 201, 1000, 1001, 15000, 15001])
FUZZ_P = st.fractions(Fraction(1, 60), Fraction(59, 60), max_denominator=60).map(str) | (
    st.sampled_from([f"1e-{k}" for k in (639, 640, 4299, 4300, 10**8, 10**30)]
                    + ["1/1" + "0" * 4300, "0", "1", "7/3", "-1/2", "1/0", "1e", "nan", "p"])
) | MID_P


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
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: red probability must satisfy 0 < p < 1\n"
    )


def test_table_process_does_not_import_numpy():
    """Only ``simulate`` (and ``verify``, through it) needs numpy, and the
    trials cap refuses before it is imported.  No command imports csv:
    ``_emit`` writes both formats itself."""
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
assert "csv" not in sys.modules, "csv was imported"
""")
    assert result.returncode == 0, result.stderr


def test_verify_imports_numpy_before_its_first_suite():
    """Every suite's seconds leave numpy's import out: in a fresh process
    numpy is already loaded when the first suite is called."""
    result = run_python("-c", """\
import sys
from knoedel import verification
seen = []
def first(max_steps):
    seen.append("numpy" in sys.modules)
    return verification.SuiteResult("first")
verification.normalization_and_support_suite = first
verification.run_verification(2, 1, 100, 1)
assert seen == [True], seen
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
