"""Output checks for one CLI request.

``check(argv, stdout)`` returns a list of problems, empty when the output
is right.  The checks use only invariants the benchmark can compute on
its own, never the program's code:

* ``table``: every step 0..steps is present, sums to exactly 1 from
  ``num``/``den`` and stays inside its mod-3 residue class and frontier;
* ``coeff``: the value lies in [0, 1], is 0 off the residue class and
  beyond the frontier, and ``note`` flags exactly the off-residue rows;
* ``series``: one row per coefficient, the known leading terms, and
  positive coefficients (probabilities for ``f0``/``g0``);
* ``simulate``: counts sum to the trials, exact masses sum to 1, and no
  trial lands on a state the exact distribution rules out;
* ``verify``: nine PASS lines and ``overall: PASS``.

Every rounded ``decimal`` column must agree with its ``num``/``den``
to the requested significant digits.
"""

from __future__ import annotations

import csv
import io
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

from workloads import frontier, residue

SUITES = 9
LEADING = {
    "t": (Fraction(0), Fraction(4, 27)),
    "inv1mt": (Fraction(1), Fraction(4, 27)),
    "u1": (Fraction(2, 3), Fraction(8, 81)),
    "f0": (Fraction(1),),
    "g0": (Fraction(1),),
}


def options(argv: list[str]) -> dict[str, str]:
    """``--flag value`` pairs of a generated request, with defaults filled in."""
    opts = {"format": "csv", "digits": "12"}
    opts.update(zip((a[2:] for a in argv[1::2]), argv[2::2]))
    return opts


def _rows(stdout: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(stdout)
    return list(csv.DictReader(io.StringIO(stdout)))


def _decimal_ok(text: str, num: int, den: int, digits: int) -> bool:
    if num == 0:
        return Decimal(text) == 0
    with localcontext() as ctx:
        ctx.prec = digits + 5
        exact = Decimal(num) / Decimal(den)
        return abs(Decimal(text) - exact) <= abs(exact) * Decimal(10) ** (1 - digits)


def check(argv: list[str], stdout: str) -> list[str]:
    """Problems found in the stdout of one successful request."""
    try:
        return CHECKERS[argv[0]](options(argv), stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_table(opts: dict, stdout: str) -> list[str]:
    model, steps, digits = opts["model"], int(opts["steps"]), int(opts["digits"])
    by_step: dict[int, list[tuple[str, int, int]]] = {}
    problems = []
    for row in _rows(stdout, opts["format"]):
        step, num, den = int(row["step"]), int(row["num"]), int(row["den"])
        by_step.setdefault(step, []).append((str(row["state"]), num, den))
        if row["model"] != model or num <= 0 or den <= 0:
            problems.append(f"step {step}: bad row {row}")
        elif not _decimal_ok(row["decimal"], num, den, digits):
            problems.append(f"step {step} state {row['state']}: decimal {row['decimal']}")
    if sorted(by_step) != list(range(steps + 1)):
        problems.append(f"steps present {sorted(by_step)[:5]}..., want 0..{steps}")
    for step, cells in by_step.items():
        common = lcm(*(den for _, _, den in cells))
        if sum(num * (common // den) for _, num, den in cells) != common:
            problems.append(f"step {step}: masses do not sum to 1")
        for state, _, _ in cells:
            if residue(model, state) != step % 3:
                problems.append(f"step {step}: state {state} off the residue class")
            elif state != "beta" and int(state) > frontier(model, step):
                problems.append(f"step {step}: state {state} beyond the frontier")
    return problems


def _check_coeff(opts: dict, stdout: str) -> list[str]:
    rows = _rows(stdout, opts["format"])
    if len(rows) != 1:
        return [f"{len(rows)} rows, want 1"]
    row = rows[0]
    model, steps, state = opts["model"], int(opts["steps"]), opts["state"]
    num, den = int(row["num"]), int(row["den"])
    problems = []
    if (row["model"], int(row["steps"]), str(row["state"]), row["source"]) != (
        model, steps, state, opts["source"]
    ):
        problems.append(f"request not echoed: {row}")
    if den <= 0 or not 0 <= num <= den:
        problems.append(f"value {num}/{den} outside [0, 1]")
    off = residue(model, state) != steps % 3
    beyond = state != "beta" and int(state) > frontier(model, steps)
    if (off or beyond) and num != 0:
        problems.append(f"nonzero value {num}/{den} where the walk cannot be")
    if row["note"] != ("off-residue" if off else ""):
        problems.append(f"note {row['note']!r} for off-residue={off}")
    if not _decimal_ok(row["decimal"], num, den, int(opts["digits"])):
        problems.append(f"decimal {row['decimal']} for {num}/{den}")
    return problems


def _check_series(opts: dict, stdout: str) -> list[str]:
    which, order, digits = opts["which"], int(opts["order"]), int(opts["digits"])
    rows = _rows(stdout, opts["format"])
    problems = []
    if [int(r["k"]) for r in rows] != list(range(order)):
        problems.append(f"coefficient indices are not 0..{order - 1}")
    values = [Fraction(int(r["num"]), int(r["den"])) for r in rows]
    for k, want in enumerate(LEADING[which]):
        if values[k] != want:
            problems.append(f"[x^{k}] {which} = {values[k]}, want {want}")
    top = 1 if which in ("f0", "g0") else None
    for k, (row, value) in enumerate(zip(rows, values)):
        if row["series"] != which:
            problems.append(f"row {k} names series {row['series']}")
        if k and (value <= 0 or (top is not None and value > top)):
            problems.append(f"[x^{k}] {which} = {value} out of range")
        if not _decimal_ok(row["decimal"], value.numerator, value.denominator, digits):
            problems.append(f"[x^{k}] decimal {row['decimal']}")
    return problems


def _check_simulate(opts: dict, stdout: str) -> list[str]:
    model, steps, trials = opts["model"], int(opts["steps"]), int(opts["trials"])
    rows = _rows(stdout, opts["format"])
    problems = []
    counts = [int(r["count"]) for r in rows]
    if sum(counts) != trials:
        problems.append(f"counts sum to {sum(counts)}, want {trials}")
    common = lcm(*(int(r["den"]) for r in rows))
    if sum(int(r["num"]) * (common // int(r["den"])) for r in rows) != common:
        problems.append("exact masses do not sum to 1")
    for row, count in zip(rows, counts):
        state = str(row["state"])
        if (int(row["steps"]), int(row["trials"]), int(row["seed"])) != (
            steps, trials, int(opts["seed"])
        ):
            problems.append(f"request not echoed: {row}")
        if count and (int(row["num"]) == 0 or residue(model, state) != steps % 3):
            problems.append(f"{count} trials end on impossible state {state}")
        if not _decimal_ok(row["frequency"], count, trials, int(opts["digits"])):
            problems.append(f"state {state}: frequency {row['frequency']} for {count}/{trials}")
    return problems


def _check_verify(opts: dict, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passes = [line for line in lines if line.startswith("PASS ")]
    problems = []
    if len(passes) != SUITES or len(lines) != SUITES + 1:
        problems.append(f"{len(passes)} PASS lines in {len(lines)}, want {SUITES} and a summary")
    if not lines or not lines[-1].startswith("overall: PASS"):
        problems.append(f"summary {lines[-1:]!r}")
    return problems


CHECKERS = {
    "table": _check_table,
    "coeff": _check_coeff,
    "series": _check_series,
    "simulate": _check_simulate,
    "verify": _check_verify,
}
