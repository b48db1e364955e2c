"""Command line interface.

Subcommands: ``table`` (exact step distributions), ``coeff`` (one
probability by DP or closed form), ``verify`` (cross-route verification
suites), ``simulate`` (seeded Monte Carlo against exact values) and
``series`` (named series expansions).  Output is CSV by default or JSON
with ``--format json``; exact values always appear as numerator and
denominator next to a rounded decimal.

Each printing command builds its rows as tuples under a fixed header
and hands them to ``_emit``.  CSV goes through ``csv.writer``; JSON goes
through a small writer that gives the bytes of ``json.dumps`` with
``indent=2`` for the same rows as dicts, without CPython's pure-Python
indenting encoder: int columns go into its row template through ``%d``.
Rounding divides through one cached decimal context per digit count.
``table`` reads the DP's integer numerators over b**n for p = a/b
(``models.dp_numerators``) straight into its rows: one gcd per mass for
the num and den columns, and one decimal divisor per step.  The other
commands round a ``Fraction`` through ``decimal_string``.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Every
cap is a constant.  ``table --steps``, ``simulate --steps`` and ``verify
--max-steps`` share ``STEP_CAP``, 200; ``coeff --source dp --steps`` has
a cap of its own, 1000, and ``coeff --source closed-form --steps``
another, 15000, which applies only to states that can carry mass: a
state off its residue class or beyond the walk's frontier is an exact 0
at any step count and is answered at once.  ``series --order`` and
``verify --order`` are capped at 200.  ``simulate --trials`` and
``verify --trials`` must be positive, and trials times steps (counted
as at least one) may not pass ``TRIAL_DRAW_CAP``, 10**8 draws per
simulation; ``verify`` counts the steps of its simulation suite.  Both
checks run before numpy is imported.  Every size check reads one digit
budget, ``_digit_limit``: Python's integer-to-string limit where that is
below its default of 4300 digits, and the default where the limit is
raised or switched off (0), so no setting lifts a budget.  An exact
value with more digits than the budget is a usage error.  ``table``,
``simulate`` and ``coeff --source dp`` decide that before any DP or
simulation runs, from p's denominator: the largest denominator at step
n is a known power of it (``models.denominator_power``) that never
shrinks as n grows.  ``coeff --source closed-form`` decides it after
its sum.  Every size refusal asks one question, ``_too_long``: does
base**power have more than a given number of digits.  ``--digits``
above the budget is a usage error, and so is a ``--p`` whose exponent
reaches it.  An error line quotes at most the first 40 characters of an
argument.
The argument parser is built once per process.
``python -m knoedel`` runs the same ``main``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import re
import sys
from decimal import Context, Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from typing import Iterable

from . import closedforms, montecarlo, verification
from .models import (
    BETA,
    WalkModel,
    denominator_power,
    dp_distribution,
    dp_numerators,
    frontier,
    parse_state,
    residue_class,
)

STEP_CAP = 200
# At this cap, a DP over denominators just inside the 4300-digit budget
# took about 0.4 s on a 2-vCPU x86_64 VM.
DP_STEP_CAP = 1000
# Steps of a closed-form coefficient that can be nonzero.  At the cap
# the slowest such sum took 0.3 s on the same VM.  From about 9000 steps
# on, a value over 3**n, less the few factors of 3 that cancel, is past
# Python's default integer-to-string limit anyway.
CLOSED_FORM_STEP_CAP = 15000
SERIES_ORDER_CAP = 200
# Draws one ``simulate`` call may make: trials times steps, at least one
# step counted.  At the cap a simulation takes about a second.
TRIAL_DRAW_CAP = 10**8

TABLE_HEADER = ("model", "step", "state", "num", "den", "decimal")
COEFF_HEADER = ("model", "steps", "state", "source", "num", "den", "decimal", "note")
SIMULATE_HEADER = (
    "model", "steps", "trials", "seed", "state", "count", "frequency", "num", "den",
    "exact_decimal", "deviation", "four_sigma_bound", "within",
)
SERIES_HEADER = ("series", "k", "num", "den", "decimal")

SERIES_TOKENS = {
    "t": closedforms.t_series,
    "inv1mt": closedforms.inv_one_minus_t_series,
    "u1": closedforms.bad_factor_root_series,
    "f0": closedforms.f0_series,
    "g0": closedforms.g0_series,
}


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


# One decimal context per digit count, built on first use.  Other than
# ``prec`` a new Context takes the defaults a fresh thread starts with.
@functools.cache
def _context(digits: int) -> Context:
    return Context(prec=digits)


def decimal_string(value: Fraction, digits: int) -> str:
    """Round an exact rational to ``digits`` significant digits."""
    return str(_context(digits).divide(Decimal(value.numerator), Decimal(value.denominator)))


def _quoted(text: str, limit: int = 40) -> str:
    """``repr(text)``, cut to its first ``limit`` characters and ``...``."""
    return repr(text) if len(text) <= limit else repr(text[:limit]) + "..."


def _check_trials(trials: int, steps: int) -> None:
    """Refuse a trial count below 1, or one whose simulation of ``steps``
    steps would take more than ``TRIAL_DRAW_CAP`` draws."""
    if trials < 1:
        raise UsageError("trials must be positive")
    if trials * max(steps, 1) > TRIAL_DRAW_CAP:
        raise UsageError(
            f"trials times steps exceeds the safety cap of {TRIAL_DRAW_CAP} draws"
        )


def _digit_limit() -> int:
    """The digit budget of every size check: Python's integer-to-string
    limit, but never more than its default, which also stands in where
    the limit is switched off (0)."""
    default = sys.int_info.default_max_str_digits
    return min(sys.get_int_max_str_digits() or default, default)


def _too_long(base: int, power: int, digits: int) -> bool:
    """Whether base**power has more than ``digits`` digits, for
    ``digits`` at least 1.  The bit-length test answers for a power far
    past ``digits`` without building it."""
    return (base.bit_length() - 1) * power > 4 * digits or base**power >= 10**digits


def _check_steps(steps: int, name: str, cap: int) -> None:
    """Refuse a step count above ``cap`` or below 0."""
    if steps > cap:
        raise UsageError(f"{name} {steps} exceeds the safety cap {cap}")
    if steps < 0:
        raise UsageError(f"{name} must be non-negative")


# The exponent of a decimal literal as ``Fraction`` reads it.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _parse_probability(text: str) -> Fraction:
    """``Fraction(text)``, but an exponent whose power of 10 is past
    Python's integer-to-string limit is refused before ``Fraction`` builds
    that power (10**100000000 does not finish in 100 s), as the same
    number written out in digits is refused by ``int``."""
    limit = _digit_limit()
    match = _EXPONENT.search(text)
    try:
        if match and abs(int(match.group(1))) >= limit:
            raise UsageError(
                f"the exponent of --p must be below {limit} in magnitude: 10**{limit} "
                "is past Python's limit for integer-to-string conversion"
            )
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"invalid probability {_quoted(text)}")


def _model_from(args: argparse.Namespace) -> WalkModel:
    p = None if args.p is None else _parse_probability(args.p)
    try:
        if args.model == "double-large":
            return WalkModel.double_large(p)
        return WalkModel.double_small(p)
    except ValueError as exc:
        raise UsageError(str(exc))


def _check_printable(base: int, power: int, steps: int) -> None:
    """Refuse a value at ``steps`` steps whose denominator, its longest
    part, is base**power with more digits than the budget."""
    limit = _digit_limit()
    if _too_long(base, power, limit):
        raise UsageError(
            f"the exact value at {steps} steps has more than {limit} digits, "
            "past Python's limit for integer-to-string conversion"
        )


_JSON_VALUE = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _json_column(rows: list[tuple], i: int) -> tuple[str, Iterable]:
    """Template slot and values of column ``i``: an int-only column goes
    in through ``%d``, which gives the bytes of ``int.__repr__``, and any
    other column through ``_JSON_VALUE``."""
    column = map(itemgetter(i), rows)
    if set(map(type, map(itemgetter(i), rows))) == {int}:
        return "%d", column
    return "%s", (_JSON_VALUE[value.__class__](value) for value in column)


def _write_json(rows: list[tuple], header: tuple[str, ...]) -> None:
    """Write ``json.dumps([dict(zip(header, row)) for row in rows],
    indent=2)`` and a newline, for at least one row and one column of
    str, int and bool values."""
    slots, columns = zip(*[_json_column(rows, i) for i in range(len(header))])
    template = "{" + "".join(
        ("," if i else "") + "\n    " + encode_basestring_ascii(key).replace("%", "%%")
        + ": " + slot
        for i, (key, slot) in enumerate(zip(header, slots))
    ) + "\n  }"
    values = zip(*columns)
    out = sys.stdout
    out.write("[\n  " + template % next(values))
    out.writelines(map((",\n  " + template).__mod__, values))
    out.write("\n]\n")


def _emit(rows: list[tuple], fmt: str, header: tuple[str, ...]) -> None:
    if fmt == "json":
        _write_json(rows, header)
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def cmd_table(args: argparse.Namespace) -> int:
    _check_steps(args.steps, "steps", STEP_CAP)
    model = _model_from(args)
    base = model.p.denominator
    try:
        _check_printable(base, denominator_power(model, args.steps), args.steps)
    except UsageError:
        # Name the first step a scan of every mass would stop at.
        for n in range(args.steps):
            _check_printable(base, denominator_power(model, n), n)
        raise
    name = model.name
    divide = _context(args.digits).divide
    rows = []
    # Each step-n mass is m / b**n: one gcd reduces it for the num and
    # den columns, and m divided by b**n rounds to the same decimal as the
    # reduced quotient, since both operands have exponent 0.
    for n, den, row in dp_numerators(model, 0, args.steps):
        divisor = Decimal(den)
        rows += [
            (name, n, str(state), m // (g := gcd(m, den)), den // g, str(divide(m, divisor)))
            for state, m in row
        ]
    _emit(rows, args.format, TABLE_HEADER)
    return 0


def cmd_coeff(args: argparse.Namespace) -> int:
    if args.source == "dp":
        _check_steps(args.steps, "steps", DP_STEP_CAP)
    elif args.steps < 0:
        raise UsageError("steps must be non-negative")
    model = _model_from(args)
    try:
        state = parse_state(args.state)
    except ValueError:
        raise UsageError(f"invalid state {_quoted(args.state)}")
    on_residue = residue_class(model, state) == args.steps % 3
    if args.source == "dp":
        _check_printable(model.p.denominator, denominator_power(model, args.steps), args.steps)
        value = dp_distribution(model, args.steps).prob(state)
    else:
        # Off its residue class or beyond the frontier a state is an exact
        # 0 at any step count, which the closed forms return at once.
        if on_residue and (state is BETA or state <= frontier(model, args.steps)):
            _check_steps(args.steps, "steps", CLOSED_FORM_STEP_CAP)
        try:
            value = closedforms.closed_form_probability(model, state, args.steps)
        except ValueError as exc:
            raise UsageError(str(exc))
        _check_printable(value.denominator, 1, args.steps)
    note = "" if on_residue else "off-residue"
    row = (
        model.name, args.steps, str(state), args.source, value.numerator,
        value.denominator, decimal_string(value, args.digits), note,
    )
    _emit([row], args.format, COEFF_HEADER)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not 2 <= args.order <= SERIES_ORDER_CAP:
        raise UsageError(f"order must be between 2 and {SERIES_ORDER_CAP}")
    _check_steps(args.max_steps, "max-steps", STEP_CAP)
    _check_trials(args.trials, verification.SIMULATION_STEPS)
    results = verification.run_verification(
        order=args.order,
        max_steps=args.max_steps,
        trials=args.trials,
        seed=args.seed,
    )
    for suite in results:
        if suite.passed:
            print(f"PASS {suite.name} ({suite.checks} checks)")
        else:
            print(f"FAIL {suite.name} ({suite.checks} checks, {len(suite.failures)} failures)")
            for line in suite.failures[:5]:
                print(f"  {line}")
            if len(suite.failures) > 5:
                print(f"  ... and {len(suite.failures) - 5} more")
    failed = sum(not suite.passed for suite in results)
    if failed:
        print(f"overall: FAIL ({failed} of {len(results)} suites failed)")
        return 1
    print(f"overall: PASS ({len(results)} suites, {sum(s.checks for s in results)} checks)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_steps(args.steps, "steps", STEP_CAP)
    _check_trials(args.trials, args.steps)
    model = _model_from(args)
    _check_printable(model.p.denominator, denominator_power(model, args.steps), args.steps)
    config = montecarlo.SimConfig(model, args.steps, args.trials, args.seed)
    empirical = montecarlo.simulate(config)
    exact = dp_distribution(model, args.steps)
    digits = args.digits
    rows = [
        (
            model.name, args.steps, args.trials, args.seed, str(cell.state),
            cell.count, decimal_string(cell.frequency, digits), cell.expected.numerator,
            cell.expected.denominator, decimal_string(cell.expected, digits),
            decimal_string(cell.deviation, digits), repr(cell.bound), cell.within,
        )
        for cell in montecarlo.four_sigma_report(empirical, exact)
    ]
    _emit(rows, args.format, SIMULATE_HEADER)
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    if not 1 <= args.order <= SERIES_ORDER_CAP:
        raise UsageError(f"order must be between 1 and {SERIES_ORDER_CAP}")
    series = SERIES_TOKENS[args.which](args.order)
    rows = []
    for k in range(series.order):
        value = series.coeff(k)
        rows.append((
            args.which, k, value.numerator, value.denominator,
            decimal_string(value, args.digits),
        ))
    _emit(rows, args.format, SERIES_HEADER)
    return 0


def _add_common_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--digits", type=int, default=12, help="significant digits shown")


def _add_model(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=["double-large", "double-small"], required=True)
    sub.add_argument("--p", help="red probability as a fraction, default the balanced one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knoedel",
        description="Exact tables, closed forms, series and simulation for the two "
        "ternary Knoedel bin-packing walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="exact step distributions 0..steps")
    _add_model(table)
    table.add_argument("--steps", type=int, required=True)
    _add_common_output(table)
    table.set_defaults(func=cmd_table)

    coeff = sub.add_parser("coeff", help="one probability by dp or closed form")
    _add_model(coeff)
    coeff.add_argument("--state", required=True, help="state index or 'beta'")
    coeff.add_argument("--steps", type=int, required=True)
    coeff.add_argument("--source", choices=["dp", "closed-form"], default="dp")
    _add_common_output(coeff)
    coeff.set_defaults(func=cmd_coeff)

    verify = sub.add_parser("verify", help="run the cross-route verification suites")
    verify.add_argument("--order", type=int, default=30)
    verify.add_argument("--max-steps", type=int, default=30)
    verify.add_argument("--trials", type=int, default=20000)
    verify.add_argument("--seed", type=int, default=montecarlo.DEFAULT_SEED)
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="seeded Monte Carlo against exact values")
    _add_model(simulate)
    simulate.add_argument("--steps", type=int, required=True)
    simulate.add_argument("--trials", type=int, required=True)
    simulate.add_argument("--seed", type=int, default=montecarlo.DEFAULT_SEED)
    _add_common_output(simulate)
    simulate.set_defaults(func=cmd_simulate)

    series = sub.add_parser("series", help="coefficients of a named series")
    series.add_argument("--which", choices=sorted(SERIES_TOKENS), required=True)
    series.add_argument("--order", type=int, required=True)
    _add_common_output(series)
    series.set_defaults(func=cmd_series)

    return parser


# ``main`` parses with one parser per process; building it costs more
# than a short closed-form ``coeff``.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "digits" in args:
            # The num and den columns obey the same budget.
            limit = _digit_limit()
            if args.digits < 1:
                raise UsageError("digits must be at least 1")
            if args.digits > limit:
                raise UsageError(
                    f"digits must be at most {limit}, "
                    "Python's limit for integer-to-string conversion"
                )
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
