"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS or FAIL line (run with ``pytest -s`` to
see them live) and enforces the stated size limits, tolerances and time
budgets.  Exact comparisons are exact: no tolerance is applied anywhere
except the explicit four-sigma bound of the Monte Carlo criterion.
"""

import time
from fractions import Fraction

from knoedel import closedforms as cf
from knoedel.models import WalkModel, dp_table
from knoedel.montecarlo import SimConfig, four_sigma_report, simulate
from knoedel.verification import (
    closed_form_grid_suite,
    column_consistency_suite,
    girard_waring_suite,
    kernel_identity_suite,
    normalization_and_support_suite,
    oracle_equivalence_suite,
    series_suite,
)


def _report(number: int, name: str, ok: bool, detail: str, elapsed: float,
            budget: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s" + (f" < {budget:.0f}s]" if budget else "]")
    print(f"[{status}] criterion {number:02d} {name}: {detail}{timing}")
    assert ok, f"criterion {number:02d} {name}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number:02d} exceeded {budget}s"


def _run_suite(number: int, name: str, detail: str, suite, *args,
               budget: float | None = None):
    """Time one verification suite and report it as criterion ``number``."""
    start = time.perf_counter()
    result = suite(*args)
    elapsed = time.perf_counter() - start
    _report(number, name, result.passed, f"{detail} {result.failures or ''}".strip(),
            elapsed, budget)
    return result


def test_criterion_01_oracle_equivalence():
    _run_suite(1, "oracle-equivalence", "dp equals brute force for n <= 14 on both walks",
               oracle_equivalence_suite, 14, budget=30)


def test_criterion_02_double_large_grid():
    assert cf.f_state_coeff(0, 0) == 1 and cf.f_state_coeff(3, 0) == Fraction(16, 27)
    _run_suite(2, "double-large-grid",
               "closed form equals dp for all states, n <= 30; anchors 1 and 16/27",
               closed_form_grid_suite, 30, budget=10)


def test_criterion_03_double_large_beta_series():
    assert cf.fbeta_coeff(0) == Fraction(2, 3)
    _run_suite(3, "double-large-beta-series",
               "BETA coefficients equal dp at steps 3m+1 for m <= 9; anchor 2/3",
               closed_form_grid_suite, 30)


def test_criterion_04_double_small_grid():
    assert cf.g0_coeff(1) == Fraction(5, 9) and cf.g_state_coeff(2, 2) == Fraction(2, 3)
    _run_suite(4, "double-small-grid",
               "closed form equals dp for all states incl. BETA, steps <= 30; "
               "anchors 5/9 and 2/3", closed_form_grid_suite, 30, budget=10)


def test_criterion_05_series_reversion_and_reciprocal():
    assert cf.t_series(2).coeff(1) == Fraction(4, 27)
    _run_suite(5, "series-reversion-reciprocal",
               "t(x) is the reversion of x(t) and 1/(1-t) matches recip, order 30; "
               "anchor 4/27", series_suite, 31)  # order 31 keeps x^0 .. x^30


def test_criterion_06_kernel_identities():
    result = _run_suite(6, "kernel-identities",
                        "all three kernel identities hold in exact arithmetic",
                        kernel_identity_suite)
    assert result.checks == 3


def test_criterion_07_girard_waring():
    _run_suite(7, "girard-waring", "closed sums equal the linear recurrences for m <= 40",
               girard_waring_suite)


def test_criterion_08_normalization_and_residues():
    _run_suite(8, "normalization-and-residues",
               "rows sum to 1 and supports obey the mod-3 law for n <= 100",
               normalization_and_support_suite, 100, budget=60)


def test_criterion_09_monte_carlo():
    start = time.perf_counter()
    trials = 1_000_000
    seed = 1729
    cells = 0
    outside = 0
    for model in (WalkModel.double_large(), WalkModel.double_small()):
        rows = dp_table(model, 12)
        for steps in range(13):
            empirical = simulate(SimConfig(model, steps, trials, seed))
            for cell in four_sigma_report(empirical, rows[steps]):
                cells += 1
                outside += 0 if cell.within else 1
        repeat = simulate(SimConfig(model, 12, trials, seed))
        again = simulate(SimConfig(model, 12, trials, seed))
        assert repeat.counts == again.counts, "simulation is not reproducible"
    share = Fraction(cells - outside, cells)
    ok = share >= Fraction(99, 100)
    elapsed = time.perf_counter() - start
    _report(9, "monte-carlo", ok,
            f"{cells - outside}/{cells} cells within 4-sigma at 10^6 trials, "
            "steps <= 12, reproducible", elapsed)


def test_criterion_10_column_consistency():
    _run_suite(10, "column-consistency",
               "column rational functions reproduce the coefficient formulas "
               "for columns <= 12, blocks <= 8", column_consistency_suite, 8)
