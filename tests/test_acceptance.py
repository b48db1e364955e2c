"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS or FAIL line (run with ``pytest -s`` to
see them live) and enforces the stated size limits, tolerances and time
budgets.  Exact comparisons are exact: no tolerance is applied anywhere
except the explicit four-sigma bound of the Monte Carlo criterion.
"""

import time
from fractions import Fraction

from knoedel import closedforms as cf
from knoedel.exactmath import TruncatedSeries
from knoedel.models import BETA, WalkModel, dp_table, frontier
from knoedel.montecarlo import SimConfig, four_sigma_report, simulate
from knoedel.verification import (
    column_consistency_suite,
    girard_waring_suite,
    normalization_and_support_suite,
    oracle_equivalence_suite,
)


def _report(number: int, name: str, ok: bool, detail: str, elapsed: float,
            budget: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s" + (f" < {budget:.0f}s]" if budget else "]")
    print(f"[{status}] criterion {number:02d} {name}: {detail}{timing}")
    assert ok, f"criterion {number:02d} {name}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number:02d} exceeded {budget}s"


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    result = oracle_equivalence_suite(14)
    elapsed = time.perf_counter() - start
    _report(1, "oracle-equivalence", result.passed,
            f"dp equals brute force for n <= 14 on both walks {result.failures or ''}".strip(),
            elapsed, budget=30)


def test_criterion_02_double_large_grid():
    start = time.perf_counter()
    model = WalkModel.double_large()
    rows = dp_table(model, 30)
    bad = []
    for n in range(31):
        for j in range(frontier(model, n) + 1):
            if cf.f_state_coeff(n, j) != rows[n].prob(j):
                bad.append((n, j))
    anchors = cf.f_state_coeff(0, 0) == 1 and cf.f_state_coeff(3, 0) == Fraction(16, 27)
    elapsed = time.perf_counter() - start
    _report(2, "double-large-grid", not bad and anchors,
            "closed form equals dp for all states, n <= 30; anchors 1 and 16/27",
            elapsed, budget=10)


def test_criterion_03_double_large_beta_series():
    start = time.perf_counter()
    model = WalkModel.double_large()
    rows = dp_table(model, 28)
    ok = cf.fbeta_coeff(0) == Fraction(2, 3)
    for m in range(10):
        ok = ok and cf.fbeta_coeff(m) == rows[3 * m + 1].prob(BETA)
    elapsed = time.perf_counter() - start
    _report(3, "double-large-beta-series", ok,
            "BETA coefficients equal dp at steps 3m+1 for m <= 9; anchor 2/3",
            elapsed)


def test_criterion_04_double_small_grid():
    start = time.perf_counter()
    model = WalkModel.double_small()
    rows = dp_table(model, 30)
    bad = []
    for n in range(31):
        for state in list(range(frontier(model, n) + 1)) + [BETA]:
            if cf.closed_form_probability(model, state, n) != rows[n].prob(state):
                bad.append((n, state))
    anchors = (
        cf.g0_coeff(1) == Fraction(5, 9) and cf.g_state_coeff(2, 2) == Fraction(2, 3)
    )
    elapsed = time.perf_counter() - start
    _report(4, "double-small-grid", not bad and anchors,
            "closed form equals dp for all states incl. BETA, steps <= 30; "
            "anchors 5/9 and 2/3", elapsed, budget=10)


def test_criterion_05_series_reversion_and_reciprocal():
    start = time.perf_counter()
    order = 31  # keeps coefficients of x^0 .. x^30
    x_series = TruncatedSeries(cf.x_of_t().coeffs, order)
    t = cf.t_series(order)
    ok = t == x_series.reversion()
    ok = ok and cf.inv_one_minus_t_series(order) == (1 - t).recip()
    ok = ok and t.coeff(1) == Fraction(4, 27)
    elapsed = time.perf_counter() - start
    _report(5, "series-reversion-reciprocal", ok,
            "t(x) is the reversion of x(t) and 1/(1-t) matches recip, order 30; "
            "anchor 4/27", elapsed)


def test_criterion_06_kernel_identities():
    start = time.perf_counter()
    results = cf.kernel_identity_results()
    ok = len(results) == 3 and all(item.holds for item in results)
    elapsed = time.perf_counter() - start
    _report(6, "kernel-identities", ok,
            "all three kernel identities hold in exact arithmetic", elapsed)


def test_criterion_07_girard_waring():
    start = time.perf_counter()
    ok = girard_waring_suite(40).passed
    elapsed = time.perf_counter() - start
    _report(7, "girard-waring", ok,
            "closed sums equal the linear recurrences for m <= 40", elapsed)


def test_criterion_08_normalization_and_residues():
    start = time.perf_counter()
    ok = normalization_and_support_suite(100).passed
    elapsed = time.perf_counter() - start
    _report(8, "normalization-and-residues", ok,
            "rows sum to 1 and supports obey the mod-3 law for n <= 100",
            elapsed, budget=60)


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
    start = time.perf_counter()
    ok = column_consistency_suite(12, 8).passed
    elapsed = time.perf_counter() - start
    _report(10, "column-consistency", ok,
            "column rational functions reproduce the coefficient formulas "
            "for columns <= 12, blocks <= 8", elapsed)
