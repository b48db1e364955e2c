"""Cross-route verification suites.

Each suite pits two independently implemented routes to the same numbers
against each other: dynamic programming against brute-force path
enumeration, closed-form coefficients against dynamic programming,
explicit series coefficients against reversion and reciprocal, closed
Girard-Waring sums against their defining recurrences, and simulation
against exact probabilities.  A suite never trusts the route it is
checking; failures carry enough context to locate the disagreement.

Every suite returns a ``SuiteResult``: the suite calls its ``check``
once per comparison, which counts the check and keeps the label of each
one that fails, and ``passed`` holds while no check has failed.  A label
is passed as a function of no arguments and is built only when its check
fails, so a passing check formats nothing.  ``run_verification`` also
records the seconds each suite took.

The normalization, oracle, recursion and closed-form-grid suites read
the DP rows as they are stored, integer numerators over one denominator
per row, and compare masses by cross multiplication; they form a
``Fraction`` only for a failure label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

from . import closedforms, montecarlo
from .exactmath import ZERO, Polynomial, TruncatedSeries
from .models import (
    BETA,
    BRUTE_FORCE_LIMIT,
    ModelKind,
    WalkModel,
    brute_force_distribution,
    dp_distribution,
    dp_table,
    frontier,
    residue_class,
)


@dataclass
class SuiteResult:
    """Outcome of one verification suite, filled in one ``check`` at a time."""

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def check(self, ok: bool, label: Callable[[], str]) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(label())

    @property
    def passed(self) -> bool:
        return not self.failures


GIRARD_WARING_MAX_POWER = 40
MAX_COLUMN = 12
SIMULATION_STEPS = 6


def _both_models() -> list[WalkModel]:
    return [WalkModel.double_large(), WalkModel.double_small()]


def normalization_and_support_suite(max_steps: int = 30) -> SuiteResult:
    """Rows sum to one and mass stays inside the residue class."""
    suite = SuiteResult("normalization-and-support")
    for model in _both_models():
        for row in dp_table(model, max_steps):
            n = row.step
            suite.check(
                sum(row.numerators.values()) == row.den,
                lambda: f"{model.name} step {n}: total {row.total()}",
            )
            for state in row.support():
                suite.check(
                    residue_class(model, state) == n % 3,
                    lambda: f"{model.name} step {n}: state {state} outside residue class",
                )
                if isinstance(state, int):
                    suite.check(
                        state <= frontier(model, n),
                        lambda: f"{model.name} step {n}: state {state} beyond frontier",
                    )
    return suite


def oracle_equivalence_suite(max_steps: int = 12) -> SuiteResult:
    """Forward DP equals brute-force path enumeration: the same states, and
    the same masses by cross multiplication, since the two routes put a
    row over different powers of p's denominator."""
    suite = SuiteResult("oracle-equivalence")
    cap = min(max_steps, BRUTE_FORCE_LIMIT)
    for model in _both_models():
        rows = dp_table(model, cap)
        for n in range(cap + 1):
            dp, brute = rows[n], brute_force_distribution(model, n)
            suite.check(
                dp.numerators.keys() == brute.numerators.keys()
                and all(
                    m * brute.den == brute.numerators[state] * dp.den
                    for state, m in dp.numerators.items()
                ),
                lambda: f"{model.name} step {n}: dp and brute force disagree",
            )
    return suite


def recursion_fidelity_suite(max_steps: int = 30) -> SuiteResult:
    """DP rows satisfy the incoming-edge recursions written out by hand.

    For p = a/b the recursions weigh the previous row's numerators by a
    (red), c = b - a (black) and b (either colour), so each expected mass
    sits over b times the previous row's denominator.
    """
    suite = SuiteResult("recursion-fidelity")
    for model in _both_models():
        b = model.p.denominator
        a, c = model.p.numerator, b - model.p.numerator
        rows = dp_table(model, max_steps)
        for n in range(1, max_steps + 1):
            prev, cur = rows[n - 1], rows[n]
            m = prev.numerators.get
            if model.kind is ModelKind.DOUBLE_LARGE:
                expected = {0: c * m(1, 0), BETA: c * m(0, 0),
                            1: b * m(BETA, 0) + c * m(2, 0)}
                for i in range(2, 2 * n + 1):
                    expected[i] = a * m(i - 2, 0) + c * m(i + 1, 0)
            else:
                expected = {0: b * m(BETA, 0) + c * m(2, 0), BETA: c * m(1, 0),
                            1: b * m(0, 0) + c * m(3, 0)}
                for i in range(2, n + 1):
                    expected[i] = a * m(i - 1, 0) + c * m(i + 2, 0)
            got, scale, den = cur.numerators.get, prev.den * b, cur.den
            for state, mass in expected.items():
                suite.check(
                    got(state, 0) * scale == mass * den,
                    lambda: f"{model.name} step {n}: state {state} breaks the recursion",
                )
    return suite


def closed_form_grid_suite(max_steps: int = 30) -> SuiteResult:
    """Closed-form coefficients match DP on the full reachable grid."""
    suite = SuiteResult("closed-form-grid")
    for model in _both_models():
        rows = dp_table(model, max_steps)
        for n in range(max_steps + 1):
            row = rows[n]
            dp, den = row.numerators.get, row.den
            states = list(range(frontier(model, n) + 1)) + [BETA]
            for state in states:
                got = closedforms.closed_form_probability(model, state, n)
                suite.check(
                    got.numerator * den == dp(state, 0) * got.denominator,
                    lambda: f"{model.name} step {n} state {state}: "
                    f"closed form {got} != dp {row.prob(state)}",
                )
    return suite


def series_suite(order: int = 30) -> SuiteResult:
    """Explicit series coefficients against reversion and reciprocal."""
    suite = SuiteResult("series")
    order = max(order, 2)
    t = closedforms.t_series(order)
    x_poly = closedforms.x_of_t()
    x_series = TruncatedSeries(x_poly.coeffs, order)

    suite.check(t == x_series.reversion(), lambda: "t series differs from reversion of x(t)")
    identity = TruncatedSeries.identity(order)
    suite.check(x_series.compose(t) == identity, lambda: "x(t(x)) is not the identity")
    suite.check(t.compose(x_series) == identity, lambda: "t(x(t)) is not the identity")

    inv = closedforms.inv_one_minus_t_series(order)
    suite.check(inv == (1 - t).recip(), lambda: "1/(1-t) series differs from direct reciprocal")

    bad = closedforms.bad_factor_root_series(order)
    suite.check(bad == Fraction(2, 3) * inv, lambda: "bad factor is not 2/3 of 1/(1-t)")
    suite.check(
        bad == closedforms.bad_factor_root_rational().expand(t),
        lambda: "bad factor series differs from its rational function",
    )

    blocks = min(order - 1, 10)
    large = dp_table(WalkModel.double_large(), 3 * blocks)
    small = dp_table(WalkModel.double_small(), 3 * blocks)
    f0 = closedforms.f0_series_from_t(order)
    g0 = closedforms.g0_series_from_t(order)
    for n_blocks in range(blocks + 1):
        suite.check(
            f0.coeff(n_blocks) == large[3 * n_blocks].prob(0),
            lambda: f"f0 coefficient {n_blocks} differs from dp",
        )
        suite.check(
            g0.coeff(n_blocks) == small[3 * n_blocks].prob(0),
            lambda: f"g0 coefficient {n_blocks} differs from dp",
        )
    return suite


def kernel_identity_suite() -> SuiteResult:
    """The three exact kernel identities."""
    suite = SuiteResult("kernel-identities")
    for item in closedforms.kernel_identity_results():
        suite.check(item.holds, lambda: f"{item.name}: {item.detail}")
    return suite


def girard_waring_suite() -> SuiteResult:
    """Closed symmetric-function sums against their linear recurrences,
    for powers up to ``GIRARD_WARING_MAX_POWER``.

    Both sequences satisfy a_m = e a_(m-1) - f a_(m-2); the power sums
    start 2, e and the difference quotients start 0, 1.
    """
    suite = SuiteResult("girard-waring")
    pair = closedforms.symmetric_pair()
    e, f = pair.sum_of_roots, pair.product_of_roots
    power_sums = [Polynomial([2]), e]
    quotients = [Polynomial(), Polynomial([1])]
    for m in range(2, GIRARD_WARING_MAX_POWER + 1):
        power_sums.append(e * power_sums[-1] - f * power_sums[-2])
        quotients.append(e * quotients[-1] - f * quotients[-2])
    for m in range(GIRARD_WARING_MAX_POWER + 1):
        suite.check(
            closedforms.girard_waring_power_sum(m) == power_sums[m],
            lambda: f"power sum {m} differs from recurrence",
        )
        suite.check(
            closedforms.girard_waring_quotient(m) == quotients[m],
            lambda: f"difference quotient {m} differs from recurrence",
        )
    return suite


def column_consistency_suite(max_blocks: int) -> SuiteResult:
    """Per-column rational functions, columns up to ``MAX_COLUMN``,
    reproduce the coefficient formulas."""
    suite = SuiteResult("column-consistency")
    t = closedforms.t_series(max_blocks + 1)
    for m in range(MAX_COLUMN + 1):
        expansion = closedforms.f_u_coeff(m).expand(t)
        for n_blocks in range(max_blocks + 1):
            n = 3 * n_blocks - m
            want = closedforms.f_state_coeff(n, m) if n >= 0 else ZERO
            suite.check(
                expansion.coeff(n_blocks) == want,
                lambda: f"double-large column {m} block {n_blocks}: expansion != coefficient",
            )
    for j in range(MAX_COLUMN + 1):
        expansion = closedforms.g_u_coeff(j).expand(t)
        for n_blocks in range(max_blocks + 1):
            want = closedforms.g_state_coeff(3 * n_blocks + j, j)
            suite.check(
                expansion.coeff(n_blocks) == want,
                lambda: f"double-small column {j} block {n_blocks}: expansion != coefficient",
            )
    for n_blocks in range(max_blocks + 1):
        suite.check(
            closedforms.fbeta_coeff(n_blocks)
            == Fraction(2, 3) * closedforms.f_state_coeff(3 * n_blocks, 0),
            lambda: f"double-large BETA block {n_blocks} breaks the one-step relation",
        )
        suite.check(
            closedforms.gbeta_coeff(n_blocks)
            == Fraction(1, 3) * closedforms.g_state_coeff(3 * n_blocks + 1, 1),
            lambda: f"double-small BETA block {n_blocks} breaks the one-step relation",
        )
    return suite


def simulation_suite(trials: int, seed: int) -> SuiteResult:
    """Quick seeded simulation of ``SIMULATION_STEPS`` steps against exact
    probabilities, 4-sigma cells."""
    suite = SuiteResult("simulation-four-sigma")
    for model in _both_models():
        exact = dp_distribution(model, SIMULATION_STEPS)
        config = montecarlo.SimConfig(model, SIMULATION_STEPS, trials, seed)
        empirical = montecarlo.simulate(config)
        for cell in montecarlo.four_sigma_report(empirical, exact):
            suite.check(
                cell.within,
                lambda: f"{model.name} step {SIMULATION_STEPS} state {cell.state}: "
                f"deviation {float(cell.deviation):.2e} exceeds 4-sigma {cell.bound:.2e}",
            )
    return suite


def run_verification(order: int, max_steps: int, trials: int, seed: int) -> list[SuiteResult]:
    """Run every suite with shared size limits, timing each one.

    The simulation suite always runs, so numpy is imported before the
    first clock starts; its import is then charged to no suite."""
    import numpy  # noqa: F401

    calls = [
        (normalization_and_support_suite, max_steps),
        (oracle_equivalence_suite, min(max_steps, 12)),
        (recursion_fidelity_suite, max_steps),
        (closed_form_grid_suite, max_steps),
        (series_suite, order),
        (kernel_identity_suite,),
        (girard_waring_suite,),
        (column_consistency_suite, min(8, max(order - 1, 1))),
        (simulation_suite, trials, seed),
    ]
    results = []
    for suite, *args in calls:
        start = perf_counter()
        results.append(suite(*args))
        results[-1].seconds = perf_counter() - start
    return results
