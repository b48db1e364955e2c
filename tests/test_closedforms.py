"""Tests for closed-form coefficients, series and kernel identities.

Frozen values were computed independently through the DP oracle before
the closed forms were written.  The sweeps of the closed forms, series
and column functions against the DP live in ``knoedel.verification``,
which the acceptance criteria call; the tests here check the formulas
against independent oracles: the paper's own sums and product forms.
"""

from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knoedel import closedforms as cf
from knoedel.cli import SERIES_ORDER_CAP, SERIES_TOKENS
from knoedel.exactmath import Polynomial, RationalFunction, TruncatedSeries, binom_general
from knoedel.models import WalkModel, frontier

LARGE, SMALL = WalkModel.double_large(), WalkModel.double_small()


def paper_f_state_coeff(steps, j):
    """The paper's signed double sum, term by term over Fraction.

    Terms whose lower index N-j+k is negative are 0 and are skipped, so
    that states near the frontier at 2000 steps stay cheap.
    """
    if (steps + j) % 3:
        return 0
    n = (steps + j) // 3
    s1 = sum((-1) ** k * binom_general(j - k, k) * binom_general(k - 2 * n - 2, n - j + k)
             for k in range(j // 2 + 1) if n - j + k >= 0)
    s2 = sum((-1) ** k * binom_general(j - 1 - k, k) * binom_general(k - 2 * n - 1, n - j + k)
             for k in range((j - 1) // 2 + 1) if n - j + k >= 0)
    sign = -1 if (n - j) % 2 else 1
    return sign * Fraction(3, 2) ** j * Fraction(4, 27) ** n * (s1 + 3 * s2)


def paper_g0_coeff(n):
    return sum(Fraction(2 ** (2 * i), 3 ** (2 * n + i)) * binom_general(2 * n + i, i)
               for i in range(n + 1))


def paper_gbeta_coeff(n):
    return sum(Fraction(2 ** (2 * i), 3 ** (2 * n + i + 1)) * binom_general(2 * n + 1 + i, i)
               for i in range(n + 1))


def paper_g_state_coeff(steps, j):
    """The double-small sums over Fraction; N < 0 (beyond the frontier)
    leaves an empty sum."""
    if j == 0:
        return paper_g0_coeff(steps // 3) if steps % 3 == 0 else 0
    if (steps - j) % 3:
        return 0
    n = (steps - j) // 3
    return sum(Fraction(2 ** (2 * i + j - 1), 3 ** (2 * n + i + j - 1))
               * binom_general(2 * n + j + i, i) for i in range(n + 1))


def test_f_state_coeff_frozen_values():
    assert cf.f_state_coeff(0, 0) == 1
    assert cf.f_state_coeff(3, 0) == Fraction(16, 27)
    assert cf.f_state_coeff(6, 0) == Fraction(112, 243)
    assert cf.f_state_coeff(1, 2) == Fraction(1, 3)
    assert cf.f_state_coeff(2, 1) == Fraction(8, 9)
    assert cf.f_state_coeff(2, 4) == Fraction(1, 9)
    assert cf.f_state_coeff(4, 2) == Fraction(4, 9)
    assert cf.f_state_coeff(3, 3) == Fraction(10, 27)


def test_f_state_coeff_vanishes_off_residue_and_beyond_frontier():
    assert cf.f_state_coeff(1, 1) == 0
    assert cf.f_state_coeff(2, 0) == 0
    assert cf.f_state_coeff(1, 5) == 0
    assert cf.f_state_coeff(0, 3) == 0
    assert cf.f_state_coeff(2, 3 * 10**6 + 1) == 0


def test_coefficients_match_paper_sums():
    """The sign-free, ratio-stepped integer sums equal the paper's Fraction
    sums on every state up to six past the frontier."""
    for n in range(60):
        for j in range(frontier(LARGE, n) + 7):
            assert cf.f_state_coeff(n, j) == paper_f_state_coeff(n, j), (n, j)
        for j in range(frontier(SMALL, n) + 7):
            assert cf.g_state_coeff(n, j) == paper_g_state_coeff(n, j), (n, j)
        assert cf.g0_coeff(n) == paper_g0_coeff(n), n
        assert cf.gbeta_coeff(n) == paper_gbeta_coeff(n), n


@pytest.mark.parametrize("steps", [1000, 2000])
def test_coefficients_match_paper_sums_near_frontier_at_large_steps(steps):
    """Long sums, where one sign or one ratio step off would show."""
    edge = frontier(LARGE, steps)
    for j in range(edge - 60, edge + 4):
        assert cf.f_state_coeff(steps, j) == paper_f_state_coeff(steps, j), j
    edge = frontier(SMALL, steps)
    for j in range(edge - 30, edge + 4):
        assert cf.g_state_coeff(steps, j) == paper_g_state_coeff(steps, j), j
    assert cf.g0_coeff(steps // 3) == paper_g0_coeff(steps // 3)
    assert cf.gbeta_coeff(steps // 3) == paper_gbeta_coeff(steps // 3)


def test_fbeta_coeff_frozen_values():
    assert cf.fbeta_coeff(0) == Fraction(2, 3)
    assert cf.fbeta_coeff(1) == Fraction(32, 81)
    assert cf.fbeta_coeff(2) == Fraction(224, 729)


def test_g_state_coeff_frozen_values():
    assert cf.g_state_coeff(1, 1) == 1
    assert cf.g_state_coeff(2, 2) == Fraction(2, 3)
    assert cf.g_state_coeff(3, 3) == Fraction(4, 9)
    assert cf.g_state_coeff(4, 1) == Fraction(19, 27)
    assert cf.g_state_coeff(5, 2) == Fraction(46, 81)
    assert cf.g_state_coeff(6, 3) == Fraction(108, 243)


def test_g0_coeff_frozen_values():
    assert cf.g0_coeff(0) == 1
    assert cf.g0_coeff(1) == Fraction(5, 9)
    assert cf.g0_coeff(2) == Fraction(103, 243)


def test_gbeta_coeff_frozen_values():
    assert cf.gbeta_coeff(0) == Fraction(1, 3)
    assert cf.gbeta_coeff(1) == Fraction(19, 81)


def test_state_zero_routing_in_g_state_coeff():
    assert cf.g_state_coeff(6, 0) == cf.g0_coeff(2)
    assert cf.g_state_coeff(4, 0) == 0


def test_closed_form_probability_requires_balanced_model():
    lopsided = WalkModel.double_large(Fraction(1, 2))
    with pytest.raises(ValueError, match="balanced"):
        cf.closed_form_probability(lopsided, 0, 3)


def test_cached_balance_never_goes_stale():
    """``is_balanced`` is kept on its walk once read: a walk copied with
    another p works out its own, and reading it leaves ``==``, ``hash``
    and ``repr`` as they were."""
    model, fresh = WalkModel.double_large(), WalkModel.double_large()
    seen = (repr(model), hash(model))
    assert model.is_balanced
    assert (repr(model), hash(model)) == seen
    assert model == fresh and hash(model) == hash(fresh)
    lopsided = replace(model, p=Fraction(1, 2))
    assert lopsided.is_balanced is False
    assert model.is_balanced
    with pytest.raises(ValueError) as refused:
        cf.closed_form_probability(lopsided, 0, 3)
    assert str(refused.value) == (
        "closed forms require the balanced probabilities "
        "(p=1/3 for double-large, p=2/3 for double-small)"
    )


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        cf.f_state_coeff(-1, 0)
    with pytest.raises(ValueError):
        cf.f_state_coeff(0, -1)
    with pytest.raises(ValueError):
        cf.g_state_coeff(-3, 0)
    with pytest.raises(ValueError):
        cf.fbeta_coeff(-1)
    with pytest.raises(ValueError):
        cf.gbeta_coeff(-1)
    with pytest.raises(ValueError):
        cf.g0_coeff(-1)
    with pytest.raises(ValueError):
        cf.closed_form_probability(WalkModel.double_large(), 0, -1)


@given(st.integers(0, 60), st.integers(0, 60))
def test_residue_gaps_are_exactly_zero(n, j):
    if (n + j) % 3:
        assert cf.f_state_coeff(n, j) == 0
    if (n - j) % 3:
        assert cf.g_state_coeff(n, j) == 0


def test_x_of_t_polynomial():
    x = Polynomial.x()
    assert cf.x_of_t() == Fraction(27, 4) * x * (1 - x) ** 2
    assert cf.x_of_t().coeffs == (0, Fraction(27, 4), Fraction(-27, 2), Fraction(27, 4))


def test_t_series_frozen_coefficients():
    t = cf.t_series(5)
    assert t.coeff(0) == 0
    assert t.coeff(1) == Fraction(4, 27)
    assert t.coeff(2) == Fraction(32, 729)
    assert t.coeff(3) == Fraction(448, 19683)


def test_inv_one_minus_t_series_matches_reciprocal():
    order = 16
    t = cf.t_series(order)
    inv = cf.inv_one_minus_t_series(order)
    assert inv == (1 - t).recip()
    assert inv.coeff(0) == 1
    assert inv.coeff(1) == Fraction(4, 27)
    assert inv.coeff(2) == Fraction(16, 243)


def test_bad_factor_root_series_normalization():
    """The displayed bad-factor coefficients are 2/3 of those of 1/(1-t)."""
    order = 12
    bad = cf.bad_factor_root_series(order)
    assert bad.coeff(0) == Fraction(2, 3)
    assert bad.coeff(1) == Fraction(8, 81)
    assert bad == Fraction(2, 3) * cf.inv_one_minus_t_series(order)
    assert bad == cf.bad_factor_root_rational().expand(cf.t_series(order))


def test_f0_and_g0_rational_shapes():
    x = Polynomial.x()
    assert cf.f0_rational().num == Polynomial([1])
    assert cf.f0_rational().den == (1 - x) * (1 - 3 * x)
    assert cf.g0_rational().num == Polynomial([4])
    assert cf.g0_rational().den == (1 - 3 * x) * (4 - 3 * x)


def test_closed_sum_series_equal_the_expansions_at_the_cli_order():
    """The CLI prints f0 and g0 off their term recurrences, so the
    expansions at t(x), the route it does not print, are checked at its
    full order."""
    order = 200  # cli.SERIES_ORDER_CAP
    assert cf.f0_series(order).coeffs == cf.f0_series_from_t(order).coeffs
    assert cf.g0_series(order).coeffs == cf.g0_series_from_t(order).coeffs


# Each series token's per-coefficient closed formula, written with
# math.comb, against which its term recurrence is checked.
SERIES_FORMULAS = {
    "t": (cf.t_series,
          lambda k: Fraction(comb(3 * k - 2, k - 1) * 2 ** (2 * k), k * 3 ** (3 * k)) if k else 0),
    "inv1mt": (cf.inv_one_minus_t_series,
               lambda k: Fraction(comb(3 * k, k) * 2 ** (2 * k), (2 * k + 1) * 3 ** (3 * k))),
    "u1": (cf.bad_factor_root_series,
           lambda k: Fraction(comb(3 * k, k) * 2 ** (2 * k + 1), (2 * k + 1) * 3 ** (3 * k + 1))),
    "f0": (cf.f0_series, lambda n: cf.f_state_coeff(3 * n, 0)),
    "g0": (cf.g0_series, cf.g0_coeff),
}


@pytest.mark.parametrize("which", sorted(SERIES_FORMULAS))
def test_series_recurrences_reproduce_the_closed_formulas(which):
    """Every coefficient below twice the CLI's order cap, and the shortest
    orders, where a second-order recurrence has only its first terms."""
    series, formula = SERIES_FORMULAS[which]
    for order in (1, 2, 2 * SERIES_ORDER_CAP):
        assert series(order).coeffs == tuple(formula(k) for k in range(order)), order


@pytest.mark.parametrize("which", sorted(SERIES_TOKENS))
def test_series_terms_are_the_coefficients_in_lowest_terms(which):
    """``series`` prints ``terms()``: each coefficient's numerator and
    denominator in lowest terms, as a ``Fraction`` holds them.  The same
    series in canonical integer form derives the same pairs."""
    for order in (1, 2, SERIES_ORDER_CAP, 2 * SERIES_ORDER_CAP):
        series = SERIES_TOKENS[which](order)
        want = tuple((c.numerator, c.denominator) for c in series.coeffs)
        assert series.terms() == want, order
        assert (series * 1).terms() == want, order


def _theta_minus(shift, num, den):
    """(theta - shift)(num / den) for a rational function of t, where
    theta = x d/dx is t (1-t) / (1-3t) d/dt, since dx/dt =
    (27/4) (1-t) (1-3t)."""
    t = Polynomial.x()
    return (t * (1 - t) * (num.derivative() * den - num * den.derivative())
            - shift * (1 - 3 * t) * num * den,
            (1 - 3 * t) * den * den)


def recurrence_residue(rec):
    """The numerator, a polynomial in t, of

        sum_i x^(d-i) q_i(theta - i) (G - G_(<i)),   q_i = 27^i P_i,

    where G is ``rec.rational`` and G_(<i) its first i terms as
    ``rec.first`` gives them.  theta - i maps x^k to (k - i) x^k, so the
    sum is sum_N sum_i q_i(N) c_(N+i) x^(N+d) over the coefficients c_k
    of G, plus, in powers below x^d, the misfit of ``rec.first``."""
    x, g = cf.x_of_t(), rec.rational
    d = len(rec.first)
    head = Polynomial()
    num, den = Polynomial(), Polynomial([1])
    for i, coeffs in enumerate(rec.polys):
        power = (g.num - head * g.den, g.den)
        for j, c in enumerate(coeffs):
            if j:
                power = _theta_minus(i, *power)
            if c:
                term = 27**i * c * x ** (d - i) * power[0]
                num, den = num * power[1] + term * den, den * power[1]
        if i < d:
            head = head + Fraction(rec.first[i], rec.den * 27**i) * x**i
    return num


@pytest.mark.parametrize("which", sorted(cf._RECURRENCES))
def test_series_recurrences_hold_exactly_in_t(which):
    """Each entry of the table that ``series`` steps is a theorem, at
    every order.  A zero residue means that G's coefficients obey the
    recurrence at every N >= 0 (t(x) = (4/27) x + ..., so an identity in
    t is one in x).  The first terms are G's own, read off an expansion
    at the reversion of x(t), and P_d has non-negative coefficients and a
    positive constant, so P_d(N) > 0 for N >= 0: the recurrence then
    fixes every coefficient from them (the guess-and-prove of D-finite
    series, Stanley 1980; Salvy and Zimmermann, gfun, 1994)."""
    assert set(cf._RECURRENCES) == set(SERIES_TOKENS)
    rec = cf._RECURRENCES[which]
    assert recurrence_residue(rec).is_zero()
    t = TruncatedSeries(cf.x_of_t().coeffs).reversion()
    assert rec.rational.expand(t).coeffs[:len(rec.first)] == tuple(
        Fraction(a, rec.den * 27**k) for k, a in enumerate(rec.first))
    assert len(rec.polys) == len(rec.first) + 1
    c0, *rest = rec.polys[-1]
    assert c0 > 0 and min(rest) >= 0


_T_REC, _G0_REC = cf._RECURRENCES["t"], cf._RECURRENCES["g0"]


@pytest.mark.parametrize("rec", [
    replace(_G0_REC, polys=(_G0_REC.polys[0], (-213, -297, -108), _G0_REC.polys[2])),
    replace(_T_REC, first=(0,), polys=((6, 0, -54), (1, 3, 2))),
    replace(_G0_REC, first=(1, 16)),
], ids=["g0-71-for-70", "t-from-k-0", "g0-S1-16"])
def test_wrong_series_recurrences_leave_a_residue(rec):
    """Negative controls: g0's 70 changed to 71; t's first-order rule
    read from k = 0, where it gives a_1 = 0; g0's S(1) changed to 16."""
    assert not recurrence_residue(rec).is_zero()


def test_column_zero_degenerates_to_state_zero_functions():
    assert cf.f_u_coeff(0) == cf.f0_rational()
    assert cf.g_u_coeff(0) == cf.g0_rational()
    with pytest.raises(ValueError):
        cf.f_u_coeff(-1)
    with pytest.raises(ValueError):
        cf.g_u_coeff(-2)


def test_symmetric_pair_values():
    pair = cf.symmetric_pair()
    x = Polynomial.x()
    assert pair.sum_of_roots == Fraction(3, 2) * x
    assert pair.product_of_roots == Fraction(9, 4) * (x**2 - x)


def test_girard_waring_small_cases():
    pair = cf.symmetric_pair()
    e, f = pair.sum_of_roots, pair.product_of_roots
    assert cf.girard_waring_power_sum(0) == Polynomial([2])
    assert cf.girard_waring_power_sum(1) == e
    assert cf.girard_waring_power_sum(2) == e**2 - 2 * f
    assert cf.girard_waring_power_sum(3) == e**3 - 3 * e * f
    assert cf.girard_waring_quotient(0) == Polynomial()
    assert cf.girard_waring_quotient(1) == Polynomial([1])
    assert cf.girard_waring_quotient(2) == e
    assert cf.girard_waring_quotient(3) == e**2 - f


def test_girard_waring_sums_match_repeated_products():
    """The read-off sums against the Girard-Waring sums built from
    e^k and f^i by one Polynomial product per power."""
    pair = cf.symmetric_pair()
    e_powers, f_powers = [Polynomial([1])], [Polynomial([1])]
    for _ in range(200):
        e_powers.append(e_powers[-1] * pair.sum_of_roots)
    for _ in range(100):
        f_powers.append(f_powers[-1] * pair.product_of_roots)
    for m in [*range(1, 61), 200]:
        power_sum, quotient = Polynomial(), Polynomial()
        for i in range(m // 2 + 1):
            term = Fraction(m, m - i) * binom_general(m - i, i) * e_powers[m - 2 * i] * f_powers[i]
            power_sum = power_sum + (-term if i % 2 else term)
        for i in range((m - 1) // 2 + 1):
            term = binom_general(m - 1 - i, i) * e_powers[m - 1 - 2 * i] * f_powers[i]
            quotient = quotient + (-term if i % 2 else term)
        assert cf.girard_waring_power_sum(m) == power_sum
        assert cf.girard_waring_quotient(m) == quotient


def test_f_u_coeff_matches_product_form():
    """The numerator (3/2)^m [S1 - 3 S2] with S1 and S2 built from powers
    of t - 1 and t, as the docstring writes them."""
    t, t_minus_1 = Polynomial.x(), Polynomial([-1, 1])
    for m in range(31):
        s1 = Polynomial()
        for k in range(m // 2 + 1):
            term = binom_general(m - k, k) * t_minus_1**k * t ** (m - k)
            s1 = s1 + (-term if k % 2 else term)
        s2 = Polynomial()
        for k in range((m - 1) // 2 + 1):
            term = binom_general(m - 1 - k, k) * t_minus_1 ** (k + 1) * t ** (m - k)
            s2 = s2 + (-term if k % 2 else term)
        got = cf.f_u_coeff(m)
        assert got.num == Fraction(3, 2) ** m * (s1 - 3 * s2)
        assert got.den == Polynomial([1, -3]) * Polynomial([1, -1])


def test_girard_waring_rejects_negative_power():
    with pytest.raises(ValueError):
        cf.girard_waring_power_sum(-1)
    with pytest.raises(ValueError):
        cf.girard_waring_quotient(-1)


def test_kernel_identities_all_hold():
    results = cf.kernel_identity_results()
    assert [item.name for item in results] == [
        "bad-factor-root-kills-kernel",
        "kernel-cubic-factorization",
        "explicit-roots-match-symmetric-pair",
    ]
    assert all(item.holds for item in results)


@pytest.mark.parametrize("num, den", [
    ([2], [3, 3]),    # 2 / (3 (1 + t))
    ([2], [3]),       # 2 / 3
    ([1], [3, -3]),   # 1 / (3 (1 - t))
])
def test_kernel_identity_fails_for_a_wrong_bad_factor_root(monkeypatch, num, den):
    """Negative control: only the true U1 = 2 / (3 (1 - t)) kills the kernel."""
    wrong = RationalFunction(Polynomial(num), Polynomial(den))
    monkeypatch.setattr(cf, "bad_factor_root_rational", lambda: wrong)
    first, *rest = cf.kernel_identity_results()
    assert first.name == "bad-factor-root-kills-kernel" and not first.holds
    assert all(item.holds for item in rest)
