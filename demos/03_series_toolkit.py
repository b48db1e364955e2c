"""The series toolkit: reversion, reciprocal and two normalizations.

The kernel substitution x = (27/4) t (1-t)^2 turns step generating
functions into rational functions of t.  This script inverts the
substitution by exact reversion (Newton's method), expands 1/(1-t) and the
bad-factor root 2/(3(1-t)) in x, and shows why keeping the two apart
matters: they differ by a constant factor 2/3 that would silently scale
every probability.
"""

from fractions import Fraction

from knoedel import (
    TruncatedSeries,
    WalkModel,
    bad_factor_root_series,
    dp_table,
    f0_series_from_t,
    g0_series_from_t,
    inv_one_minus_t_series,
    t_series,
    x_of_t,
)

ORDER = 8


def show_reversion():
    print("=== the substitution and its reversion ===")
    print(f"x(t) = {x_of_t()!r}")
    x_series = TruncatedSeries(x_of_t().coeffs, ORDER)
    t = t_series(ORDER)
    assert t == x_series.reversion()
    print("t(x) coefficients:", ", ".join(str(c) for c in t.coeffs))
    identity = TruncatedSeries.identity(ORDER)
    assert x_series.compose(t) == identity and t.compose(x_series) == identity
    print("round trips x(t(x)) and t(x(t)) both give the identity series")


def show_normalizations():
    print("\n=== 1/(1-t) versus the bad-factor root ===")
    inv = inv_one_minus_t_series(ORDER)
    bad = bad_factor_root_series(ORDER)
    print("1/(1-t):   ", ", ".join(str(c) for c in inv.coeffs[:5]))
    print("2/(3(1-t)):", ", ".join(str(c) for c in bad.coeffs[:5]))
    assert bad == Fraction(2, 3) * inv
    assert inv == (1 - t_series(ORDER)).recip()
    print("the bad-factor root is exactly 2/3 of 1/(1-t), term by term")


def show_state_zero_series():
    print("\n=== state-0 series against the walks ===")
    f0 = f0_series_from_t(ORDER)
    g0 = g0_series_from_t(ORDER)
    large = dp_table(WalkModel.double_large(), 3 * (ORDER - 1))
    small = dp_table(WalkModel.double_small(), 3 * (ORDER - 1))
    for n_blocks in range(ORDER):
        lhs = f0.coeff(n_blocks)
        rhs = large[3 * n_blocks].prob(0)
        assert lhs == rhs
        print(f"  [x^{n_blocks}] f0 = {lhs} = P(double-large at 0 after {3 * n_blocks} steps)")
    for n_blocks in range(4):
        assert g0.coeff(n_blocks) == small[3 * n_blocks].prob(0)
    print("  g0 column checked the same way")


if __name__ == "__main__":
    show_reversion()
    show_normalizations()
    show_state_zero_series()
