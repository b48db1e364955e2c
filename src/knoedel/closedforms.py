"""Closed-form coefficients and generating-function algebra for the walks.

The generating function of the double-large walk satisfies a kernel
equation whose kernel K(z, u) = x u^3 - 3u + 2 (after the substitution
u = zU, x = z^3) factors over the algebraic functions of

    x = (27/4) t (1 - t)^2.

The three roots of x U^3 - 3U + 2 in U are the "bad factor"
U1 = 2 / (3(1 - t)) and the reciprocals of

    sigma, tau = (3/4) t -+ (3/4) sqrt(4t - 3t^2),

whose symmetric functions are polynomials in t:

    sigma + tau = (3/2) t,      sigma * tau = (9/4) t (t - 1).

Everything downstream of the kernel lives in these objects:

* step probabilities of either walk at a numbered state or at BETA,
  as explicit single or double binomial sums, added up over the integers
  and divided by their power of 3 once,
* the x-expansions the CLI prints, t(x), 1/(1-t), the bad-factor root
  U1 and the state-0 generating functions f0 and g0, each stepped by its
  exact term recurrence (below),
* f0 and g0 again, as the independent route checked against those
  recurrences: a rational function of t composed with the reversion
  t(x) (``f0_series_from_t``, ``g0_series_from_t``),
* the per-state rational functions of t whose x-expansions reproduce
  the binomial-sum coefficients column by column,
* Girard-Waring closed sums for sigma^m + tau^m and the difference
  quotient (sigma^m - tau^m) / (sigma - tau), whose coefficients are
  read off term by term: e = (3/2) t is a monomial, so every term
  e^(m-2i) f^i is (3/2)^m t^(m-i) (t-1)^i,
* the kernel identities themselves, checked exactly.

Series in this module are expansions in x unless a name says otherwise;
``t_series`` is the bridge, the compositional inverse of x(t).

The five printed series are rational functions of t, so their
coefficients obey linear recurrences with polynomial coefficients.  One
table, ``_RECURRENCES``, holds each series' rational function, first
terms and recurrence, and one loop steps every series from it: the
integer numerator of [x^k] over 27^k (over 3 27^k for U1) comes from the
one or two before it by products with small integers and one exact
``//``, so order n costs O(n) such products.  Each coefficient is then
held as a reduced integer pair, reduced by a gcd against one word, since
its denominator is a power of 3; ``series`` prints those pairs, and no
``Fraction`` is formed until a caller reads ``coeffs``.
``tests/test_closedforms.py`` proves every entry of that table exactly
in t (``test_series_recurrences_hold_exactly_in_t``).  The closed
formulas stay for ``coeff`` and the verification suites.

All closed forms assume the balanced draw probabilities (p = 1/3 for
double-large, p = 2/3 for double-small); the dispatcher
``closed_form_probability`` refuses other walks, by ``is_balanced``,
which each walk works out once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb

from .exactmath import (
    ZERO,
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    binom_general,
    lowest_terms,
    word_power,
)
from .models import ModelKind, State, WalkModel, _BetaState, frontier

_T = Polynomial.x()
_ONE_MINUS_T = Polynomial([1, -1])
_ONE_MINUS_3T = Polynomial([1, -3])
_FOUR_MINUS_3T = Polynomial([4, -3])
_DOUBLE_LARGE = WalkModel.double_large()
_DOUBLE_SMALL = WalkModel.double_small()


def x_of_t() -> Polynomial:
    """The substitution x = (27/4) t (1 - t)^2 as a polynomial in t."""
    return Fraction(27, 4) * _T * _ONE_MINUS_T**2


# The largest power of 3 in one 30-bit digit, 3**18.
_THREE_WORD = 3 ** word_power(3)


def _over_powers_of_27(nums: list[int], den: int) -> TruncatedSeries:
    """The series sum_k nums[k] x^k / (den 27^k), for den a power of 3,
    held as reduced integer pairs.  27^k is stepped by one product, and
    each pair is reduced by ``lowest_terms`` against the word
    3**min(e, 18) of den 27^k = 3**e: a remainder and a word gcd, and
    the full gcd only when nums[k] over that gcd is still a multiple of
    3, which below order 400 only t's a_0 = 0 is."""
    terms, power = [], den
    for num in nums:
        terms.append(lowest_terms(num, power, min(power, _THREE_WORD), 3))
        power *= 27
    return TruncatedSeries.from_terms(terms)


def bad_factor_root_rational() -> RationalFunction:
    """The kernel root U1 = 2 / (3 (1 - t)) that carries no walk mass."""
    return RationalFunction(Polynomial([2]), 3 * _ONE_MINUS_T)


def f0_rational() -> RationalFunction:
    """Return-probability generating function of the double-large walk,
    as a rational function of t: f0 = 1 / ((1 - t)(1 - 3t))."""
    return RationalFunction(Polynomial([1]), _ONE_MINUS_T * _ONE_MINUS_3T)


def g0_rational() -> RationalFunction:
    """State-0 generating function of the double-small walk:
    g0 = 4 / ((1 - 3t)(4 - 3t))."""
    return RationalFunction(Polynomial([4]), _ONE_MINUS_3T * _FOUR_MINUS_3T)


@dataclass(frozen=True)
class _Recurrence:
    """A printed series G, a rational function of t, whose coefficients
    are [x^k] G = a_k / (den 27^k) with a_0 .. a_(d-1) = ``first`` and

        sum_(i=0..d) P_i(N) a_(N+i) = 0   for every N >= 0,

    where ``polys`` holds each P_i(N) = c0 + c1 N + c2 N^2 as the tuple
    (c0, c1, c2).  P_d(N) > 0 for N >= 0, so ``first`` and the rule fix
    every a_k.  Each a_k is an integer, so each step's ``//`` is exact:
    with y = x/27, t = 4y / (1-t)^2 has coefficients in 4Z, and den G is
    an integer polynomial in t and t/4 over one with constant term 1."""

    rational: RationalFunction
    first: tuple[int, ...]
    den: int
    polys: tuple[tuple[int, int, int], ...]


# Keyed by the ``series --which`` token.  The factor 4^k is folded into
# the numerators.  t's first-order rule holds only from k = 1; written at
# N = k - 1 with P_0 = 0, it holds from N = 0.  g0's rule was found from
# its first 62 sums.
_RECURRENCES = {
    # (N+2)(2N+3) a_(N+2) = 6 (3N+2)(3N+4) a_(N+1):  a_k = 4^k C(3k-2, k-1) / k
    "t": _Recurrence(RationalFunction(_T, Polynomial([1])), (0, 4), 1,
                     ((0, 0, 0), (-48, -108, -54), (6, 7, 2))),
    # (N+1)(2N+3) b_(N+1) = 6 (3N+1)(3N+2) b_N:  b_k = 4^k C(3k, k) / (2k+1)
    "inv1mt": _Recurrence(RationalFunction(Polynomial([1]), _ONE_MINUS_T), (1,), 1,
                          ((-12, -54, -54), (3, 5, 2))),
    # 2 b_k, the same rule, over 3 27^k
    "u1": _Recurrence(bad_factor_root_rational(), (2,), 3, ((-12, -54, -54), (3, 5, 2))),
    # (N+1)(2N+3) F_(N+1) = 6 (3N+2)(3N+4) F_N:  F_N = 4^N C(3N+1, N)
    "f0": _Recurrence(f0_rational(), (1,), 1, ((-48, -108, -54), (3, 5, 2))),
    # (N+2)(2N+3) S(N+2) = 3 (36N^2 + 99N + 70) S(N+1) - 162 (3N+2)(3N+4) S(N)
    "g0": _Recurrence(g0_rational(), (1, 15), 1,
                      ((1296, 2916, 1458), (-210, -297, -108), (6, 7, 2))),
}


def _recurrence_series(which: str, order: int) -> TruncatedSeries:
    """The first ``order`` terms of ``_RECURRENCES[which]``: from ``first``,
    each a_(n+d) = -sum_(i<d) P_i(n) a_(n+i) // P_d(n), an exact
    division, then one reduced integer pair per coefficient
    (``_over_powers_of_27``)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    rec = _RECURRENCES[which]
    *lower, (c0, c1, c2) = rec.polys
    nums = list(rec.first[:order])
    for n in range(order - len(rec.first)):
        total = 0
        for i, (b0, b1, b2) in enumerate(lower):
            total -= ((b2 * n + b1) * n + b0) * nums[n + i]
        nums.append(total // ((c2 * n + c1) * n + c0))
    return _over_powers_of_27(nums, rec.den)


def t_series(order: int) -> TruncatedSeries:
    """Reversion t(x) of x = (27/4) t (1-t)^2, by its term recurrence.

    [x^k] t = (1/k) C(3k-2, k-1) 2^(2k) / 3^(3k), stepped from a_0 = 0
    and a_1 = 4 over 27^k (``_RECURRENCES["t"]``).  The first terms are
    (4/27) x + (32/729) x^2 + (448/19683) x^3 + ...  The library checks
    this against ``x_of_t`` series reversion, so the two routes stay
    independent.
    """
    return _recurrence_series("t", order)


def inv_one_minus_t_series(order: int) -> TruncatedSeries:
    """Expansion of 1 / (1 - t(x)) in x, by its term recurrence.

    [x^k] = (1/(2k+1)) C(3k, k) 2^(2k) / 3^(3k); the constant term is 1.
    Equals ``(1 - t_series(order)).recip()`` coefficient for coefficient.
    """
    return _recurrence_series("inv1mt", order)


def bad_factor_root_series(order: int) -> TruncatedSeries:
    """Expansion of the bad-factor root 2 / (3(1 - t(x))) in x, by its
    term recurrence.

    [x^k] = (1/(2k+1)) C(3k, k) 2^(2k+1) / 3^(3k+1), starting 2/3 +
    (8/81) x + ...  This is exactly 2/3 times ``inv_one_minus_t_series``;
    keeping the two normalizations separate is the point, since
    conflating them scales every downstream probability by 2/3.
    """
    return _recurrence_series("u1", order)


def f0_series(order: int) -> TruncatedSeries:
    """x-expansion of f0 by its term recurrence; [x^N] is the probability
    of state 0 after 3N steps of the double-large walk.

    Each step reproduces the closed sum ``f_state_coeff(3N, 0)`` =
    2^(2N) C(3N+1, N) / 3^(3N).

    This is what ``series --which f0`` prints.  ``f0_series_from_t`` is
    the independent route: the tests check it against this recurrence at
    order 200, and ``series_suite`` checks it against the DP."""
    return _recurrence_series("f0", order)


def f0_series_from_t(order: int) -> TruncatedSeries:
    """f0 by composition: ``f0_rational`` expanded at ``t_series(order)``.
    Equals ``f0_series(order)`` coefficient for coefficient."""
    return f0_rational().expand(t_series(order))


def g0_series(order: int) -> TruncatedSeries:
    """x-expansion of g0 by its term recurrence; [x^N] is the probability
    of state 0 after 3N steps of the double-small walk.

    [x^N] = S(N) / 27^N, where S(N) = ``_g_sum(N, 0)`` is the integer
    behind ``g0_coeff(N)``: a second-order rule in ``_RECURRENCES``
    steps S from S(0) = 1 and S(1) = 15, so each coefficient takes two
    products and one exact division, not an O(N) sum.  The rule is
    proved exactly in t by ``test_series_recurrences_hold_exactly_in_t``,
    and checked against ``g0_coeff`` at every N below 400, twice the
    CLI's order cap.

    This is what ``series --which g0`` prints.  ``g0_series_from_t`` is
    the independent route: the tests check it against this recurrence at
    order 200, and ``series_suite`` checks it against the DP."""
    return _recurrence_series("g0", order)


def g0_series_from_t(order: int) -> TruncatedSeries:
    """g0 by composition: ``g0_rational`` expanded at ``t_series(order)``.
    Equals ``g0_series(order)`` coefficient for coefficient."""
    return g0_rational().expand(t_series(order))


def _diagonal_sum(p: int, top: int, shift: int) -> int:
    """sum_k C(p-k, k) C(top, shift+k) over k >= max(0, -shift).

    Each binomial is stepped to the next k by its exact integer ratio,
    C(p-k-1, k+1) = C(p-k, k) (p-2k)(p-2k-1) / ((p-k)(k+1)) and
    C(top, s+1) = C(top, s) (top-s) / (s+1), so only the first term
    calls ``comb``.
    """
    k = max(0, -shift)
    if 2 * k > p:
        return 0
    left, right = comb(p - k, k), comb(top, shift + k)
    total = left * right
    while 2 * k + 2 <= p:
        left = left * (p - 2 * k) * (p - 2 * k - 1) // ((p - k) * (k + 1))
        right = right * (top - shift - k) // (shift + k + 1)
        k += 1
        total += left * right
    return total


def f_state_coeff(steps: int, state: int) -> Fraction:
    """Probability that the double-large walk sits at numbered state
    ``state`` after ``steps`` steps, as a closed double sum.

    With j = state, the value vanishes unless steps + j = 3N for an
    integer N >= 0, and then equals

        (3/2)^j (4/27)^N (-1)^(N-j) [ S1 + 3 S2 ]
        S1 = sum_k (-1)^k C(j-k, k)   C(k-2N-2, N-j+k)
        S2 = sum_k (-1)^k C(j-1-k, k) C(k-2N-1, N-j+k)

    The reflection C(k-2N-2, r) = (-1)^r C(3N-j+1, r), with r = N-j+k
    (and likewise C(k-2N-1, r) = (-1)^r C(3N-j, r)), cancels every sign,
    which leaves sums of positive integers over a power of 3:

        2^(2N-j) [ S1 + 3 S2 ] / 3^(3N-j)
        S1 = sum_k C(j-k, k)   C(3N-j+1, N-j+k)
        S2 = sum_k C(j-1-k, k) C(3N-j,   N-j+k)

    This is the form computed.  The value also vanishes beyond the walk's
    frontier, where the sums would take about j/2 terms to cancel, so it
    returns 0 there at once.
    """
    if steps < 0 or state < 0:
        raise ValueError("steps and state must be non-negative")
    j = state
    if (steps + j) % 3 or j > frontier(_DOUBLE_LARGE, steps):
        return ZERO
    n_blocks = (steps + j) // 3
    s1 = _diagonal_sum(j, 3 * n_blocks - j + 1, n_blocks - j)
    s2 = _diagonal_sum(j - 1, 3 * n_blocks - j, n_blocks - j)
    return Fraction(2 ** (2 * n_blocks - j) * (s1 + 3 * s2), 3 ** (3 * n_blocks - j))


def fbeta_coeff(index: int) -> Fraction:
    """Probability that the double-large walk sits at BETA after 3m+1 steps:
    2^(2m+1) / 3^(3m+1) * C(3m+1, m)."""
    if index < 0:
        raise ValueError("index must be non-negative")
    m = index
    return Fraction(2 ** (2 * m + 1), 3 ** (3 * m + 1)) * binom_general(3 * m + 1, m)


def _g_sum(n_blocks: int, j: int) -> int:
    """sum_{i=0}^{N} 4^i 3^(N-i) C(2N+j+i, i), the integer behind
    ``g0_coeff`` (j = 0), ``gbeta_coeff`` (j = 1) and ``g_state_coeff``.

    Horner in 3; each term 4^i C(2N+j+i, i) is stepped from the last by
    its exact ratio 4 (2N+j+i+1) / (i+1).
    """
    top = 2 * n_blocks + j
    total, term = 0, 1
    for i in range(n_blocks + 1):
        total = 3 * total + term
        term = term * 4 * (top + i + 1) // (i + 1)
    return total


def g0_coeff(index: int) -> Fraction:
    """Probability that the double-small walk sits at state 0 after 3N steps:
    sum_i 2^(2i) / 3^(2N+i) * C(2N+i, i)."""
    if index < 0:
        raise ValueError("index must be non-negative")
    return Fraction(_g_sum(index, 0), 3 ** (3 * index))


def gbeta_coeff(index: int) -> Fraction:
    """Probability that the double-small walk sits at BETA after 3N+2 steps:
    sum_i 2^(2i) / 3^(2N+i+1) * C(2N+1+i, i).

    Equals one third of the state-1 probability one step earlier, since the
    only route into BETA is the black edge out of state 1.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    return Fraction(_g_sum(index, 1), 3 ** (3 * index + 1))


def g_state_coeff(steps: int, state: int) -> Fraction:
    """Probability that the double-small walk sits at numbered state
    ``state`` after ``steps`` steps.

    For state j >= 1 the value vanishes unless steps - j = 3N for an
    integer N >= 0, and then equals

        sum_{i=0}^{N} 2^(2i+j-1) / 3^(2N+i+j-1) * C(2N+j+i, i).

    State 0 has a different coefficient shape and is routed to
    ``g0_coeff``.
    """
    if steps < 0 or state < 0:
        raise ValueError("steps and state must be non-negative")
    j = state
    if j == 0:
        return g0_coeff(steps // 3) if steps % 3 == 0 else ZERO
    if (steps - j) % 3 or j > frontier(_DOUBLE_SMALL, steps):
        return ZERO
    n_blocks = (steps - j) // 3
    return Fraction(2 ** (j - 1) * _g_sum(n_blocks, j), 3 ** (3 * n_blocks + j - 1))


def _read_off(top: int, weights: list[int]) -> list[int]:
    """Integer coefficients of sum_i weights[i] t^(top-i) (1-t)^i.

    Term i adds weights[i] C(i, l) (-1)^l to the coefficient of
    t^(top-i+l) for l = 0..i; C(i, l+1) is stepped from C(i, l) by its
    exact ratio (i-l) / (l+1).
    """
    out = [0] * (top + 1)
    for i, weight in enumerate(weights):
        term = weight
        for l in range(i + 1):
            out[top - i + l] += term
            term = -term * (i - l) // (l + 1)
    return out


def _three_halves_power(m: int, ints: list[int]) -> Polynomial:
    """(3/2)^m times the integer polynomial with coefficients ``ints``,
    built as the integer numerators c 3^m over 2^m and reduced by one
    gcd, with no ``Fraction`` per coefficient."""
    num = 3**m
    return Polynomial._reduced([c * num for c in ints], 2**m)


def f_u_coeff(order_in_u: int) -> RationalFunction:
    """Rational function of t behind column m of the double-large walk.

    Writing f_m for the generating function of the state-m probabilities,
    z^m f_m is a function of x alone and its x-expansion is this rational
    function composed with t(x):

        (3/2)^m / ((1-3t)(1-t)) * [ S1(t) - 3 S2(t) ]
        S1 = sum_k (-1)^k C(m-k, k)   (t-1)^k     t^(m-k)
        S2 = sum_k (-1)^k C(m-1-k, k) (t-1)^(k+1) t^(m-k)

    The signs fold into powers of 1 - t: S1 = sum_k C(m-k, k) t^(m-k)
    (1-t)^k and, with i = k + 1, -S2 = sum_i C(m-i, i-1) t^(m+1-i) (1-t)^i,
    so the numerator's integer coefficients are read off by ``_read_off``.

    [x^N] of the expansion equals ``f_state_coeff(3N - m, m)``; m = 0
    degenerates to ``f0_rational``.
    """
    m = order_in_u
    if m < 0:
        raise ValueError("column index must be non-negative")
    s1 = _read_off(m, [comb(m - k, k) for k in range(m // 2 + 1)])
    minus_s2 = _read_off(m + 1, [comb(m - i, i - 1) if i else 0 for i in range((m + 1) // 2 + 1)])
    ints = [a + 3 * b for a, b in zip_longest(s1, minus_s2, fillvalue=0)]
    return RationalFunction(_three_halves_power(m, ints), _ONE_MINUS_3T * _ONE_MINUS_T)


def g_u_coeff(order_in_u: int) -> RationalFunction:
    """Rational function of t behind column j of the double-small walk.

    For j >= 1 it is 6 / ((1-3t)(4-3t)) * (2 / (3(1-t)))^j, and [x^N] of
    its expansion equals ``g_state_coeff(3N + j, j)``.  Column 0 has the
    different shape ``g0_rational`` and is routed there.
    """
    j = order_in_u
    if j < 0:
        raise ValueError("column index must be non-negative")
    if j == 0:
        return g0_rational()
    num = Polynomial([Fraction(6 * 2**j, 3**j)])
    den = _ONE_MINUS_3T * _FOUR_MINUS_3T * _ONE_MINUS_T**j
    return RationalFunction(num, den)


@dataclass(frozen=True)
class SymmetricPair:
    """Elementary symmetric functions of the kernel roots sigma and tau."""

    sum_of_roots: Polynomial
    product_of_roots: Polynomial


def symmetric_pair() -> SymmetricPair:
    """sigma + tau = (3/2) t and sigma tau = (9/4) t (t - 1)."""
    return SymmetricPair(
        sum_of_roots=Fraction(3, 2) * _T,
        product_of_roots=Fraction(9, 4) * (_T**2 - _T),
    )


def girard_waring_power_sum(m: int) -> Polynomial:
    """sigma^m + tau^m as a polynomial in t, by the Girard-Waring closed sum

    sum_{i<=m/2} (-1)^i m/(m-i) C(m-i, i) e^(m-2i) f^i

    with e, f the symmetric pair.  Since e^(m-2i) f^i = (3/2)^m t^(m-i)
    (t-1)^i, the coefficient of t^(m-i+l) collects

        (3/2)^m [C(m-i, i) + C(m-i-1, i-1)] C(i, l) (-1)^l

    over i, where the bracket is the integer m/(m-i) C(m-i, i).  m = 0
    gives the constant 2.
    """
    if m < 0:
        raise ValueError("power must be non-negative")
    if m == 0:
        return Polynomial([2])
    weights = [comb(m - i, i) + (comb(m - i - 1, i - 1) if i else 0) for i in range(m // 2 + 1)]
    return _three_halves_power(m, _read_off(m, weights))


def girard_waring_quotient(m: int) -> Polynomial:
    """(sigma^m - tau^m) / (sigma - tau) as a polynomial in t:

    sum_{i<=(m-1)/2} (-1)^i C(m-1-i, i) e^(m-1-2i) f^i.

    As for the power sum, the coefficient of t^(m-1-i+l) collects
    (3/2)^(m-1) C(m-1-i, i) C(i, l) (-1)^l over i.  m = 0 gives 0 and
    m = 1 gives 1.
    """
    if m < 0:
        raise ValueError("power must be non-negative")
    if m == 0:
        return Polynomial()
    weights = [comb(m - 1 - i, i) for i in range((m - 1) // 2 + 1)]
    return _three_halves_power(m - 1, _read_off(m - 1, weights))


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one exact kernel identity verification."""

    name: str
    holds: bool
    detail: str


def _vpoly_mul(a: list[Polynomial], b: list[Polynomial]) -> list[Polynomial]:
    """Multiply polynomials in V whose coefficients are polynomials in t."""
    out = [Polynomial() for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for k, cb in enumerate(b):
            out[i + k] = out[i + k] + ca * cb
    return out


def kernel_identity_results() -> list[IdentityCheck]:
    """Check the three kernel identities in exact arithmetic.

    1. The bad-factor root satisfies x U1^3 - 3 U1 + 2 = 0.  With
       U1 = num/den the denominator is cleared:
       x num^3 - 3 num den^2 + 2 den^3 = 0 as a polynomial in t.
    2. The kernel cubic factors: 2V^3 - 3V^2 + x =
       2 (V - (3/2)(1-t)) (V^2 - eV + f).
    3. The explicit roots (3/4)t -+ (3/4) sqrt(4t - 3t^2) have elementary
       symmetric functions e and f; the radical cancels in both.
    """
    results = []

    u1 = bad_factor_root_rational()
    num, den = u1.num, u1.den
    residue = x_of_t() * num**3 - 3 * num * den**2 + 2 * den**3
    results.append(
        IdentityCheck(
            name="bad-factor-root-kills-kernel",
            holds=residue.is_zero(),
            detail="x U1^3 - 3 U1 + 2 = 0, cleared of U1's denominator",
        )
    )

    pair = symmetric_pair()
    lhs = [x_of_t(), Polynomial(), Polynomial([-3]), Polynomial([2])]
    linear = [Fraction(-3, 2) * _ONE_MINUS_T, Polynomial([1])]
    quadratic = [pair.product_of_roots, -pair.sum_of_roots, Polynomial([1])]
    rhs = [2 * c for c in _vpoly_mul(linear, quadratic)]
    results.append(
        IdentityCheck(
            name="kernel-cubic-factorization",
            holds=lhs == rhs,
            detail="2V^3 - 3V^2 + x = 2(V - (3/2)(1-t))(V^2 - eV + f) coefficient-wise",
        )
    )

    rational_part = Fraction(3, 4) * _T
    radical_square = Fraction(9, 16) * (4 * _T - 3 * _T**2)
    sum_explicit = 2 * rational_part
    product_explicit = rational_part**2 - radical_square
    holds = sum_explicit == pair.sum_of_roots and product_explicit == pair.product_of_roots
    results.append(
        IdentityCheck(
            name="explicit-roots-match-symmetric-pair",
            holds=holds,
            detail="(3/4)t -+ (3/4)sqrt(4t-3t^2) re-derive e and f with the radical cancelled",
        )
    )

    return results


def closed_form_probability(model: WalkModel, state: State, steps: int) -> Fraction:
    """Step probability of either walk through the closed forms alone.

    Raises ValueError for walks whose draw probability is not the balanced
    one the closed forms were derived for.
    """
    if not model.is_balanced:
        raise ValueError(
            "closed forms require the balanced probabilities "
            "(p=1/3 for double-large, p=2/3 for double-small)"
        )
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if model.kind is ModelKind.DOUBLE_LARGE:
        if isinstance(state, _BetaState):
            return fbeta_coeff((steps - 1) // 3) if steps % 3 == 1 else ZERO
        return f_state_coeff(steps, state)
    if isinstance(state, _BetaState):
        return gbeta_coeff((steps - 2) // 3) if steps % 3 == 2 else ZERO
    return g_state_coeff(steps, state)
