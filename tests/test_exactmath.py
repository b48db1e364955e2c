"""Tests for the exact series, polynomial and rational function toolkit."""

from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from knoedel.exactmath import (
    Polynomial,
    RationalFunction,
    TruncatedSeries,
    binom_general,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
# Ints (zero among them) and non-integer rationals of either sign.
coefficients = st.one_of(st.integers(-3, 3), rationals)


def series_strategy(min_order=1, max_order=8):
    return st.lists(rationals, min_size=min_order, max_size=max_order).map(TruncatedSeries)


def test_binom_general_known_values():
    assert binom_general(5, 2) == 10
    assert binom_general(0, 0) == 1
    assert binom_general(2, 5) == 0
    assert binom_general(-6, 2) == 21
    assert binom_general(-1, 3) == -1
    assert binom_general(3, -1) == 0
    assert binom_general(-6, -2) == 0


def test_binom_general_is_exact():
    assert isinstance(binom_general(40, 17), Fraction)
    assert binom_general(40, 17) == 88732378800


@given(st.integers(-60, 60), st.integers(-3, 40))
def test_binom_general_matches_falling_factorial(a, b):
    """a (a-1) ... (a-b+1) / b!, written out, for either sign of a."""
    falling, factorial = 1, 1
    for i in range(b):
        falling *= a - i
        factorial *= i + 1
    assert binom_general(a, b) == (Fraction(falling, factorial) if b >= 0 else 0)


@given(st.integers(-30, 30), st.integers(1, 10))
def test_binom_general_pascal_rule(a, b):
    """C(a, b) = C(a-1, b-1) + C(a-1, b) holds for any integer upper index."""
    assert binom_general(a, b) == binom_general(a - 1, b - 1) + binom_general(a - 1, b)


def schoolbook_product(a, b, length):
    """The first ``length`` coefficients of a * b, one Fraction at a time."""
    out = [Fraction(0)] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] += Fraction(x) * Fraction(y)
    return out


def recurrence_reciprocal(a):
    """b0 = 1/a0 and b_m = -b0 * sum_{k=1..m} a_k b_(m-k)."""
    a = [Fraction(c) for c in a]
    b = [1 / a[0]]
    for m in range(1, len(a)):
        b.append(-b[0] * sum(a[k] * b[m - k] for k in range(1, m + 1)))
    return b


@given(
    st.lists(coefficients, min_size=1, max_size=9),
    st.lists(coefficients, min_size=1, max_size=9),
)
def test_products_match_schoolbook_convolution(a, b):
    """Both products equal the Fraction convolution, at unequal orders too."""
    n = min(len(a), len(b))
    series = TruncatedSeries(a) * TruncatedSeries(b)
    assert series.coeffs == tuple(schoolbook_product(a[:n], b[:n], n))
    poly = Polynomial(a) * Polynomial(b)
    assert poly == Polynomial(schoolbook_product(a, b, len(a) + len(b) - 1))
    assert all(type(c) is Fraction for c in series.coeffs + poly.coeffs)


@given(
    st.lists(coefficients, min_size=1, max_size=6),
    st.lists(coefficients, min_size=1, max_size=6),
    st.integers(0, 5),
    st.integers(0, 5),
)
def test_products_with_trailing_zeros_match_schoolbook(a, b, pad_a, pad_b):
    """Trailing zeros, which the product drops before its dot products,
    change neither product; all-zero operands included."""
    a_padded, b_padded = a + [0] * pad_a, b + [0] * pad_b
    n = min(len(a_padded), len(b_padded))
    series = TruncatedSeries(a_padded) * TruncatedSeries(b_padded)
    assert series.coeffs == tuple(schoolbook_product(a_padded[:n], b_padded[:n], n))
    poly = Polynomial(a_padded) * Polynomial(b_padded)
    assert poly == Polynomial(schoolbook_product(a, b, len(a) + len(b) - 1))


def lagrange_reversion(a):
    """r_d = (1/d) [t^(d-1)] (t / A)^d, with t / A the reciprocal of
    a1 + a2 t + ... and its powers taken by schoolbook products."""
    n = len(a)
    quotient = recurrence_reciprocal(list(a[1:]) + [0])
    r = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for d in range(1, n):
        power = schoolbook_product(power, quotient, n)
        r[d] = power[d - 1] / d
    return r


nonzero = rationals.filter(bool)
dense_tails = st.lists(nonzero, min_size=0, max_size=12)
# Mostly zeros: a few nonzero coefficients at random places.
sparse_tails = st.integers(0, 12).flatmap(
    lambda length: st.dictionaries(st.integers(0, max(length - 1, 0)), nonzero, max_size=3).map(
        lambda picked: [picked.get(k, 0) for k in range(length)]
    )
)


@given(nonzero, st.one_of(dense_tails, sparse_tails))
def test_reversion_matches_lagrange_inversion(linear, tail):
    """Newton's reversion equals Lagrange inversion at orders 2 to 14."""
    a = [0, linear] + tail
    got = TruncatedSeries(a).reversion()
    assert got.coeffs == tuple(lagrange_reversion(a))
    assert all(type(c) is Fraction for c in got.coeffs)


@pytest.mark.parametrize("order", range(1, 10))
@given(
    st.one_of(st.just(Fraction(-3, 5)), rationals.filter(bool)),
    st.lists(coefficients, min_size=8, max_size=8),
)
def test_recip_matches_recurrence(order, constant, tail):
    """Newton's doubling lands on the coefficient recurrence at every order,
    across the pass boundaries at 2, 4 and 8."""
    a = [constant] + tail[: order - 1]
    got = TruncatedSeries(a).recip()
    assert got.coeffs == tuple(recurrence_reciprocal(a))
    assert all(type(c) is Fraction for c in got.coeffs)


def schoolbook_compose(a, inner, length):
    """sum_k a_k inner^k to ``length`` coefficients, by schoolbook powers."""
    out = [Fraction(0)] * length
    power = [Fraction(1)] + [Fraction(0)] * (length - 1)
    for c in a[:length]:
        out = [x + Fraction(c) * y for x, y in zip(out, power)]
        power = schoolbook_product(power, inner, length)
    return out


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def assert_canonical(element):
    """Numerators over a positive denominator sharing no factor with it,
    no trailing zero in a polynomial, and Fractions on the way out."""
    nums, den = element._ints()
    assert den > 0 and gcd(den, *nums) == 1, (nums, den)
    if isinstance(element, Polynomial):
        assert not nums or nums[-1], nums
    assert all(type(c) is Fraction for c in element.coeffs)


padded = st.tuples(st.lists(coefficients, min_size=1, max_size=6), st.integers(0, 3)).map(
    lambda drawn: drawn[0] + [0] * drawn[1]
)


@given(padded, padded, coefficients, nonzero, sparse_tails)
def test_ring_results_are_canonical_and_match_fraction_references(a, b, scalar, linear, tail):
    """Every series and polynomial result is canonical, reads back the
    Fractions of its schoolbook, recurrence, Lagrange or term-by-term
    derivative reference, and compares equal exactly to the elements
    built from equal Fractions.  Operands include zero, negative and
    zero-padded ones."""
    fa, fb, n = [Fraction(c) for c in a], [Fraction(c) for c in b], min(len(a), len(b))
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    inner = [Fraction(0)] + fb[1:]
    reversible = [0, linear] + tail
    series = [
        (sa + sb, [x + y for x, y in zip(fa, fb)]),
        (sa - sb, [x - y for x, y in zip(fa, fb)]),
        (-sa, [-x for x in fa]),
        (sa + scalar, [fa[0] + scalar] + fa[1:]),
        (scalar - sa, [scalar - fa[0]] + [-x for x in fa[1:]]),
        (scalar * sa, [scalar * x for x in fa]),
        (sa * sb, schoolbook_product(fa[:n], fb[:n], n)),
        (sa**3, schoolbook_product(schoolbook_product(fa, fa, len(a)), fa, len(a))),
        (sa.compose(TruncatedSeries(inner)), schoolbook_compose(fa, inner, n)),
        (TruncatedSeries(reversible).reversion(), lagrange_reversion(reversible)),
    ]
    if fa[0]:
        series.append((sa.recip(), recurrence_reciprocal(fa)))
    pa, pb = Polynomial(a), Polynomial(b)
    polynomials = [
        (pa + pb, [x + y for x, y in zip_longest(fa, fb, fillvalue=0)]),
        (pa - pb, [x - y for x, y in zip_longest(fa, fb, fillvalue=0)]),
        (-pa, [-x for x in fa]),
        (pa + scalar, [fa[0] + scalar] + fa[1:]),
        (scalar - pa, [scalar - fa[0]] + [-x for x in fa[1:]]),
        (scalar * pa, [scalar * x for x in fa]),
        (pa * pb, schoolbook_product(fa, fb, len(a) + len(b) - 1)),
        (pa**2, schoolbook_product(fa, fa, 2 * len(a) - 1)),
        (pa.derivative(), [k * x for k, x in enumerate(fa)][1:]),
    ]
    for got, want in series:
        # coeff(k) forms the one Fraction asked for, not the whole tuple.
        assert [got.coeff(k) for k in range(got.order)] == want
        assert all(type(got.coeff(k)) is Fraction for k in range(got.order))
        assert got._fracs is None
        assert_canonical(got)
        assert got.coeffs == tuple(want)
    for got, want in polynomials:
        assert [got.coeff(k) for k in range(len(want))] == want
        assert got._fracs is None
        assert_canonical(got)
        assert got.coeffs == tuple(trimmed(want))
    for got, _ in series:
        for _, want in series:
            if len(want) == got.order:
                assert (got == TruncatedSeries(want)) is (got.coeffs == tuple(want))
    for got, _ in polynomials:
        for _, want in polynomials:
            assert (got == Polynomial(want)) is (got.coeffs == tuple(trimmed(want)))
            assert (Polynomial(want) == got) is (got.coeffs == tuple(trimmed(want)))


def test_series_from_fractions_reads_back_without_integers():
    """A series built from Fractions keeps them: reading it returns the
    same Fraction objects, formed into one cached tuple, and derives no
    integer numerators."""
    given = tuple(Fraction(k - 2, 3 * k + 1) for k in range(6))
    series = TruncatedSeries(given)
    assert series.coeffs == given
    assert all(got is want for got, want in zip(series.coeffs, given))
    assert series.coeff(4) is given[4]
    assert series.coeffs is series.coeffs
    assert series._nums is None
    assert_canonical(series * 1)


def test_series_from_terms_reads_back_its_pairs():
    """A series built from reduced pairs returns them from ``terms()``
    and forms its integers only for arithmetic; in canonical form it
    derives the same pairs."""
    terms = ((0, 1), (4, 27), (-5, 6), (7, 1))
    series = TruncatedSeries.from_terms(terms)
    assert series.terms() == terms and series._nums is None
    assert series.coeffs == (0, Fraction(4, 27), Fraction(-5, 6), 7)
    assert series == TruncatedSeries(series.coeffs)
    assert_canonical(series * 1)
    assert (series * 1).terms() == terms
    with pytest.raises(ValueError):
        TruncatedSeries.from_terms(())


def test_series_constructor_pads_and_truncates():
    s = TruncatedSeries([1, 2, 3], order=5)
    assert s.coeffs == (1, 2, 3, 0, 0)
    assert TruncatedSeries([1, 2, 3], order=2).coeffs == (1, 2)
    assert TruncatedSeries([], order=3).coeffs == (0, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries([], order=0)
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(TypeError, match="float"):
        TruncatedSeries([1, 0.5])


def test_series_coeff_bounds():
    s = TruncatedSeries([1, 2], order=4)
    assert s.coeff(3) == 0
    with pytest.raises(IndexError):
        s.coeff(4)
    with pytest.raises(IndexError):
        s.coeff(-1)


def test_series_binary_ops_truncate_to_smaller_order():
    a = TruncatedSeries([1, 1, 1, 1], order=4)
    b = TruncatedSeries([1, 2], order=2)
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert (a - b).order == 2


def test_series_geometric_reciprocal():
    one_minus_t = TruncatedSeries([1, -1], order=6)
    assert one_minus_t.recip() == TruncatedSeries([1] * 6)


def test_series_recip_requires_unit():
    with pytest.raises(ValueError, match="not a unit"):
        TruncatedSeries([0, 1], order=3).recip()


@given(series_strategy(min_order=2, max_order=7))
def test_series_recip_is_inverse(s):
    """s * recip(s) is the constant one whenever the constant term is a unit."""
    assume(s.coeff(0) != 0)
    assert s * s.recip() == TruncatedSeries([1], s.order)


@given(series_strategy(max_order=6), series_strategy(max_order=6))
def test_series_mul_commutes(a, b):
    assert a * b == b * a


@given(
    series_strategy(min_order=5, max_order=5),
    series_strategy(min_order=5, max_order=5),
    series_strategy(min_order=5, max_order=5),
)
def test_series_mul_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_series_scalar_arithmetic():
    s = TruncatedSeries([1, 2, 3])
    assert (2 * s).coeffs == (2, 4, 6)
    assert (s + 1).coeffs == (2, 2, 3)
    assert (1 - s).coeffs == (0, -2, -3)
    assert (Fraction(1, 2) * s).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))


def test_series_pow():
    t = TruncatedSeries.identity(6)
    cube = (1 + t) ** 3
    assert cube.coeffs == (1, 3, 3, 1, 0, 0)
    assert (t**0) == TruncatedSeries([1], 6)
    with pytest.raises(ValueError):
        t ** (-1)


def test_series_compose_known_case():
    geom = TruncatedSeries([1] * 6)
    t = TruncatedSeries.identity(6)
    composed = geom.compose(t * t)
    assert composed.coeffs == (1, 0, 1, 0, 1, 0)
    with pytest.raises(ValueError, match="zero constant term"):
        geom.compose(TruncatedSeries([1, 1], order=6))
    assert geom.compose(TruncatedSeries.identity(4)) == TruncatedSeries([1] * 4)
    assert TruncatedSeries([1] * 3).compose(t * t).coeffs == (1, 0, 1)


def test_series_reversion_known_case():
    t = TruncatedSeries.identity(7)
    w = t * (1 - t).recip()  # t + t^2 + t^3 + ...
    r = w.reversion()  # t / (1 + t)
    assert r == t * (1 + t).recip()


def test_series_reversion_requires_zero_constant_and_unit_slope():
    with pytest.raises(ValueError, match="not invertible as formal series"):
        TruncatedSeries([1, 1], order=4).reversion()
    with pytest.raises(ValueError, match="not invertible as formal series"):
        TruncatedSeries([0, 0, 1], order=4).reversion()


@given(st.lists(rationals, min_size=4, max_size=7))
def test_series_reversion_round_trip(tail):
    """Reversion is a two-sided compositional inverse."""
    coeffs = [Fraction(0), Fraction(1)] + tail
    s = TruncatedSeries(coeffs)
    r = s.reversion()
    identity = TruncatedSeries.identity(s.order)
    assert s.compose(r) == identity
    assert r.compose(s) == identity


def test_polynomial_basics():
    p = Polynomial([1, 0, 3, 0])
    assert p.coeffs == (1, 0, 3)
    assert p.coeff(2) == 3
    assert p.coeff(99) == 0
    assert Polynomial().coeffs == ()
    assert Polynomial().is_zero()
    assert p(2) == 13
    assert p(Fraction(1, 2)) == Fraction(7, 4)
    with pytest.raises(TypeError, match="float"):
        Polynomial([0.5])
    with pytest.raises(TypeError):
        p * 0.5


def test_polynomial_arithmetic():
    x = Polynomial.x()
    p = (1 - x) * (1 + x)
    assert p == Polynomial([1, 0, -1])
    assert (x + 1) ** 3 == Polynomial([1, 3, 3, 1])
    assert 2 * x - x == x
    assert x - x == Polynomial()
    assert Polynomial([1, 1]) == 1 + x
    assert x**0 == Polynomial([1])
    with pytest.raises(ValueError):
        x ** (-1)


def test_polynomial_evaluates_on_series():
    x = Polynomial.x()
    p = 1 + 2 * x + x**2
    t = TruncatedSeries.identity(5)
    assert p(t) == (1 + t) * (1 + t)


def test_rational_function_equality_by_cross_multiplication():
    x = Polynomial.x()
    a = RationalFunction(1 - x**2, 1 - x)
    b = RationalFunction(1 + x, Polynomial([1]))
    assert a == b
    assert a != RationalFunction(1 + x, 1 - x)
    assert a != 1 + x


def test_rational_function_expansion():
    x = Polynomial.x()
    t = TruncatedSeries.identity(6)
    assert RationalFunction(Polynomial([1]), 1 - x).expand(t) == TruncatedSeries([1] * 6)
    square = RationalFunction(Polynomial([1]), (1 - x) ** 2)
    assert square.expand(t).coeffs == (1, 2, 3, 4, 5, 6)
    assert RationalFunction(x, 1 - x).expand(t).coeffs == (0, 1, 1, 1, 1, 1)


def test_rational_function_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        RationalFunction(Polynomial([1]), Polynomial())
