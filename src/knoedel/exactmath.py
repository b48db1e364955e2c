"""Exact arithmetic for truncated power series and rational functions.

Every coefficient a caller sees is a ``fractions.Fraction``, so all results
are exact.  The three building blocks are

* ``TruncatedSeries``: a formal power series kept to a fixed truncation
  order, with ring operations, reciprocal, composition and reversion
  (compositional inverse),
* ``Polynomial``: a dense polynomial with exact coefficients,
* ``RationalFunction``: a quotient of two polynomials, comparable by
  cross multiplication and expandable into a ``TruncatedSeries``; it has
  no arithmetic of its own.

Series and polynomials share one ring skeleton, ``_Ring``: the
coefficient tuple, negation, subtraction and non-negative powers are
written once there, from each class's constructor, ``_lift``, ``+`` and
``*``.  Substitution has one Horner loop, ``Polynomial.__call__``, which
``TruncatedSeries.compose`` and ``RationalFunction.expand`` both go
through.

Products run on integers: ``_convolve`` drops each operand's trailing
zeros, scales it to integer numerators over the LCM of its denominators,
convolves those integers, and forms each output ``Fraction`` once over the
product of the two denominators; both ``__mul__`` methods go through it.
The trim makes a product with a padded sparse series, such as the cubic
x(t) held to order n, cost O(n), so composing with it is O(n^2).

The reciprocal and the reversion are both Newton's method, which doubles
the number of correct coefficients each pass (Brent and Kung, "Fast
algorithms for manipulating formal power series", JACM 1978): b <- b +
b (1 - a b) for 1/a, and r <- r - (A(r) - t) / A'(r) for the reversion
of A.  The reversion evaluates A and A' by Horner, so it is fast for a
sparse A such as x(t), but for a dense A of order n each pass costs about
n products, which is slower than Lagrange inversion's one product per
coefficient; nothing in the package reverses a dense series.

A truncated series of order ``n`` retains the coefficients of
``t^0 .. t^(n-1)``.  Binary operations between series of different orders
truncate to the smaller order, so a result never pretends to more
precision than its inputs support.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def binom_general(a: int, b: int) -> Fraction:
    """Binomial coefficient C(a, b) for arbitrary integer upper index.

    This is the falling factorial a (a-1) ... (a-b+1) / b!.  A negative
    upper index goes through the reflection C(a, b) = (-1)^b C(b-a-1, b);
    a negative lower index gives 0.
    """
    if b < 0:
        return Fraction(0)
    if a < 0:
        return Fraction((-1) ** b * comb(b - a - 1, b))
    return Fraction(comb(a, b))


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _trimmed(coeffs: Sequence[Fraction]) -> Sequence[Fraction]:
    """``coeffs`` without its trailing zeros."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs[:end]


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], length: int) -> list[Fraction]:
    """The first ``length`` coefficients of the product of ``a`` and ``b``.

    Trailing zeros of either operand are dropped first; they add nothing
    to the product, and a padded sparse operand (such as the cubic x(t)
    held as a series of order n) then costs O(n) per product, not O(n^2).
    Each operand becomes integer numerators over the LCM of its
    denominators; each output coefficient is one integer dot product,
    reduced to a ``Fraction`` once.
    """
    a, b = _trimmed(a), _trimmed(b)
    den_a = lcm(*(c.denominator for c in a))
    den_b = lcm(*(c.denominator for c in b))
    ints_a = [c.numerator * (den_a // c.denominator) for c in a]
    # b reversed, so that coefficient k pairs a slice of ints_a with a
    # slice of this list, both read forwards.
    ints_b = [c.numerator * (den_b // c.denominator) for c in reversed(b)]
    den = den_a * den_b
    last_a, last_b = len(a) - 1, len(b) - 1
    out = []
    for k in range(length):
        lo, hi = max(0, k - last_b), min(k, last_a) + 1
        shift = last_b - k
        out.append(Fraction(sum(map(mul, ints_a[lo:hi], ints_b[lo + shift:hi + shift])), den))
    return out


class _Ring:
    """The coefficient tuple, negation, subtraction and powers, built from
    a subclass's constructor, ``_lift``, ``+`` and ``*``.  ``_lift`` turns
    a scalar (or a coarser ring element) into the subclass, or returns
    None for a foreign type."""

    __slots__ = ("_coeffs",)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __neg__(self):
        return type(self)([-c for c in self._coeffs])

    def __sub__(self, other: object):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __pow__(self, exponent: int):
        """Square and multiply, starting from the lifted 1."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self._lift(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result


class TruncatedSeries(_Ring):
    """Formal power series truncated to a fixed number of coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        vals = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 1:
                raise ValueError("order must be at least 1")
            del vals[order:]
            vals.extend([Fraction(0)] * (order - len(vals)))
        elif not vals:
            raise ValueError("empty coefficient list needs an explicit order")
        self._coeffs = tuple(vals)

    @classmethod
    def identity(cls, order: int) -> TruncatedSeries:
        """The series t itself."""
        return cls([0, 1], order)

    @property
    def order(self) -> int:
        return len(self._coeffs)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of t^k.  Asking beyond the truncation order is a bug."""
        if not 0 <= k < len(self._coeffs):
            raise IndexError(f"coefficient {k} outside truncation order {len(self._coeffs)}")
        return self._coeffs[k]

    def _lift(self, other: object) -> TruncatedSeries | None:
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([other], len(self._coeffs))
        return None

    def __add__(self, other: object) -> TruncatedSeries:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        n = min(len(self._coeffs), len(rhs._coeffs))
        return TruncatedSeries([self._coeffs[k] + rhs._coeffs[k] for k in range(n)])

    __radd__ = __add__

    def __mul__(self, other: object) -> TruncatedSeries:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        n = min(len(self._coeffs), len(rhs._coeffs))
        return TruncatedSeries(_convolve(self._coeffs[:n], rhs._coeffs[:n], n))

    __rmul__ = __mul__

    def recip(self) -> TruncatedSeries:
        """Multiplicative inverse.  Needs a nonzero constant term.

        Newton's method: from b = 1/a0, each pass b <- b + b (1 - a b)
        doubles the number of correct coefficients, up to the order of a.
        """
        a = self._coeffs
        if a[0] == 0:
            raise ValueError("not a unit: constant term is zero")
        b = TruncatedSeries([1 / a[0]])
        while b.order < len(a):
            order = min(2 * b.order, len(a))
            b = TruncatedSeries(b._coeffs, order)
            b = b + b * (1 - TruncatedSeries(a[:order]) * b)
        return b

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """Substitute ``inner`` for the variable.  Inner constant term must vanish."""
        if inner._coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        n = min(len(self._coeffs), len(inner._coeffs))
        return Polynomial(self._coeffs[:n])(TruncatedSeries(inner._coeffs[:n]))

    def reversion(self) -> TruncatedSeries:
        """Compositional inverse r with A(r) = t, where A is this series.

        Requires zero constant term and a nonzero linear term.  Newton's
        method on A(r) - t: from r = t / a1, each pass
        r <- r - (A(r) - t) / A'(r) doubles the number of correct
        coefficients, up to the order of A (Brent and Kung, JACM 1978).
        A(r) and A'(r) are Horner loops over A's first ``order``
        coefficients, so a sparse A is cheap (for the cubic x(t), a pass
        is four products and one ``recip``), while a dense A costs about
        ``order`` products per pass, slower than Lagrange inversion's one
        product per coefficient.
        """
        a = self._coeffs
        if a[0] != 0 or a[1] == 0:
            raise ValueError("not invertible as formal series")
        r = TruncatedSeries([0, 1 / a[1]])
        while r.order < len(a):
            order = min(2 * r.order, len(a))
            r = TruncatedSeries(r._coeffs, order)
            head = a[:order]
            residual = Polynomial(head)(r) - TruncatedSeries.identity(order)
            slope = Polynomial([k * c for k, c in enumerate(head) if k])
            r = r - residual * slope(r).recip()
        return r

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:6])
        tail = ", ..." if len(self._coeffs) > 6 else ""
        return f"TruncatedSeries([{shown}{tail}], order={len(self._coeffs)})"


class Polynomial(_Ring):
    """Dense polynomial over Fraction, indexed by ascending powers."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        vals = [_as_fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self._coeffs = tuple(vals)

    @classmethod
    def x(cls) -> Polynomial:
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, k: int) -> Fraction:
        if k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def __call__(self, point):
        """Horner evaluation; works for scalars, series and polynomials."""
        acc = point * 0
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def _lift(self, other: object) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial([other])
        return None

    def __add__(self, other: object) -> Polynomial:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        n = max(len(self._coeffs), len(rhs._coeffs))
        return Polynomial([self.coeff(k) + rhs.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __mul__(self, other: object) -> Polynomial:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        if self.is_zero() or rhs.is_zero():
            return Polynomial()
        length = len(self._coeffs) + len(rhs._coeffs) - 1
        return Polynomial(_convolve(self._coeffs, rhs._coeffs, length))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._coeffs == rhs._coeffs

    def __repr__(self) -> str:
        return f"Polynomial({list(self._coeffs)!r})"


class RationalFunction:
    """Quotient of two polynomials.  Equality is by cross multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ValueError("zero denominator")
        self.num = num
        self.den = den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def expand(self, series: TruncatedSeries) -> TruncatedSeries:
        """Expand num/den around the substituted series argument."""
        return self.num(series) * self.den(series).recip()

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"
