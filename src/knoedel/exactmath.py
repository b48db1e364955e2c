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
representation, ``+``, scalar ``*``, negation, subtraction and
non-negative powers are written once there, and each class adds its
constructor and its ``*``.  Substitution has one Horner loop,
``Polynomial.__call__``, which ``TruncatedSeries.compose`` and
``RationalFunction.expand`` both go through.

The ring runs on integers.  An element is a tuple of integer numerators
over one positive common denominator, kept canonical: the denominator
and the numerators have no common factor, and a polynomial has no
trailing zero, so ``==`` compares tuples.  ``+`` scales each operand once
to the LCM of the two denominators, ``*`` convolves the numerators over
the product of the denominators (``_convolve``), and each reduces its
result once, by one ``gcd`` of the denominator and all numerators.
Scalars enter as integers, and the Horner loop adds a polynomial's
integer numerators, dividing by its denominator once at the end.
Before its first arithmetic an element built from coefficients holds
them as reduced (numerator, denominator) integer pairs, and forms its
numerators over their LCM only when an operation needs them; ``terms()``
reads the pairs back, so a series built from pairs, as each printed
series is, is read back without a ``Fraction``.  ``lowest_terms``
reduces a pair whose denominator is a power of one base, for those
series and for the masses of ``table``.  ``Fraction``s appear only at
the edge: ``coeffs`` forms its tuple on the first read and keeps it,
``coeff(k)`` forms only the value asked for until then, and a
constructor given ``Fraction``s keeps them as that tuple.  ``_convolve``
drops each operand's trailing zeros, which makes a product with a
padded sparse series, such as the cubic x(t) held to order n, cost
O(n), so composing with it is O(n^2).

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

import functools
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import mul, neg
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


# Python's ints are stored in 30-bit digits: a number below this is one digit.
_WORD = 1 << 30


def word_power(base: int) -> int:
    """The largest k of at least 1 with base**k below ``_WORD``, for base >= 2."""
    k = 1
    while base ** (k + 1) < _WORD:
        k += 1
    return k


def lowest_terms(m: int, den: int, word: int, base: int) -> tuple[int, int]:
    """m / den in lowest terms, as (numerator, denominator), for den =
    base**e and ``word`` = base**min(e, ``word_power(base)``).

    g = gcd(m, word) is a remainder and a word gcd when word is one
    digit, and gcd(m, den) = g * gcd(m/g, den/g).  Every prime factor of
    den/g divides base, so g is the whole gcd when m/g is coprime to
    base; otherwise the full gcd is taken."""
    g = gcd(m, word)
    if gcd(m // g, base) > 1:
        g = gcd(m, den)
    return m // g, den // g


def _trimmed(nums: Sequence[int]) -> Sequence[int]:
    """``nums`` without its trailing zeros."""
    end = len(nums)
    while end and not nums[end - 1]:
        end -= 1
    return nums[:end]


def _convolve(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """The first ``length`` coefficients of the product of the integer
    sequences ``a`` and ``b``.

    Trailing zeros of either operand are dropped first; they add nothing
    to the product, and a padded sparse operand (such as the cubic x(t)
    held as a series of order n) then costs O(n) per product, not O(n^2).
    Each output coefficient is one integer dot product.
    """
    a, b = _trimmed(a), _trimmed(b)
    # b reversed, so that coefficient k pairs a slice of a with a slice
    # of this tuple, both read forwards.
    rb = b[::-1]
    last_a, last_b = len(a) - 1, len(b) - 1
    out = []
    for k in range(length):
        lo, hi = max(0, k - last_b), min(k, last_a) + 1
        shift = last_b - k
        out.append(sum(map(mul, a[lo:hi], rb[lo + shift:hi + shift])))
    return out


class _Ring:
    """``_nums / _den`` in canonical form, ``gcd(_den, *_nums) == 1``, or,
    until its first arithmetic, only ``_terms``, the reduced
    (numerator, denominator) pairs it was built from.  ``_fracs`` caches
    ``coeffs``.  A subclass adds its constructor, ``*``, ``_TRIM`` (drop
    trailing zeros) and ``_pairs`` (how ``+`` pairs up coefficients of
    unequal lengths)."""

    __slots__ = ("_terms", "_fracs", "_nums", "_den")
    _TRIM = False

    @classmethod
    def _raw(cls, nums: tuple[int, ...], den: int):
        """The element ``nums / den``, which must already be canonical."""
        out = object.__new__(cls)
        out._terms, out._fracs, out._nums, out._den = None, None, nums, den
        return out

    @classmethod
    def _reduced(cls, nums: Sequence[int], den: int):
        """The element ``nums / den`` for any ``den`` > 0, made canonical."""
        if cls._TRIM:
            nums = _trimmed(nums)
        g = gcd(den, *nums)
        if g == 1:
            return cls._raw(tuple(nums), den)
        return cls._raw(tuple([x // g for x in nums]), den // g)

    def _from_scalars(self, vals: list[Fraction]) -> None:
        """Hold ``vals`` as pairs, keeping the ``Fraction``s as ``coeffs``."""
        self._fracs, self._nums, self._den = tuple(vals), None, None
        self._terms = tuple([(c.numerator, c.denominator) for c in vals])

    def _ints(self) -> tuple[tuple[int, ...], int]:
        """The numerators and their common denominator."""
        if self._nums is None:
            # Each pair is reduced, so the numerators over the LCM of
            # their denominators share no factor with it.
            den = lcm(*(d for _, d in self._terms))
            self._nums = tuple([n * (den // d) for n, d in self._terms])
            self._den = den
        return self._nums, self._den

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Each coefficient as a reduced (numerator, denominator) pair:
        the pairs the element was built from, or else derived from its
        numerators by one gcd each."""
        if self._terms is not None:
            return self._terms
        den = self._den
        return tuple([(x // g, den // g) for x in self._nums for g in (gcd(x, den),)])

    def _length(self) -> int:
        return len(self._terms if self._nums is None else self._nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, formed on the first read and kept."""
        if self._fracs is None:
            self._fracs = tuple(map(self._coeff, range(self._length())))
        return self._fracs

    def _coeff(self, k: int) -> Fraction:
        """Coefficient ``k``, formed alone if the tuple is not yet formed."""
        if self._fracs is not None:
            return self._fracs[k]
        if self._terms is not None:
            return Fraction(*self._terms[k])
        return Fraction(self._nums[k], self._den)

    def __add__(self, other: object):
        if isinstance(other, (int, Fraction)):
            # A constant: one scale, and only numerator 0 gains a term.
            nums, den = self._ints()
            p, q = other.numerator, other.denominator
            scale = q // gcd(den, q)
            out = [x * scale for x in nums] or [0]
            out[0] += p * (den * scale // q)
            return self._reduced(out, den * scale)
        if not isinstance(other, type(self)):
            return NotImplemented
        (a, den_a), (b, den_b) = self._ints(), other._ints()
        g = gcd(den_a, den_b)
        scale_a, scale_b = den_b // g, den_a // g
        return self._reduced([x * scale_a + y * scale_b for x, y in self._pairs(a, b)],
                             den_a * scale_a)

    __radd__ = __add__

    def _times(self, value: Scalar):
        nums, den = self._ints()
        p = value.numerator
        return self._reduced([x * p for x in nums], den * value.denominator)

    def __neg__(self):
        nums, den = self._ints()
        return self._raw(tuple(map(neg, nums)), den)

    def __sub__(self, other: object):
        if not isinstance(other, (int, Fraction, type(self))):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __pow__(self, exponent: int):
        """Square and multiply, starting from 1."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self._reduced([1] + [0] * (self._length() - 1), 1)
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
    # A sum keeps the smaller order.
    _pairs = zip

    def __init__(self, coeffs: Iterable[Scalar], order: int | None = None):
        vals = [_as_fraction(c) for c in coeffs]
        if order is not None:
            if order < 1:
                raise ValueError("order must be at least 1")
            del vals[order:]
            vals.extend([Fraction(0)] * (order - len(vals)))
        elif not vals:
            raise ValueError("empty coefficient list needs an explicit order")
        self._from_scalars(vals)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]]) -> TruncatedSeries:
        """The series whose coefficients are ``terms``, (numerator,
        denominator) pairs in lowest terms with positive denominators,
        which ``terms()`` then returns as they are."""
        terms = tuple(terms)
        if not terms:
            raise ValueError("order must be at least 1")
        out = object.__new__(cls)
        out._terms, out._fracs, out._nums, out._den = terms, None, None, None
        return out

    @classmethod
    def identity(cls, order: int) -> TruncatedSeries:
        """The series t itself."""
        return cls([0, 1], order)

    @property
    def order(self) -> int:
        return self._length()

    def coeff(self, k: int) -> Fraction:
        """Coefficient of t^k.  Asking beyond the truncation order is a bug."""
        if not 0 <= k < self._length():
            raise IndexError(f"coefficient {k} outside truncation order {self._length()}")
        return self._coeff(k)

    def _resized(self, order: int) -> TruncatedSeries:
        """This series cut or zero-padded to ``order``."""
        nums, den = self._ints()
        if order < len(nums):
            return TruncatedSeries._reduced(nums[:order], den)
        return TruncatedSeries._raw(nums + (0,) * (order - len(nums)), den)

    def __mul__(self, other: object) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            return self._times(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        (a, den_a), (b, den_b) = self._ints(), other._ints()
        n = min(len(a), len(b))
        return TruncatedSeries._reduced(_convolve(a[:n], b[:n], n), den_a * den_b)

    __rmul__ = __mul__

    def recip(self) -> TruncatedSeries:
        """Multiplicative inverse.  Needs a nonzero constant term.

        Newton's method: from b = 1/a0, each pass b <- b + b (1 - a b)
        doubles the number of correct coefficients, up to the order of a.
        """
        nums, den = self._ints()
        if nums[0] == 0:
            raise ValueError("not a unit: constant term is zero")
        first = Fraction(den, nums[0])
        b = TruncatedSeries._raw((first.numerator,), first.denominator)
        while b.order < len(nums):
            order = min(2 * b.order, len(nums))
            b = b._resized(order)
            b = b + b * (1 - self._resized(order) * b)
        return b

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """Substitute ``inner`` for the variable.  Inner constant term must vanish."""
        if inner._ints()[0][0] != 0:
            raise ValueError("inner series must have zero constant term")
        nums, den = self._ints()
        n = min(len(nums), inner.order)
        return Polynomial._reduced(nums[:n], den)(inner._resized(n))

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
        nums, den = self._ints()
        if nums[0] != 0 or nums[1] == 0:
            raise ValueError("not invertible as formal series")
        first = Fraction(den, nums[1])
        r = TruncatedSeries._raw((0, first.numerator), first.denominator)
        while r.order < len(nums):
            order = min(2 * r.order, len(nums))
            r = r._resized(order)
            head = Polynomial._reduced(nums[:order], den)
            residual = head(r) - TruncatedSeries.identity(order)
            r = r - residual * head.derivative()(r).recip()
        return r

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._ints() == other._ints()

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self._length() > 6 else ""
        return f"TruncatedSeries([{shown}{tail}], order={self._length()})"


class Polynomial(_Ring):
    """Dense polynomial with exact coefficients, indexed by ascending powers."""

    __slots__ = ()
    _TRIM = True
    # A sum is as long as the longer operand.
    _pairs = functools.partial(zip_longest, fillvalue=0)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        vals = [_as_fraction(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self._from_scalars(vals)

    @classmethod
    def x(cls) -> Polynomial:
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self._length()

    def coeff(self, k: int) -> Fraction:
        if k < self._length():
            return self._coeff(k)
        return Fraction(0)

    def derivative(self) -> Polynomial:
        """The formal derivative, over the same denominator."""
        nums, den = self._ints()
        return Polynomial._reduced([k * c for k, c in enumerate(nums)][1:], den)

    def __call__(self, point):
        """Horner evaluation over the integer numerators, divided by their
        denominator once at the end; works for scalars, series and
        polynomials."""
        nums, den = self._ints()
        acc = point * 0
        for c in reversed(nums):
            acc = acc * point + c
        return acc * Fraction(1, den)

    def __mul__(self, other: object) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self._times(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        (a, den_a), (b, den_b) = self._ints(), other._ints()
        return Polynomial._reduced(_convolve(a, b, len(a) + len(b) - 1), den_a * den_b)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial._reduced([other.numerator], other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._ints() == other._ints()

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


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
