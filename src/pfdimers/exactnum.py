"""Exact complex arithmetic: Gaussian rationals.

``GaussianRational`` models numbers p + q*i with rational p, q.  It is the
scalar of the exact backend: the entries of exact skew-adjacency matrices,
where real weights stay rational and twisted edges contribute factors of i,
and their Pfaffians.  It reads like ``complex`` (``real``, ``imag``,
``conjugate()`` and truthiness), so code that only reads a scalar serves
both backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Tuple, Union

Rational = Union[int, Fraction]


def rational_str(q: Rational) -> str:
    """``str(q)`` of its numerator and denominator (so an int subclass prints
    as an int); past the int-to-str digit limit through ``Decimal``, which has
    none."""
    try:
        num, den = str(q.numerator), q.denominator
        return num if den == 1 else f"{num}/{den}"
    except ValueError:
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def over_lcd(values: Iterable[Union[int, Fraction, float]]) -> Tuple[List[int], int]:
    """Integers x_k and the least common denominator L of ``values``, with
    values[k] = x_k / L: each value is read once, through ``as_integer_ratio()``,
    which int, Fraction and float all provide."""
    ratios = [v.as_integer_ratio() for v in values]
    lcd = lcm(*{d for _, d in ratios})
    return [x * (lcd // d) for x, d in ratios], lcd


@dataclass(frozen=True)
class GaussianRational:
    re: Rational  # int parts for the Gaussian integers of a route's classes
    im: Rational

    @staticmethod
    def of(re: Rational = 0, im: Rational = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    real = property(lambda self: self.re)
    imag = property(lambda self: self.im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self

    def scale(self, r: Rational) -> "GaussianRational":
        f = Fraction(r)
        return GaussianRational(self.re * f, self.im * f)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return rational_str(self.re)
        im = rational_str(self.im) + "i"
        if self.re == 0:
            return im
        return rational_str(self.re) + ("+" + im if self.im > 0 else im)


GR_ZERO = GaussianRational.of(0)

# i**k for k mod 4
_I_POWERS = tuple(GaussianRational.of(*z) for z in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def i_power(k: int) -> GaussianRational:
    return _I_POWERS[k % 4]
