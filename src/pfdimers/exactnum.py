"""Exact complex arithmetic: Gaussian rationals and their extension by sqrt(2).

``GaussianRational`` models numbers p + q*i with rational p, q.  It is the
entry type of the exact skew-adjacency matrices: real weights stay rational
and twisted edges contribute factors of i.

``Root2`` models a + b*sqrt(2) with Gaussian-rational a, b.  Eighth roots of
unity live here (exp(i*pi/4) = (1+i)/sqrt(2)), which keeps the Brown-invariant
weighted sums exact end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction
    im: Fraction

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

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def scale(self, r: Rational) -> "GaussianRational":
        f = Fraction(r)
        return GaussianRational(self.re * f, self.im * f)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)

# i**k for k mod 4
_I_POWERS = (GR_ONE, GR_I, GaussianRational.of(-1), GaussianRational.of(0, -1))


def i_power(k: int) -> GaussianRational:
    return _I_POWERS[k % 4]


@dataclass(frozen=True)
class Root2:
    """a + b*sqrt(2) with Gaussian-rational coefficients."""

    a: GaussianRational
    b: GaussianRational

    @staticmethod
    def of(a: GaussianRational, b: GaussianRational = GR_ZERO) -> "Root2":
        return Root2(a, b)

    def __add__(self, other: "Root2") -> "Root2":
        return Root2(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Root2") -> "Root2":
        return Root2(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "Root2") -> "Root2":
        two = GaussianRational.of(2)
        return Root2(
            self.a * other.a + two * (self.b * other.b),
            self.a * other.b + self.b * other.a,
        )

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def to_complex(self) -> complex:
        return self.a.to_complex() + self.b.to_complex() * (2.0**0.5)


R2_ZERO = Root2.of(GR_ZERO)


def zeta8_power(k: int) -> Root2:
    """exp(i*pi/4)**k as an exact Root2 value."""
    k %= 8
    if k % 2 == 0:
        return Root2.of(i_power(k // 2))
    # zeta = (1+i)/sqrt(2) = ((1+i)/2) * sqrt(2)
    half = GaussianRational.of(Fraction(1, 2), Fraction(1, 2))
    return Root2.of(GR_ZERO, i_power((k - 1) // 2) * half)


def power_of_two_inverse_sqrt(b1: int) -> Root2:
    """2**(-b1/2) as a Root2 value (b1 >= 0)."""
    if b1 % 2 == 0:
        return Root2.of(GaussianRational.of(Fraction(1, 2 ** (b1 // 2))))
    # 2**(-b1/2) = sqrt(2) / 2**((b1+1)/2)
    return Root2.of(GR_ZERO, GaussianRational.of(Fraction(1, 2 ** ((b1 + 1) // 2))))
