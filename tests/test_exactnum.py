from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from pfdimers.exactnum import GaussianRational, rational_str


def _random_part(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 5))


def test_real_imag_and_truthiness_read_like_complex():
    rng = random.Random(11)
    # zero, pure imaginaries and a pure real first
    zs = [GaussianRational.of(*z) for z in ((0, 0), (0, 3), (0, Fraction(-1, 2)),
                                            (Fraction(2, 3), 0))]
    zs += [GaussianRational(_random_part(rng), _random_part(rng)) for _ in range(200)]
    for z in zs:
        c = z.to_complex()
        assert (z.real, z.imag) == (z.re, z.im)
        assert (float(z.real), float(z.imag)) == (c.real, c.imag)
        assert bool(z) == bool(c) == (not z.is_zero())
        assert z.conjugate().to_complex() == c.conjugate()
    assert not GaussianRational.of(0) and GaussianRational.of(0, 1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
        GaussianRational.of(1, 2) / GaussianRational.of(0)


def test_rational_str_past_a_lowered_digit_limit():
    # str() serves below the int-to-str digit limit, Decimal past it
    digits = "1" + "0" * 699 + "1"  # 10**700 + 1, prime to 3
    big = 10**700 + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            str(big)
        assert rational_str(big) == digits
        assert rational_str(-big) == "-" + digits
        assert rational_str(Fraction(big, 3)) == digits + "/3"
        assert rational_str(Fraction(-3, big)) == "-3/" + digits
        assert rational_str(Fraction(-7, 2)) == "-7/2" and rational_str(True) == "1"
        assert str(GaussianRational(Fraction(1, 2), -big)) == f"1/2-{digits}i"
    finally:
        sys.set_int_max_str_digits(limit)
