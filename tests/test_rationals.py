from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sieveval import GaussianRational, format_scalar, gaussian, parse_scalar
from sieveval.errors import ParseError

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(GaussianRational, fractions, fractions)


def test_parse_real_forms():
    assert parse_scalar("0") == gaussian(0)
    assert parse_scalar("1") == gaussian(1)
    assert parse_scalar("-2/3") == gaussian(Fraction(-2, 3))
    assert parse_scalar("+7") == gaussian(7)


def test_parse_imaginary_forms():
    assert parse_scalar("i") == gaussian(0, 1)
    assert parse_scalar("-i") == gaussian(0, -1)
    assert parse_scalar("3/4 i") == gaussian(0, Fraction(3, 4))
    assert parse_scalar("2i") == gaussian(0, 2)


def test_parse_mixed_forms():
    assert parse_scalar("1/2+3/4 i") == gaussian(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar("1-i") == gaussian(1, -1)
    assert parse_scalar("-1/3 - 2 i") == gaussian(Fraction(-1, 3), -2)


@pytest.mark.parametrize("bad", ["", "0.5", "1/0", "x", "1+", "2.5i", "1 + 1"])
def test_parse_rejects_inexact(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@given(scalars)
def test_format_parse_roundtrip(z):
    assert parse_scalar(format_scalar(z)) == z


@given(scalars, scalars)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_multiplication_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def conjugate(z):
    return GaussianRational(z.re, -z.im)


def reciprocal(z):
    norm = z.re * z.re + z.im * z.im
    return GaussianRational(z.re / norm, -z.im / norm)


@given(scalars)
def test_conjugation_involution(a):
    assert conjugate(conjugate(a)) == a


@given(scalars)
def test_inverse_is_exact(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            reciprocal(a)
    else:
        assert a * reciprocal(a) == gaussian(1)


def test_multiplication_of_units():
    i = gaussian(0, 1)
    assert i * i == gaussian(-1)
    assert format_scalar(i * i) == "-1"

