"""Exact complex scalars with rational real and imaginary parts.

These are the package's scalars wherever a number is read or reported.
Operators and the subspace lattice compute on Gaussian integers instead,
as (re, im) int pairs (an `ExactMatrix` holds them over one denominator;
see also `linalg.integer_rref`), and convert to these at their boundary.
There is no floating-point mode anywhere.  `fractions.Fraction` keeps
numerators and denominators in lowest terms with positive denominators, so
equality and hashing are exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

_RAT = r"[+-]?\d+(?:/\d+)?"
_REAL_ONLY = re.compile(rf"({_RAT})\Z")
_IMAG_ONLY = re.compile(rf"([+-]?)((?:\d+(?:/\d+)?)?)\s*i\Z")
_REAL_IMAG = re.compile(rf"({_RAT})\s*([+-])\s*((?:\d+(?:/\d+)?)?)\s*i\Z")


class GaussianRational:
    """Immutable; the hash is computed once (these values key many caches)."""

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re: Fraction, im: Fraction):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.re, self.im)))
        return self._hash

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return format_scalar(self)


ZERO = GaussianRational(Fraction(0), Fraction(0))
ONE = GaussianRational(Fraction(1), Fraction(0))
I_UNIT = GaussianRational(Fraction(0), Fraction(1))


def gaussian(re=0, im=0) -> GaussianRational:
    """Build a scalar from ints, Fractions, or an existing scalar."""
    if isinstance(re, GaussianRational):
        if im:
            raise ValueError("cannot combine a scalar with an extra imaginary part")
        return re
    return GaussianRational(Fraction(re), Fraction(im))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from exc


def parse_scalar(text: str) -> GaussianRational:
    """Parse 'a/b', 'c/d i', or 'a/b+c/d i' (signs optional, '0'/'1' fine).

    Anything that is not an exact rational expression (floats included) is
    rejected.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty scalar literal")
    m = _REAL_ONLY.fullmatch(s)
    if m:
        return GaussianRational(_fraction(m.group(1)), Fraction(0))
    m = _IMAG_ONLY.fullmatch(s)
    if m:
        sign, mag = m.groups()
        value = _fraction(mag) if mag else Fraction(1)
        if sign == "-":
            value = -value
        return GaussianRational(Fraction(0), value)
    m = _REAL_IMAG.fullmatch(s)
    if m:
        real, sign, mag = m.groups()
        value = _fraction(mag) if mag else Fraction(1)
        if sign == "-":
            value = -value
        return GaussianRational(_fraction(real), value)
    raise ParseError(f"not an exact rational scalar: {text!r}")


def format_scalar(z: GaussianRational) -> str:
    """Canonical inverse of `parse_scalar`."""
    if z.im == 0:
        return str(z.re)
    imag = f"{abs(z.im)} i"
    if z.re == 0:
        return imag if z.im > 0 else f"-{imag}"
    sign = "+" if z.im > 0 else "-"
    return f"{z.re}{sign}{imag}"
