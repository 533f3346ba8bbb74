"""Scalar backends: exact Gaussian rationals and complex doubles.

Every algebra element carries its coefficients in one of two scalar
domains.  The exact domain is Q(i), where a `GaussianRational` is a pair
of `fractions.Fraction`; the floating domain is plain `complex`.  Both
support +, -, *, /, integer powers and exact equality against zero.
Exact algebra elements do not compute on these pairs: they keep
Gaussian-integer numerators over one denominator (`algebra`).
`GaussianRational` arithmetic runs on single scalars (parsed literals,
roots, points, and the exact `DenseLayout`).  The ring-generic `power`,
`geometric` and `poly_eval` below serve every ring type in ccsym.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


@dataclass(frozen=True)
class GaussianRational:
    """An element p/q + (r/s)i of Q(i)."""

    re: Fraction
    im: Fraction

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
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def inverse(self) -> "GaussianRational":
        return GR_ONE / self

    def __pow__(self, n: int) -> "GaussianRational":
        return power(self, n, GR_ONE)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            bits = int(max(abs(self.re), abs(self.im))).bit_length()
            raise InputError(f"a number of {bits} bits is too large for a float") from None

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def gaussian(re: int | Fraction, im: int | Fraction = 0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def as_exact(value) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational into Q(i)."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    raise TypeError(f"cannot use {value!r} as an exact scalar")


def as_float(value) -> complex:
    """Coerce anything numeric (including exact scalars) into complex."""
    if isinstance(value, GaussianRational):
        return complex(value)
    if isinstance(value, (int, float, complex, Fraction)):
        return complex(value)
    raise TypeError(f"cannot use {value!r} as a float scalar")


def power(x, n: int, one):
    """x^n by square-and-multiply, skipping the final squaring whose result
    would go unused; a negative n raises x.inverse() to the power -n."""
    if not isinstance(n, int):
        raise TypeError("powers must be integers")
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


def geometric(u, one, terms: int):
    """1 + u + u^2 + ... + u^(terms-1), ending early before the first
    power that is zero: the inverse of 1 - u for a nilpotent u."""
    out = one
    p = one
    for _ in range(1, terms):
        p = p * u
        if p.is_zero():
            break
        out = out + p
    return out


def poly_eval(p: list, z, zero):
    """Horner evaluation of the coefficient list p (lowest degree first) at z."""
    out = zero
    for c in reversed(p):
        out = out * z + c
    return out
