"""Scalar backends: exact Gaussian rationals and complex doubles.

Every algebra element carries its coefficients in one of two scalar
domains.  The exact domain is Q(i), the floating domain plain `complex`.
Both support +, -, *, /, integer powers and exact equality against zero.
Exact numbers have one format in ccsym, Gaussian-integer numerators over
one positive denominator in lowest terms (the form of FLINT's fmpq_poly):
a `GaussianRational` is (p + q i)/d in three ints, and an exact algebra
element keeps its numerator pairs over one `den` (`algebra`), so each
converts to the other with integer products and one gcd.  The
Fraction-valued `re` and `im` are derived on demand.  `GaussianRational`
arithmetic runs on single scalars (parsed literals, roots, points, the
exact `forms.DenseLayout`).  The ring-generic `power`, `geometric` and
`poly_eval` below serve every ring type in ccsym.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm

from .errors import InputError


class GaussianRational:
    """(p + q i)/d in Q(i), with d > 0 and gcd(p, q, d) = 1, so that
    equality is structural.  The constructor takes the three ints as they
    are; `_make` brings them to lowest terms."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int, q: int = 0, d: int = 1):
        self.p, self.q, self.d = p, q, d

    @classmethod
    def _make(cls, p: int, q: int, d: int) -> "GaussianRational":
        """(p + q i)/d in lowest terms, for d > 0."""
        g = gcd(p, q, d)
        return cls(p, q, d) if g == 1 else cls(p // g, q // g, d // g)

    @property
    def re(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.q, self.d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if type(other) is not GaussianRational:  # no mixed arithmetic, as in __eq__
            return NotImplemented
        d, e = self.d, other.d
        if d == e:
            return GaussianRational._make(self.p + other.p, self.q + other.q, d)
        return GaussianRational._make(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + -other

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.p, -self.q, self.d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if type(other) is not GaussianRational:
            return NotImplemented
        a, b, c, e = self.p, self.q, other.p, other.q
        return GaussianRational._make(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        # (a + b i)/d / ((c + e i)/f) = f (a + b i)(c - e i) / (d (c^2 + e^2))
        if type(other) is not GaussianRational:
            return NotImplemented
        a, b, c, e, f = self.p, self.q, other.p, other.q, other.d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational._make((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def inverse(self) -> "GaussianRational":
        return GR_ONE / self

    def __pow__(self, n: int) -> "GaussianRational":
        return power(self, n, GR_ONE)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    def __complex__(self) -> complex:
        try:  # int / int rounds once, as Fraction's float does
            return complex(self.p / self.d, self.q / self.d)
        except OverflowError:
            bits = (max(abs(self.p), abs(self.q)) // self.d).bit_length()
            raise InputError(f"a number of {bits} bits is too large for a float") from None

    def __repr__(self) -> str:
        return f"GaussianRational({self})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}*i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def gaussian(re: int | Fraction, im: int | Fraction = 0) -> GaussianRational:
    if type(re) is int and type(im) is int:
        return GaussianRational(re, im)
    re, im = Fraction(re), Fraction(im)
    d = lcm(re.denominator, im.denominator)  # over which no prime divides both numerators
    return GaussianRational(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d)


def as_exact(value) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational into Q(i)."""
    if type(value) is GaussianRational:
        return value
    if isinstance(value, (int, Fraction)):
        return gaussian(value)
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
    would go unused; a negative n raises x.inverse() to the power -n.  The
    product starts from the power of x at the lowest set bit of n, so no
    product is by `one`, which only x^0 returns."""
    if not isinstance(n, int):
        raise TypeError("powers must be integers")
    if n < 0:
        x, n = x.inverse(), -n
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return one if out is None else out


def geometric(u, one, terms: int):
    """1 + u + u^2 + ... + u^(terms-1), ending early before the first
    power that is zero: the inverse of 1 - u for a nilpotent u.  The
    powers start from u itself, so no product is by `one`."""
    out = one
    for p in accumulate(repeat(u, terms - 1), operator.mul):
        if p.is_zero():
            break
        out = out + p
    return out


def poly_eval(p: list, z, zero):
    """Horner evaluation of the coefficient list p (lowest degree first) at
    z, from zero plus the top coefficient, so no product is by zero."""
    if not p:
        return zero
    out = zero + p[-1]
    for c in reversed(p[:-1]):
        out = out * z + c
    return out
