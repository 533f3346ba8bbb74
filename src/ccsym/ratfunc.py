"""Rational functions on the Riemann sphere with nilpotent coefficients.

A function is stored in factored form: an exact divisor over Q(i)
(pairs root/multiplicity describing the reduction), a unit scale, and a
"pure nilpotent" perturbation num/den, two A-coefficient polynomials
with identical reductions.  The factored form keeps the divisor support
exact, which the reciprocity harness requires; root finding is out of
scope by design.

Poles of the perturbation must sit over declared base roots (add a
cancelling pair (x-r)(x-r)^-1 as a carrier if necessary); a degree
imbalance between num and den puts extra nilpotent data at infinity and
forces infinity into the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .algebra import AlgebraElement, AlgebraSignature, Backend
from .errors import InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from .laurent import LaurentSeries
from .scalars import GR_ZERO, GaussianRational, as_exact, poly_eval, power


@total_ordering
@dataclass(frozen=True)
class SpherePoint:
    """A point of P^1: a finite Gaussian-rational value or infinity."""

    value: GaussianRational | None  # None encodes infinity

    @classmethod
    def finite(cls, v) -> "SpherePoint":
        return cls(as_exact(v))

    @classmethod
    def infinity(cls) -> "SpherePoint":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _key(self):
        if self.value is None:
            return (1, Fraction(0), Fraction(0))
        return (0, self.value.re, self.value.im)

    def __lt__(self, other):
        return self._key() < other._key()

    def __str__(self):
        return "inf" if self.value is None else str(self.value)


# -- dense A-coefficient polynomials ----------------------------------------


def poly_trim(p: list) -> list:
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def poly_mul(p: list, q: list, sig: AlgebraSignature) -> list:
    if not p or not q:
        return []
    out = [sig.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_derivative(p: list) -> list:
    return poly_trim([c * i for i, c in enumerate(p)][1:])


def poly_reduction(p: list) -> list:
    """Residue polynomial over Q(i); only meaningful on the exact backend."""
    out = [c.reduce() for c in p]
    while out and not out[-1]:
        out.pop()
    return out


def _scalar_poly_divide_linear(p: list, r: GaussianRational):
    """Divide a Q(i)-polynomial by (x - r); returns (quotient, remainder)."""
    q = [GR_ZERO] * max(len(p) - 1, 0)
    acc = GR_ZERO
    for i in range(len(p) - 1, 0, -1):
        acc = p[i] + acc * r
        q[i - 1] = acc
    return q, p[0] + acc * r


@dataclass(frozen=True)
class RationalFunctionA:
    """scale * prod (x - root)^mult * num(x)/den(x), num == den mod m."""

    signature: AlgebraSignature
    base_factors: tuple = ()  # ((GaussianRational, int), ...)
    scale: AlgebraElement = None
    pert_num: tuple = None  # tuple of AlgebraElement, degree-indexed
    pert_den: tuple = None

    def __post_init__(self):
        sig = self.signature
        if self.scale is None:
            object.__setattr__(self, "scale", sig.one())
        if not self.scale.is_unit():
            raise NotInvertible("scale must be a unit of A")
        for root, mult in self.base_factors:
            if not isinstance(root, GaussianRational):
                raise InputError("base roots must be exact Gaussian rationals")
            if mult == 0:
                raise InputError("base multiplicities must be nonzero")
        num = list(self.pert_num) if self.pert_num else [sig.one()]
        den = list(self.pert_den) if self.pert_den else [sig.one()]
        num, den = poly_trim(num), poly_trim(den)
        if not num or not den:
            raise InputError("perturbation polynomials must be nonzero")
        if poly_reduction(num) != poly_reduction(den):
            raise InputError(
                "perturbation numerator and denominator must have identical reductions"
            )
        object.__setattr__(self, "pert_num", tuple(num))
        object.__setattr__(self, "pert_den", tuple(den))

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, sig: AlgebraSignature, c) -> "RationalFunctionA":
        c_elt = c if isinstance(c, AlgebraElement) else sig.scalar(c)
        return cls(sig, (), c_elt)

    @classmethod
    def monic_linear(cls, sig: AlgebraSignature, root, shift=None) -> "RationalFunctionA":
        """(x - root + shift) with an exact root and a nilpotent shift."""
        r = as_exact(root)
        base = ((r, 1),)
        if shift is None or shift.is_zero():
            return cls(sig, base)
        if shift.is_unit():
            raise InputError("the shift of a linear factor must be nilpotent")
        num = (sig.scalar(-r) + shift, sig.one())
        den = (sig.scalar(-r), sig.one())
        return cls(sig, base, None, num, den)

    # -- algebra --------------------------------------------------------------

    def __mul__(self, other: "RationalFunctionA") -> "RationalFunctionA":
        if self.signature != other.signature:
            raise SignatureMismatch("rational functions over different signatures")
        sig = self.signature
        return RationalFunctionA(
            sig,
            self.base_factors + other.base_factors,
            self.scale * other.scale,
            tuple(poly_mul(list(self.pert_num), list(other.pert_num), sig)),
            tuple(poly_mul(list(self.pert_den), list(other.pert_den), sig)),
        )

    def inverse(self) -> "RationalFunctionA":
        return RationalFunctionA(
            self.signature,
            tuple((r, -m) for r, m in self.base_factors),
            self.scale.inverse(),
            self.pert_den,
            self.pert_num,
        )

    def __pow__(self, n: int) -> "RationalFunctionA":
        return power(self, n, RationalFunctionA.constant(self.signature, 1))

    # -- divisor data ----------------------------------------------------------

    def net_multiplicities(self) -> dict:
        out = {}
        for root, mult in self.base_factors:
            out[root] = out.get(root, 0) + mult
        return out

    @property
    def total_degree(self) -> int:
        return sum(m for _, m in self.base_factors)

    @property
    def pert_excess(self) -> int:
        """Extra nilpotent degree at infinity from an unbalanced perturbation."""
        red_deg = len(poly_reduction(list(self.pert_den))) - 1
        return max(len(self.pert_num), len(self.pert_den)) - 1 - red_deg

    def roots(self) -> list:
        seen = []
        for root, _ in self.base_factors:
            if root not in seen:
                seen.append(root)
        return seen

    def involves_infinity(self) -> bool:
        return self.total_degree != 0 or self.pert_excess > 0

    def validate_poles(self):
        """Check that finite perturbation poles sit over declared roots."""
        red = poly_reduction(list(self.pert_den))
        for root in self.roots():
            while len(red) > 1:
                q, rem = _scalar_poly_divide_linear(red, root)
                if rem:
                    break
                red = q
        if len(red) > 1:
            raise InputError(
                "perturbation has poles away from the declared roots; "
                "add a cancelling (x-r)*(x-r)^-1 carrier pair for each"
            )

    def pole_points(self) -> list:
        """All finite points where the function or its nilpotent part can
        be singular, as complex numbers (for path-clearance checks)."""
        return [complex(r) for r in self.roots()]

    # -- evaluation -------------------------------------------------------------

    def _context(self, z):
        """Widen to the float backend when z is inexact."""
        exact_z = isinstance(z, (GaussianRational, int, Fraction))
        if exact_z and self.signature.backend is Backend.EXACT:
            return self.signature, as_exact(z)
        sig = self.signature if self.signature.backend is Backend.FLOAT else self.signature.to_float()
        return sig, complex(as_exact(z)) if exact_z else complex(z)

    def _widened(self, sig):
        if sig is self.signature:
            return self
        return RationalFunctionA(
            sig,
            self.base_factors,
            self.scale.widen(),
            tuple(c.widen() for c in self.pert_num),
            tuple(c.widen() for c in self.pert_den),
        )

    def eval(self, z) -> AlgebraElement:
        """Value at a point off the reduction's divisor."""
        sig, zc = self._context(z)
        f = self._widened(sig)
        out = f.scale
        for root, mult in f.net_multiplicities().items():
            if mult == 0:
                continue
            diff = sig.scalar(zc - (complex(root) if sig.backend is Backend.FLOAT else root))
            if not diff.is_unit():
                raise NotInvertible(f"evaluation at the zero/pole {root}")
            out = out * diff ** mult
        z_elt = sig.scalar(zc)
        num_v = poly_eval(f.pert_num, z_elt, sig.zero())
        den_v = poly_eval(f.pert_den, z_elt, sig.zero())
        if not den_v.is_unit():
            raise NotInvertible("evaluation at a pole of the perturbation")
        return out * num_v * den_v.inverse()

    def dlog_eval(self, z) -> AlgebraElement:
        """Value of f'/f at z: sum m_i/(z - r_i) plus the perturbation term."""
        sig, zc = self._context(z)
        f = self._widened(sig)
        out = sig.zero()
        for root, mult in f.net_multiplicities().items():
            if mult == 0:
                continue
            diff = sig.scalar(zc - (complex(root) if sig.backend is Backend.FLOAT else root))
            if not diff.is_unit():
                raise NotInvertible(f"logarithmic derivative at the zero/pole {root}")
            out = out + diff.inverse() * mult
        z_elt = sig.scalar(zc)
        for p, sign in ((list(f.pert_num), 1), (list(f.pert_den), -1)):
            if len(p) <= 1:
                continue
            v = poly_eval(p, z_elt, sig.zero())
            if not v.is_unit():
                raise NotInvertible("logarithmic derivative at a perturbation pole")
            out = out + poly_eval(poly_derivative(p), z_elt, sig.zero()) * v.inverse() * sign
        return out

    # -- local expansion ----------------------------------------------------------

    def expand_at(self, s: SpherePoint, trunc: int) -> LaurentSeries:
        """Laurent expansion in the uniformizer (x-s), or 1/x at infinity.

        The working window widens adaptively: inverting local units and the
        perturbation denominator erodes the truncation a little, so retry
        with the measured shortfall until the requested order is covered.
        """
        slack = 4
        for _ in range(5):
            out = self._expand_window(s, trunc + slack)
            if out.trunc >= trunc:
                return out.truncate(trunc)
            slack += (trunc - out.trunc) + 4
        raise InsufficientTruncation(
            f"local expansion at {s} only determined below x^{out.trunc}"
        )

    def _expand_window(self, s: SpherePoint, w: int) -> LaurentSeries:
        sig = self.signature
        if s.is_infinite:
            x_local = LaurentSeries(sig, {-1: sig.one()})
        else:
            x_local = LaurentSeries(sig, {0: sig.scalar(s.value), 1: sig.one()})

        out = LaurentSeries(sig, {0: self.scale}, w)
        for root, mult in self.net_multiplicities().items():
            if mult == 0:
                continue
            factor = (x_local - LaurentSeries(sig, {0: sig.scalar(root)})).truncate(w)
            out = out * factor ** mult
        num_s = poly_eval(self.pert_num, x_local, LaurentSeries.zero(sig)).truncate(w)
        den_s = poly_eval(self.pert_den, x_local, LaurentSeries.zero(sig)).truncate(w)
        return out * num_s * den_s.inverse()

    def __str__(self):
        bits = []
        for root, mult in self.base_factors:
            base = "x" if not root else f"(x-({root}))"
            bits.append(base if mult == 1 else f"{base}^{mult}")
        head = "*".join(bits) if bits else "1"
        if len(self.pert_num) > 1 or len(self.pert_den) > 1 or self.pert_num[0] != self.signature.one():
            head += "*[pert]"
        scale = "" if self.scale == self.signature.one() else f"({self.scale})*"
        return f"{scale}{head}"


def rf_support(f: RationalFunctionA, g: RationalFunctionA) -> list:
    """Deduplicated zeros and poles of both functions, infinity last."""
    if f.signature != g.signature:
        raise SignatureMismatch("rational functions over different signatures")
    points = {SpherePoint(r) for r in f.roots()} | {SpherePoint(r) for r in g.roots()}
    if f.involves_infinity() or g.involves_infinity():
        points.add(SpherePoint.infinity())
    return sorted(points)
