"""Rational functions on the Riemann sphere with nilpotent coefficients.

A function is stored in factored form: an exact divisor over Q(i)
(one (root, net multiplicity) pair per distinct root, describing the
reduction), a unit scale, and a "pure nilpotent" perturbation num/den,
two A-coefficient polynomials with identical reductions.  The factored
form keeps the divisor support exact, which the reciprocity harness
requires; root finding is out of scope by design.

Poles of the perturbation must sit over declared base roots; a root of
net multiplicity 0 stays in the divisor as the carrier of such poles
(written (x-r)*(x-r)^-1).  A degree imbalance between num and den puts
extra nilpotent data at infinity and forces infinity into the support.

Products merge the divisor.  A power multiplies the multiplicities and
raises the perturbation by a binomial sum that ends below the truncation
degree N of A, so its degree does not grow with the exponent.

`dlog_eval`, the f'/f every numeric check samples, runs on data compiled
once per function in its own scalars: exact at exact points on the
exact backend, else on the function's cached float twin.  It returns a
dense coefficient list over the layout compiled with that data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import zip_longest
from math import comb

from .algebra import AlgebraElement, AlgebraSignature, Backend, DenseLayout
from .errors import InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from .laurent import LaurentSeries
from .scalars import GaussianRational, as_exact, poly_eval


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


def poly_add(p: list, q: list, sig: AlgebraSignature) -> list:
    return poly_trim([a + b for a, b in zip_longest(p, q, fillvalue=sig.zero())])


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


def _scalar_poly_divide_linear(p: list, r):
    """Divide a polynomial over Q(i) or C by (x - r); returns (quotient, remainder)."""
    q = list(p[1:])
    for i in range(len(q) - 2, -1, -1):
        q[i] = q[i] + q[i + 1] * r
    return q, (p[0] + q[0] * r if q else p[0])


@dataclass(frozen=True)
class RationalFunctionA:
    """scale * prod (x - root)^mult * num(x)/den(x), num == den mod m.

    `base_factors` holds one (root, net multiplicity) per distinct root,
    sorted as SpherePoints; a multiplicity of 0 is a pole carrier.  A
    perturbation with num == den is stored as 1/1."""

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
        net = {}
        for root, mult in self.base_factors:
            if not isinstance(root, GaussianRational):
                raise InputError("base roots must be exact Gaussian rationals")
            net[root] = net.get(root, 0) + mult
        merged = sorted(net.items(), key=lambda rm: SpherePoint(rm[0]))
        object.__setattr__(self, "base_factors", tuple(merged))
        num = list(self.pert_num) if self.pert_num else [sig.one()]
        den = list(self.pert_den) if self.pert_den else [sig.one()]
        num, den = poly_trim(num), poly_trim(den)
        if not num or not den:
            raise InputError("perturbation polynomials must be nonzero")
        if num == den:
            num = den = [sig.one()]
        elif poly_reduction(num) != poly_reduction(den):
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
        if shift is None or shift.is_zero():
            return cls(sig, ((r, 1),))
        if shift.is_unit():
            raise InputError("the shift of a linear factor must be nilpotent")
        return cls(sig, ((r, 1),), None, (sig.scalar(-r) + shift, sig.one()), (sig.scalar(-r), sig.one()))

    # -- algebra --------------------------------------------------------------

    def __mul__(self, other: "RationalFunctionA") -> "RationalFunctionA":
        if self.signature != other.signature:
            raise SignatureMismatch("rational functions over different signatures")
        sig = self.signature
        num = poly_mul(self.pert_num, other.pert_num, sig)
        den = poly_mul(self.pert_den, other.pert_den, sig)
        return RationalFunctionA(sig, self.base_factors + other.base_factors, self.scale * other.scale, num, den)

    def inverse(self) -> "RationalFunctionA":
        base = tuple((r, -m) for r, m in self.base_factors)
        return RationalFunctionA(self.signature, base, self.scale.inverse(), self.pert_den, self.pert_num)

    def __pow__(self, n: int) -> "RationalFunctionA":
        """(num/den)^n = sum_{k<=K} C(n,k) d^k den^(K-k) / den^K with
        d = num - den and K = min(n, N-1), exact because d^N = 0."""
        sig = self.signature
        if n <= 0:
            return self.inverse() ** -n if n else RationalFunctionA.constant(sig, 1)
        d = poly_add(self.pert_num, [-c for c in self.pert_den], sig)
        K = min(n, sig.truncation_degree - 1)
        num, den = [sig.scalar(comb(n, K))], [sig.one()]
        for k in range(K - 1, -1, -1):  # Horner in d, homogenized by den
            den = poly_mul(den, self.pert_den, sig)
            num = poly_add(poly_mul(num, d, sig), [c * comb(n, k) for c in den], sig)
        base = tuple((r, m * n) for r, m in self.base_factors)
        return RationalFunctionA(sig, base, self.scale ** n, num, den)

    # -- divisor data ----------------------------------------------------------

    @property
    def total_degree(self) -> int:
        return sum(m for _, m in self.base_factors)

    @property
    def pert_excess(self) -> int:
        """Extra nilpotent degree at infinity from an unbalanced perturbation."""
        red_deg = len(poly_reduction(self.pert_den)) - 1
        return max(len(self.pert_num), len(self.pert_den)) - 1 - red_deg

    def roots(self) -> list:
        return [root for root, _ in self.base_factors]

    def involves_infinity(self) -> bool:
        return self.total_degree != 0 or self.pert_excess > 0

    def validate_poles(self):
        """Check that finite perturbation poles sit over declared roots."""
        red = poly_reduction(self.pert_den)
        for root in self.roots():
            root = root if self.signature.backend is Backend.EXACT else complex(root)
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

    # -- evaluation -------------------------------------------------------------

    def widen(self) -> "RationalFunctionA":
        """Exact to float coefficients, keeping the exact roots (identity
        on the float backend)."""
        if self.signature.backend is Backend.FLOAT:
            return self
        num, den = ([c.widen() for c in p] for p in (self.pert_num, self.pert_den))
        return RationalFunctionA(self.signature.to_float(), self.base_factors, self.scale.widen(), num, den)

    _float = cached_property(widen)  # the twin `_at` samples on, built once

    def _at(self, z):
        """The function and point to evaluate: exact for an exact point on
        the exact backend, else widened to floats."""
        exact_z = isinstance(z, (GaussianRational, int, Fraction))
        if exact_z and self.signature.backend is Backend.EXACT:
            return self, as_exact(z)
        return self._float, complex(as_exact(z)) if exact_z else complex(z)

    def eval(self, z) -> AlgebraElement:
        """Value at a point off the reduction's divisor."""
        f, zc = self._at(z)
        sig = f.signature
        out = f.scale
        for root, mult in f.base_factors:
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

    @cached_property
    def compiled_dlog(self):
        """f'/f compiled in this function's scalars: (root, multiplicity,
        exact root) per nonzero multiplicity, the dense layout of the
        perturbation's monomials, and for each nonconstant perturbation
        polynomial p the per-monomial coefficients of p and of p' (of -p'
        for the denominator)."""
        sig = self.signature
        roots = [(sig.coerce_scalar(r), sig.coerce_scalar(m), r)
                 for r, m in self.base_factors if m]
        layout = DenseLayout(sig, {m for c in self.pert_num + self.pert_den for m in c.coeffs})

        def per_monomial(poly):  # each monomial's coefficients, by degree in x
            return list(zip(*map(layout.vector, poly)))

        perts = [
            (per_monomial(p), per_monomial(dp))
            for p, dp in ((self.pert_num, poly_derivative(self.pert_num)),
                          (self.pert_den, [-c for c in poly_derivative(self.pert_den)]))
            if len(p) > 1
        ]
        return roots, layout, perts

    def dlog_eval(self, z) -> list:
        """Value of f'/f at z: sum m_i/(z - r_i) plus num'/num - den'/den, one
        `DenseLayout.divide` each, dense over the `compiled_dlog` layout `_at` picks."""
        f, zc = self._at(z)
        roots, layout, perts = f.compiled_dlog
        zero = layout.zero
        out = [zero] * len(layout.monomials)
        for r, m, root in roots:
            diff = zc - r
            if not diff:
                raise NotInvertible(f"logarithmic derivative at the zero/pole {root}")
            out[0] += m / diff
        for p, dp in perts:
            v = [poly_eval(c, zc, zero) for c in p]
            if not v[0]:
                raise NotInvertible("logarithmic derivative at a perturbation pole")
            out = [a + b for a, b in zip(out, layout.divide([poly_eval(c, zc, zero) for c in dp], v))]
        return out

    # -- local expansion ----------------------------------------------------------

    def expand_at(self, s: SpherePoint, trunc: int) -> LaurentSeries:
        """Laurent expansion in the uniformizer (x-s), or 1/x at infinity.

        The working window widens adaptively: inverting local units and the
        perturbation denominator erodes the truncation a little, so retry
        with the measured shortfall until the requested order is covered.
        A truncation at or below the valuation there leaves no term.
        """
        nu = -self.total_degree if s.is_infinite else dict(self.base_factors).get(s.value, 0)
        if trunc <= nu:
            raise InsufficientTruncation(
                f"the expansion at {s} starts at x^{nu}, at or above the truncation "
                f"x^{trunc}; expand with truncation (--trunc) at least {nu + 1}"
            )
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
        for root, mult in self.base_factors:
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
