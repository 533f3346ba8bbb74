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

Coefficients are exact: a function over a float signature is an input
error.  f'/f, which every numeric check samples, is compiled once per
function as exact partial fractions and widened once (`float_dlog`) for
sampling.  `dlog_eval` takes them at one point, and the sampler of
`CompiledDlog` at a block of points, with the same arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat, zip_longest
from math import comb
from operator import add, mul, sub, truediv
from typing import NamedTuple

from .algebra import AlgebraElement, AlgebraSignature, Backend
from .errors import InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from .forms import DenseLayout
from .laurent import LaurentSeries
from .scalars import GaussianRational, as_exact, poly_eval


class SpherePoint(NamedTuple):
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

    def __lt__(self, other):  # by (re, im), infinity last: the one comparison `sorted` makes
        a, b = self.value, other.value
        if a is None or b is None:
            return a is not None and b is None
        return (a.re, a.im) < (b.re, b.im)

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
    groups = [[] for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            groups[i + j].append((a, b))
    return poly_trim([AlgebraElement.dot(sig, group) for group in groups])


def poly_reduction(p: list) -> list:
    """Residue polynomial over Q(i)."""
    out = [c.reduce() for c in p]
    while out and not out[-1]:
        out.pop()
    return out


class CompiledDlog(NamedTuple):
    """f'/f of one function as partial fractions in its own scalars; see `compiled_dlog`."""

    poles: tuple  # (root in these scalars, exact root, ((j, C_j), ...) by j) per pole
    polynomial: tuple  # ((k, p_k), ...) by k, the part from infinity
    layout: DenseLayout  # holds every C_j and p_k

    @classmethod
    def over(cls, sig: AlgebraSignature, poles: tuple, polynomial: tuple) -> "CompiledDlog":
        """The partial fractions with the layout of their coefficients' monomials over sig."""
        monomials = {m for *_, terms in (*poles, (polynomial,)) for _, c in terms for m in c.coeffs}
        return cls(poles, polynomial, DenseLayout(sig, monomials))

    def widen(self) -> "CompiledDlog":
        """The same partial fractions in float scalars, for sampling at complex points."""
        sig = self.layout.signature.to_float()
        *wide, polynomial = [tuple((j, c.widen()) for j, c in terms) for *_, terms in (*self.poles, (self.polynomial,))]
        poles = tuple((sig.coerce_scalar(root), root, terms) for (_, root, _), terms in zip(self.poles, wide))
        return CompiledDlog.over(sig, poles, polynomial)

    def sampler(self, monomials):
        """`sample(zs, vs)`: v times f'/f at z, per node z with velocity v, as columns: per
        monomial of `monomials`, one value a node (zero where f'/f has no term).  A node takes
        the powers of u = 1/(z - r) per pole, and of z, once; each monomial then sums its
        terms c u^j, poles first, from its first term, times v."""
        zero, one = self.layout.zero, self.layout.one
        poles = [(r, root, terms[-1][0]) for r, root, terms in self.poles]
        top = self.polynomial[-1][0] if self.polynomial else 0
        # u^j of a pole sits at its start + j - 1 among the powers, z^k at the last start + k
        starts = list(accumulate((n for *_, n in poles), initial=0))
        flat = [(at + j - 1, c) for at, (*_, terms) in zip(starts, self.poles) for j, c in terms]
        flat += [(starts[-1] + k, c) for k, c in self.polynomial]
        rows = [[(i, c.coeffs[m]) for i, c in flat if m in c.coeffs] for m in monomials]

        def sample(zs, vs):
            powers = []
            for r, root, n in poles:
                if not all(ds := list(map(sub, zs, repeat(r)))):
                    raise NotInvertible(f"logarithmic derivative at the zero/pole {root}")
                powers.append(us := list(map(truediv, repeat(one), ds)))
                for _ in range(1, n):
                    powers.append(list(map(mul, powers[-1], us)))
            powers.append([one] * len(zs))
            for _ in range(top):
                powers.append(list(map(mul, powers[-1], zs)))
            columns = []
            for row in rows:
                if not row:
                    columns.append([zero] * len(zs))
                    continue
                (i, c), *rest = row
                total = map(mul, repeat(c), powers[i])
                for i, c in rest:
                    total = map(add, total, map(mul, repeat(c), powers[i]))
                columns.append(list(map(mul, total, vs)))
            return columns

        return sample


def _is_exact(z) -> bool:
    """Whether z is an exact point, as against a float or complex one."""
    return isinstance(z, (GaussianRational, int, Fraction))


def _scalar_poly_divide_linear(p: list, r):
    """Divide a polynomial over Q(i) by (x - r); returns (quotient, remainder)."""
    q = list(p[1:])
    for i in range(len(q) - 2, -1, -1):
        q[i] = q[i] + q[i + 1] * r
    return q, (p[0] + q[0] * r if q else p[0])


def _divide_out(red: list, root) -> tuple:
    """(k, q) with red = (x - root)^k q for the largest such k, red a
    polynomial over Q(i)."""
    k = 0
    while len(red) > 1:
        q, rem = _scalar_poly_divide_linear(red, root)
        if rem:
            break
        red, k = q, k + 1
    return k, red


class RationalFunctionA:
    """scale * prod (x - root)^mult * num(x)/den(x), num == den mod m.

    `base_factors` holds one (root, net multiplicity) per distinct root,
    sorted as SpherePoints; a multiplicity of 0 is a pole carrier.  The
    perturbation `pert_num`/`pert_den` is two tuples of elements, degree-
    indexed; num == den is stored as 1/1.  The signature is exact, and two
    functions are equal when these fields are."""

    def __init__(self, signature: AlgebraSignature, base_factors: tuple = (), scale: AlgebraElement = None,
                 pert_num: tuple = None, pert_den: tuple = None):
        sig = signature
        if sig.backend is not Backend.EXACT:
            raise InputError("rational functions have exact coefficients; build them over the exact signature")
        scale = sig.one() if scale is None else scale
        if not scale.is_unit():
            raise NotInvertible("scale must be a unit of A")
        net = {}
        for root, mult in base_factors:
            if not isinstance(root, GaussianRational):
                raise InputError("base roots must be exact Gaussian rationals")
            net[root] = net.get(root, 0) + mult
        num = list(pert_num) if pert_num else [sig.one()]
        den = list(pert_den) if pert_den else [sig.one()]
        num, den = poly_trim(num), poly_trim(den)
        if not num or not den:
            raise InputError("perturbation polynomials must be nonzero")
        if num == den:
            num = den = [sig.one()]
        elif poly_reduction(num) != poly_reduction(den):
            raise InputError(
                "perturbation numerator and denominator must have identical reductions"
            )
        self.signature, self.scale, self.pert_num, self.pert_den = sig, scale, tuple(num), tuple(den)
        self.base_factors = tuple(sorted(net.items(), key=lambda rm: SpherePoint(rm[0])))

    def __eq__(self, other):
        fields = ("signature", "base_factors", "scale", "pert_num", "pert_den")
        return type(other) is RationalFunctionA and all(getattr(self, k) == getattr(other, k) for k in fields)

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
        if self.pert_num == self.pert_den:  # 1/1
            num, den = other.pert_num, other.pert_den
        elif other.pert_num == other.pert_den:
            num, den = self.pert_num, self.pert_den
        else:
            num, den = poly_mul(self.pert_num, other.pert_num, sig), poly_mul(self.pert_den, other.pert_den, sig)
        return RationalFunctionA(sig, self.base_factors + other.base_factors, self.scale * other.scale, num, den)

    def inverse(self) -> "RationalFunctionA":
        base = tuple((r, -m) for r, m in self.base_factors)
        return RationalFunctionA(self.signature, base, self.scale.inverse(), self.pert_den, self.pert_num)

    def __pow__(self, n: int) -> "RationalFunctionA":
        """(num/den)^n = sum_{k<=K} C(n,k) d^k den^(K-k) / den^K with
        d = num - den and K = min(n, N-1), exact because d^N = 0; f^1 is f."""
        sig = self.signature
        if n == 1:
            return self
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

    def order_at(self, s: SpherePoint) -> int:
        """The valuation of the expansion at s: the net multiplicity of s,
        or minus the total degree at infinity."""
        return -self.total_degree if s.is_infinite else dict(self.base_factors).get(s.value, 0)

    def pole_order(self, s: SpherePoint) -> int:
        """The order of the perturbation's pole at s: how often the reduction of
        its denominator vanishes there, or its excess degree at infinity."""
        return self.pert_excess if s.is_infinite else _divide_out(poly_reduction(self.pert_den), s.value)[0]

    def involves_infinity(self) -> bool:
        return self.total_degree != 0 or self.pert_excess > 0

    def validate_poles(self):
        """Check that finite perturbation poles sit over declared roots."""
        red = poly_reduction(self.pert_den)
        for root in self.roots():
            red = _divide_out(red, root)[1]
        if len(red) > 1:
            raise InputError(
                "perturbation has poles away from the declared roots; "
                "add a cancelling (x-r)*(x-r)^-1 carrier pair for each"
            )

    # -- evaluation -------------------------------------------------------------

    def eval(self, z) -> AlgebraElement:
        """Value at a point off the reduction's divisor: exact at an exact
        point, in the widened coefficients at a float or complex one."""
        exact = _is_exact(z)
        sig = self.signature if exact else self.signature.to_float()
        z, cast = (as_exact(z), lambda c: c) if exact else (complex(z), AlgebraElement.widen)
        out = cast(self.scale)
        for root, mult in self.base_factors:
            if mult == 0:
                continue
            diff = sig.scalar(z - sig.coerce_scalar(root))
            if not diff.is_unit():
                raise NotInvertible(f"evaluation at the zero/pole {root}")
            out = out * diff ** mult
        z_elt = sig.scalar(z)
        num_v = poly_eval(list(map(cast, self.pert_num)), z_elt, sig.zero())
        den_v = poly_eval(list(map(cast, self.pert_den)), z_elt, sig.zero())
        if not den_v.is_unit():
            raise NotInvertible("evaluation at a pole of the perturbation")
        return out * num_v * den_v.inverse()

    @cached_property
    def compiled_dlog(self) -> CompiledDlog:
        """f'/f as exact partial fractions: per root r with a principal part, its C_j in
        sum_j C_j (x - r)^-j, and the p_k of the polynomial part sum_k p_k x^k that an
        unbalanced perturbation puts at infinity.  They are read off h'/h for the local
        expansion h at each point."""
        self.validate_poles()
        poles = tuple((root, root, terms) for root in self.roots() if (terms := self._dlog_terms(SpherePoint(root), 0)))
        polynomial = self._dlog_terms(SpherePoint.infinity(), 1) if self.pert_excess > 0 else ()
        return CompiledDlog.over(self.signature, poles, polynomial)

    @cached_property
    def float_dlog(self) -> CompiledDlog:
        """`compiled_dlog` widened once: what forms sample, and complex points read."""
        return self.compiled_dlog.widen()

    def _dlog_terms(self, s: SpherePoint, top: int) -> tuple:
        """(-e, c) by -e for the terms c t^e with e < top of f'/f at s in the
        uniformizer t: h'/h, or -t^2 h'/h at infinity, where d/dx = -t^2 d/dt."""
        trunc = self.order_at(s) + 1
        while True:
            h = self.expand_at(s, trunc)
            d = h.derivative() * h.inverse()
            d = -d.shift(2) if s.is_infinite else d
            if d.trunc >= top:
                return tuple(sorted((-e, c) for e, c in d.coeffs.items() if e < top))
            trunc += top - d.trunc

    def dlog_eval(self, z) -> list:
        """Value of f'/f at z, dense over the layout of `compiled_dlog` at an exact point and
        of `float_dlog` at a float or complex one: the sampler on one node with velocity 1."""
        compiled, z = (self.compiled_dlog, as_exact(z)) if _is_exact(z) else (self.float_dlog, complex(z))
        return [c[0] for c in compiled.sampler(compiled.layout.monomials)([z], [compiled.layout.one])]

    # -- local expansion ----------------------------------------------------------

    def expand_at(self, s: SpherePoint, trunc: int) -> LaurentSeries:
        """Laurent expansion in the uniformizer (x-s), or 1/x at infinity.

        Inverting the perturbation's denominator erodes the truncation by
        about twice the order of its pole at s, so the working window starts
        that far past the requested order, which is no farther at most
        points, and retries with the measured shortfall until it is covered.
        A truncation at or below the valuation there leaves no term.
        """
        nu = self.order_at(s)
        if trunc <= nu:
            raise InsufficientTruncation(
                f"the expansion at {s} starts at x^{nu}, at or above the truncation "
                f"x^{trunc}; expand with truncation at least {nu + 1}"
            )
        slack = 2 * self.pole_order(s)
        for _ in range(5):
            out = self._expand_window(s, trunc - nu + slack)
            if out.trunc + nu >= trunc:
                return out.shift(nu).truncate(trunc)
            slack += (trunc - nu - out.trunc) + 4
        raise InsufficientTruncation(
            f"local expansion at {s} only determined below x^{out.trunc + nu}"
        )

    def _expand_window(self, s: SpherePoint, w: int) -> LaurentSeries:
        """x^-nu times the expansion at s, working below x^w.  Each base
        factor enters by its unit part, so no factor is cut at or below its
        lowest term however negative nu is; the factor (x - s) at s is the
        uniformizer itself and enters through nu alone."""
        sig = self.signature
        if s.is_infinite:  # in the uniformizer t = 1/x, x - r = t^-1 (1 - r t)
            x_local = LaurentSeries(sig, {-1: sig.one()})
        else:
            x_local = LaurentSeries(sig, {0: sig.scalar(s.value), 1: sig.one()})

        out = LaurentSeries(sig, {0: self.scale}, w)
        for root, mult in self.base_factors:
            if mult == 0 or root == s.value:
                continue
            unit = (sig.one(), sig.scalar(-root)) if s.is_infinite else (sig.scalar(s.value - root), sig.one())
            out = out * LaurentSeries(sig, dict(enumerate(unit)), w) ** mult
        num_s = poly_eval(self.pert_num, x_local, LaurentSeries.zero(sig)).truncate(w)
        # den's reduction vanishes at s to an order below its length, and den_s keeps that unit term
        den_s = poly_eval(self.pert_den, x_local, LaurentSeries.zero(sig)).truncate(max(w, len(self.pert_den)))
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
