"""Laurent series over a truncated nilpotent algebra.

A series is a finite coefficient map {exponent: AlgebraElement} together
with an explicit truncation order T: exponents >= T are unknown, not
zero.  Every binary operation computes the tightest truncation of its
result, so consumers can always tell which window of coefficients is
trustworthy.

The canonical factorization writes an invertible series uniquely as

    f = a0 * x^nu * prod_{j<0} (1 - a_j x^j) * prod_{j>0} (1 - a_j x^j)

with a0 a unit and a_j nilpotent for j < 0.  Uniqueness rests on the
nilpotency filtration: the sub-nu tail of an invertible series has
nilpotent coefficients, and peeling factors strictly deepens it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .algebra import AlgebraElement, AlgebraSignature, Backend
from .errors import InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from .scalars import geometric, power

INF = math.inf

# the most terms a series inverse computes by long division
_TERM_CAP = 10_000


class LaurentSeries:
    """Finitely supported A-coefficient map with truncation bookkeeping."""

    __slots__ = ("signature", "coeffs", "trunc")

    def __init__(self, signature: AlgebraSignature, coeffs: dict, trunc=INF):
        self.signature = signature
        clean = {}
        for e, c in coeffs.items():
            if e >= trunc or c.is_zero():
                continue
            clean[e] = c
        self.coeffs = clean
        self.trunc = trunc

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, signature, trunc=INF):
        return cls(signature, {}, trunc)

    @classmethod
    def one(cls, signature, trunc=INF):
        return cls(signature, {0: signature.one()}, trunc)

    @classmethod
    def monomial(cls, signature, exponent: int, coeff=1, trunc=INF):
        c = coeff if isinstance(coeff, AlgebraElement) else signature.scalar(coeff)
        return cls(signature, {exponent: c}, trunc)

    # -- structure -----------------------------------------------------------

    @property
    def lower_bound(self):
        """No nonzero coefficient sits below this exponent."""
        return min(self.coeffs) if self.coeffs else self.trunc

    def coeff(self, e: int) -> AlgebraElement:
        if e >= self.trunc:
            raise InsufficientTruncation(
                f"coefficient at exponent {e} is beyond the truncation order {self.trunc}"
            )
        return self.coeffs.get(e, self.signature.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

    def truncate(self, trunc) -> "LaurentSeries":
        return LaurentSeries(self.signature, self.coeffs, min(self.trunc, trunc))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by x^k."""
        return LaurentSeries(
            self.signature, {e + k: c for e, c in self.coeffs.items()}, self.trunc + k
        )

    def scale(self, a: AlgebraElement) -> "LaurentSeries":
        return LaurentSeries(
            self.signature, {e: c * a for e, c in self.coeffs.items()}, self.trunc
        )

    def widen(self) -> "LaurentSeries":
        if self.signature.backend is Backend.FLOAT:
            return self
        sig = self.signature.to_float()
        return LaurentSeries(sig, {e: c.widen() for e, c in self.coeffs.items()}, self.trunc)

    def _check(self, other):
        if self.signature != other.signature:
            raise SignatureMismatch("series over different signatures")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return LaurentSeries(self.signature, out, trunc)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return LaurentSeries(self.signature, {e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return self.scale(self.signature.scalar(other))
        self._check(other)
        trunc = min(self.trunc + other.lower_bound, other.trunc + self.lower_bound)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e >= trunc:
                    continue
                c = c1 * c2
                if c.is_zero():
                    continue
                s = out.get(e)
                out[e] = c if s is None else s + c
        return LaurentSeries(self.signature, out, trunc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _coerce(self, value) -> "LaurentSeries":
        if isinstance(value, LaurentSeries):
            return value
        if isinstance(value, AlgebraElement):
            return LaurentSeries(self.signature, {0: value})
        return LaurentSeries(self.signature, {0: self.signature.scalar(value)})

    # -- valuation and inversion ----------------------------------------------

    def valuation(self) -> int:
        """Order of the reduction mod m; requires an invertible series."""
        units = [e for e, c in self.coeffs.items() if c.is_unit()]
        if not units:
            raise NotInvertible(
                "series has no coefficient with nonzero reduction; not a unit of A((x))"
            )
        return min(units)

    def inverse(self) -> "LaurentSeries":
        """Invert in A((x)): long division by the reduction, then a finite
        m-adic correction by the geometric series of 1 - f*g0."""
        nu, sig = self.valuation(), self.signature
        # stage 1: the reduction is x^nu (lead + sum of c x^i over red), and
        # 1/reduction = x^-nu (g_0 + g_1 x + ...) below x^(trunc - 2 nu)
        lead = sig.scalar(self.coeffs[nu].reduce())
        red = [(e - nu, sig.scalar(c.reduce())) for e, c in self.coeffs.items() if e > nu and c.is_unit()]
        terms = self.trunc - nu if red else 1
        if terms > _TERM_CAP:  # infinitely many at an infinite truncation
            raise InsufficientTruncation(
                f"inverting this series below x^{self.trunc} takes {terms} terms, "
                f"more than {_TERM_CAP}; truncate the series first"
            )
        g = [lead.inverse()]
        for k in range(1, terms):
            s = sum((c * g[k - i] for i, c in red if i <= k), sig.zero())
            g.append(-s * g[0])
        g0 = LaurentSeries(sig, {k - nu: c for k, c in enumerate(g)}, self.trunc - 2 * nu)
        # stage 2: m-adic correction; e has nilpotent coefficients so the
        # geometric series is a finite sum
        e = LaurentSeries.one(sig) - self * g0
        return g0 * geometric(e, LaurentSeries.one(sig, e.trunc), sig.truncation_degree)

    def __pow__(self, n: int) -> "LaurentSeries":
        return power(self, n, LaurentSeries.one(self.signature))

    # -- comparison / display --------------------------------------------------

    def agrees_with(self, other: "LaurentSeries", upto=None) -> bool:
        """Equality of coefficients on all exponents below `upto`
        (default: the smaller truncation order)."""
        self._check(other)
        bound = min(self.trunc, other.trunc)
        if upto is not None:
            bound = min(bound, upto)
        exps = set(self.coeffs) | set(other.coeffs)
        for e in exps:
            if e >= bound:
                continue
            if self.coeffs.get(e, self.signature.zero()) != other.coeffs.get(
                e, self.signature.zero()
            ):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.signature, self.trunc, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"LaurentSeries({self})"

    def __str__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in self.support():
                c = format_coeff(self.coeffs[e])
                if e == 0:
                    parts.append(c)
                else:
                    xs = "x" if e == 1 else f"x^{e}"
                    parts.append(xs if c == "1" else f"-{xs}" if c == "-1" else f"{c}*{xs}")
            body = "+".join(parts).replace("+-", "-")
        if math.isinf(self.trunc):
            return body
        return f"{body}+O(x^{self.trunc})"


def format_coeff(c: AlgebraElement) -> str:
    s = str(c)
    if ("+" in s[1:]) or ("-" in s[1:]):
        return f"({s})"
    return s


@dataclass
class CanonicalFactorization:
    """The data (nu, a0, {a_j}) of the unique product decomposition."""

    signature: AlgebraSignature
    nu: int
    a0: AlgebraElement
    neg_factors: dict = field(default_factory=dict)  # j < 0 -> element of m
    pos_factors: dict = field(default_factory=dict)  # j > 0 -> element of A
    trunc_order: float = INF  # reconstruction matches the source below this

    def __post_init__(self):
        if not self.a0.is_unit():
            raise NotInvertible("leading coefficient a0 must be a unit")
        for j, a in self.neg_factors.items():
            if j >= 0:
                raise InputError(f"negative-factor index {j} must be < 0")
            if a.is_unit():
                raise InputError(f"factor at {j} must lie in the maximal ideal")
        for j in self.pos_factors:
            if j <= 0:
                raise InputError(f"positive-factor index {j} must be > 0")

    def factor(self, j: int) -> AlgebraElement:
        src = self.neg_factors if j < 0 else self.pos_factors
        return src.get(j, self.signature.zero())

    def __str__(self):
        bits = []
        if self.nu:
            bits.append("x" if self.nu == 1 else f"x^{self.nu}")
        for j in sorted(self.neg_factors) + sorted(self.pos_factors):
            a = self.factor(j)
            xs = "x" if j == 1 else f"x^{j}"
            c = format_coeff(a)
            if c.startswith("-"):
                bits.append(f"(1+{c[1:]}*{xs})")
            else:
                bits.append(f"(1-{c}*{xs})")
        head = format_coeff(self.a0)
        tail = "*".join(bits)
        return f"{head}*{tail}" if tail else head


def _neg_product(sig: AlgebraSignature, factors: dict) -> LaurentSeries:
    """The Laurent polynomial prod_j (1 - a_j x^j) over the j < 0 factors."""
    out = LaurentSeries.one(sig)
    for j in sorted(factors):
        out = out * LaurentSeries(sig, {0: sig.one(), j: -factors[j]})
    return out


def _binomial_inverse(sig: AlgebraSignature, j: int, a: AlgebraElement, terms: int, trunc=INF) -> LaurentSeries:
    """(1 - a x^j)^{-1} = sum of a^k x^{jk} over k < terms."""
    powers = itertools.accumulate(itertools.repeat(a, terms - 1), operator.mul, initial=sig.one())
    return LaurentSeries(sig, {j * k: p for k, p in enumerate(powers)}, trunc)


def factorize(f: LaurentSeries, trunc=None) -> CanonicalFactorization:
    """Canonical product decomposition of an invertible series.

    Phase 1 clears the sub-nu tail: repeatedly peel a factor (1 - a x^j),
    j < 0, chosen to kill the lowest offending coefficient.  Repeat visits
    to the same j update the stored factor and re-divide, so the recorded
    set stays in canonical one-factor-per-index form.  Each pass deepens
    the tail in the m-adic filtration, and m^N = 0 forces termination.

    Phase 2 matches positive factors bottom-up, which is triangular: after
    choosing a_j the residual has no x^j term, and higher factors cannot
    reintroduce one.
    """
    T = f.trunc if trunc is None else min(trunc, f.trunc)
    if math.isinf(T):
        raise InputError("factorization needs a finite truncation order")
    work = f.truncate(T)
    nu = work.valuation()
    sig = f.signature
    n_deg = sig.truncation_degree

    # Phase 1.  The residual is recomputed from `work` on every pass with
    # the combined inverse of all peeled factors; the combined inverse is a
    # finite Laurent polynomial whose lower bound is controlled by
    # nilpotency alone, so the truncation loss does not compound per peel.
    neg = {}
    residual = work
    cap = 4 * n_deg * n_deg * (nu - min(work.lower_bound, nu) + 2) + 16
    for _ in range(cap):
        offending = [e for e in residual.coeffs if e < nu]
        if not offending:
            break
        e = min(offending)
        j = e - nu
        delta = -(residual.coeff(e) * residual.coeff(nu).inverse())
        if delta.is_unit():
            raise NotInvertible("sub-valuation tail is not nilpotent")
        updated = neg.get(j, sig.zero()) + delta
        if updated.is_zero():
            neg.pop(j, None)
        else:
            neg[j] = updated
        # the combined inverse is finite because each a is nilpotent
        combined = LaurentSeries.one(sig)
        for jj, a in neg.items():
            combined = combined * _binomial_inverse(sig, jj, a, n_deg)
        residual = work * combined
    else:
        raise InsufficientTruncation("factorization did not stabilize; raise the truncation")

    # the expanded negative product shifts information downward on both the
    # peel and the rebuild, so the reconstruction-valid window shrinks by
    # its lower bound once more
    lam = min(_neg_product(sig, neg).lower_bound, 0)

    t_eff = residual.trunc
    if min(t_eff, t_eff + lam) <= nu:
        raise InsufficientTruncation(
            f"truncation order {T} too small to determine the unit part at x^{nu}"
        )
    a0 = residual.coeff(nu)
    unit = residual.shift(-nu).scale(a0.inverse())

    pos = {}
    rel_trunc = t_eff - nu
    j = 1
    while j < rel_trunc:
        if unit.is_zero() or unit == LaurentSeries.one(sig, unit.trunc):
            break
        c = unit.coeffs.get(j)
        if c is not None:
            pos[j] = -c
            # below x^rel_trunc the inverse has ceil(rel_trunc / j) terms
            inv = _binomial_inverse(sig, j, pos[j], -(-rel_trunc // j), rel_trunc)
            unit = (unit * inv).truncate(rel_trunc)
        j += 1
    return CanonicalFactorization(sig, nu, a0, neg, pos, t_eff + lam)


def reconstruct(fac: CanonicalFactorization) -> LaurentSeries:
    """Expand the product decomposition back into a series."""
    sig = fac.signature
    T = fac.trunc_order
    neg_poly = _neg_product(sig, fac.neg_factors)
    lam = min(neg_poly.lower_bound, 0)
    rel_cap = T - fac.nu - lam
    out = LaurentSeries.one(sig)
    for j in sorted(fac.pos_factors):
        if j >= rel_cap:
            continue
        out = (out * LaurentSeries(sig, {0: sig.one(), j: -fac.pos_factors[j]})).truncate(rel_cap)
    out = (out * neg_poly).truncate(T - fac.nu)
    return out.scale(fac.a0).shift(fac.nu)
