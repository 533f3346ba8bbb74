"""Laurent series over a truncated nilpotent algebra.

A series is a finite coefficient map {exponent: AlgebraElement} together
with an explicit truncation order T: exponents >= T are unknown, not
zero.  Every binary operation computes the tightest truncation of its
result, so consumers can always tell which window of coefficients is
trustworthy.

The canonical factorization writes an invertible series uniquely as

    f = a0 * x^nu * prod_{j<0} (1 - a_j x^j) * prod_{j>0} (1 - a_j x^j)

with a0 a unit and a_j nilpotent for j < 0.  `factorize` reads it off
logarithmic derivatives: log prod (1 - a_j x^j) is the ghost map of the
big Witt vector (a_j) (Hazewinkel, arXiv:0804.3888), and a triangular
recursion over divisors inverts it with element products alone.  The
negative factors come from h'/h for h = x^-nu f (`_logs`, shared with
the residue form in `symbol`), the positive ones from dlog (h / f_-).
"""

from __future__ import annotations

import math

from .algebra import AlgebraElement, AlgebraSignature, Backend, exp
from .errors import InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from .scalars import GaussianRational, geometric, power

INF = math.inf

# the most terms a series inverse computes by long division over A; a
# divisor with a unit term above its lead takes one per exponent from the
# valuation up to the truncation order, infinitely many at order inf
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
        """Zero at every exponent: a series known to be zero only below
        its truncation order is not, as its products show when they
        lower that order."""
        return not self.coeffs and self.trunc == INF

    def support(self):
        return sorted(self.coeffs)

    def truncate(self, trunc) -> "LaurentSeries":
        return LaurentSeries(self.signature, self.coeffs, min(self.trunc, trunc))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by x^k."""
        return LaurentSeries(
            self.signature, {e + k: c for e, c in self.coeffs.items()}, self.trunc + k
        )

    def derivative(self) -> "LaurentSeries":
        return LaurentSeries(self.signature, {e - 1: c.times_int(e) for e, c in self.coeffs.items() if e}, self.trunc - 1)

    def scale(self, a: AlgebraElement) -> "LaurentSeries":
        """a times the series; by 0 it is 0 at every exponent, as a product
        by the zero series is."""
        if a.is_zero():
            return LaurentSeries.zero(self.signature)
        one = self.signature.one()  # a coefficient 1 gives a itself, with no product
        return LaurentSeries(self.signature, {e: a if c is one else c * a for e, c in self.coeffs.items()}, self.trunc)

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

    def __neg__(self):
        return LaurentSeries(self.signature, {e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return self.scale(self.signature.scalar(other))
        self._check(other)
        trunc = min(self.trunc + other.lower_bound, other.trunc + self.lower_bound)
        pairs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                if e1 + e2 < trunc:
                    pairs.setdefault(e1 + e2, []).append((c1, c2))
        sig = self.signature
        return LaurentSeries(sig, {e: AlgebraElement.dot(sig, group) for e, group in pairs.items()}, trunc)

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
        """Invert in A((x)): long division over A by d, the part of f from
        x^nu on when a term above x^nu is a unit and else the lead c_nu x^nu
        alone, then a finite geometric correction for the rest r = f - d.
        1/d = g0 = x^-nu (g_0 + g_1 x + ...) below x^(trunc - 2 nu), each
        g_k one dot product with d's coefficients scaled once by -1/c_nu;
        r has nilpotent coefficients, so 1/f = g0 * sum of (-r g0)^k, and
        g0 itself when r is empty."""
        nu, sig, trunc = self.valuation(), self.signature, self.trunc
        terms = trunc - nu if any(c.is_unit() for e, c in self.coeffs.items() if e > nu) else 1
        if terms > _TERM_CAP:
            raise InsufficientTruncation(
                "a series with more than one unit term needs a finite truncation order" if trunc == INF
                else f"inverting this series below x^{trunc} takes {terms} terms, "
                f"more than {_TERM_CAP}; truncate the series first"
            )
        g = [self.coeffs[nu].inverse()]
        scale = -g[0]
        divisor = [(e - nu, c * scale) for e, c in self.coeffs.items() if nu < e < nu + terms]
        for k in range(1, terms):
            g.append(AlgebraElement.dot(sig, [(c, g[k - i]) for i, c in divisor if i <= k]))
        g0 = LaurentSeries(sig, {k - nu: c for k, c in enumerate(g)}, trunc - 2 * nu)
        rest = {e: -c for e, c in self.coeffs.items() if e < nu or e >= nu + terms}
        if not rest:
            return g0
        u = LaurentSeries(sig, rest, trunc) * g0
        return g0 * geometric(u, LaurentSeries.one(sig), sig.truncation_degree)

    def __pow__(self, n: int) -> "LaurentSeries":
        return power(self, n, LaurentSeries.one(self.signature))

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

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


class CanonicalFactorization:
    """The data (nu, a0, {a_j}) of the unique product decomposition: `neg_factors`
    maps j < 0 to an element of m, `pos_factors` j > 0 to an element of A, and
    the reconstruction matches the source below `trunc_order`."""

    def __init__(self, signature: AlgebraSignature, nu: int, a0: AlgebraElement,
                 neg_factors: dict = None, pos_factors: dict = None, trunc_order: float = INF):
        neg_factors, pos_factors = neg_factors or {}, pos_factors or {}
        if not a0.is_unit():
            raise NotInvertible("leading coefficient a0 must be a unit")
        for j, a in neg_factors.items():
            if j >= 0:
                raise InputError(f"negative-factor index {j} must be < 0")
            if a.is_unit():
                raise InputError(f"factor at {j} must lie in the maximal ideal")
        for j in pos_factors:
            if j <= 0:
                raise InputError(f"positive-factor index {j} must be > 0")
        self.signature, self.nu, self.a0, self.trunc_order = signature, nu, a0, trunc_order
        self.neg_factors, self.pos_factors = neg_factors, pos_factors

    def factor(self, j: int) -> AlgebraElement:
        src = self.neg_factors if j < 0 else self.pos_factors
        return src.get(j, self.signature.zero())

    def widen(self) -> "CanonicalFactorization":
        """The same data with float coefficients (identity on the float backend)."""
        neg, pos = ({j: a.widen() for j, a in factors.items()} for factors in (self.neg_factors, self.pos_factors))
        return CanonicalFactorization(self.signature.to_float(), self.nu, self.a0.widen(), neg, pos, self.trunc_order)

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


def _logs(f: LaurentSeries, nu: int):
    """(h'/h, l, a0) for h = x^-nu f = p (1 - u), p the part of h from x^0
    on: l = log(1 - u) is a finite sum, its exponents < 0 are log f_-,
    and a0 = p(0) exp(l(0)).  The part of h below x^0 is known exactly,
    so only u = (p - h)/p and its powers erode the truncation."""
    h = f.shift(-nu)
    sig = h.signature
    p = LaurentSeries(sig, {e: c for e, c in h.coeffs.items() if e >= 0}, h.trunc)
    p_inv = p.inverse()
    if h.lower_bound >= 0:  # tame: u = 0, known below h's truncation order as p^-1 starts at x^0
        return p.derivative() * p_inv, LaurentSeries.zero(sig, h.trunc), p.coeff(0)
    rest = p - h
    u = rest * p_inv  # log(1 - u) = -sum of u^k / k
    # u's coefficients lie in m^order, as p - h's do, so u^k = 0 once k order >= N: the degree digit of the least key
    order = min((m for c in rest.coeffs.values() for m in c.num), default=sig.limit) * sig.truncation_degree // sig.limit
    log, term = -u, u
    for k in range(2, -(-sig.truncation_degree // order)):
        term = term * u
        log = log - term.scale(sig.scalar(GaussianRational(1, 0, k)))
    a0 = p.coeff(0) * exp(log.coeff(0)) if log.trunc > 0 else None
    return p.derivative() * p_inv + log.derivative(), log, a0


def _ghost_inverse(d: LaurentSeries, sign: int, top: int) -> dict:
    """{sign e: a_(sign e)} for e = 1 .. top from d = dlog prod (1 - a_j x^j):
    [x^(sign e - 1)] d is the sum over m | e of t_m^(e/m) = -sign m
    a_(sign m)^(e/m), so t_e is that coefficient less the terms of the
    proper divisors m of e, each kept running at one product a divisor."""
    found, terms = {}, {}  # m -> a_(sign m), and t_m^k at the last multiple of m
    for e in range(1, top + 1):
        t = d.coeff(sign * e - 1)
        for m, a in found.items():
            if e % m == 0:
                terms[m] = terms[m] * a
                t = t - terms[m]
        if not t.is_zero():
            found[e], terms[e] = t.divided_by_int(-sign * e), t
    return {sign * e: a for e, a in found.items()}


def factorize(f: LaurentSeries, trunc=None) -> CanonicalFactorization:
    """Canonical product decomposition of an invertible series.

    log prod (1 - a_j x^j) is the ghost map of the big Witt vector (a_j),
    and `_ghost_inverse` inverts it in one triangular pass over divisors.
    With h = x^-nu f = a0 f_- f_+ and D = nu - (lower bound of f), the
    coefficients of h at x^-e, of log f_- and a_-e all lie in
    m^ceil(e/D), so a_-e = 0 past e = (N-1) D.  A Witt coordinate can
    outlast the ghost coordinates, as exp(-eps/x) = (1 - eps/x)(1 +
    eps^2/(2x^2)) over eps;3 shows, but not that bound.  The negative
    factors come from the exponents <= -2 of d = h'/h (`_logs`, shared
    with the residue form), read on h cut or padded with zeros at
    x^((N-1) D), which is as far as `_logs` needs to fix them.  Padding
    changes r = h / f_- = a0 f_+ only from r's truncation order on, so
    once r is known at x^0, which the check on trunc_order requires, the
    f_- found is that of every extension of h.  The positive factors come
    from dlog r, where the exact finite f_-^-1 costs only its own lower
    bound of h's truncation.  The expanded f_- shifts information down by its lower
    bound lam on the rebuild, so the reconstruction matches f below
    x^(nu + r.trunc + lam).  The series must be exact: which Witt
    coordinates are zero is a question of equality.
    """
    T = f.trunc if trunc is None else min(trunc, f.trunc)
    if f.signature.backend is not Backend.EXACT:
        raise InputError("factorization needs an exact series; widen its factorization instead")
    if math.isinf(T):
        raise InputError("factorization needs a finite truncation order")
    f = f.truncate(T)
    nu, sig = f.valuation(), f.signature
    top = (sig.truncation_degree - 1) * (nu - f.lower_bound)
    neg = _ghost_inverse(_logs(LaurentSeries(sig, f.coeffs, nu + top), nu)[0], -1, top) if top else {}
    f_minus = LaurentSeries.one(sig)
    for j in sorted(neg):  # the Laurent polynomial prod (1 - a_j x^j) over j < 0
        f_minus = f_minus * LaurentSeries(sig, {0: sig.one(), j: -neg[j]})
    r = f.shift(-nu) * f_minus.inverse()
    trunc_order = nu + r.trunc + min(f_minus.lower_bound, 0)
    if trunc_order <= nu:
        raise InsufficientTruncation(
            f"truncation order {T} too small to determine the unit part at x^{nu}"
        )
    pos = _ghost_inverse(r.derivative() * r.inverse(), 1, r.trunc - 1)
    return CanonicalFactorization(sig, nu, r.coeff(0), neg, pos, trunc_order)

