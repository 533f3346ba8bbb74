"""Shared test helpers: independent oracles and random data generators.

The oracles here deliberately avoid the code paths they check: Gaussian
rationals as pairs of `fractions.Fraction` instead of Gaussian-integer
numerators over one denominator, dense convolution instead of the
pruned-map product, a series inverse in two
stages (by the reduction, then m-adically) instead of one long division
over A, cumulative trapezoid quadrature on the ordered simplex instead
of word-series transport, an RK4 stepper that takes one node at a
time on {monomial: scalar} maps instead of blocks of columns, a
factorization that peels one factor at a time off the series instead of
inverting the ghost map on its logarithmic derivative, the symbol as the
double product over two factorizations instead of its residue form, and input
evaluators that make every literal a series, or every factor a function,
instead of folding literals as scalars; a sum in a function is expanded
as lists of elements over both denominators at every + and *, and its
degree read off its leaves by a recursion of its own, where the reader
folds polynomials of mixed rank and skips products by 1.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from ccsym import chen, parsing
from ccsym.algebra import AlgebraElement, AlgebraSignature
from ccsym.errors import InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from ccsym.laurent import CanonicalFactorization, LaurentSeries
from ccsym.ratfunc import RationalFunctionA, poly_add, poly_mul, poly_reduction, poly_trim
from ccsym.scalars import GR_I, GaussianRational, gaussian, geometric, power

# -- Q(i) as pairs of Fractions -----------------------------------------------


@dataclass(frozen=True)
class OracleGaussian:
    """re + im i with Fraction parts: the reference for `GaussianRational`."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        return OracleGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return OracleGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return OracleGaussian(-self.re, -self.im)

    def __mul__(self, other):
        return OracleGaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return OracleGaussian((self.re * other.re + self.im * other.im) / n,
                              (self.im * other.re - self.re * other.im) / n)

    def inverse(self):
        return OracleGaussian(Fraction(1), Fraction(0)) / self

    def __pow__(self, n: int):
        return power(self, n, OracleGaussian(Fraction(1), Fraction(0)))

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

# -- dense truncated-polynomial oracle ----------------------------------------


def oracle_alg_mul(coeffs_a: dict, coeffs_b: dict, degree: int, zero=gaussian(0)) -> dict:
    """Naive convolution of exponent-tuple maps, dropping total degree >= N;
    each sum starts from `zero`, the scalars' zero."""
    out = {}
    for m1, c1 in coeffs_a.items():
        for m2, c2 in coeffs_b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            if sum(mono) >= degree:
                continue
            out[mono] = out.get(mono, zero) + c1 * c2
    return {m: c for m, c in out.items() if c}


def oracle_series_mul(coeffs_f: dict, coeffs_g: dict, sig: AlgebraSignature) -> dict:
    """Naive Cauchy product of {exponent: AlgebraElement} maps over exact
    scalars, each pair product by `oracle_alg_mul` on the coefficient maps."""
    out = {}
    for e1, c1 in coeffs_f.items():
        for e2, c2 in coeffs_g.items():
            prod = sig.element(oracle_alg_mul(c1.coeffs, c2.coeffs, sig.truncation_degree))
            key = e1 + e2
            out[key] = out.get(key, sig.zero()) + prod
    return {e: c for e, c in out.items() if not c.is_zero()}


def dlog_value(f, z) -> AlgebraElement:
    """f'/f at z as an element: `dlog_eval`'s dense list over the layout
    of the partial fractions it samples there (exact, or widened at a complex z)."""
    return (f.float_dlog if isinstance(z, complex) else f.compiled_dlog).layout.element(f.dlog_eval(z))


def oracle_binomial(form, z) -> list:
    """d(1 - a z^n)/(1 - a z^n) at z as a dense list over the form's own
    layout, node by node: -n a z^(n-1) divided by 1 - a z^n by forward
    substitution in degree order, each product monomial looked up anew."""
    monos = form.layout.monomials
    index = {m: i for i, m in enumerate(monos)}
    zn1 = z ** (form.n - 1)  # safe at z = 0 for n >= 1
    zn = zn1 * z
    den = [-(c * zn) for c in form._a]
    den[0] += 1
    out = [c * (-form.n * zn1) for c in form._a]
    c_inv = complex(1) / den[0]
    for k, mk in enumerate(monos):
        if out[k]:
            q = out[k] = out[k] * c_inv
            for j, mj in enumerate(monos[1:], 1):
                p = index.get(tuple(x + y for x, y in zip(mk, mj)))
                if p is not None:
                    out[p] -= q * den[j]
    return out


# -- two-stage series inverse oracle ---------------------------------------------


def oracle_series_inverse(f: LaurentSeries) -> LaurentSeries:
    """f^-1 in two stages, for a finite truncation order or a single unit
    term: long division by the reduction mod m, one scalar at a time, then
    an m-adic correction g0 * sum of e^k for e = 1 - f g0, each e^k a full
    series product, where `LaurentSeries.inverse` divides over A."""
    nu, sig = f.valuation(), f.signature
    # the reduction is x^nu (lead + sum of c x^i over red), and
    # 1/reduction = x^-nu (g_0 + g_1 x + ...) below x^(trunc - 2 nu)
    lead = sig.scalar(f.coeffs[nu].reduce())
    red = [(e - nu, sig.scalar(c.reduce())) for e, c in f.coeffs.items() if e > nu and c.is_unit()]
    g = [lead.inverse()]
    for k in range(1, f.trunc - nu if red else 1):
        g.append(-AlgebraElement.dot(sig, [(c, g[k - i]) for i, c in red if i <= k]) * g[0])
    g0 = LaurentSeries(sig, {k - nu: c for k, c in enumerate(g)}, f.trunc - 2 * nu)
    e = LaurentSeries.one(sig) - f * g0
    return g0 * geometric(e, LaurentSeries.one(sig), sig.truncation_degree)


# -- peeling factorization oracle --------------------------------------------------


def _binomial_inverse(sig: AlgebraSignature, j: int, a: AlgebraElement, terms: int, trunc=math.inf) -> LaurentSeries:
    """(1 - a x^j)^{-1} = sum of a^k x^{jk} over k < terms."""
    powers = itertools.accumulate(itertools.repeat(a, terms - 1), operator.mul, initial=sig.one())
    return LaurentSeries(sig, {j * k: p for k, p in enumerate(powers)}, trunc)


def oracle_factorize(f: LaurentSeries, trunc=None) -> CanonicalFactorization:
    """The canonical factorization by peeling, with no logarithms.

    Phase 1 clears the sub-nu tail: repeatedly peel a factor (1 - a x^j),
    j < 0, chosen to kill the lowest offending coefficient, and recompute
    the residual from f with the combined inverse of all peeled factors.
    Each pass deepens the tail in the m-adic filtration, and m^N = 0
    forces termination.  Phase 2 matches positive factors bottom-up: after
    choosing a_j the residual has no x^j term, and higher factors cannot
    reintroduce one.  The passes are many and each is a series product,
    so keep the inputs small.
    """
    T = f.trunc if trunc is None else min(trunc, f.trunc)
    if math.isinf(T):
        raise InputError("factorization needs a finite truncation order")
    work = f.truncate(T)
    nu = work.valuation()
    sig = f.signature
    n_deg = sig.truncation_degree

    neg = {}
    residual = work
    cap = 4 * n_deg * n_deg * (nu - min(work.lower_bound, nu) + 2) + 16
    for _ in range(cap):
        offending = [e for e in residual.coeffs if e < nu]
        if not offending:
            break
        e = min(offending)
        delta = -(residual.coeff(e) * residual.coeff(nu).inverse())
        if delta.is_unit():
            raise NotInvertible("sub-valuation tail is not nilpotent")
        updated = neg.get(e - nu, sig.zero()) + delta
        if updated.is_zero():
            neg.pop(e - nu, None)
        else:
            neg[e - nu] = updated
        combined = LaurentSeries.one(sig)
        for jj, a in neg.items():
            combined = combined * _binomial_inverse(sig, jj, a, n_deg)
        residual = work * combined
    else:
        raise InsufficientTruncation("factorization did not stabilize; raise the truncation")

    neg_poly = LaurentSeries.one(sig)
    for j in sorted(neg):
        neg_poly = neg_poly * LaurentSeries(sig, {0: sig.one(), j: -neg[j]})
    lam = min(neg_poly.lower_bound, 0)

    t_eff = residual.trunc
    if min(t_eff, t_eff + lam) <= nu:
        raise InsufficientTruncation(f"truncation order {T} too small to determine the unit part at x^{nu}")
    a0 = residual.coeff(nu)
    unit = residual.shift(-nu).scale(a0.inverse())

    pos = {}
    rel_trunc = t_eff - nu
    for j in itertools.count(1):
        if j >= rel_trunc or unit == LaurentSeries.one(sig, unit.trunc):
            break
        c = unit.coeffs.get(j)
        if c is not None:
            pos[j] = -c
            # below x^rel_trunc the inverse has ceil(rel_trunc / j) terms
            inv = _binomial_inverse(sig, j, pos[j], -(-rel_trunc // j), rel_trunc)
            unit = (unit * inv).truncate(rel_trunc)
    return CanonicalFactorization(sig, nu, a0, neg, pos, t_eff + lam)


def agrees_with(f: LaurentSeries, g: LaurentSeries, upto=math.inf) -> bool:
    """Equality of the coefficients of two series over one signature at every
    exponent below `upto` and both truncation orders."""
    assert f.signature == g.signature
    bound = min(f.trunc, g.trunc, upto)
    return all(f.coeffs.get(e) == g.coeffs.get(e) for e in set(f.coeffs) | set(g.coeffs) if e < bound)


def reconstruct(fac: CanonicalFactorization) -> LaurentSeries:
    """Expand a canonical factorization a0 x^nu prod (1 - a_j x^j) back into
    a series, known below its `trunc_order`."""
    sig, T = fac.signature, fac.trunc_order
    neg_poly = LaurentSeries.one(sig)
    for j in sorted(fac.neg_factors):
        neg_poly = neg_poly * LaurentSeries(sig, {0: sig.one(), j: -fac.neg_factors[j]})
    rel_cap = T - fac.nu - min(neg_poly.lower_bound, 0)
    out = LaurentSeries.one(sig)
    for j in sorted(fac.pos_factors):
        if j < rel_cap:
            out = (out * LaurentSeries(sig, {0: sig.one(), j: -fac.pos_factors[j]})).truncate(rel_cap)
    out = (out * neg_poly).truncate(T - fac.nu)
    return out.scale(fac.a0).shift(fac.nu)


def _require_complete(fac: CanonicalFactorization, partner_neg_depth: int, who: str):
    n = fac.signature.truncation_degree
    needed = fac.nu + n * partner_neg_depth
    if fac.trunc_order < needed:
        raise InsufficientTruncation(
            f"{who}: positive factors known below x^{fac.trunc_order - fac.nu} "
            f"but the double product needs them below x^{n * partner_neg_depth}; "
            f"re-expand with truncation >= {needed}"
        )


def cc_symbol(fac_f: CanonicalFactorization, fac_g: CanonicalFactorization) -> AlgebraElement:
    """The symbol from two canonical factorizations, by the double product of
    the `ccsym.symbol` docstring: the reference for its residue form."""
    if fac_f.signature != fac_g.signature:
        raise SignatureMismatch("factorizations over different signatures")
    sig = fac_f.signature

    f_neg_depth = max((-j for j in fac_f.neg_factors), default=0)
    g_neg_depth = max((-j for j in fac_g.neg_factors), default=0)
    _require_complete(fac_f, g_neg_depth, "f")
    _require_complete(fac_g, f_neg_depth, "g")

    one = sig.one()

    def double_product(pos: dict, neg: dict) -> AlgebraElement:
        out = one
        for k_neg, b in neg.items():
            k = -k_neg
            for j, a in pos.items():
                d = math.gcd(j, k)
                b_pow = b ** (j // d)
                if b_pow.is_zero():
                    continue
                factor = one - (a ** (k // d)) * b_pow
                out = out * factor ** d
        return out

    numerator = (fac_f.a0 ** fac_g.nu) * double_product(fac_f.pos_factors, fac_g.neg_factors)
    denominator = (fac_g.a0 ** fac_f.nu) * double_product(fac_g.pos_factors, fac_f.neg_factors)
    value = numerator * denominator.inverse()
    if (fac_f.nu * fac_g.nu) % 2:
        value = -value
    return value


def oracle_tame(f: LaurentSeries, g: LaurentSeries):
    """The classical tame symbol (-1)^(nu_f nu_g) [f^nu_g / g^nu_f](0) of two
    series over C, as a bare scalar: the reference for `ccsym tame`."""
    nu_f, nu_g = f.valuation(), g.valuation()
    value = ((f ** nu_g) * (g ** nu_f).inverse()).coeff(0).reduce()
    return -value if nu_f * nu_g % 2 else value


# -- input evaluators that make every literal a series or a function ----------------

_ORACLE_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _oracle_bit_length(value) -> int:
    """The largest bit length among the numerators and denominators of the
    exact scalars of a value, zero parts skipped, read from its `Fraction`s."""
    if isinstance(value, GaussianRational):
        return max((n.bit_length() for q in (value.re, value.im) if q for n in (q.numerator, q.denominator)),
                   default=0)
    if isinstance(value, RationalFunctionA):
        parts = [r for r, _ in value.base_factors] + [value.scale, *value.pert_num, *value.pert_den]
    elif isinstance(value, OraclePolyFraction):
        parts = value.num + value.den
    else:  # an AlgebraElement, or a LaurentSeries of them
        parts = value.coeffs.values()
    return max(map(_oracle_bit_length, parts), default=0)


def _oracle_power(base, n: int, pow_):
    """pow_(base, n), unless the exponent times the base's bit length passes
    `parsing.MAX_POWER_BITS`: the cap every reader applies to a power."""
    if abs(n) * _oracle_bit_length(base) > parsing.MAX_POWER_BITS:
        raise InputError(
            f"power too large: the exponent times the bit length of the base's "
            f"numbers exceeds {parsing.MAX_POWER_BITS} bits"
        )
    return pow_(base, n)


def _oracle_fold(node, leaf, div, pow_):
    """Evaluate an AST on the values `leaf` gives its num/name nodes, all
    of one type, with the power cap of `_oracle_power`."""
    kind = node[0]
    if kind in ("num", "name"):
        return leaf(node)
    if kind == "neg":
        return -_oracle_fold(node[1], leaf, div, pow_)
    if kind == "pow":
        return _oracle_power(_oracle_fold(node[1], leaf, div, pow_), node[2], pow_)
    a, b = (_oracle_fold(child, leaf, div, pow_) for child in node[1:])
    return div(a, b) if kind == "div" else _ORACLE_BINARY[kind](a, b)


def _oracle_leaf(node, sig: AlgebraSignature, text: str) -> AlgebraElement:
    if node[0] == "num":
        return sig.scalar(node[1])
    if node[1] in sig.generators:
        return sig.gen(node[1])
    if node[1] == "i":
        return sig.scalar(GR_I if sig.backend.value == "exact" else 1j)
    raise InputError(f"unknown name {node[1]!r} in {text!r}")


def oracle_parse_element(text: str, sig: AlgebraSignature) -> AlgebraElement:
    """An expression without x with every literal an algebra element."""
    leaf = lambda node: _oracle_leaf(node, sig, text)  # noqa: E731
    return _oracle_fold(parsing.parse_expression(text), leaf, lambda a, b: a * b.inverse(), operator.pow)


def oracle_parse_series(text: str, sig: AlgebraSignature, trunc=math.inf) -> LaurentSeries:
    """A series literal with every literal, x-free or not, a series, and
    every quotient a product by a series inverse taken at `trunc` (a
    one-term divisor uncut, as it inverts exactly)."""

    def leaf(node):
        if node == ("name", "x"):
            return LaurentSeries.monomial(sig, 1)
        return LaurentSeries(sig, {0: _oracle_leaf(node, sig, text)})

    def cut(base):
        return base if len(base.coeffs) == 1 else base.truncate(trunc)

    def pow_(base, n):
        return cut(base) ** n if n < 0 else base ** n

    series = _oracle_fold(parsing.parse_expression(text), leaf, lambda a, b: a * cut(b).inverse(), pow_)
    return series.truncate(trunc)


class OraclePolyFraction:
    """A fraction num/den of A-polynomials in x (lists, lowest degree first),
    every sum and product expanded over both denominators."""

    def __init__(self, sig: AlgebraSignature, num: list, den: list, text: str):
        if (degree := max(len(num), len(den)) - 1) > parsing.MAX_SUM_DEGREE:
            raise _oracle_degree_error(degree, text, what="sum with a polynomial of x-degree")
        self.sig, self.num, self.den, self.text = sig, num, den, text

    def __neg__(self):
        return OraclePolyFraction(self.sig, [-c for c in self.num], self.den, self.text)

    def __add__(self, other):
        sig = self.sig
        total = poly_add(poly_mul(self.num, other.den, sig), poly_mul(other.num, self.den, sig), sig)
        return OraclePolyFraction(sig, total, poly_mul(self.den, other.den, sig), self.text)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        num = poly_mul(self.num, other.num, self.sig)
        return OraclePolyFraction(self.sig, num, poly_mul(self.den, other.den, self.sig), self.text)

    def inverse(self):
        return OraclePolyFraction(self.sig, self.den, self.num, self.text)


def _oracle_degree_error(degree: int, text: str, known=True, what="factor with reduction of degree") -> InputError:
    cap = f" (a sum may reach degree {parsing.MAX_SUM_DEGREE})" if degree > parsing.MAX_SUM_DEGREE else ""
    return InputError(f"{what} {'' if known else 'up to '}{degree} in {text!r}{cap}; "
                      "write the input as a product of (x - root)^m factors")


def _oracle_spans(node, sig: AlgebraSignature, text: str):
    """The highest x-degree of the reductions mod m of the numerator and the
    denominator of a sum, read off its leaves, and whether both are exact
    (where two terms reach the same degree they may cancel).  A zero
    reduction has degree -inf."""
    kind = node[0]
    if node == ("name", "x"):
        return 1, 0, True
    if kind in ("num", "name"):
        return (0 if _oracle_leaf(node, sig, text).is_unit() else -math.inf), 0, True
    if kind == "neg":
        return _oracle_spans(node[1], sig, text)
    if kind == "pow":
        num, den, exact = _oracle_spans(node[1], sig, text)
        n = node[2]
        if n < 0:
            num, den, n = den, num, -n
        return (num * n, den * n, exact) if n else (0, 0, True)
    (a, b, exact_a), (c, d, exact_c) = (_oracle_spans(t, sig, text) for t in node[1:])
    if kind == "div":
        c, d = d, c
    if kind in ("mul", "div"):
        return a + c, b + d, exact_a and exact_c
    return max(a + d, c + b), b + d, exact_a and exact_c and a + d != c + b  # num = a*d +- c*b


def _oracle_classify(p: list, sig: AlgebraSignature, text: str) -> RationalFunctionA:
    """An A-polynomial in factored form: its reduction must be a constant,
    c*x^k or c*(x-r)."""
    p = poly_trim(list(p))
    red = poly_reduction(p)
    if not red:
        raise InputError(f"nilpotent (non-invertible) factor in {text!r}")
    support = [k for k, c in enumerate(red) if c]
    c_lead = red[-1]
    c_elt = sig.scalar(c_lead)
    if len(support) == 1:
        k = support[0]
        base = ((gaussian(0), k),) if k else ()
        return RationalFunctionA(sig, base, c_elt, p, [sig.zero()] * k + [c_elt])
    if len(red) == 2:
        root = -(red[0] / red[1])
        return RationalFunctionA(sig, ((root, 1),), c_elt, p, [sig.scalar(-root) * c_lead, c_elt])
    raise _oracle_degree_error(len(red) - 1, text)


def oracle_parse_ratfunc(text: str, sig: AlgebraSignature) -> RationalFunctionA:
    """A function read factor by factor over sig's exact signature, each
    literal a constant function and each sum expanded over both
    denominators at every + and *, then factored."""
    sig = sig.to_exact()

    def leaf(node):
        if node == ("name", "x"):
            return OraclePolyFraction(sig, [sig.zero(), sig.one()], [sig.one()], text)
        return OraclePolyFraction(sig, [_oracle_leaf(node, sig, text)], [sig.one()], text)

    def frac_pow(base, n):
        return power(base, n, OraclePolyFraction(sig, [sig.one()], [sig.one()], text))

    def read(node):
        kind = node[0]
        if kind == "mul":
            return read(node[1]) * read(node[2])
        if kind == "div":
            return read(node[1]) * read(node[2]).inverse()
        if kind == "pow":
            return _oracle_power(read(node[1]), node[2], operator.pow)
        if kind == "neg":
            return RationalFunctionA.constant(sig, -1) * read(node[1])
        if node == ("name", "x"):
            return RationalFunctionA.monic_linear(sig, 0)
        if kind in ("num", "name"):
            return RationalFunctionA.constant(sig, _oracle_leaf(node, sig, text))
        num, den, known = _oracle_spans(node, sig, text)
        too_high = [hi for hi in (num, den) if hi > parsing.MAX_SUM_DEGREE]
        if too_high:
            raise _oracle_degree_error(too_high[0], text, known)
        frac = _oracle_fold(node, leaf, lambda a, b: a * b.inverse(), frac_pow)
        return _oracle_classify(frac.num, sig, text) * _oracle_classify(frac.den, sig, text).inverse()

    return read(parsing.parse_expression(text))


def _gaussian_text(re: Fraction, im: Fraction) -> str:
    """A Gaussian rational as the benchmark writes it: (3/2-1/2*i)."""
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}*i)" if im else f"({re})"


def _literal(rng) -> str:
    return _gaussian_text(random_gaussian(rng).re, Fraction(rng.randint(-1, 1), rng.choice((1, 2))))


def bench_series_text(rng: random.Random, gens: tuple, degree: int) -> str:
    """A series as the benchmark's `symbol` and `factorize` inputs are
    written: a sum of (c)*monomial*x^e terms, a unit at x^nu, unit terms
    above it and nilpotent ones at x^(nu - 1)."""
    nu, terms = rng.randint(-1, 1), []
    monos = [m for m in itertools.product(range(degree), repeat=len(gens)) if sum(m) < degree]
    for e in (nu - 1, nu, nu + 1, nu + rng.randint(2, 3)):
        for mono in monos:
            if sum(mono) or e >= nu:
                gen = "*".join(g if k == 1 else f"{g}^{k}" for g, k in zip(gens, mono) if k)
                x = "" if e == 0 else "x" if e == 1 else f"x^{e}"
                terms.append("*".join(part for part in (_literal(rng), gen, x) if part))
    return "+".join(terms)


def bench_weil_texts(rng: random.Random, gens: tuple, odd: bool) -> tuple:
    """(f, g) as the benchmark's `verify weil` inputs are written: unit
    scales, affine factors over Gaussian-rational roots, one shifted by
    nilpotents in each function, and g with (x - r1)^-1 or ^2."""
    grid = [Fraction(k, 2) for k in range(-2, 3)]
    r1, r2, r3 = rng.sample([_gaussian_text(a, b) for a in grid for b in grid], 3)
    scales = ("2", "-1", "1/2", "3", "-1/3", "i", "(1-i)")

    def shift():
        return "".join(f"+({Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))})*{g}" for g in gens)

    f = f"{rng.choice(scales)}*(x-{r1}{shift()})*(x-{r2})^-1"
    g = f"{rng.choice(scales)}*(x-{r1})^{-1 if odd else 2}*(x-{r3}{shift()})"
    return f, g


# -- nested quadrature oracle for scalar 2-word integrals -----------------------


def oracle_iterated_2(form1, form2, path, grid: int = 8192) -> complex:
    """int_{0<=t1<=t2<=1} f1(t1) f2(t2) dt1 dt2 by cumulative trapezoid,
    with the path parametrized globally over [0, 1]."""
    segs = path.segments
    m = len(segs)

    def pullback(form, t):
        s = min(t * m, m - 1e-12)
        idx = int(s)
        local = s - idx
        z = segs[idx].point(local)
        v = segs[idx].velocity(local) * m
        return complex(form.layout.element(form.eval(z)).reduce()) * v

    h = 1.0 / grid
    f1 = [pullback(form1, k * h) for k in range(grid + 1)]
    f2 = [pullback(form2, k * h) for k in range(grid + 1)]
    cum = [0j] * (grid + 1)
    for k in range(1, grid + 1):
        cum[k] = cum[k - 1] + 0.5 * h * (f1[k - 1] + f1[k])
    total = 0j
    for k in range(1, grid + 1):
        total += 0.5 * h * (cum[k - 1] * f2[k - 1] + cum[k] * f2[k])
    return total


# -- node-by-node RK4 oracle for the transport ----------------------------------


def oracle_transport(forms, path, words, steps: int, replay: bool = True, per_step: bool = False) -> dict:
    """{word: {monomial: coefficient}} for the words and their prefixes:
    `steps` classical RK4 steps per segment, node by node, with the float
    operations of `chen.transport` in the same order and every product by
    `oracle_alg_mul` on the nonzero coefficients.  A one-letter word takes
    Simpson's rule, h/6 (w0 + 4 w_half + w1).  A leaf (a word no other
    word extends) past its first letter is updated once per block of
    `chen.BLOCK` steps, as the transport does: its parent's RK4 weights at
    the block's nodes, from the stages node by node (for a one-letter
    parent, from its running sum and samples), dotted with the samples
    pair by pair in (degree, exponents) order, times h/6.  With
    `per_step` every word takes its RK4 update each step instead.  With
    `replay`, a segment that runs back over an earlier one steps that one's
    samples in reverse order with the step negated, as the transport does."""
    sig = forms[0].signature
    monos = sorted(_all_monomials(sig), key=lambda m: (sum(m), m))
    closure = sorted({w[:i] for w in words for i in range(len(w) + 1)}, key=lambda w: (len(w), w))
    leaves = set() if per_step else {w for w in closure[1:] if len(w) > 1 and all(v[:-1] != w for v in closure[1:])}
    pairs = [(mi, mj, mk) for mi in monos for mj in monos
             if (mk := tuple(x + y for x, y in zip(mi, mj))) in monos]
    F = {w: dict.fromkeys(monos, 0j) for w in closure}
    F[()][monos[0]] = complex(1)

    def prod(x, y):
        out = oracle_alg_mul({m: c for m, c in x.items() if c}, {m: c for m, c in y.items() if c},
                             sig.truncation_degree, 0j)
        return {m: out.get(m, 0j) for m in monos}

    def dot(ys, ws):
        out = dict.fromkeys(monos, 0j)
        for mi, mj, mk in pairs:
            out[mk] += sum((y[mi] * w[mj] for y, w in zip(ys, ws)), 0j)
        return out

    def sample(seg, t):
        z, v = seg.point(t), seg.velocity(t)
        return [{**dict.fromkeys(monos, 0j), **{m: c * v for m, c in zip(form.layout.monomials, form.eval(z))}}
                for form in forms]

    kept = {}
    for seg in path.segments:
        if replay and seg in kept:
            (nodes, sizes), h = kept.pop(seg), -1 / steps
            nodes, sizes = nodes[::-1], sizes[::-1]
        else:
            nodes, h = [sample(seg, k * (0.5 / steps)) for k in range(2 * steps + 1)], 1 / steps
            sizes = [min(chen.BLOCK, steps - k) for k in range(0, steps, chen.BLOCK)]
            kept[seg.reversed()] = nodes, sizes
        half, sixth = h / 2, h / 6
        ends = set(itertools.accumulate(sizes))  # the steps after which a block ends
        K = {}  # per word, its first three stages at this step
        last = {}  # per leaf of a first letter: that letter's running sum and midpoint sample at the step before
        Y = {}  # per leaf, its parent's RK4 weights at the block's nodes so far
        start, w0 = 0, nodes[0]
        for n, (w_half, w1) in enumerate(zip(nodes[1::2], nodes[2::2]), 1):
            G = dict(F)
            for w in closure[1:]:
                p, a = w[:-1], w[-1] - 1
                if p:
                    x = F[p]
                    x2 = {m: x[m] + K[p][0][m] * half for m in monos}
                    x3 = {m: x[m] + K[p][1][m] * half for m in monos}
                    x4 = {m: x[m] + K[p][2][m] * h for m in monos}
                    if w in leaves and len(p) > 1:
                        ys = Y.setdefault(w, [dict.fromkeys(monos, 0j)])
                        ys[-1] = {m: ys[-1][m] + x[m] for m in monos}
                        ys += [{m: (x2[m] + x3[m]) * 2.0 for m in monos}, x4]
                        continue
                    if w in leaves:  # a first letter's weights, from its running sum and samples
                        b0, b2 = w0[p[0] - 1], w_half[p[0] - 1]
                        ys = Y.setdefault(w, [])
                        if ys:
                            ys[-1] = {m: x[m] + last[w][0][m] + last[w][1][m] * h for m in monos}
                        else:
                            ys.append(x)
                        ys += [{m: x[m] * 4.0 + (b0[m] + b2[m]) * h for m in monos},
                               {m: x[m] + b2[m] * h for m in monos}]
                        last[w] = x, b2
                        continue
                    k1, k2, k3, k4 = prod(x, w0[a]), prod(x2, w_half[a]), prod(x3, w_half[a]), prod(x4, w1[a])
                    G[w] = {m: F[w][m] + (k1[m] + k2[m] * 2.0 + k3[m] * 2.0 + k4[m]) * sixth for m in monos}
                else:  # Simpson's rule
                    k1, k2, k3, k4 = w0[a], w_half[a], w_half[a], w1[a]
                    G[w] = {m: F[w][m] + (k1[m] + k2[m] * 4.0 + k4[m]) * sixth for m in monos}
                K[w] = k1, k2, k3
            if n in ends:
                for w, ys in Y.items():
                    d = dot(ys, [node[w[-1] - 1] for node in nodes[2 * start:2 * n + 1]])
                    G[w] = {m: F[w][m] + d[m] * sixth for m in monos}
                start, Y = n, {}
            F, w0 = G, w1
    return {w: {m: c for m, c in f.items() if c} for w, f in F.items()}


# -- random generators ------------------------------------------------------------


def random_gaussian(rng: random.Random, span: int = 3) -> GaussianRational:
    num = rng.randint(-span, span)
    den = rng.randint(1, 3)
    if rng.random() < 0.25:
        return gaussian(Fraction(num, den), Fraction(rng.randint(-2, 2), 1))
    return gaussian(Fraction(num, den))


def random_element(rng: random.Random, sig: AlgebraSignature, unit: bool | None = None) -> AlgebraElement:
    """A sparse random element; unit=True forces a nonzero residue,
    unit=False forces membership in the maximal ideal."""
    coeffs = {}
    monos = _all_monomials(sig)
    for mono in monos:
        if rng.random() < 0.5:
            coeffs[mono] = random_gaussian(rng)
    empty = sig.empty_monomial()
    if unit is True:
        while not coeffs.get(empty):
            coeffs[empty] = random_gaussian(rng)
    if unit is False:
        coeffs.pop(empty, None)
    return sig.element(coeffs)


def _all_monomials(sig: AlgebraSignature):
    out = []

    def rec(prefix, remaining, budget):
        if not remaining:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], sig.ngens, sig.truncation_degree - 1)
    return out


def random_invertible_series(
    rng: random.Random, sig: AlgebraSignature, trunc: int, max_terms: int = 3, low_terms: int = 1
) -> LaurentSeries:
    """Random element of A((x))^x: a unit leading coefficient at a random
    valuation, optional higher terms, and with chance 0.6 `low_terms`
    nilpotent terms drawn at most low_terms + 1 below it."""
    nu = rng.randint(-2, 2)
    coeffs = {nu: random_element(rng, sig, unit=True)}
    for _ in range(rng.randint(0, max_terms)):
        e = nu + rng.randint(1, 3)
        if e < trunc:
            coeffs[e] = random_element(rng, sig)
    if sig.truncation_degree > 1 and rng.random() < 0.6:
        for _ in range(low_terms):
            low = nu - rng.randint(1, low_terms + 1)
            elt = random_element(rng, sig, unit=False)
            if not elt.is_zero():
                coeffs[low] = elt
    return LaurentSeries(sig, coeffs, trunc)


def group_like_deviation(series) -> float:
    """Max violation of coeff(w1)*coeff(w2) = sum of shuffle coefficients."""
    from ccsym.algebra import deviation
    from ccsym.chen import shuffles

    words = [w for w in series.coeffs if w]
    dev = 0.0
    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) > series.max_len:
                continue
            lhs = series.coeff(w1) * series.coeff(w2)
            rhs = series.signature.zero()
            for pattern in shuffles(len(w1), len(w2)):
                letters = list(w1) + list(w2)
                rhs = rhs + series.coeff(tuple(letters[i] for i in pattern))
            dev = max(dev, deviation(lhs, rhs))
    return dev
