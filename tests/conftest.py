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
inverting the ghost map on its logarithmic derivative, and input
evaluators that make every literal a series, or every factor a function,
instead of folding literals as scalars.
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
from ccsym.errors import InputError, InsufficientTruncation, NotInvertible
from ccsym.laurent import CanonicalFactorization, LaurentSeries
from ccsym.ratfunc import RationalFunctionA
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


# -- input evaluators that make every literal a series or a function ----------------

_ORACLE_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _oracle_fold(node, leaf, div, pow_):
    """Evaluate an AST on the values `leaf` gives its num/name nodes, all
    of one type, with the power cap of `parsing._power`."""
    kind = node[0]
    if kind in ("num", "name"):
        return leaf(node)
    if kind == "neg":
        return -_oracle_fold(node[1], leaf, div, pow_)
    if kind == "pow":
        return parsing._power(_oracle_fold(node[1], leaf, div, pow_), node[2], pow_)
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


def oracle_parse_ratfunc(text: str, sig: AlgebraSignature) -> RationalFunctionA:
    """A function read factor by factor over sig's exact signature, each
    literal a constant function and each sum expanded and factored by the
    sum path of `parsing`."""
    sig = sig.to_exact()

    def read(node):
        kind = node[0]
        if kind == "mul":
            return read(node[1]) * read(node[2])
        if kind == "div":
            return read(node[1]) * read(node[2]).inverse()
        if kind == "pow":
            return parsing._power(read(node[1]), node[2], operator.pow)
        if kind == "neg":
            return RationalFunctionA.constant(sig, -1) * read(node[1])
        if node == ("name", "x"):
            return RationalFunctionA.monic_linear(sig, 0)
        if kind in ("num", "name"):
            return RationalFunctionA.constant(sig, _oracle_leaf(node, sig, text))
        num, den, known = parsing._reduction_spans(node, sig, text)
        too_high = [hi for hi in (num, den) if hi > parsing.MAX_SUM_DEGREE]
        if too_high:
            raise parsing._degree_error(too_high[0], text, known)
        frac = parsing._polyfrac(node, sig, text)
        return parsing._classify_poly(frac.num, sig, text) * parsing._classify_poly(frac.den, sig, text).inverse()

    f = read(parsing.parse_expression(text))
    f.validate_poles()
    return f


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
        return complex(form.value(z).reduce()) * v

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
    `oracle_alg_mul` on the nonzero coefficients.  A leaf (a word no other
    word extends) past its first letter is updated once per block of
    `chen.BLOCK` steps, as the transport does: its parent's RK4 weights at
    the block's nodes, from the stages node by node, dotted with the
    samples pair by pair in (degree, exponents) order, times h/6.  With
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
                    if w in leaves:
                        ys = Y.setdefault(w, [dict.fromkeys(monos, 0j)])
                        ys[-1] = {m: ys[-1][m] + x[m] for m in monos}
                        ys += [{m: (x2[m] + x3[m]) * 2.0 for m in monos}, x4]
                        continue
                    k1, k2, k3, k4 = prod(x, w0[a]), prod(x2, w_half[a]), prod(x3, w_half[a]), prod(x4, w1[a])
                else:
                    k1, k2, k3, k4 = w0[a], w_half[a], w_half[a], w1[a]
                K[w] = k1, k2, k3
                G[w] = {m: F[w][m] + (k1[m] + k2[m] * 2.0 + k3[m] * 2.0 + k4[m]) * sixth for m in monos}
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
