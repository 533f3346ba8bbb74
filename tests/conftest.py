"""Shared test helpers: independent oracles and random data generators.

The oracles here deliberately avoid the code paths they check: dense
convolution instead of the pruned-map product, cumulative trapezoid
quadrature on the ordered simplex instead of word-series transport.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ccsym.algebra import AlgebraElement, AlgebraSignature
from ccsym.laurent import LaurentSeries
from ccsym.scalars import GaussianRational, gaussian

# -- dense truncated-polynomial oracle ----------------------------------------


def oracle_alg_mul(coeffs_a: dict, coeffs_b: dict, degree: int) -> dict:
    """Naive convolution of exponent-tuple maps, dropping total degree >= N."""
    out = {}
    for m1, c1 in coeffs_a.items():
        for m2, c2 in coeffs_b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            if sum(mono) >= degree:
                continue
            out[mono] = out.get(mono, gaussian(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def oracle_series_mul(coeffs_f: dict, coeffs_g: dict, sig: AlgebraSignature) -> dict:
    """Naive Cauchy product of {exponent: AlgebraElement} maps."""
    out = {}
    for e1, c1 in coeffs_f.items():
        for e2, c2 in coeffs_g.items():
            prod = c1 * c2
            key = e1 + e2
            out[key] = out.get(key, sig.zero()) + prod
    return {e: c for e, c in out.items() if not c.is_zero()}


def dlog_value(f, z) -> AlgebraElement:
    """f'/f at z as an element: `dlog_eval`'s dense list over the layout
    of the function it samples there (f, or f's float twin)."""
    return f._at(z)[0].compiled_dlog[1].element(f.dlog_eval(z))


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
    rng: random.Random, sig: AlgebraSignature, trunc: int, max_terms: int = 3
) -> LaurentSeries:
    """Random element of A((x))^x: a unit leading coefficient at a random
    valuation, optional higher terms, optional nilpotent terms below."""
    nu = rng.randint(-2, 2)
    coeffs = {nu: random_element(rng, sig, unit=True)}
    for _ in range(rng.randint(0, max_terms)):
        e = nu + rng.randint(1, 3)
        if e < trunc:
            coeffs[e] = random_element(rng, sig)
    if sig.truncation_degree > 1 and rng.random() < 0.6:
        low = nu - rng.randint(1, 2)
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
