"""The Contou-Carrere symbol and its tame specialization.

Given the canonical factorizations of two invertible series f, g the
symbol is the unit

    <f, g> = (-1)^(nu_f nu_g) * a0^nu_g / b0^nu_f
             * prod_{j,k>=1} (1 - a_j^(k/d) b_{-k}^(j/d))^d
             / prod_{j,k>=1} (1 - a_{-j}^(k/d) b_k^(j/d))^d,    d = gcd(j, k).

Both double products are finite: the negative-index factors are
nilpotent, so any factor with j/d >= N (truncation degree) equals 1.
The subscript gcd is read as an exponent; exact bimultiplicativity and
the reciprocity suite pin that reading down.
"""

from __future__ import annotations

import math

from .algebra import AlgebraElement
from .errors import InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from .laurent import CanonicalFactorization, LaurentSeries, factorize


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
    """Evaluate the symbol from two canonical factorizations."""
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


def cc_symbol_series(f: LaurentSeries, g: LaurentSeries) -> AlgebraElement:
    """Factorize both series, then evaluate the symbol."""
    return cc_symbol(factorize(f), factorize(g))


def tame_symbol(f: LaurentSeries, g: LaurentSeries):
    """(-1)^(nu_f nu_g) * [f^nu_g / g^nu_f](0) over the trivial algebra.

    This is the classical discrete-valuation pairing; it must agree with
    cc_symbol when the truncation degree is 1.  Returns a bare scalar.
    """
    sig = f.signature
    if sig.truncation_degree != 1:
        raise InputError("tame symbol is defined over the trivial algebra (degree=1)")
    nu_f = f.valuation()
    nu_g = g.valuation()
    h = (f ** nu_g) * (g ** nu_f).inverse()
    value = h.coeff(0).reduce()
    if (nu_f * nu_g) % 2:
        value = -value
    return value


def steinberg_value(f: LaurentSeries) -> AlgebraElement:
    """<f, 1 - f>; equals 1 whenever both arguments are invertible."""
    g = LaurentSeries.one(f.signature) - f
    try:
        g.valuation()
    except NotInvertible:
        raise NotInvertible("1 - f is not invertible") from None
    return cc_symbol_series(f, g)


def scalar_multiple_symbol(f: LaurentSeries, c) -> AlgebraElement:
    """<f, c*f> for a unit constant c.

    Provided as an evaluator only; the standard exact identity asserted
    by the test suite is <f, -f> = 1.
    """
    sig = f.signature
    c_elt = c if isinstance(c, AlgebraElement) else sig.scalar(c)
    if not c_elt.is_unit():
        raise NotInvertible("scalar multiple must be a unit")
    return cc_symbol_series(f, f.scale(c_elt))
