"""The Contou-Carrere symbol and its tame specialization.

Given the canonical factorizations f = a0 x^nu f_- f_+ and
g = b0 x^mu g_- g_+ of two invertible series, the symbol is the unit

    <f, g> = (-1)^(nu_f nu_g) * a0^nu_g / b0^nu_f
             * prod_{j,k>=1} (1 - a_j^(k/d) b_{-k}^(j/d))^d
             / prod_{j,k>=1} (1 - a_{-j}^(k/d) b_k^(j/d))^d,    d = gcd(j, k).

Both double products are finite: the negative-index factors are
nilpotent, so any factor with j/d >= N (truncation degree) equals 1.
The subscript gcd is read as an exponent; exact bimultiplicativity and
the reciprocity suite pin that reading down.  `cc_symbol` evaluates it.

Over a Q-algebra the same unit has a residue form (Contou-Carrere,
C. R. Acad. Sci. Paris 318, 1994; Anderson and Pablos Romo, Comm.
Algebra 32, 2004).  With h = x^-nu f, the quotient h'/h has no x^-1
term: its exponents >= 0 are dlog f_+ and its exponents <= -2 are
dlog f_-, whose termwise integrals are log f_+ and log f_- (`laurent._logs`,
which `factorize` reads the negative factors from too).  Then

    <f, g> = (-1)^(nu mu) a0^mu b0^-nu
             * exp(Res(log f_+ dlog g_-) - Res(log g_+ dlog f_-)),
    a0 = [x^0] (h exp(-log f_-)),

two finite sums, since f_- and g_- have nilpotent coefficients.  It
reads f only below x^(nu + w) for a window w that grows until both
negative halves, and log f_+ up to the depth of dlog g_- (and the same
with f and g swapped), are determined; so `cc_symbol_series` and
`local_symbols` invert and expand only that window, with no
factorization.  `cc_symbol`, the double product, is the oracle the
tests hold the residue form to, over factorizations peeled with no
logarithms.
"""

from __future__ import annotations

import math
from functools import partial

from .algebra import AlgebraElement, exp
from .errors import InputError, InsufficientTruncation, SignatureMismatch
from .laurent import CanonicalFactorization, LaurentSeries, _logs


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


_WINDOW = 4  # the first window, in orders above the valuation, unless the symbol is tame there
_SEARCH = 256  # how far past the truncation a search for the one needed goes


def _residue(d: LaurentSeries, log: LaurentSeries) -> AlgebraElement:
    """-Res(log g_+ dlog f_-) from d = dlog g and log = log f_-: the sum
    over n >= 1 of [x^(n-1)] d [x^-n] log, as n [x^n] log g_+ is
    [x^(n-1)] dlog g and [x^(-n-1)] dlog f_- is -n [x^-n] log f_-."""
    return AlgebraElement.dot(d.signature, [(d.coeff(-e - 1), c) for e, c in log.coeffs.items() if e < 0])


def _residue_symbol(f: LaurentSeries, nu: int, g: LaurentSeries, mu: int):
    """(<f, g>, [k_f, k_g]) from f and g known below their truncation
    orders, or (None, [k_f, k_g]) when f or g is known k > 0 orders too
    short."""
    if f.lower_bound == nu < f.trunc and g.lower_bound == mu < g.trunc:
        # tame: log f_- = log g_- = 0, and a0 = p(0) exp(0) is f's lead coefficient
        value = f.coeff(nu) ** mu * g.coeff(mu) ** -nu
        return (-value if nu * mu % 2 else value), [0, 0]
    (df, log_f, a0), (dg, log_g, b0) = _logs(f, nu), _logs(g, mu)
    # log f_- down to x^-n reads dlog g up to x^(n-1); a log known at x^0 (x^1 for a0) has its negative half
    depth_f, depth_g = (max((-e for e in log.coeffs if e < 0), default=-1) for log in (log_f, log_g))
    short = [max(depth_g - df.trunc, (1 if mu else 0) - log_f.trunc),
             max(depth_f - dg.trunc, (1 if nu else 0) - log_g.trunc)]
    if max(short) > 0:
        return None, short
    value = exp(_residue(dg, log_f) - _residue(df, log_g))
    value = value * a0 ** mu if mu else value
    value = value * b0 ** -nu if nu else value
    return (-value if nu * mu % 2 else value), short


def _windowed(args, start=_WINDOW):
    """(<f, g>, 0), or (None, k) when the truncations fall short and k > 0
    is the fewest orders that the limits must all rise by to suffice, from
    two (expand, nu, limit): expand(t) is f or g known below x^t, for
    nu < t <= limit.  The windows start at nu + start and grow by what the
    residues report missing."""
    if any(limit <= nu for _, nu, limit in args):
        return None, max(nu + 1 - limit for _, nu, limit in args)
    ts = [min(limit, nu + start) for _, nu, limit in args]
    while True:
        value, short = _residue_symbol(*(x for (expand, nu, _), t in zip(args, ts) for x in (expand(t), nu)))
        if max(short) <= 0:
            return value, 0
        grown = [t + max(k, 0) for t, k in zip(ts, short)]
        capped = [min(limit, t) for (_, _, limit), t in zip(args, grown)]
        if capped == ts:
            return None, max(t - limit for (_, _, limit), t in zip(args, grown))
        ts = capped


def cc_symbol_series(f: LaurentSeries, g: LaurentSeries, trunc=None) -> AlgebraElement:
    """The symbol of two series by the residue form, from the windows of
    their coefficients that it reads.  When f and g are known too short,
    the error names the orders missing and, for series expanded with
    truncation order `trunc` (the CLI's --trunc), trunc raised by them."""
    if f.signature != g.signature:
        raise SignatureMismatch("series over different signatures")
    value, missing = _windowed([(s.truncate, s.valuation(), s.trunc) for s in (f, g)])
    if missing:
        raise InsufficientTruncation(
            f"series known below x^{f.trunc} and x^{g.trunc} are too short for the symbol; "
            f"it needs {missing} more order{'s' if missing > 1 else ''}"
            + ("" if trunc is None else f" (--trunc {trunc + missing})")
        )
    return value


def least_trunc(short, lo: int, hi: int, what: str) -> int:
    """The least truncation order above lo at which short(t), the orders t
    falls short by, is 0, given that it is not at lo or below hi: search
    upwards from hi by what short reports, then bisect.  `what` names who
    needs it in the error past the search."""
    cap = lo + _SEARCH
    while (missing := short(hi)):
        if hi > cap:
            raise InsufficientTruncation(f"{what} --trunc above {hi}")
        lo, hi = hi, hi + missing
    while hi - lo > 1:  # success only grows with the truncation order
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if short(mid) else (lo, mid)
    return hi


def local_symbols(f, g, points, trunc: int) -> list:
    """<f, g> at each of the points for two rational functions, by the
    residue form on their expansions there (`expand_at`) below
    x^min(trunc, nu + w).  Where neither perturbation has a pole, neither
    expansion has terms below its valuation, so log f_- = log g_- = 0 and
    the symbol is the tame (-1)^(nu mu) a0^mu b0^-nu of the two lead
    coefficients, with no `_logs`: the windows start at w = 1.  If trunc
    is too small at some point, the error names the least --trunc that
    suffices at all of them."""
    values, need = [], 0
    for s in points:
        expansions = [(partial(r.expand_at, s), r.order_at(s)) for r in (f, g)]
        start = _WINDOW if f.pole_order(s) or g.pole_order(s) else 1
        value, short = _windowed([(expand, nu, trunc) for expand, nu in expansions], start)
        values.append(value)
        if short:
            lo = max(trunc, *(nu for _, nu in expansions))
            need = max(need, least_trunc(lambda t: _windowed([(e, nu, t) for e, nu in expansions], start)[1],
                                         lo, max(trunc + short, lo + 1), "the local symbols need"))
    if need:
        raise InsufficientTruncation(
            f"truncation order {trunc} too small for the local symbols; they need --trunc at least {need}"
        )
    return values


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
