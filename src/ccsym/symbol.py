"""The Contou-Carrere symbol and its tame specialization.

Given the canonical factorizations f = a0 x^nu f_- f_+ and
g = b0 x^mu g_- g_+ of two invertible series, the symbol is the unit

    <f, g> = (-1)^(nu_f nu_g) * a0^nu_g / b0^nu_f
             * prod_{j,k>=1} (1 - a_j^(k/d) b_{-k}^(j/d))^d
             / prod_{j,k>=1} (1 - a_{-j}^(k/d) b_k^(j/d))^d,    d = gcd(j, k).

Both double products are finite: the negative-index factors are
nilpotent, so any factor with j/d >= N (truncation degree) equals 1.
The subscript gcd is read as an exponent; exact bimultiplicativity and
the reciprocity suite pin that reading down.

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
factorization.  The tests hold the residue form to the double product,
over factorizations peeled with no logarithms.

Every series here is cut at a truncation order, the CLI's --trunc.  When
it is too small, `least_trunc` runs the computation at higher orders and
names the least that suffices; the CLI's series commands and
`local_symbols` all name their --trunc through it.
"""

from __future__ import annotations

from functools import partial

from .algebra import AlgebraElement, exp
from .errors import InputError, InsufficientTruncation, SignatureMismatch
from .laurent import LaurentSeries, _logs

_WINDOW = 4  # the first window, in orders above the valuation, unless the symbol is tame there
TRUNC_CAP = 256  # the largest --trunc, and so the largest truncation order a search names


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


def cc_symbol_series(f: LaurentSeries, g: LaurentSeries) -> AlgebraElement:
    """The symbol of two series by the residue form, from the windows of
    their coefficients that it reads.  When f and g are known too short,
    the error's `missing` is the orders they fall short by."""
    if f.signature != g.signature:
        raise SignatureMismatch("series over different signatures")
    value, missing = _windowed([(s.truncate, s.valuation(), s.trunc) for s in (f, g)])
    if missing:
        raise InsufficientTruncation(
            f"series known below x^{f.trunc} and x^{g.trunc} are too short for the symbol; "
            f"it needs {missing} more order{'s' if missing > 1 else ''}", missing)
    return value


def least_trunc(run, trunc: int, what: str):
    """run(trunc); when that raises InsufficientTruncation, an error naming the
    least t with trunc < t <= TRUNC_CAP at which run(t) raises none.  The
    search steps up by the orders each failure reports `missing`, or by a step
    that doubles while failures report none; at the first t that succeeds it
    tries t - 1, and bisects below only if that succeeds too, as success only
    grows with t.  This is the one place that works out which --trunc to name."""
    def short(t):  # what run(t) reports missing, None when it succeeds
        try:
            run(t)
        except InsufficientTruncation as exc:
            return exc.missing
        return None

    try:
        return run(trunc)
    except InsufficientTruncation as exc:
        missing = exc.missing
    lo = hi = trunc
    step = 1
    while missing is not None:  # hi falls short
        if hi >= TRUNC_CAP:
            raise InsufficientTruncation(
                f"truncation order {trunc} too small for {what}; no --trunc up to its cap {TRUNC_CAP} suffices")
        lo, hi = hi, min(hi + (missing or step), TRUNC_CAP)
        step *= 1 if missing else 2
        missing = short(hi)
    mid = hi - 1  # below a shortfall reported exactly, t - 1 falls short
    while hi - lo > 1:
        lo, hi = (mid, hi) if short(mid) is not None else (lo, mid)
        mid = (lo + hi) // 2
    raise InsufficientTruncation(f"truncation order {trunc} too small for {what}; it needs --trunc at least {hi}")


def local_symbols(f, g, points, trunc: int) -> list:
    """<f, g> at each of the points for two rational functions, by the
    residue form on their expansions there (`expand_at`) below
    x^min(trunc, nu + w).  Where neither perturbation has a pole, neither
    expansion has terms below its valuation, so log f_- = log g_- = 0 and
    the symbol is the tame (-1)^(nu mu) a0^mu b0^-nu of the two lead
    coefficients, with no `_logs`: the windows start at w = 1.  If trunc
    is too small at some point, the error names the least --trunc that
    suffices at all of them (`least_trunc`)."""
    def at(t):
        values, missing = [], 0
        for s in points:
            start = _WINDOW if f.pole_order(s) or g.pole_order(s) else 1
            value, short = _windowed([(partial(r.expand_at, s), r.order_at(s), t) for r in (f, g)], start)
            values.append(value)
            missing = max(missing, short)
        if missing:
            raise InsufficientTruncation(f"the local symbols need {missing} more orders", missing)
        return values

    return least_trunc(at, trunc, "the local symbols")


def tame_symbol(f: LaurentSeries, g: LaurentSeries):
    """The symbol over C (the trivial algebra), as a bare scalar: there it
    is the classical tame symbol (-1)^(nu_f nu_g) [f^nu_g / g^nu_f](0)."""
    if f.signature.truncation_degree != 1:
        raise InputError("tame symbol is defined over the trivial algebra (degree=1)")
    return cc_symbol_series(f, g).reduce()
