"""Verification harness: numeric identities against their closed forms.

Every checker returns a CheckReport.  The log-bearing identities are
checked after exponentiation, absorbing the additive 2*pi*i ambiguity of
path logarithms; fixed-step quadrature keeps every report reproducible
bit for bit.
"""

from __future__ import annotations

import cmath
import math
import time
from typing import NamedTuple

from .algebra import AlgebraElement, AlgebraSignature, Backend, deviation, exp as alg_exp, log1m
from .chen import QuadratureConfig, chen_identity_check, iterated_integral, line_integral, transport
from .errors import InputError
from .forms import BinomialLogForm, DlogForm, SimplePole
from .paths import ArcSegment, Path, _isolating_loop, _shell_loops, circle, commutator, lasso, segment
from .ratfunc import RationalFunctionA, SpherePoint, rf_support
from .reports import CheckReport, make_report
from .symbol import local_symbols
from .scalars import as_exact, as_float

TWO_PI_I = 2j * math.pi


class Param(NamedTuple):
    flag: str
    kind: str  # the `ccsym.cli.KINDS` parser of the flag's text
    default: str | None = None  # the CLI default; None makes the flag required
    keyword: str | None = None  # the check's keyword, when it is not the flag


class Check(NamedTuple):
    target: str  # the `verify` subcommand; lemma ids share "lemma"
    function: str  # a function of this module, looked up by name at call time
    params: tuple = ()
    reads: tuple = ("algebra", "steps", "tol")  # common flags; steps and tol make `cfg`


_RADIUS, _A = Param("radius", "radius", "1/2"), Param("a", "element")
_F, _G = Param("f", "ratfunc"), Param("g", "ratfunc")
CHECKS = {
    "3.2": Check("lemma", "lemma_3_2", (Param("r", "int"), _RADIUS), ("steps", "tol")),
    "3.3": Check("lemma", "lemma_3_3", (_F, Param("center", "scalar", "0"), _RADIUS)),
    "3.4": Check("lemma", "lemma_3_4", (Param("n", "int"), _A, _RADIUS)),
    "3.5": Check("lemma", "lemma_3_5", (Param("j", "int"), Param("k", "int"), _A, Param("b", "element"), _RADIUS)),
    "3.6": Check("lemma", "lemma_3_6", (_F, Param("base", "scalar"), Param("point", "scalar", None, "endpoint"))),
    "main-theorem": Check("main-theorem", "main_theorem_check", (
        _F, _G, Param("point", "point", None, "s"), Param("base", "scalar"), Param("radius", "radius", "1/4"),
    ), ("algebra", "trunc", "steps", "tol")),
    "weil": Check("weil", "weil_reciprocity_check", (_F, _G), ("algebra", "trunc")),
    "bilinear": Check("bilinear", "bilinear_reciprocity_check", (_F, _G, Param("base", "scalar"))),
    "commutator": Check("commutator", "commutator_quadratic_check", (
        Param("alpha", "path"), Param("beta", "path"), Param("f", "form", None, "form1"), Param("g", "form", None, "form2"),
    )),
    "identities": Check("identities", "identity_suite", (), ("steps", "tol")),
}


def _float_coefficients(signature, *coeffs):
    """The float signature of a binomial lemma (by default, that of the first
    element) and its coefficients, numbers or elements, widened into it."""
    if signature is None:
        signature = next((c.signature for c in coeffs if isinstance(c, AlgebraElement)), AlgebraSignature((), 1))
    sig = signature.to_float()
    return sig, [(c if isinstance(c, AlgebraElement) else sig.scalar(c)).widen() for c in coeffs]


def _require_convergent(radius, *binomials):
    """The closed forms need |c| * radius^e < 1 for each binomial 1 - c z^e."""
    for c, e in binomials:
        red = abs(complex(c.reduce()))
        if red and red * radius ** e >= 1:
            raise InputError(f"need |{c}| * radius^{e} < 1 for the closed form")


def _log_closed_form(sig, arg):
    """log(1 - arg) as a float-backend element; arg nilpotent or scalar."""
    if arg.is_unit():
        red = complex(arg.reduce())
        if abs(red) >= 1:
            raise InputError(f"closed form log(1-a*eps^n) diverges: |{red}| >= 1")
        head = sig.scalar(cmath.log(1 - red))
        tail = arg.nilpotent_part()
        if tail.is_zero():
            return head
        # log(1 - (c+t)) = log(1-c) + log(1 - t/(1-c))
        rest = tail * (1.0 / (1 - red))
        return head + log1m(rest)
    return log1m(arg)


def _lemma_report(check_id, cfg, started, fields, lhs, rhs, dev=None) -> CheckReport:
    inputs = {"id": check_id, "steps_per_segment": cfg.steps_per_segment, **fields}
    dev = deviation(lhs, rhs) if dev is None else dev
    return make_report(f"lemma-{check_id}", inputs, lhs, rhs, dev, cfg.tolerance, started)


def lemma_3_2(cfg: QuadratureConfig, r: int, radius=0.5) -> CheckReport:
    """Iterated winding: (dz/z)^r around 0 gives (2 pi i)^r / r! (relative deviation)."""
    started = time.perf_counter()
    sig = AlgebraSignature((), 1, Backend.FLOAT)
    F = transport([SimplePole(sig, 0)], circle(0, radius), r, cfg, [(1,) * r])
    lhs = complex(F.coeff((1,) * r).reduce())
    rhs = TWO_PI_I ** r / math.factorial(r)
    fields = dict(r=r, radius=radius, deviation_kind="relative")
    return _lemma_report("3.2", cfg, started, fields, sig.scalar(lhs), sig.scalar(rhs), abs(lhs - rhs) / abs(rhs))


def lemma_3_3(cfg: QuadratureConfig, f: RationalFunctionA, center=0, radius=0.5) -> CheckReport:
    """df/f around a loop about `center` gives 2 pi i times the valuation there."""
    started = time.perf_counter()
    center = as_exact(center)
    for root in f.roots():
        if root != center and abs(complex(root) - complex(center)) <= radius:
            raise InputError(f"loop around {center} also encloses {root}")
    nu = dict(f.base_factors).get(center, 0)
    form = DlogForm(f)
    lhs = line_integral(form, circle(complex(center), radius), cfg)
    rhs = form.signature.scalar(TWO_PI_I * nu)
    return _lemma_report("3.3", cfg, started, dict(f=str(f), center=str(center), radius=radius), lhs, rhs)


def lemma_3_4(cfg: QuadratureConfig, n: int, a, radius=0.5, signature=None) -> CheckReport:
    """dz/z o dlog(1 - a z^n) around 0 gives 2 pi i log(1 - a radius^n)."""
    started = time.perf_counter()
    sig, (a,) = _float_coefficients(signature, a)
    _require_convergent(radius, (a, n))
    lhs = iterated_integral([SimplePole(sig, 0), BinomialLogForm(sig, a, n)], circle(0, radius), cfg)
    rhs = _log_closed_form(sig, a * (radius ** n)) * TWO_PI_I
    return _lemma_report("3.4", cfg, started, dict(n=n, a=str(a), radius=radius), lhs, rhs)


def lemma_3_5(cfg: QuadratureConfig, j: int, k: int, a, b, radius=1.0, signature=None) -> CheckReport:
    """dlog(1 - a z^j) o dlog(1 - b z^k) around 0: zero for jk > 0, else
    sgn(j) d 2 pi i log(1 - a^(|k|/d) b^(|j|/d)) with d = gcd(j, k)."""
    started = time.perf_counter()
    if j == 0 or k == 0:
        raise InputError("binomial exponents must be nonzero")
    sig, (a, b) = _float_coefficients(signature, a, b)
    _require_convergent(radius, (a, j), (b, k))
    lhs = iterated_integral([BinomialLogForm(sig, a, j), BinomialLogForm(sig, b, k)], circle(0, radius), cfg)
    if j * k > 0:
        rhs = sig.zero()
    else:
        # exponents |k|/d and |j|/d with prefactor sgn(j)*d, read off the
        # summation indices n1 = n|k|/d, n2 = n|j|/d of the derivation
        d = math.gcd(j, k)
        sgn_j = 1 if j > 0 else -1
        arg = (a ** (abs(k) // d)) * (b ** (abs(j) // d))
        rhs = _log_closed_form(sig, arg) * (TWO_PI_I * sgn_j * d)
    return _lemma_report("3.5", cfg, started, dict(j=j, k=k, a=str(a), b=str(b), radius=radius), lhs, rhs)


def lemma_3_6(cfg: QuadratureConfig, f: RationalFunctionA, base, endpoint) -> CheckReport:
    """exp(int df/f) along the segment between two exact points, `base` and
    `endpoint`, is f(endpoint)/f(base), free of the 2 pi i ambiguity of the logarithm."""
    started = time.perf_counter()
    lhs = alg_exp(line_integral(DlogForm(f), segment(base, endpoint), cfg))
    rhs = (f.eval(endpoint) * f.eval(base).inverse()).widen()
    return _lemma_report("3.6", cfg, started, dict(f=str(f), base=str(base), endpoint=str(endpoint)), lhs, rhs)


def main_theorem_check(
    f: RationalFunctionA,
    g: RationalFunctionA,
    s: SpherePoint,
    base,
    radius: float,
    cfg: QuadratureConfig,
    trunc: int = 12,
) -> CheckReport:
    """exp((1/2 pi i) int_sigma df/f o dg/g) against the local product
    formula with the g(P)^nu_f / f(P)^nu_g correction."""
    started = time.perf_counter()
    support = rf_support(f, g)
    if s not in support:
        raise InputError(f"{s} is not a zero or pole of f or g")
    others = [t for t in support if t != s]
    sigma = _isolating_loop(s, as_float(base), float(radius), others)
    symbol = local_symbols(f, g, [s], trunc)[0]  # exact, so a short trunc fails before the transport

    form_f, form_g = DlogForm(f), DlogForm(g)
    ii = iterated_integral([form_f, form_g], sigma, cfg)
    lhs = alg_exp(ii * (1.0 / TWO_PI_I))

    g_p = g.eval(base) ** f.order_at(s)
    f_p = f.eval(base) ** g.order_at(s)
    rhs = (symbol * g_p * f_p.inverse()).widen()

    inputs = {
        "f": str(f),
        "g": str(g),
        "s": str(s),
        "base": str(base),
        "radius": float(radius),
        "trunc": trunc,
        "steps_per_segment": cfg.steps_per_segment,
    }
    return make_report(
        "main-theorem", inputs, lhs, rhs, deviation(lhs, rhs), cfg.tolerance, started
    )


def weil_reciprocity_check(f: RationalFunctionA, g: RationalFunctionA, trunc: int = 12) -> CheckReport:
    """Exact product of local symbols over the joint support; must be 1."""
    started = time.perf_counter()
    support = rf_support(f, g)
    product = one = f.signature.one()
    locals_ = {}
    for s, value in zip(support, local_symbols(f, g, support, trunc)):
        locals_[str(s)] = str(value)
        product = product * value
    # exact pass/fail: any mismatch must report a strictly positive deviation
    dev = 0.0 if product == one else max(deviation(product, one), 5e-324)
    inputs = {
        "f": str(f),
        "g": str(g),
        "trunc": trunc,
        "support": [str(s) for s in support],
        "local_symbols": locals_,
    }
    return make_report("weil-reciprocity", inputs, product, one, dev, 0.0, started)


def bilinear_reciprocity_check(
    f: RationalFunctionA, g: RationalFunctionA, base, cfg: QuadratureConfig
) -> CheckReport:
    """Sum of second-order transport data over a full loop system:

        sum_i int_{s_i} w1 o w2 + sum_{i<j} int_{s_i} w1 int_{s_j} w2 = 0

    with w1 = df/f, w2 = dg/g and one loop per support point, infinity
    included as a clockwise outer circle."""
    started = time.perf_counter()
    support = rf_support(f, g)
    finite = [s for s in support if not s.is_infinite]
    loops = _shell_loops(finite, as_float(base), len(finite) < len(support))

    form_f, form_g = DlogForm(f), DlogForm(g)
    transports = [transport([form_f, form_g], loop, 2, cfg, [(1,), (2,), (1, 2)]) for loop in loops]
    sig = form_f.signature
    total = sig.zero()
    for F in transports:
        total = total + F.coeff((1, 2))
    for i in range(len(transports)):
        for j in range(i + 1, len(transports)):
            total = total + transports[i].coeff((1,)) * transports[j].coeff((2,))

    inputs = {
        "f": str(f),
        "g": str(g),
        "base": str(base),
        "support": [str(s) for s in support],
        "loops": "nested shells by distance from base, infinity outermost clockwise",
        "steps_per_segment": cfg.steps_per_segment,
    }
    dev = total.max_abs()
    return make_report(
        "bilinear-reciprocity", inputs, total, sig.zero(), dev, cfg.tolerance, started
    )


def identity_suite(cfg: QuadratureConfig) -> list:
    """The standard iterated-integral identity battery on fixed inputs:
    shuffle, reversal, composition and homotopy invariance."""
    sig = AlgebraSignature((), 1, Backend.FLOAT)
    w0 = SimplePole(sig, 0)
    w1 = SimplePole(sig, 1)
    arc = Path([ArcSegment(0, 2.0, 0.0, math.pi / 2)])
    upper = Path([ArcSegment(0, 2.0, 0.0, math.pi)])
    lower = Path([ArcSegment(0, 2.0, math.pi, math.pi)])
    reports = [
        chen_identity_check("shuffle", cfg, word1=[w0], word2=[w1], path=arc),
        chen_identity_check("shuffle", cfg, word1=[w0], word2=[w1, w0], path=arc),
        chen_identity_check("reversal", cfg, word=[w0, w1], path=arc),
        chen_identity_check("composition", cfg, word=[w0, w1], path1=upper, path2=lower),
        chen_identity_check(
            "homotopy",
            cfg,
            word=[w0, SimplePole(sig, 5)],
            path_a=lasso(1.0, 0, 0.3),
            path_b=lasso(1.0, 0, 0.7),
        ),
    ]
    return reports


def commutator_quadratic_check(
    alpha: Path, beta: Path, form1, form2, cfg: QuadratureConfig
) -> CheckReport:
    """int_{[a,b]} w1 o w2 = int_a w1 int_b w2 - int_b w1 int_a w2."""
    started = time.perf_counter()
    comm = commutator(alpha, beta)
    lhs = iterated_integral([form1, form2], comm, cfg)
    # a one-letter word's coefficient is the form's line integral, bit for bit
    A, B = (transport([form1, form2], loop, 1, cfg) for loop in (alpha, beta))
    a1, a2, b1, b2 = A.coeff((1,)), A.coeff((2,)), B.coeff((1,)), B.coeff((2,))
    rhs = a1 * b2 - b1 * a2
    inputs = {
        "alpha": str(alpha),
        "beta": str(beta),
        "form1": str(form1),
        "form2": str(form2),
        "steps_per_segment": cfg.steps_per_segment,
    }
    return make_report(
        "commutator-quadratic", inputs, lhs, rhs, deviation(lhs, rhs), cfg.tolerance, started
    )
