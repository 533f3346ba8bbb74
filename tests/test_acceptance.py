"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every tolerance and runtime bound is pinned here; quadrature is
fixed-step so each line is reproducible bit for bit.
"""

import math
import random
import time

from ccsym.algebra import parse_signature
from ccsym.chen import QuadratureConfig, transport
from ccsym.checks import (
    bilinear_reciprocity_check,
    identity_suite,
    lemma_check,
    main_theorem_check,
    weil_reciprocity_check,
)
from ccsym.forms import SimplePole
from ccsym.laurent import LaurentSeries, factorize, reconstruct
from ccsym.paths import ArcSegment, Path
from ccsym.ratfunc import RationalFunctionA as RF, SpherePoint
from ccsym.scalars import gaussian
from ccsym.symbol import cc_symbol_series, tame_symbol

from conftest import random_element

TRIV = parse_signature("gens=;degree=1;scalars=exact")
SIG2 = parse_signature("gens=eps;degree=2;scalars=exact")
EPS = SIG2.gen("eps")
TPI = 2j * math.pi


def _report(criterion: str, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert passed, line


def one_minus_x(sig):
    return RF.constant(sig, -1) * RF.monic_linear(sig, 1)


def _random_series(rng, sig, trunc=12):
    nu = rng.randint(-1, 1)
    coeffs = {nu: random_element(rng, sig, unit=True)}
    for _ in range(rng.randint(0, 2)):
        coeffs[nu + rng.randint(1, 3)] = random_element(rng, sig)
    if sig.truncation_degree > 1 and rng.random() < 0.5:
        elt = random_element(rng, sig, unit=False)
        if not elt.is_zero():
            coeffs[nu - 1] = elt
    return LaurentSeries(sig, coeffs, trunc)


def test_criterion_1_winding_powers():
    cfg = QuadratureConfig(steps_per_segment=1024, tolerance=1e-8)
    started = time.perf_counter()
    worst = 0.0
    for r in (1, 2, 3):
        rep = lemma_check("3.2", cfg, r=r, radius=0.5)
        worst = max(worst, rep.deviation)
        assert rep.passed
    elapsed = time.perf_counter() - started
    _report(
        "criterion-1 lemma-3.2 r=1,2,3",
        worst <= 1e-8 and elapsed < 5.0,
        f"max relative error {worst:.3e} (tol 1e-8), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_winding_of_dlog():
    cfg = QuadratureConfig(steps_per_segment=1024, tolerance=1e-8)
    f = RF.monic_linear(TRIV, 0) ** 2 * RF.monic_linear(TRIV, 3).inverse()
    rep = lemma_check("3.3", cfg, f=f, center=0, radius=1.0)
    _report(
        "criterion-2 lemma-3.3 x^2/(x-3)",
        rep.passed and rep.deviation <= 1e-8,
        f"|integral - 2*2pi*i| = {rep.deviation:.3e} (tol 1e-8)",
    )


def test_criterion_3_binomial_log():
    cfg = QuadratureConfig(steps_per_segment=1024, tolerance=1e-7)
    rep = lemma_check("3.4", cfg, n=-1, a=0.2, radius=0.5)
    ok_scalar = rep.passed and rep.deviation <= 1e-7

    rep_nil = lemma_check("3.4", cfg, n=-1, a=EPS / 5, radius=0.5, signature=SIG2)
    # the nilpotent closed form: eps component is -2 pi i * (2/5)
    from ccsym.chen import iterated_integral
    from ccsym.forms import BinomialLogForm
    from ccsym.paths import circle

    sigf = SIG2.to_float()
    val = iterated_integral(
        [SimplePole(sigf, 0), BinomialLogForm(sigf, (EPS / 5).widen(), -1)],
        circle(0, 0.5),
        cfg,
    )
    eps_dev = abs(val.coeffs.get((1,), 0j) - (-TPI * 0.4))
    _report(
        "criterion-3 lemma-3.4 scalar and nilpotent",
        ok_scalar and rep_nil.passed and eps_dev <= 1e-7,
        f"scalar dev {rep.deviation:.3e}, eps-component dev {eps_dev:.3e} (tol 1e-7)",
    )


def test_criterion_4_two_binomials():
    cfg8 = QuadratureConfig(steps_per_segment=1024, tolerance=1e-8)
    cfg7 = QuadratureConfig(steps_per_segment=1024, tolerance=1e-7)
    cfg6 = QuadratureConfig(steps_per_segment=1024, tolerance=1e-6)
    rep_zero = lemma_check("3.5", cfg8, j=1, k=2, a=0.2, b=0.3, radius=1.0)
    rep_mixed = lemma_check("3.5", cfg7, j=1, k=-1, a=0.2, b=0.3, radius=1.0)
    rep_gcd2 = lemma_check("3.5", cfg6, j=2, k=-2, a=0.2, b=0.3, radius=1.0)
    _report(
        "criterion-4 lemma-3.5 (1,2),(1,-1),(2,-2)",
        rep_zero.passed and rep_mixed.passed and rep_gcd2.passed,
        f"devs {rep_zero.deviation:.3e} (tol 1e-8), "
        f"{rep_mixed.deviation:.3e} (tol 1e-7), {rep_gcd2.deviation:.3e} (tol 1e-6)",
    )


def test_criterion_5_main_theorem():
    started = time.perf_counter()
    cfg = QuadratureConfig(steps_per_segment=1024, tolerance=1e-6)  # 3 segments
    f = RF.monic_linear(SIG2, 0, shift=EPS)
    g = one_minus_x(SIG2)
    rep = main_theorem_check(
        f, g, SpherePoint.finite(0), gaussian(-1, 0) / gaussian(2, 0), 0.25, cfg, trunc=12
    )
    elapsed = time.perf_counter() - started
    _report(
        "criterion-5 main theorem x+eps vs 3/2-3/2*eps",
        rep.passed and rep.rhs == "1.5-1.5*eps" and elapsed < 30.0,
        f"componentwise dev {rep.deviation:.3e} (tol 1e-6), 3072 steps, "
        f"runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_6_reciprocity_exact():
    started = time.perf_counter()
    checks = [
        weil_reciprocity_check(RF.monic_linear(TRIV, 0), one_minus_x(TRIV), 10),
        weil_reciprocity_check(
            RF.monic_linear(TRIV, 0) ** 2, RF.monic_linear(TRIV, 0) ** 3, 10
        ),
        weil_reciprocity_check(
            RF.monic_linear(SIG2, 0, shift=EPS), RF.monic_linear(SIG2, 1), 10
        ),
    ]
    rng = random.Random(2026)
    roots = [
        gaussian(0), gaussian(1), gaussian(-1), gaussian(2), gaussian(-2),
        gaussian(0, 1), gaussian(0, -1),
    ]
    for _ in range(25):
        pair = []
        for _f in range(2):
            f = RF.constant(SIG2, rng.choice([1, 2, -1]))
            for _k in range(rng.randint(1, 3)):
                mult = rng.randint(-2, 2)
                if mult == 0:
                    continue
                shift = EPS * rng.randint(0, 1)
                f = f * RF.monic_linear(SIG2, rng.choice(roots), shift=shift) ** mult
            pair.append(f)
        checks.append(weil_reciprocity_check(pair[0], pair[1], 14))
    elapsed = time.perf_counter() - started
    all_exact = all(c.passed and c.deviation == 0.0 for c in checks)
    _report(
        "criterion-6 reciprocity product exactly 1",
        all_exact and elapsed < 10.0,
        f"{len(checks)} pairs all exactly 1, runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_7_bilinear_identity():
    cfg = QuadratureConfig(steps_per_segment=512, tolerance=1e-6)
    rep1 = bilinear_reciprocity_check(RF.monic_linear(TRIV, 0), one_minus_x(TRIV), -2, cfg)
    rep2 = bilinear_reciprocity_check(
        RF.monic_linear(SIG2, 0, shift=EPS), RF.monic_linear(SIG2, 1), -2, cfg
    )
    _report(
        "criterion-7 bilinear loop-sum vanishes",
        rep1.passed and rep2.passed,
        f"(x,1-x) dev {rep1.deviation:.3e}, (x+eps,x-1) dev {rep2.deviation:.3e} (tol 1e-6)",
    )


def test_criterion_8_exact_property_suite():
    started = time.perf_counter()
    rng = random.Random(4096)
    counts = 100

    for _ in range(counts):
        f, g, h = (
            _random_series(rng, SIG2),
            _random_series(rng, SIG2),
            _random_series(rng, SIG2),
        )
        assert (
            cc_symbol_series(f, g * h)
            == cc_symbol_series(f, g) * cc_symbol_series(f, h)
        )

    for _ in range(counts):
        f, g = _random_series(rng, SIG2), _random_series(rng, SIG2)
        assert cc_symbol_series(f, g) * cc_symbol_series(g, f) == SIG2.one()

    for _ in range(counts):
        f = _random_series(rng, SIG2)
        assert cc_symbol_series(f, -f) == SIG2.one()

    done = 0
    attempts = 0
    while done < counts:
        attempts += 1
        assert attempts < 20 * counts
        f = _random_series(rng, SIG2)
        try:
            (LaurentSeries.one(SIG2) - f).valuation()
        except Exception:
            continue
        assert cc_symbol_series(f, LaurentSeries.one(SIG2) - f) == SIG2.one()
        done += 1

    for _ in range(counts):
        f, g = _random_series(rng, TRIV), _random_series(rng, TRIV)
        assert cc_symbol_series(f, g).reduce() == tame_symbol(f, g)

    for _ in range(counts):
        f = _random_series(rng, SIG2, trunc=14)
        fac = factorize(f)
        assert reconstruct(fac).agrees_with(f, upto=fac.trunc_order)

    elapsed = time.perf_counter() - started
    _report(
        "criterion-8 exact symbol property suite",
        elapsed < 10.0,
        f"6 x {counts} randomized exact cases, runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_9_chen_identities():
    cfg = QuadratureConfig(steps_per_segment=1024, tolerance=1e-8)
    reports = identity_suite(cfg)
    worst = max(rep.deviation for rep in reports)
    _report(
        "criterion-9 shuffle/reversal/composition/homotopy",
        all(rep.passed for rep in reports),
        f"{len(reports)} checks, worst deviation {worst:.3e} (tol 1e-8, 1024 steps)",
    )


def test_criterion_10_transport_multiplicativity():
    cfg = QuadratureConfig(steps_per_segment=512, tolerance=1e-7)
    sigf = TRIV.to_float()
    forms = [SimplePole(sigf, 0), SimplePole(sigf, 3)]
    upper = Path([ArcSegment(0, 1.0, 0.0, math.pi)])
    lower = Path([ArcSegment(0, 1.0, math.pi, math.pi)])
    F_upper = transport(forms, upper, 3, cfg)
    F_lower = transport(forms, lower, 3, cfg)
    F_full = transport(forms, upper + lower, 3, cfg)
    dev = F_full.deviation(F_upper * F_lower)
    _report(
        "criterion-10 transport multiplicativity",
        dev <= 1e-7,
        f"split circle, word length 3, max word deviation {dev:.3e} (tol 1e-7)",
    )
