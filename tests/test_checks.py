import json
import math
import random

import pytest

from ccsym.algebra import deviation, parse_signature
from ccsym import chen
from ccsym.chen import QuadratureConfig, line_integral, transport
from ccsym.checks import (
    bilinear_reciprocity_check,
    commutator_quadratic_check,
    identity_suite,
    lemma_check,
    main_theorem_check,
    weil_reciprocity_check,
)
from ccsym.errors import InputError, InsufficientTruncation
from ccsym.forms import DlogForm, SimplePole
from ccsym.parsing import parse_element, parse_ratfunc
from ccsym.paths import lasso
from ccsym.ratfunc import RationalFunctionA as RF, SpherePoint
from ccsym.scalars import gaussian

TRIV = parse_signature("gens=;degree=1;scalars=exact")
SIG2_TEXT = "gens=eps;degree=2;scalars=exact"
SIG2 = parse_signature(SIG2_TEXT)
EPS = SIG2.gen("eps")
CFG = QuadratureConfig(steps_per_segment=512, tolerance=1e-8)
TPI = 2j * math.pi


def one_minus_x(sig):
    return RF.constant(sig, -1) * RF.monic_linear(sig, 1)


def test_lemma_32():
    for r in (1, 2, 3):
        rep = lemma_check("3.2", CFG, r=r, radius=0.5)
        assert rep.passed, rep.summary()
        assert rep.check_id == "lemma-3.2"


def test_lemma_33():
    f = RF.monic_linear(TRIV, 0) ** 2 * RF.monic_linear(TRIV, 3).inverse()
    rep = lemma_check("3.3", CFG, f=f, center=0, radius=1.0)
    assert rep.passed
    # rhs is 2 pi i * 2
    assert "12.56" in rep.rhs


def test_lemma_33_rejects_extra_enclosed_pole():
    f = RF.monic_linear(TRIV, 0) * RF.monic_linear(TRIV, gaussian(1, 0) / gaussian(2, 0))
    with pytest.raises(InputError):
        lemma_check("3.3", CFG, f=f, center=0, radius=1.0)


def test_lemma_34_scalar_and_nilpotent():
    rep = lemma_check("3.4", QuadratureConfig(512, 1e-7), n=-1, a=0.2, radius=0.5)
    assert rep.passed
    rep = lemma_check(
        "3.4",
        QuadratureConfig(512, 1e-7),
        n=-1,
        a=EPS / 5,
        radius=0.5,
        signature=SIG2,
    )
    assert rep.passed


def test_lemma_34_divergent_parameters_rejected():
    with pytest.raises(InputError):
        lemma_check("3.4", CFG, n=-1, a=0.9, radius=0.5)  # |a| r^n = 1.8


def test_lemma_35_zero_when_same_sign():
    rep = lemma_check("3.5", CFG, j=1, k=2, a=0.2, b=0.3, radius=1.0)
    assert rep.passed
    assert rep.deviation <= 1e-8


def test_lemma_35_opposite_signs():
    rep = lemma_check("3.5", QuadratureConfig(512, 1e-7), j=1, k=-1, a=0.2, b=0.3, radius=1.0)
    assert rep.passed
    # 2 pi i log(0.94)
    assert abs(float(rep.deviation)) <= 1e-7
    rep = lemma_check("3.5", QuadratureConfig(512, 1e-6), j=2, k=-2, a=0.2, b=0.3, radius=1.0)
    assert rep.passed


def test_lemma_35_matches_low_order_oracle():
    from ccsym.forms import BinomialLogForm
    from ccsym.paths import circle

    from conftest import oracle_iterated_2

    sig = TRIV.to_float()
    form1 = BinomialLogForm(sig, 0.2, 1)
    form2 = BinomialLogForm(sig, 0.3, -1)
    oracle = oracle_iterated_2(form1, form2, circle(0, 1.0), grid=4096)
    expected = TPI * math.log(1 - 0.06)
    assert abs(oracle - expected) < 1e-5


def test_lemma_36_exp_composed():
    f = RF.monic_linear(SIG2, 0, shift=EPS)
    rep = lemma_check("3.6", CFG, f=f, base=-0.5, endpoint=-0.25 + 0.1j)
    assert rep.passed


def test_lemma_unknown_id():
    with pytest.raises(InputError):
        lemma_check("9.9", CFG)


def test_main_theorem_epsilon_case():
    f = RF.monic_linear(SIG2, 0, shift=EPS)
    g = one_minus_x(SIG2)
    rep = main_theorem_check(
        f, g, SpherePoint.finite(0), gaussian(-1, 0) / gaussian(2, 0), 0.25,
        QuadratureConfig(512, 1e-6), trunc=12,
    )
    assert rep.passed
    assert rep.rhs == "1.5-1.5*eps"


def test_main_theorem_trivial_cases():
    f = RF.monic_linear(TRIV, 0)
    g = one_minus_x(TRIV)
    rep = main_theorem_check(
        f, g, SpherePoint.finite(0), gaussian(-1, 0) / gaussian(2, 0), 0.25,
        QuadratureConfig(512, 1e-6), trunc=10,
    )
    assert rep.passed
    assert rep.rhs == "1.5"  # both sides g(P)

    rep = main_theorem_check(
        f, f, SpherePoint.finite(0), gaussian(-1, 0), 0.25,
        QuadratureConfig(512, 1e-6), trunc=10,
    )
    assert rep.passed
    assert rep.rhs == "-1"


def test_main_theorem_at_infinity():
    f = RF.monic_linear(TRIV, 0)
    g = one_minus_x(TRIV)
    rep = main_theorem_check(
        f, g, SpherePoint.infinity(), gaussian(1, 1) / gaussian(2, 0), 5.0,
        QuadratureConfig(512, 1e-6), trunc=10,
    )
    assert rep.passed


def test_main_theorem_rejects_off_support_point():
    f = RF.monic_linear(TRIV, 0)
    with pytest.raises(InputError):
        main_theorem_check(
            f, f, SpherePoint.finite(7), gaussian(-1, 0), 0.25, CFG, trunc=10
        )


def test_main_theorem_with_a_short_trunc_fails_before_the_transport(monkeypatch):
    # the exact local symbol comes first: a search for the --trunc to name runs no transport
    sig = parse_signature("gens=eps;degree=3;scalars=exact")
    f, g = parse_ratfunc("(x-1+eps)^3*(x-2)^-1", sig), parse_ratfunc("(x+eps)^-2*(x-1)", sig)
    monkeypatch.setattr(chen, "transport", lambda *args: pytest.fail("transported"))
    with pytest.raises(InsufficientTruncation, match="it needs --trunc at least 8"):
        main_theorem_check(f, g, SpherePoint.finite(1), gaussian(1, 1), 0.25, CFG, trunc=3)
    with pytest.raises(pytest.fail.Exception, match="transported"):  # at the named one, it transports
        main_theorem_check(f, g, SpherePoint.finite(1), gaussian(1, 1), 0.25, CFG, trunc=8)


def test_main_theorem_takes_a_complex_base():
    # the exact local symbol is widened before it meets g(P)^nu_f / f(P)^nu_g at a float P
    f, g = parse_ratfunc("(x-1+eps)", SIG2), parse_ratfunc("(x-2)", SIG2)
    cfg = QuadratureConfig(64, 1e-8)
    exact = main_theorem_check(f, g, SpherePoint.finite(1), 0, 0.25, cfg)
    floating = main_theorem_check(f, g, SpherePoint.finite(1), 0j, 0.25, cfg)
    assert floating.inputs == {**exact.inputs, "base": "0j"}
    assert floating.lhs == exact.lhs and floating.passed == exact.passed
    assert abs(floating.deviation - exact.deviation) <= 1e-12
    wide = SIG2.to_float()
    assert deviation(parse_element(floating.rhs, wide), parse_element(exact.rhs, wide)) <= 1e-12


def test_main_theorem_step_refinement_improves():
    cases = [
        (RF.monic_linear(SIG2, 0, shift=EPS), one_minus_x(SIG2), gaussian(-1, 0) / gaussian(2, 0)),
        (RF.monic_linear(TRIV, 0), one_minus_x(TRIV), gaussian(-1, 0) / gaussian(2, 0)),
        (RF.monic_linear(TRIV, 0), RF.monic_linear(TRIV, 0), gaussian(-1, 0)),
    ]
    for f, g, base in cases:
        devs = []
        for steps in (64, 128, 256):
            rep = main_theorem_check(
                f, g, SpherePoint.finite(0), base, 0.25,
                QuadratureConfig(steps, 1e-6), trunc=12,
            )
            devs.append(rep.deviation)
        assert devs[1] <= devs[0] * 2 and devs[2] <= devs[1] * 2
        assert devs[2] < devs[0]


def test_weil_fixed_cases():
    assert weil_reciprocity_check(RF.monic_linear(TRIV, 0), one_minus_x(TRIV), 10).passed
    assert weil_reciprocity_check(
        RF.monic_linear(TRIV, 0) ** 2, RF.monic_linear(TRIV, 0) ** 3, 10
    ).passed
    f = RF.monic_linear(SIG2, 0, shift=EPS)
    assert weil_reciprocity_check(f, RF.monic_linear(SIG2, 1), 10).passed


def test_weil_randomized_exact():
    rng = random.Random(73)
    roots = [gaussian(0), gaussian(1), gaussian(-1), gaussian(2), gaussian(-2), gaussian(0, 1), gaussian(0, -1)]
    for _ in range(10):
        fs = []
        for _f in range(2):
            f = RF.constant(SIG2, rng.choice([1, 2, -1]))
            for _k in range(rng.randint(1, 3)):
                root = rng.choice(roots)
                mult = rng.choice([-2, -1, 1, 2])
                shift = EPS * rng.randint(0, 1)
                f = f * RF.monic_linear(SIG2, root, shift=shift) ** mult
            fs.append(f)
        rep = weil_reciprocity_check(fs[0], fs[1], 14)
        assert rep.passed, rep.summary()
        assert rep.deviation == 0.0


def test_weil_requires_exact_backend():
    # a function over a float signature cannot be built; a float algebra's
    # functions are read over its exact signature, where the product is exact
    sigf = parse_signature("gens=;degree=1;scalars=float")
    with pytest.raises(InputError):
        weil_reciprocity_check(RF.monic_linear(sigf, 0), RF.monic_linear(sigf, 1), 8)
    f, g = (parse_ratfunc(text, sigf) for text in ("x", "(x-1)"))
    assert f.signature == g.signature == TRIV and weil_reciprocity_check(f, g, 8).passed


def test_bilinear_cases():
    rep = bilinear_reciprocity_check(
        RF.monic_linear(TRIV, 0), one_minus_x(TRIV), -2, QuadratureConfig(256, 1e-6)
    )
    assert rep.passed, rep.summary()
    # two-term case: loops around 0 and infinity only
    rep = bilinear_reciprocity_check(
        RF.monic_linear(TRIV, 0), RF.monic_linear(TRIV, 0), -2, QuadratureConfig(256, 1e-6)
    )
    assert rep.passed
    rep = bilinear_reciprocity_check(
        RF.monic_linear(SIG2, 0, shift=EPS), RF.monic_linear(SIG2, 1), -2,
        QuadratureConfig(512, 1e-6),
    )
    assert rep.passed, rep.summary()


def test_bilinear_rejects_equidistant_base():
    f = RF.monic_linear(TRIV, gaussian(0, 1)) * RF.monic_linear(TRIV, gaussian(0, -1))
    with pytest.raises(InputError):
        bilinear_reciprocity_check(f, f, -2, QuadratureConfig(64, 1e-6))


def test_commutator_quadratic_cases():
    sig = TRIV.to_float()
    w1 = SimplePole(sig, 0)
    w2 = SimplePole(sig, 1)
    al = lasso(-1j, 0, 0.3)
    be = lasso(-1j, 1, 0.3)
    rep = commutator_quadratic_check(al, be, w1, w2, QuadratureConfig(256, 1e-6))
    assert rep.passed

    # alpha = beta: both sides vanish by antisymmetry
    rep = commutator_quadratic_check(al, al, w1, w2, QuadratureConfig(256, 1e-6))
    assert rep.passed
    # same form on both slots
    rep = commutator_quadratic_check(al, be, w1, w1, QuadratureConfig(256, 1e-6))
    assert rep.passed


@pytest.mark.parametrize("sig_text,g_text", [
    ("gens=eps;degree=2;scalars=exact", "(x+1/2-2*eps)*(x-3)^-1"),
    ("gens=eps,delta;degree=3;scalars=exact", "(x+1/2-delta)*(x-3)^-1"),
], ids=["eps", "eps,delta"])
def test_commutator_reads_the_four_line_integrals(sig_text, g_text):
    # by `==`: a one-letter word of a two-form transport is the form's line
    # integral, also where the two forms' layouts differ
    sig = parse_signature(sig_text)

    def forms():
        return DlogForm(parse_ratfunc("(x-1/2+eps)", sig)), DlogForm(parse_ratfunc(g_text, sig))

    alpha, beta = lasso(-1j, 0.5, 0.3), lasso(-1j, -0.5, 0.3)
    cfg = QuadratureConfig(128, 1e-6)
    form1, form2 = forms()
    assert (form1.layout.monomials == form2.layout.monomials) == (sig_text == SIG2_TEXT)
    rep = commutator_quadratic_check(alpha, beta, form1, form2, cfg)
    a1, a2, b1, b2 = (line_integral(form, loop, cfg) for loop in (alpha, beta) for form in forms())
    for loop, (c1, c2) in ((alpha, (a1, a2)), (beta, (b1, b2))):
        F = transport([form1, form2], loop, 1, cfg)
        assert F.coeff((1,)) == c1 and F.coeff((2,)) == c2
    assert rep.rhs == str(a1 * b2 - b1 * a2) and rep.passed


def test_commutator_value_is_square_of_winding():
    sig = TRIV.to_float()
    w1 = SimplePole(sig, 0)
    w2 = SimplePole(sig, 1)
    al = lasso(-1j, 0, 0.3)
    be = lasso(-1j, 1, 0.3)
    from ccsym.chen import iterated_integral
    from ccsym.paths import commutator as comm

    val = iterated_integral([w1, w2], comm(al, be), QuadratureConfig(512, 1e-6))
    assert abs(complex(val.reduce()) - TPI ** 2) < 1e-6


def test_identity_suite_passes():
    reports = identity_suite(QuadratureConfig(256, 1e-7))
    assert len(reports) == 5
    for rep in reports:
        assert rep.passed, rep.summary()


def test_report_json_schema():
    rep = lemma_check("3.2", QuadratureConfig(64, 1e-8), r=1, radius=0.5)
    payload = json.loads(rep.to_json())
    assert set(payload) == {
        "check_id",
        "inputs",
        "lhs",
        "rhs",
        "deviation",
        "tolerance",
        "pass",
        "runtime_ms",
    }
    assert payload["pass"] == (payload["deviation"] <= payload["tolerance"])


def test_reports_reproducible():
    a = lemma_check("3.2", QuadratureConfig(128, 1e-8), r=2, radius=0.5)
    b = lemma_check("3.2", QuadratureConfig(128, 1e-8), r=2, radius=0.5)
    assert a.lhs == b.lhs and a.deviation == b.deviation
