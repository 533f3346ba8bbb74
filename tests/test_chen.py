import cmath
import math

import pytest

from ccsym.algebra import AlgebraSignature, Backend, deviation, parse_signature
from ccsym.chen import (
    BinomialLogForm,
    DlogForm,
    Dz,
    QuadratureConfig,
    SimplePole,
    TruncatedWordSeries,
    chen_identity_check,
    iterated_integral,
    line_integral,
    shuffles,
    transport,
)
from ccsym.errors import InputError, NotInvertible, PathError, PoleOnPath
from ccsym.parsing import parse_ratfunc, parse_scalar
from ccsym.paths import ArcSegment, LineSegment, Path, circle, commutator, concat, lasso, segment
from ccsym.ratfunc import RationalFunctionA as RF
from ccsym.ratfunc import SpherePoint

from conftest import dlog_value, group_like_deviation, oracle_iterated_2

TRIV = AlgebraSignature((), 1, Backend.FLOAT)
TPI = 2j * math.pi
CFG = QuadratureConfig(steps_per_segment=512, tolerance=1e-8)


def test_path_chaining_enforced():
    with pytest.raises(PathError):
        Path([LineSegment(0, 1), LineSegment(2, 3)])
    p = concat(segment(0, 1), segment(1, 1 + 1j))
    assert p.start == 0 and p.end == 1 + 1j


def test_path_reversal_and_loops():
    c = circle(1, 0.5)
    assert c.is_loop()
    r = c.reversed()
    assert abs(r.start - c.end) < 1e-12
    with pytest.raises(PathError):
        commutator(segment(0, 1), circle(0, 1))


def test_arc_distance():
    arc = ArcSegment(0, 1.0, 0.0, math.pi)  # upper half unit circle
    assert abs(arc.distance_to(2j) - 1.0) < 1e-12
    assert abs(arc.distance_to(-2j) - math.sqrt(5)) < 1e-12
    assert abs(arc.distance_to(0) - 1.0) < 1e-12


def test_line_distance():
    seg = LineSegment(-1, 1)
    assert abs(seg.distance_to(1j) - 1.0) < 1e-12
    assert abs(seg.distance_to(5) - 4.0) < 1e-12


def test_line_integral_winding():
    val = line_integral(SimplePole(TRIV, 0), circle(0, 1), CFG)
    assert abs(complex(val.reduce()) - TPI) < 1e-10


def test_line_integral_dz_fundamental_theorem():
    val = line_integral(Dz(TRIV), segment(0, 1 + 1j), CFG)
    assert abs(complex(val.reduce()) - (1 + 1j)) < 1e-12


def test_line_integral_no_enclosed_pole():
    val = line_integral(SimplePole(TRIV, 5), circle(0, 1), CFG)
    assert abs(complex(val.reduce())) < 1e-10


def test_transport_winding_powers():
    F = transport([SimplePole(TRIV, 0)], circle(0, 0.5), 2, CFG)
    assert abs(complex(F.coeff((1,)).reduce()) - TPI) < 1e-10
    assert abs(complex(F.coeff((1, 1)).reduce()) - TPI ** 2 / 2) < 1e-9
    assert F.coeff(()) == TRIV.one()


def test_transport_empty_path_is_identity():
    F = transport([SimplePole(TRIV, 0)], segment(1, 1), 2, CFG)
    assert F.coeff(()) == TRIV.one()
    assert F.coeff((1,)).max_abs() < 1e-15
    assert F.coeff((1, 1)).max_abs() < 1e-15


def test_commutator_kills_linear_terms():
    al = lasso(-1j, 0, 0.3)
    be = lasso(-1j, 1, 0.3)
    forms = [SimplePole(TRIV, 0), SimplePole(TRIV, 1)]
    F = transport(forms, commutator(al, be), 2, CFG)
    assert F.coeff((1,)).max_abs() < 1e-9
    assert F.coeff((2,)).max_abs() < 1e-9


def test_iterated_integral_r3():
    val = iterated_integral([SimplePole(TRIV, 0)] * 3, circle(0, 0.5), CFG)
    assert abs(complex(val.reduce()) - TPI ** 3 / 6) < 1e-8


def test_iterated_single_matches_line_integral():
    form = SimplePole(TRIV, 2)
    path = segment(3, 4 + 1j)
    a = iterated_integral([form], path, CFG)
    b = line_integral(form, path, CFG)
    assert deviation(a, b) == 0.0


def test_iterated_matches_nested_quadrature_oracle():
    # independent ordered-simplex quadrature cross-check
    form1 = SimplePole(TRIV, 0)
    form2 = SimplePole(TRIV, 1)
    path = Path([ArcSegment(0, 2.0, 0.0, math.pi / 2)])
    engine = complex(iterated_integral([form1, form2], path, CFG).reduce())
    oracle = oracle_iterated_2(form1, form2, path)
    assert abs(engine - oracle) < 1e-6


def test_binomial_form_against_closed_form():
    # int dz/z o dlog(1 - a z^n) over a small circle = 2 pi i log(1 - a r^n)
    a, n, r = 0.2, -1, 0.5
    val = iterated_integral(
        [SimplePole(TRIV, 0), BinomialLogForm(TRIV, a, n)], circle(0, r), CFG
    )
    assert abs(complex(val.reduce()) - TPI * cmath.log(1 - a * r ** n)) < 1e-7


def test_binomial_form_positive_exponent():
    # dz/z o dlog(1 - a z) over a radius-r circle = 2 pi i log(1 - a r)
    a, r = 0.2, 0.5
    val = iterated_integral(
        [SimplePole(TRIV, 0), BinomialLogForm(TRIV, a, 1)], circle(0, r), CFG
    )
    assert abs(complex(val.reduce()) - TPI * cmath.log(1 - a * r)) < 1e-8


def test_quadrature_config_validation():
    with pytest.raises(InputError):
        QuadratureConfig(steps_per_segment=0)
    with pytest.raises(InputError):
        QuadratureConfig(tolerance=0.0)
    with pytest.raises(InputError):
        transport([SimplePole(TRIV, 0)], circle(0, 1), 0, CFG)


def test_binomial_form_nilpotent_coefficient():
    sig = parse_signature("gens=eps;degree=2;scalars=float")
    a = sig.gen("eps") * 0.2
    val = iterated_integral(
        [SimplePole(sig, 0), BinomialLogForm(sig, a, -1)], circle(0, 0.5), CFG
    )
    assert abs(val.coeffs[(1,)] - TPI * (-0.4)) < 1e-7
    assert abs(complex(val.reduce())) < 1e-9


def test_pole_clearance_rejected():
    with pytest.raises(PoleOnPath):
        line_integral(SimplePole(TRIV, 1), circle(0, 1), CFG)
    with pytest.raises(PoleOnPath):
        line_integral(SimplePole(TRIV, 0), segment(-1, 1), CFG)


def test_group_like_transport():
    forms = [SimplePole(TRIV, 0), SimplePole(TRIV, 1)]
    F = transport(forms, lasso(-1j, 0, 0.4), 3, CFG)
    assert group_like_deviation(F) <= 10 * CFG.tolerance


def test_transport_multiplicativity_random_split():
    forms = [SimplePole(TRIV, 0), SimplePole(TRIV, 3)]
    for frac in (0.25, 0.5, 0.8):
        first = Path([ArcSegment(0, 1.0, 0.0, 2 * math.pi * frac)])
        second = Path([ArcSegment(0, 1.0, 2 * math.pi * frac, 2 * math.pi * (1 - frac))])
        Fa = transport(forms, first, 3, CFG)
        Fb = transport(forms, second, 3, CFG)
        Fall = transport(forms, first + second, 3, CFG)
        assert Fall.deviation(Fa * Fb) < 1e-9


def test_convergence_order_at_least_4x():
    # off-center loop around the pole: same closed-form value by homotopy
    # invariance, non-constant pullback so the step error is visible
    exact = TPI ** 2 / 2
    errors = []
    for steps in (2, 4, 8, 16):
        cfg = QuadratureConfig(steps_per_segment=steps, tolerance=1e-8)
        F = transport([SimplePole(TRIV, 0)], circle(0.15, 0.5), 2, cfg)
        errors.append(abs(complex(F.coeff((1, 1)).reduce()) - exact))
    for e1, e2 in zip(errors, errors[1:]):
        assert e1 / e2 >= 4.0


def test_homotopy_invariance_two_radii():
    rep = chen_identity_check(
        "homotopy",
        QuadratureConfig(1024, 1e-8),
        word=[SimplePole(TRIV, 0), SimplePole(TRIV, 5)],
        path_a=lasso(1.0, 0, 0.3),
        path_b=lasso(1.0, 0, 0.7),
    )
    assert rep.passed


def test_shuffle_enumeration():
    assert shuffles(1, 1) == [(0, 1), (1, 0)]
    assert len(shuffles(2, 2)) == 6
    for word in shuffles(2, 2):
        first = [i for i in word if i < 2]
        second = [i for i in word if i >= 2]
        assert first == [0, 1] and second == [2, 3]


def test_shuffle_identity_check():
    rep = chen_identity_check(
        "shuffle",
        CFG,
        word1=[SimplePole(TRIV, 0)],
        word2=[SimplePole(TRIV, 1)],
        path=segment(3, 2 + 2j),
    )
    assert rep.passed
    assert rep.deviation <= 1e-8


def test_reversal_identity_check():
    rep = chen_identity_check(
        "reversal",
        CFG,
        word=[SimplePole(TRIV, 0), SimplePole(TRIV, 1)],
        path=segment(3, 2 + 2j),
    )
    assert rep.passed


def test_composition_identity_check():
    upper = Path([ArcSegment(0, 2.0, 0.0, math.pi)])
    lower = Path([ArcSegment(0, 2.0, math.pi, math.pi)])
    rep = chen_identity_check(
        "composition",
        CFG,
        word=[SimplePole(TRIV, 0), SimplePole(TRIV, 1)],
        path1=upper,
        path2=lower,
    )
    assert rep.passed


def test_unknown_identity_kind():
    with pytest.raises(InputError):
        chen_identity_check("sorcery", CFG, word=[])


def test_dlog_form_over_nilpotent_algebra():
    sig = parse_signature("gens=eps;degree=2;scalars=exact")
    f = RF.monic_linear(sig, 0, shift=sig.gen("eps"))
    form = DlogForm(f)
    val = line_integral(form, circle(0, 1), CFG)
    # winding picks up 2 pi i nu(f) = 2 pi i; the nilpotent part integrates
    # to zero over a loop
    assert abs(complex(val.reduce()) - TPI) < 1e-9
    assert abs(val.coeffs.get((1,), 0j)) < 1e-9


def test_word_series_structure():
    F = TruncatedWordSeries.identity(TRIV, 2, 2)
    with pytest.raises(InputError):
        F.coeff((1, 2, 1))
    with pytest.raises(InputError):
        F.coeff((3,))
    G = F * F
    assert G.coeff(()) == TRIV.one()


# -- compiled forms against the exact layer ----------------------------------------

COMPILED_CASES = [
    ("gens=eps;degree=2;scalars=exact", "(x-1+eps)*(x-1/2*i-1/3*eps)^-2*(x+2)"),
    ("gens=eps;degree=2;scalars=exact", "3*(x+eps)^2*(x-1-2*eps)^-1"),
    ("gens=eps,delta;degree=3;scalars=exact", "(x-1+eps+delta)*(x-i+2*delta-eps*delta)^-1"),
    ("gens=eps,delta;degree=3;scalars=exact", "(x+1/2-eps^2)^3*(x-2*i+delta)*(1+eps)"),
]
EXACT_POINTS = ["1/3+1/5*i", "-2+i", "3/2", "-1/7-2/3*i"]


@pytest.mark.parametrize("sig_text,f_text", COMPILED_CASES)
def test_dlog_form_matches_exact_expansion(sig_text, f_text):
    # f(z + x) = a0 + a1 x + O(x^2) exactly, so f'/f(z) = a1/a0
    sig = parse_signature(sig_text)
    f = parse_ratfunc(f_text, sig)
    form = DlogForm(f)
    for text in EXACT_POINTS:
        z = parse_scalar(text)
        series = f.expand_at(SpherePoint.finite(z), 2)
        # structural equality over Q(i) at the exact point
        assert dlog_value(f, z) == series.coeff(1) * series.coeff(0).inverse()
        expected = (series.coeff(1) * series.coeff(0).inverse()).widen()
        got = form.value(complex(z))
        assert got.signature == expected.signature
        assert deviation(got, expected) <= 1e-13 * max(1.0, expected.max_abs())


@pytest.mark.parametrize("n", [-2, -1, 1, 3])
def test_binomial_form_matches_direct_computation(n):
    sig = parse_signature("gens=eps,delta;degree=3;scalars=float")
    eps, delta = sig.gen("eps"), sig.gen("delta")
    a = eps * (0.3 - 0.2j) + delta * 0.7 + eps * delta * (1.5 + 0.5j) + delta * delta * -0.4
    form = BinomialLogForm(sig, a, n)
    for z in (0.5 + 0.25j, -1.2 + 0.1j, 0.3j):
        expected = a * (-n * z ** (n - 1)) * (sig.one() - a * z ** n).inverse()
        assert deviation(form.value(z), expected) <= 1e-14 * max(1.0, expected.max_abs())


def test_dlog_form_keeps_its_unit_checks():
    sig = parse_signature("gens=eps;degree=2;scalars=exact")
    form = DlogForm(parse_ratfunc("(x-1+eps)*(x+2)^-1", sig))
    for z in (1, -2):
        with pytest.raises(NotInvertible):
            form.eval(z)


# -- transport over the words a caller reads -----------------------------------------


def _nilpotent_forms():
    sig = parse_signature("gens=eps;degree=2;scalars=exact")
    f = parse_ratfunc("(x-1/2+eps)", sig)
    g = parse_ratfunc("(x+1/2-2*eps)*(x-3)^-1", sig)
    return [DlogForm(f), DlogForm(g)]


@pytest.mark.parametrize(
    "forms,path,words",
    [
        (_nilpotent_forms(), lasso(1j, 0.5, 0.3), [(1, 2)]),
        (_nilpotent_forms(), lasso(1j, 0.5, 0.3), [(1,), (2,), (1, 2)]),
        (_nilpotent_forms(), circle(0, 1), [(2, 1), (2, 2)]),
        ([SimplePole(TRIV, 0), SimplePole(TRIV, 1), Dz(TRIV)], lasso(-1j, 0, 0.4), [(1, 2, 3), (3, 1)]),
        ([SimplePole(TRIV, 0), SimplePole(TRIV, 1), Dz(TRIV)], segment(2, 3 + 1j), [(3, 3, 3), (2, 1, 3), (2,)]),
    ],
)
def test_transport_over_read_words_matches_full_transport(forms, path, words):
    cfg = QuadratureConfig(64, 1e-8)
    max_len = max(map(len, words))
    full = transport(forms, path, max_len, cfg)
    part = transport(forms, path, max_len, cfg, words)
    closure = {w[:i] for w in words for i in range(len(w) + 1)}
    assert set(part.coeffs) == closure
    for w in closure:
        assert deviation(part.coeff(w), full.coeff(w)) <= 1e-13 * max(1.0, full.coeff(w).max_abs())


def test_transport_reads_only_its_words():
    forms = _nilpotent_forms()
    F = transport(forms, circle(0, 1), 2, CFG, [(1, 2)])
    assert list(F.coeffs) == [(), (1,), (1, 2)]
    for word in [(2,), (2, 1), (1, 1), (1, 2, 1)]:
        with pytest.raises(InputError):
            F.coeff(word)
    for bad in [(3,), (1, 2, 1), (0, 1)]:
        with pytest.raises(InputError):
            transport(forms, circle(0, 1), 2, CFG, [bad])


def test_iterated_integral_computes_one_word_per_prefix():
    forms = [SimplePole(TRIV, 0), SimplePole(TRIV, 1), Dz(TRIV)]
    F = transport(forms, lasso(-1j, 0, 0.4), 3, CFG, [(1, 2, 3)])
    assert len(F.coeffs) == 4
    assert F.coeff((1, 2, 3)) == iterated_integral(forms, lasso(-1j, 0, 0.4), CFG)
