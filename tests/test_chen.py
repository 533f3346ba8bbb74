import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from ccsym import chen
from ccsym.algebra import AlgebraSignature, Backend, deviation, parse_signature
from ccsym.chen import (
    QuadratureConfig,
    chen_identity_check,
    iterated_integral,
    line_integral,
    shuffles,
    transport,
)
from ccsym.errors import InputError, NotInvertible, PathError, PoleOnPath, SignatureMismatch
from ccsym.forms import BinomialLogForm, DenseLayout, DifferentialForm, DlogForm, SimplePole
from ccsym.parsing import parse_ratfunc, parse_scalar
from ccsym.paths import ArcSegment, LineSegment, Path, circle, commutator, concat, lasso, segment
from ccsym.ratfunc import RationalFunctionA as RF
from ccsym.ratfunc import SpherePoint

from conftest import dlog_value, group_like_deviation, oracle_binomial, oracle_iterated_2, oracle_transport

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


def test_segments_are_equal_by_class_and_coerced_fields():
    line = LineSegment(0, 1)
    assert line == LineSegment(0j, 1 + 0j) and hash(line) == hash(LineSegment(0j, 1 + 0j))
    assert line != LineSegment(0, 2) and line.reversed() == LineSegment(1, 0)
    arc = ArcSegment(0, 1, 0, math.pi)
    assert arc == ArcSegment(0j, 1.0, 0.0, math.pi) and hash(arc) == hash(ArcSegment(0j, 1.0, 0.0, math.pi))
    # a line and an arc that are both the point 1 are still different segments
    assert LineSegment(1, 1) != ArcSegment(1, 0, 0, 0) and ArcSegment(1, 0, 0, 0) != LineSegment(1, 1)
    assert all(line != other for other in (arc, (0j, 1 + 0j), None))


def test_line_distance():
    seg = LineSegment(-1, 1)
    assert abs(seg.distance_to(1j) - 1.0) < 1e-12
    assert abs(seg.distance_to(5) - 4.0) < 1e-12


def _bits(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


POINTS = st.complex_numbers(max_magnitude=8, allow_nan=False, allow_infinity=False)
PARAMETERS = st.lists(st.floats(0, 1), min_size=1, max_size=16)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(POINTS, POINTS, st.floats(1e-3, 8), st.floats(-8, 8), st.floats(-8, 8), PARAMETERS)
def test_segment_nodes_are_point_and_velocity_bit_for_bit(a, b, radius, theta0, sweep, ts):
    for seg in LineSegment(a, b), ArcSegment(a, radius, theta0, sweep):
        zs, vs = seg.nodes(ts)
        assert _bits(zs) == _bits(map(seg.point, ts))
        assert _bits(vs) == _bits(map(seg.velocity, ts))


def test_line_integral_winding():
    val = line_integral(SimplePole(TRIV, 0), circle(0, 1), CFG)
    assert abs(complex(val.reduce()) - TPI) < 1e-10


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
    F = transport([SimplePole(TRIV, 0), SimplePole(TRIV, 1)], segment(3, 3), 2, CFG)
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
        got = form.layout.element(form.eval(complex(z)))
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
        assert deviation(form.layout.element(form.eval(z)), expected) <= 1e-14 * max(1.0, expected.max_abs())


BINOMIAL_NODES = {
    # through z = 0, where -n a z^(n-1) is zero for n > 1 and 1 - a z^n is 1
    "through-0": [complex(k / 8, -k / 16) for k in range(-8, 9)],
    "off-0": [0.5 + 0.25j + 0.6 * cmath.exp(0.4j * k) for k in range(16)],
}


@pytest.mark.parametrize("n,nodes,gens", [(-2, "off-0", "eps,delta"), (-1, "off-0", "eps,delta"),
                                          (1, "through-0", "eps,delta"), (3, "through-0", "eps,delta"),
                                          (3, "off-0", "eps,delta"), (2, "through-0", "eps")])
def test_binomial_samples_are_the_per_node_quotients(n, nodes, gens):
    # by `==`, node by node: the column quotient computes the rows the
    # per-node one skips only as zeros, so the two differ at most in the
    # sign of a zero; with `gens` "eps" the form's own layout is a part of
    # the transport's
    sig = parse_signature("gens=eps,delta;degree=3;scalars=float")
    eps, delta = sig.gen("eps"), sig.gen("delta")
    a = eps * (0.3 - 0.2j) + delta * 0.7 + eps * delta * (1.5 + 0.5j) + delta * delta * -0.4
    if gens == "eps":
        a = eps * (0.3 - 0.2j) + eps * eps * 0.5
    form = BinomialLogForm(sig, a, n)
    layout = DenseLayout(sig, [(1, 0), (0, 1)])
    at = [layout.monomials.index(m) for m in form.layout.monomials]
    assert len(at) == (6 if gens == "eps,delta" else 3)
    zs = BINOMIAL_NODES[nodes]
    vs = [complex(1 + k % 3, k / 5 - 1) for k in range(len(zs))]
    cols = form.sampler(layout)(zs, vs)
    assert nodes == "off-0" or any(not all(cols[k]) and any(cols[k]) for k in at)
    for k, (z, v) in enumerate(zip(zs, vs)):
        expected = [layout.zero] * len(layout.monomials)
        for i, c in zip(at, oracle_binomial(form, z)):
            expected[i] = c * v
        assert [col[k] for col in cols] == expected
        assert form.eval(z) == oracle_binomial(form, z)


def test_binomial_form_takes_a_nonzero_int_and_an_element_of_its_algebra():
    sig = parse_signature("gens=eps,delta;degree=3;scalars=float")
    for n in (0, 0.5, 2.0, "2"):
        with pytest.raises(InputError):
            BinomialLogForm(sig, 0.2, n)
    for other in ("gens=eps;degree=2;scalars=float", "gens=eps,delta;degree=2;scalars=exact",
                  "gens=delta,eps;degree=3;scalars=float"):
        with pytest.raises(SignatureMismatch):
            BinomialLogForm(sig, parse_signature(other).gen("eps") * parse_scalar("1/2"), 1)
    exact = parse_signature("gens=eps,delta;degree=3;scalars=exact")
    form = BinomialLogForm(sig, exact.gen("eps") * parse_scalar("1/2"), 1)
    assert form.a == sig.gen("eps") * 0.5 and form.a.signature == sig


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
        ([SimplePole(TRIV, 0), SimplePole(TRIV, 1), SimplePole(TRIV, -3)], lasso(-1j, 0, 0.4), [(1, 2, 3), (3, 1)]),
        ([SimplePole(TRIV, 0), SimplePole(TRIV, 1), SimplePole(TRIV, -3)], segment(2, 3 + 1j), [(3, 3, 3), (2, 1, 3), (2,)]),
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
    forms = [SimplePole(TRIV, 0), SimplePole(TRIV, 1), SimplePole(TRIV, -3)]
    F = transport(forms, lasso(-1j, 0, 0.4), 3, CFG, [(1, 2, 3)])
    assert len(F.coeffs) == 4
    assert F.coeff((1, 2, 3)) == iterated_integral(forms, lasso(-1j, 0, 0.4), CFG)


# -- sampling each node once ---------------------------------------------------------


class _CountedPole(SimplePole):
    """dz/(z - c), counting the samples its sampler makes."""

    def __init__(self, signature, c):
        super().__init__(signature, c)
        self.calls = 0

    def sampler(self, layout):
        sample = super().sampler(layout)

        def counted(zs, vs):
            self.calls += len(zs)
            return sample(zs, vs)

        return counted


THETA0 = 0.1234  # (THETA0 + 2 pi) - 2 pi != THETA0 in floats
ALPHA = Path([ArcSegment(0, 1.0, THETA0, 2 * math.pi)])
BETA = Path([ArcSegment(2 * cmath.exp(1j * THETA0), 1.0, THETA0 + math.pi, 2 * math.pi)])


@pytest.mark.parametrize(
    "path,legs", [(lasso(-1j, 0, 0.4), 2), (commutator(ALPHA, BETA), 2)], ids=["lasso", "commutator"]
)
def test_a_return_leg_replays_its_outward_legs_samples(path, legs):
    # the arc's reverse is matched as the earlier leg computes it, although
    # reversing it twice does not give the arc back
    assert ALPHA.segments[0].reversed().reversed() != ALPHA.segments[0]
    forms = [_CountedPole(TRIV, 0.5), _CountedPole(TRIV, 2.5)]
    steps = 16
    transport(forms, path, 2, QuadratureConfig(steps, 1e-8))
    assert [form.calls for form in forms] == [legs * (2 * steps + 1)] * 2


@pytest.mark.parametrize(
    "path,kept,legs", [(lasso(-1j, 0, 0.4), 0, 3), (commutator(ALPHA, BETA), 1, 3)], ids=["lasso", "commutator"]
)
def test_legs_past_the_sample_budget_are_sampled_again(monkeypatch, path, kept, legs):
    # a budget of `kept` legs' samples: a later outward leg keeps nothing,
    # and its return leg samples its forms again; fresh forms, whose stores
    # hold nothing from the first transport
    steps = 16
    cfg = QuadratureConfig(steps, 1e-8)
    replayed = transport([_CountedPole(TRIV, 0.5), _CountedPole(TRIV, 2.5)], path, 2, cfg)
    monkeypatch.setattr(chen, "KEEP_SAMPLES", (kept + 1) * 2 * (2 * steps + 1) - 1)
    forms = [_CountedPole(TRIV, 0.5), _CountedPole(TRIV, 2.5)]
    sampled = transport(forms, path, 2, cfg)
    assert [form.calls for form in forms] == [legs * (2 * steps + 1)] * 2
    for w, c in sampled.coeffs.items():
        assert deviation(replayed.coeff(w), c) <= 1e-12 * max(1.0, c.max_abs())


@pytest.mark.parametrize("seg", [LineSegment(-1j, 1 - 0.5j), ALPHA.segments[0]], ids=["line", "arc"])
def test_a_replayed_leg_is_replayed_again(monkeypatch, seg):
    # out, back, out and back: a line segment's reverse reverses back
    # exactly, so the second outward leg replays the replayed return leg;
    # the arc's does not, so the arc's second round reads the columns its
    # first round stored, and replays them on the way back
    path = Path([seg, seg.reversed()] * 2)
    forms = [_CountedPole(TRIV, 0.5), _CountedPole(TRIV, 2.5)]
    steps = 16
    cfg = QuadratureConfig(steps, 1e-8)
    replayed = transport(forms, path, 2, cfg)
    assert [form.calls for form in forms] == [2 * steps + 1] * 2
    assert [list(form.samples) for form in forms] == [[(seg, 2 * steps + 1, ((),))]] * 2
    # without a budget, fresh forms sample every leg
    monkeypatch.setattr(chen, "KEEP_SAMPLES", 0)
    forms = [_CountedPole(TRIV, 0.5), _CountedPole(TRIV, 2.5)]
    sampled = transport(forms, path, 2, cfg)
    assert [form.calls for form in forms] == [4 * (2 * steps + 1)] * 2
    assert [form.samples for form in forms] == [{}] * 2
    for w, c in sampled.coeffs.items():
        assert deviation(replayed.coeff(w), c) <= 1e-12 * max(1.0, c.max_abs())


def test_a_replayed_return_leg_matches_a_sampled_one():
    # the same arc back, once as the outward arc's reverse (replayed) and
    # once with its start angle moved by 2 pi (sampled)
    go = ArcSegment(0, 2.0, 0.0, math.pi / 2)
    around = ArcSegment(1.5j, 0.5, math.pi / 2, 2 * math.pi)
    back = ArcSegment(0, 2.0, math.pi / 2 + 2 * math.pi, -math.pi / 2)
    assert back != go.reversed()
    sig = parse_signature("gens=eps;degree=2;scalars=exact")
    forms = [DlogForm(parse_ratfunc("(x-3/2*i+eps)", sig)), SimplePole(sig, 0)]
    cfg = QuadratureConfig(64, 1e-8)
    replayed = transport(forms, Path([go, around, go.reversed()]), 2, cfg)
    sampled = transport(forms, Path([go, around, back]), 2, cfg)
    for w, c in sampled.coeffs.items():
        assert deviation(replayed.coeff(w), c) <= 1e-12 * max(1.0, c.max_abs())


def test_a_first_letter_is_simpsons_sum_of_the_samples():
    # F[()] = 1, so the RK4 stages of a one-letter word are its samples at
    # the step, the midpoint (twice) and the next step
    sig = parse_signature("gens=eps,delta;degree=3;scalars=exact")
    form = DlogForm(parse_ratfunc("(x-1/2+eps)*(x+1/3*i-delta)^-1", sig))
    path = concat(segment(-1 - 1j, 1 - 1j), circle(0, 2 ** 0.5, -math.pi / 4))
    steps = 64
    total = [0j] * len(form.layout.monomials)
    for seg in path.segments:
        sixth = 1.0 / steps / 6
        nodes = []
        for k in range(2 * steps + 1):
            t = k / (2 * steps)
            v = seg.velocity(t)
            nodes.append([c * v for c in form.eval(seg.point(t))])
        for k in range(steps):
            w0, w_half, w1 = nodes[2 * k : 2 * k + 3]
            total = [f + (b1 + b2 * 4.0 + b4) * sixth for f, b1, b2, b4 in zip(total, w0, w_half, w1)]
    F = transport([form], path, 1, QuadratureConfig(steps, 1e-8))
    assert F.coeff((1,)) == form.layout.element(total)


# -- a form's store of sampled legs ------------------------------------------------


def _counted(form):
    """The form, counting the samples its samplers make in `form.calls`."""
    sampler, form.calls = form.sampler, 0

    def counted_sampler(layout):
        sample = sampler(layout)

        def counted(zs, vs):
            form.calls += len(zs)
            return sample(zs, vs)

        return counted

    form.sampler = counted_sampler
    return form


def _identity_suite_calls():
    # the forms and paths of `checks.identity_suite`, as its transports take them
    w0, w1, w5 = (_counted(SimplePole(TRIV, c)) for c in (0, 1, 5))
    arc = Path([ArcSegment(0, 2.0, 0.0, math.pi / 2)])
    upper, lower = Path([ArcSegment(0, 2.0, 0.0, math.pi)]), Path([ArcSegment(0, 2.0, math.pi, math.pi)])
    return [([w0, w1], arc, 2), ([w0, w1, w0], arc, 3), ([w0, w1], arc, 2), ([w1, w0], arc.reversed(), 2),
            ([w0, w1], upper, 2), ([w0, w1], lower, 2), ([w0, w1], upper + lower, 2),
            ([w0, w5], lasso(1.0, 0, 0.3), 2), ([w0, w5], lasso(1.0, 0, 0.7), 2)]


def _lasso_calls():
    f, g = (_counted(form) for form in _nilpotent_forms())
    path = lasso(1j, 0.5, 0.3)
    return [([f, g], path, 2), ([g, f], path, 2), ([f, g], Path(path.segments[:2]), 1)]


def _commutator_calls():
    sig = parse_signature("gens=eps;degree=2;scalars=exact")
    f, g = (_counted(DlogForm(parse_ratfunc(text, sig))) for text in ("(x-1/2+eps)", "(x+1/2-2*eps)*(x-3)^-1"))
    alpha, beta = lasso(-1j, 0.5, 0.3), lasso(-1j, -0.5, 0.3)
    return [([f, g], commutator(alpha, beta), 2), ([f, g], alpha, 1), ([f, g], beta, 1)]


# per case: its transports, and the legs each distinct form samples over all of them
STORE_CASES = {
    "identities": (_identity_suite_calls, [8, 4, 4]),
    "lasso": (_lasso_calls, [2, 2]),
    "commutator": (_commutator_calls, [4, 4]),
}


@pytest.mark.parametrize("case", list(STORE_CASES))
def test_stored_columns_give_the_fresh_forms_transport(case):
    # by `==`: a transport that reads its forms' stores is the transport over
    # fresh forms, which sample every leg
    make, legs = STORE_CASES[case]
    steps = 32
    cfg = QuadratureConfig(steps, 1e-8)
    calls, sampled = make(), 0
    for k, (forms, path, max_len) in enumerate(calls):
        fresh = make()[k][0]
        F = transport(forms, path, max_len, cfg)
        assert {w: c.coeffs for w, c in F.coeffs.items()} == {
            w: c.coeffs for w, c in transport(fresh, path, max_len, cfg).coeffs.items()}
        sampled += sum(form.calls for form in dict.fromkeys(fresh))
    distinct = list(dict.fromkeys(form for forms, _, _ in calls for form in forms))
    assert [form.calls for form in distinct] == [n * (2 * steps + 1) for n in legs]
    assert sum(legs) * (2 * steps + 1) < sampled


def test_two_transports_over_one_segment_sample_each_form_once():
    forms = [_CountedPole(TRIV, 0.5), _CountedPole(TRIV, 2.5)]
    path, steps = Path([ALPHA.segments[0]]), 16
    cfg = QuadratureConfig(steps, 1e-8)
    first = transport(forms, path, 2, cfg)
    assert transport(forms, path, 2, cfg).coeffs == first.coeffs
    assert transport(forms[1:], path, 1, cfg).coeff((1,)) == first.coeff((2,))
    assert [form.calls for form in forms] == [2 * steps + 1] * 2


def test_a_form_with_a_full_store_streams_and_samples_again(monkeypatch):
    monkeypatch.setattr(chen, "BLOCK", 64)  # four blocks a leg
    steps = 200
    cfg = QuadratureConfig(steps, 1e-8)
    nodes = len(cfg.nodes)
    monkeypatch.setattr(chen, "KEEP_SAMPLES", nodes + 1)  # one leg of one monomial a form
    form = _CountedPole(TRIV, 0.5)
    first, second = LineSegment(-1j, 1 - 1j), LineSegment(1 - 1j, 2)
    for _ in range(2):
        transport([form], Path([first]), 1, cfg)
        transport([form], Path([second]), 1, cfg)
    assert form.calls == 3 * nodes
    assert list(form.samples) == [(first, nodes, ((),))]
    # a leg the store has no room for streams, at most one block ahead
    form.calls = 0
    [(blocks, _)] = chen._legs([form], DenseLayout(TRIV), [second], cfg.nodes)
    consumed = 1
    for [[col]] in blocks:
        consumed += len(col) - 1
        assert consumed <= form.calls <= consumed + 2 * chen.BLOCK
    assert form.calls == nodes and len(form.samples) == 1


# -- sampling a block of nodes at a time ---------------------------------------------

BLOCK_CASES = [
    ("gens=eps,delta;degree=3;scalars=exact", "(x-1/2+eps)*(x+1/3*i-delta)^-1*(x-3/2-eps*delta)^2"),
    ("gens=eps;degree=3;scalars=exact", "(x-1+eps)*(x-1)^-1"),  # a pole carrier
    ("gens=eps;degree=3;scalars=exact", "(1+eps*x^3)*(x-2)"),  # a polynomial part from infinity
    ("gens=eps,delta;degree=3;scalars=float", "(x-1/2+eps)*(x+1/3*i-delta)^-1*(x-3/2-eps*delta)^2"),
]
SEGMENTS = [LineSegment(-2 - 1j, 2 - 0.5j), ArcSegment(0.25, 2.5, 0.3, 5.0)]


@pytest.mark.parametrize("steps", [1, 31, 64])
@pytest.mark.parametrize("seg", SEGMENTS, ids=["line", "arc"])
@pytest.mark.parametrize("sig_text,f_text", BLOCK_CASES, ids=["poles", "carrier", "polynomial", "float"])
def test_block_samples_are_the_per_node_samples(monkeypatch, sig_text, f_text, seg, steps):
    # bit for bit: the stepper's first letter reads these as Simpson's rule does
    monkeypatch.setattr(chen, "BLOCK", 16)  # up to four blocks a leg
    form = DlogForm(parse_ratfunc(f_text, parse_signature(sig_text)))
    layout = DenseLayout(form.signature, form.layout.monomials)
    ts = [k * (0.5 / steps) for k in range(2 * steps + 1)]
    [(blocks, sign)] = chen._legs([form], layout, [seg], ts)
    expected = [[c * seg.velocity(t) for c in form.eval(seg.point(t))] for t in ts]
    # a block's first node is the last node of the block before
    nodes = [node for k, [cols] in enumerate(blocks) for node in list(zip(*cols))[bool(k):]]
    assert [list(w) for w in nodes] == expected and sign == 1


def test_an_unkept_leg_samples_at_most_one_block_ahead(monkeypatch):
    monkeypatch.setattr(chen, "BLOCK", 64)  # four blocks a leg
    form = _CountedPole(TRIV, 0.5)
    ts = [k / 400 for k in range(401)]
    [(blocks, _)] = chen._legs([form], DenseLayout(TRIV), [LineSegment(-1j, 1 - 1j)], ts)
    consumed = 1
    for [[col]] in blocks:
        consumed += len(col) - 1
        assert consumed <= form.calls <= consumed + 2 * chen.BLOCK
    assert form.calls == len(ts)


def test_a_dlog_transport_takes_the_block_path(monkeypatch):
    def refuse(self, z):
        raise AssertionError("a DlogForm transport sampled node by node")

    sig = parse_signature("gens=eps;degree=2;scalars=exact")
    forms = [DlogForm(parse_ratfunc("(x-1/2+eps)*(x+2)^-1", sig)), SimplePole(sig, 3)]
    monkeypatch.setattr(RF, "dlog_eval", refuse)
    monkeypatch.setattr(DlogForm, "eval", refuse)
    F = transport(forms, lasso(-1j, 0.5, 0.25), 2, QuadratureConfig(16, 1e-8))
    assert abs(F.coeff((1,)).coeffs[(0,)] - TPI) < 1e-6


def test_scalar_forms_take_the_block_path(monkeypatch):
    def refuse(self, z):
        raise AssertionError("a scalar form was sampled node by node")

    monkeypatch.setattr(SimplePole, "eval", refuse)
    F = transport([SimplePole(TRIV, 0.5), SimplePole(TRIV, -3)], lasso(-1j, 0.5, 0.25), 2, QuadratureConfig(16, 1e-8))
    assert abs(F.coeff((1,)).coeffs[()] - TPI) < 1e-6


def test_no_form_is_sampled_node_by_node(monkeypatch):
    def refuse(self, z):
        raise AssertionError(f"{type(self).__name__} was sampled node by node")

    monkeypatch.setattr(RF, "dlog_eval", refuse)
    for cls in (DifferentialForm, SimplePole, DlogForm, BinomialLogForm):
        monkeypatch.setattr(cls, "eval", refuse)
    sig = parse_signature("gens=eps;degree=2;scalars=exact")
    forms = [DlogForm(parse_ratfunc("(x-1/2+eps)*(x+2)^-1", sig)), SimplePole(sig, 0.5), SimplePole(sig, -3),
             BinomialLogForm(sig, sig.gen("eps") * parse_scalar("1/5"), 2)]
    F = transport(forms, lasso(-1j, 0.5, 0.25), 2, QuadratureConfig(16, 1e-8))
    for w in (1,), (2,):
        assert abs(F.coeff(w).coeffs[(0,)] - TPI) < 1e-6


# -- stepping a block of steps at a time --------------------------------------------

ORACLE_FORMS = {
    "scalar": ("gens=;degree=1;scalars=float", lambda sig: [SimplePole(sig, 0.5), SimplePole(sig, -3)]),
    # the pole's values have no eps term: its words' eps columns are zero throughout
    "eps": ("gens=eps;degree=2;scalars=exact",
            lambda sig: [SimplePole(sig, 0.5), DlogForm(parse_ratfunc("(x-1/2+eps)*(x+2)^-1", sig))]),
    "eps,delta": ("gens=eps,delta;degree=3;scalars=exact",
                  lambda sig: [DlogForm(parse_ratfunc("(x-1/2+eps)", sig)),
                               DlogForm(parse_ratfunc("(x-1/2-delta)*(x+2)^-1", sig))]),
}


@pytest.mark.parametrize("keep", [True, False], ids=["replayed", "unkept"])
@pytest.mark.parametrize("steps", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("algebra", list(ORACLE_FORMS))
def test_the_block_stepper_is_the_node_by_node_stepper(monkeypatch, algebra, steps, keep):
    # bit for bit, across block edges and on a lasso's replayed return leg;
    # the lasso starts at 0, where the third form's values are 0 and nowhere else
    monkeypatch.setattr(chen, "BLOCK", 64)  # up to three blocks a leg
    sig_text, make = ORACLE_FORMS[algebra]
    sig = parse_signature(sig_text)
    a = sum((sig.gen(g) for g in sig.generators), sig.scalar(parse_scalar("1/5")))
    forms = make(sig) + [BinomialLogForm(sig, a, 2)]
    words = [(1, 2, 1), (2, 2), (1, 3)]
    if not keep:
        monkeypatch.setattr(chen, "KEEP_SAMPLES", 0)
    F = transport(forms, lasso(0, 0.5, 0.25), 3, QuadratureConfig(steps, 1e-8), words)
    expected = oracle_transport(forms, lasso(0, 0.5, 0.25), words, steps, replay=keep)
    assert {w: c.coeffs for w, c in F.coeffs.items()} == expected
