import random
from fractions import Fraction

import pytest

from ccsym import parsing, ratfunc
from ccsym.algebra import AlgebraElement, parse_signature
from ccsym.errors import InputError, NotInvertible
from ccsym.laurent import INF, LaurentSeries, factorize
from ccsym.parsing import (
    MAX_POWER_BITS,
    MAX_SUM_DEGREE,
    parse_element,
    parse_ratfunc,
    parse_scalar,
    parse_series,
)
from ccsym.paths import ArcSegment, LineSegment, parse_path
from ccsym.ratfunc import RationalFunctionA, SpherePoint, rf_support
from ccsym.scalars import gaussian

from conftest import (
    agrees_with,
    bench_series_text,
    bench_weil_texts,
    oracle_parse_element,
    oracle_parse_ratfunc,
    oracle_parse_series,
)

SIG2 = parse_signature("gens=eps;degree=2;scalars=exact")
TRIV = parse_signature("gens=;degree=1;scalars=exact")


def test_scalar_literals():
    assert parse_scalar("3/4") == gaussian(Fraction(3, 4))
    assert parse_scalar("-2") == gaussian(-2)
    assert parse_scalar("1/2+1/3*i") == gaussian(Fraction(1, 2), Fraction(1, 3))
    assert parse_scalar("2^3") == gaussian(8)
    assert parse_scalar("-(1+i)^2") == gaussian(0, -2)


def test_scalar_rejects_x():
    with pytest.raises(InputError):
        parse_scalar("x+1")


def test_element_literals():
    assert parse_element("1/5*eps", SIG2) == SIG2.gen("eps") / 5
    assert parse_element("2-eps", SIG2) == SIG2.scalar(2) - SIG2.gen("eps")
    with pytest.raises(InputError):
        parse_element("delta", SIG2)


def test_series_literals():
    x = LaurentSeries.monomial(SIG2, 1)
    eps = SIG2.gen("eps")
    assert parse_series("x+eps", SIG2) == x + LaurentSeries(SIG2, {0: eps})
    s = parse_series("x^-2*(1-eps*x^-1)*(1-x)", SIG2, trunc=10)
    expected = (
        LaurentSeries.monomial(SIG2, -2)
        * (LaurentSeries.one(SIG2) - LaurentSeries.monomial(SIG2, -1, eps))
        * (LaurentSeries.one(SIG2) - x)
    )
    assert agrees_with(s, expected, upto=10)


def test_series_division_uses_truncation():
    from ccsym.errors import InsufficientTruncation

    s = parse_series("1/(1-x)", TRIV, trunc=6)
    assert s.coeffs == {k: TRIV.one() for k in range(6)}
    with pytest.raises(InsufficientTruncation):
        parse_series("1/(1-x)", TRIV)  # no finite truncation given


@pytest.mark.parametrize(
    "text, coeff, exponent",
    [("x^-5", 1, -5), ("1/x^5", 1, -5), ("(1+eps)^-1*x^-2", "1-eps", -2)],
)
def test_negative_powers_of_one_term_series_keep_the_truncation(text, coeff, exponent):
    # a one-term series inverts exactly: x^-1 at trunc 12 once parsed as x^-1+O(x^10)
    s = parse_series(text, SIG2, trunc=4)
    assert s == LaurentSeries(SIG2, {exponent: parse_element(str(coeff), SIG2)}, 4)


def test_series_factorize_pipeline():
    fac = factorize(parse_series("x+eps", SIG2, trunc=8))
    assert fac.nu == 1
    assert fac.neg_factors == {-1: -SIG2.gen("eps")}


def test_parse_error_positions():
    with pytest.raises(InputError) as err:
        parse_series("x +* 2", SIG2)
    assert "position 3" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_series("x^y", SIG2)
    assert "integer literal" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_scalar("1 ~ 2")
    assert "position" in str(err.value)


def test_ratfunc_simple_factors():
    f = parse_ratfunc("x", TRIV)
    assert dict(f.base_factors) == {gaussian(0): 1}
    g = parse_ratfunc("(1-x)", TRIV)
    assert dict(g.base_factors) == {gaussian(1): 1}
    assert g.scale == TRIV.scalar(-1)
    assert g.eval(Fraction(-1, 2)) == TRIV.scalar(Fraction(3, 2))


def test_ratfunc_powers_and_products():
    f = parse_ratfunc("x^2*(x-3)^-1", TRIV)
    assert f.eval(1) == TRIV.scalar(Fraction(-1, 2))
    assert f.total_degree == 1


def test_ratfunc_nilpotent_shift():
    f = parse_ratfunc("(x+eps)", SIG2)
    assert f.eval(1) == SIG2.one() + SIG2.gen("eps")
    series = f.expand_at(SpherePoint.finite(0), 4)
    assert series.coeffs == {0: SIG2.gen("eps"), 1: SIG2.one()}


def test_ratfunc_perturbation_group_gets_carriers():
    f = parse_ratfunc("(x-1)*(1+eps/(x-2))", SIG2)
    # the perturbation pole at 2 carries a cancelling base pair
    nets = dict(f.base_factors)
    assert nets[gaussian(1)] == 1
    assert nets.get(gaussian(2), 0) == 0
    assert {str(s) for s in rf_support(f, f)} == {"1", "2", "inf"}
    # f(3) = (3-1)(1 + eps/(3-2)) = 2 + 2 eps
    assert f.eval(3) == SIG2.scalar(2) + SIG2.gen("eps") * 2


def test_ratfunc_rejects_unfactored_quadratics():
    with pytest.raises(InputError):
        parse_ratfunc("(x^2-1)", TRIV)


def test_ratfunc_degree_check_before_expanding_keeps_cancelling_sums():
    # the degree is read off the leaves, so the error comes before any power is expanded
    with pytest.raises(InputError, match="reduction of degree 256"):
        parse_ratfunc("(x-1/3+eps)^256+0", SIG2)
    with pytest.raises(InputError, match="reduction of degree 2"):
        parse_ratfunc("(x-1)^-2+1", TRIV)
    # top terms that may cancel are expanded as before; monomial reductions stay allowed
    assert str(parse_ratfunc("(x+1)^2-x^2", TRIV)) == str(parse_ratfunc("2*x+1", TRIV))
    assert str(parse_ratfunc("(x-1)*(x+1)-x^2+x", TRIV)) == str(parse_ratfunc("x-1", TRIV))
    assert dict(parse_ratfunc("(x+eps)^5+0", SIG2).base_factors) == {gaussian(0): 5}


def test_ratfunc_sum_degree_is_capped_before_expanding():
    # the reduction of both sums is x, but only the one within MAX_SUM_DEGREE is expanded
    at_cap = f"(x-1/3+eps)^{MAX_SUM_DEGREE}-(x-1/3)^{MAX_SUM_DEGREE}+x"
    assert dict(parse_ratfunc(at_cap, SIG2).base_factors) == {gaussian(0): 1}
    above = f"(x-1/3+eps)^{MAX_SUM_DEGREE + 1}-(x-1/3)^{MAX_SUM_DEGREE + 1}+x"
    with pytest.raises(InputError, match=f"reduction of degree up to {MAX_SUM_DEGREE + 1}"):
        parse_ratfunc(above, SIG2)


def test_sum_backstop_names_the_expanded_polynomials_degree():
    # eps*x^100 reduces to 0, so the reduction of the sum is 1; what is too
    # large is the x-degree of the polynomial the sum expands to
    with pytest.raises(InputError, match=r"polynomial of x-degree 100 in 'eps\*x\^100\+1'") as info:
        parse_ratfunc("eps*x^100+1", SIG2)
    assert "reduction" not in str(info.value)
    assert f"(a sum may reach degree {MAX_SUM_DEGREE})" in str(info.value)


def test_ratfunc_rejects_nilpotent_leading():
    from ccsym.errors import NotInvertible

    with pytest.raises(NotInvertible):
        parse_ratfunc("eps*x", SIG2)


def test_ratfunc_monomial_reduction_allowed():
    f = parse_ratfunc("(x^2+eps)", SIG2)
    assert dict(f.base_factors) == {gaussian(0): 2}
    assert f.eval(1) == SIG2.one() + SIG2.gen("eps")


def test_ratfunc_constant_scale():
    f = parse_ratfunc("2*x*(1-x)", TRIV)
    assert f.eval(2) == TRIV.scalar(-4)


def test_path_literals():
    p = parse_path("circle(0,1/2)")
    assert isinstance(p.segments[0], ArcSegment)
    assert p.segments[0].radius == 0.5
    p = parse_path("seg(0,1+i)")
    assert isinstance(p.segments[0], LineSegment)
    assert p.segments[0].end == 1 + 1j
    p = parse_path("concat(seg(-2,-1/2),circle(0,1/2,1/2),seg(-1/2,-2))")
    assert len(p.segments) == 3
    assert abs(p.segments[1].point(0.0) - (-0.5)) < 1e-12  # base angle half a turn
    p = parse_path("rev(seg(0,1))")
    assert p.segments[0].start == 1
    p = parse_path("comm(circle(1,1/4,1/2),circle(1/2,1/4))")
    assert len(p.segments) == 4


def test_path_literal_errors():
    from ccsym.errors import PathError

    with pytest.raises(InputError):
        parse_path("circle(0)")
    with pytest.raises(InputError):
        parse_path("polygon(0,1)")
    with pytest.raises(InputError):
        parse_path("seg(0,1) extra")
    with pytest.raises(PathError):
        parse_path("comm(seg(0,1),seg(0,1))")  # not loops


def test_float_backend_affine_factor_keeps_an_exact_root():
    # a float algebra's functions are read over its exact signature
    float_sig = parse_signature("gens=eps;degree=2;scalars=float")
    for text, root in [("(x-1)", gaussian(1)), ("(2*x+1/3*i-eps)", gaussian(0, Fraction(-1, 6)))]:
        f = parse_ratfunc(text, float_sig)
        assert f.signature == SIG2
        assert f.base_factors == ((root, 1),)
        assert f == parse_ratfunc(text, SIG2)


def test_powers_are_capped_before_they_are_computed():
    # the estimate is |n| times the largest bit length of the base's numbers
    assert MAX_POWER_BITS == 8192
    assert parse_scalar("2^4096") == gaussian(2 ** 4096)  # 2 bits * 4096
    assert parse_scalar("(1/3)^-4096") == gaussian(3 ** 4096)
    assert parse_scalar("(2^100)^81") == gaussian(2 ** 8100)  # 101 bits * 81
    for text in ("2^4097", "(1/3)^-4097", "(2^100)^82", "((2^100)^10)^10", "2^4000000"):
        with pytest.raises(InputError, match="power too large"):
            parse_scalar(text)
    with pytest.raises(InputError, match="power too large"):
        parse_element("(1+eps/3)^5000", SIG2)
    with pytest.raises(InputError, match="power too large"):
        parse_series("(x+2)^5000", SIG2)
    assert dict(parse_ratfunc("x^-8192", SIG2).base_factors) == {gaussian(0): -8192}  # 1 bit
    for text in ("x^-8193", "(x-1/3)^-5000"):
        with pytest.raises(InputError, match="power too large"):
            parse_ratfunc(text, SIG2)


def test_overlong_number_literals_are_input_errors():
    with pytest.raises(InputError, match="too long"):
        parse_scalar("1" * 5000)
    with pytest.raises(InputError, match="too long"):
        parse_scalar("x^" + "1" * 5000)


# -- the one fold against evaluators that make every literal a series or a function ----

SIG3 = parse_signature("gens=eps,delta;degree=3;scalars=exact")
ALGEBRAS = [(SIG2, ("eps",), 2), (SIG3, ("eps", "delta"), 3), (TRIV, (), 1)]


def outcome(parse, *args):
    """parse(*args), or the class and message of what it raised."""
    try:
        return parse(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)


def random_tree(rng, names, depth, zero_powers=True):
    """Text of a random expression over small integers, i, the names and
    x, with + - * / and powers between -2 and 3."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["0", "1", "2", "3", "1/3", "i", "x", "x", *names])
    op = rng.choice("+-*/^")
    left = random_tree(rng, names, depth - 1, zero_powers)
    if op == "^":
        n = rng.choice([-2, -1, 0, 1, 2, 3] if zero_powers else [-2, -1, 1, 2, 3])
        return f"({left})^{n}"
    return f"({left}){op}({random_tree(rng, names, depth - 1, zero_powers)})"


@pytest.mark.parametrize("sig, gens, degree", ALGEBRAS)
def test_series_fold_equals_the_all_series_fold(sig, gens, degree):
    # bench-shaped literals, sums of (c)*monomial*x^e, and random trees with
    # quotients by units, by series and by non-units, at a finite and an
    # infinite truncation: equal coefficients and truncation, or the same error
    rng = random.Random(f"series {degree}")
    texts = [bench_series_text(rng, gens, degree) for _ in range(20)]
    texts += [random_tree(rng, gens, 4) for _ in range(150)]
    texts += ["x^-2*(1-eps*x^-1)*(1-x)" if gens else "x^-2*(1-x)", "1/(1-x)", "(2-x)^-2*x^3", "(1/3+x)/(3-x^2)"]
    for text in texts:
        for trunc in (7, INF):
            expected = outcome(oracle_parse_series, text, sig, trunc)
            got = outcome(parse_series, text, sig, trunc)
            assert got == expected, text
            if isinstance(got, LaurentSeries):
                assert (got.coeffs, got.trunc) == (expected.coeffs, expected.trunc)


@pytest.mark.parametrize("sig, gens, degree", ALGEBRAS)
def test_ratfunc_equals_the_factor_by_factor_reading(sig, gens, degree):
    rng = random.Random(f"ratfunc {degree}")
    texts = [text for k in range(20) for text in bench_weil_texts(rng, gens, k % 2)]
    texts += [random_tree(rng, gens, 4, zero_powers=False) for _ in range(150)]
    for text in texts:
        expected = outcome(oracle_parse_ratfunc, text, sig)
        got = outcome(parse_ratfunc, text, sig)
        if isinstance(got, tuple):
            assert got == expected, text
        else:
            assert isinstance(expected, type(got)), text
            assert (got.base_factors, got.scale, got.pert_num, got.pert_den) == (
                expected.base_factors, expected.scale, expected.pert_num, expected.pert_den), text


@pytest.mark.parametrize("text", [
    "x/0", "(1+x)/(eps-eps)", "x*(2-2)", "1/eps+x", "y*x", "(x+2)^5000", "(x-1/3)^-5000", "2^5000*x",
    f"(x-1/3+eps)^{MAX_SUM_DEGREE + 1}-(x-1/3)^{MAX_SUM_DEGREE + 1}+x", "eps*x", "(eps+eps*x)*x", "(x^2-1)",
])
def test_input_errors_are_those_of_the_old_evaluators(text):
    # a zero divisor, an unknown name, a power past MAX_POWER_BITS, a sum past
    # MAX_SUM_DEGREE and a nilpotent factor raise the same class and message
    assert isinstance(outcome(parse_ratfunc, text, SIG2), tuple)
    for parse, oracle in ((parse_series, oracle_parse_series), (parse_ratfunc, oracle_parse_ratfunc)):
        assert outcome(parse, text, SIG2) == outcome(oracle, text, SIG2)
    for text in ("x+1", "1/eps", "0^-1", "y"):  # x in an element context, as others
        assert outcome(parse_element, text, SIG2) == outcome(oracle_parse_element, text, SIG2)


def test_a_zero_to_the_zero_is_one_in_every_context():
    # the fold reads 0^0 as 1, as scalars, elements and sums always did; a
    # factor 0^0 of a function was read as the constant 0 before, an error
    assert parse_ratfunc("0^0*x", SIG2) == parse_ratfunc("x", SIG2)
    assert outcome(oracle_parse_ratfunc, "0^0*x", SIG2)[0] is NotInvertible
    assert parse_series("(1-1)^0*x", SIG2) == oracle_parse_series("(1-1)^0*x", SIG2)
    # the power cap skips the zero parts of a scalar, as it did for elements
    assert parse_scalar("0^9000") == gaussian(0)
    with pytest.raises(InputError, match="division by zero"):
        parse_scalar("0^-1")


def test_float_literals_are_rounded_once_from_their_exact_value():
    # a literal subtree is folded over Q(i) and rounded where it meets an
    # element: 7/10 is the double nearest 0.7, not 7*(1/10)
    assert 7 * (1 / 10) != 0.7
    fsig = parse_signature("gens=eps;degree=2;scalars=float")
    assert parse_element("7/10", fsig) == fsig.scalar(0.7)
    assert parse_element("7/10*eps+1/3", fsig) == fsig.element({(0,): 1 / 3, (1,): 0.7})
    assert parse_series("7/10*x^-1", fsig).coeffs == {-1: fsig.scalar(0.7)}
    assert parse_ratfunc("7/10*x", fsig).scale == SIG2.scalar(Fraction(7, 10))
    exact = parse_series("7/10*eps*x+(1/3-i)", SIG2)
    assert parse_series("7/10*eps*x+(1/3-i)", fsig) == exact.widen()


def test_reading_bench_shaped_literals_takes_a_pinned_amount_of_work(monkeypatch):
    # counted, not timed, so the figures repeat exactly: the element products,
    # the functions built and the perturbation reductions taken while reading
    # 20 `verify weil` functions and 5 series per algebra.  The reader before
    # these figures took 646, 850, 46 and 240 products and built 240 functions
    # per 20, and before the constructor checked the poles it took 200 reductions
    counts = {"dot": 0, "functions": 0, "reductions": 0}
    dot, init, reduction = AlgebraElement.dot.__func__, RationalFunctionA.__init__, ratfunc.poly_reduction

    def counted_dot(cls, *args):
        counts["dot"] += 1
        return dot(cls, *args)

    def counted_init(self, *args, **kwargs):
        counts["functions"] += 1
        init(self, *args, **kwargs)

    def counted_reduction(p):
        counts["reductions"] += 1
        return reduction(p)

    monkeypatch.setattr(AlgebraElement, "dot", classmethod(counted_dot))
    monkeypatch.setattr(RationalFunctionA, "__init__", counted_init)
    for module in (ratfunc, parsing):  # both import it by name
        monkeypatch.setattr(module, "poly_reduction", counted_reduction)
    work = {}
    for sig, gens, degree in ALGEBRAS[:2]:
        rng = random.Random(f"work {degree}")
        counts.update(dot=0, functions=0, reductions=0)
        for k in range(10):
            for text in bench_weil_texts(rng, gens, k % 2):
                parse_ratfunc(text, sig)
        work["weil", degree] = dict(counts)
        counts.update(dot=0, functions=0, reductions=0)
        for _ in range(5):
            parse_series(bench_series_text(rng, gens, degree), sig, 12)
        work["series", degree] = counts["dot"]
    assert work == {("weil", 2): {"dot": 95, "functions": 120, "reductions": 180}, ("series", 2): 0,
                    ("weil", 3): {"dot": 145, "functions": 120, "reductions": 180}, ("series", 3): 60}
