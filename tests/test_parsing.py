from fractions import Fraction

import pytest

from ccsym.algebra import parse_signature
from ccsym.errors import InputError
from ccsym.laurent import LaurentSeries, factorize
from ccsym.parsing import (
    MAX_POWER_BITS,
    MAX_SUM_DEGREE,
    parse_element,
    parse_path,
    parse_ratfunc,
    parse_scalar,
    parse_series,
)
from ccsym.paths import ArcSegment, LineSegment
from ccsym.ratfunc import SpherePoint, rf_support
from ccsym.scalars import gaussian

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
    assert s.agrees_with(expected, upto=10)


def test_series_division_uses_truncation():
    from ccsym.errors import InsufficientTruncation

    s = parse_series("1/(1-x)", TRIV, trunc=6)
    assert s.coeffs == {k: TRIV.one() for k in range(6)}
    with pytest.raises(InsufficientTruncation):
        parse_series("1/(1-x)", TRIV)  # no finite truncation given


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
    f.validate_poles()
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
    float_sig = parse_signature("gens=eps;degree=2;scalars=float")
    for text, root in [("(x-1)", gaussian(1)), ("(2*x+1/3*i-eps)", gaussian(0, Fraction(-1, 6)))]:
        f = parse_ratfunc(text, float_sig)
        assert f.signature == float_sig
        assert f.base_factors == ((root, 1),)
        assert f.widen() is f
        exact = parse_ratfunc(text, SIG2).widen()
        assert (f.scale, f.pert_num, f.pert_den) == (exact.scale, exact.pert_num, exact.pert_den)


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
