import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ccsym import ratfunc
from ccsym.algebra import deviation, parse_signature
from ccsym.errors import InputError, InsufficientTruncation, NotInvertible
from ccsym.laurent import LaurentSeries
from ccsym.parsing import parse_ratfunc
from ccsym.ratfunc import RationalFunctionA as RF, SpherePoint, rf_support
from ccsym.scalars import gaussian, power
from ccsym.symbol import local_symbols

from conftest import bench_weil_texts, dlog_value

SIG2 = parse_signature("gens=eps;degree=2;scalars=exact")
TRIV = parse_signature("gens=;degree=1;scalars=exact")
EPS = SIG2.gen("eps")


def x_plus_eps():
    return RF.monic_linear(SIG2, 0, shift=EPS)


def one_minus_x(sig):
    return RF.constant(sig, -1) * RF.monic_linear(sig, 1)


def test_eval_examples():
    f = x_plus_eps() * RF.monic_linear(SIG2, 1).inverse()
    assert f.eval(2) == SIG2.scalar(2) + EPS
    assert RF.monic_linear(TRIV, 0).eval(Fraction(-1, 2)) == TRIV.scalar(Fraction(-1, 2))
    v = x_plus_eps().eval(1)
    assert v == SIG2.one() + EPS
    assert v.inverse() == SIG2.one() - EPS


def test_eval_rejects_divisor_points():
    with pytest.raises(NotInvertible):
        RF.monic_linear(TRIV, 0).eval(0)
    with pytest.raises(NotInvertible):
        x_plus_eps().eval(0)  # perturbation pole at the root


def test_dlog_examples():
    assert dlog_value(RF.monic_linear(TRIV, 0), 2) == TRIV.scalar(Fraction(1, 2))
    f = RF.monic_linear(TRIV, 0) * RF.monic_linear(TRIV, 1).inverse()
    assert dlog_value(f, 2) == TRIV.scalar(Fraction(-1, 2))
    assert dlog_value(x_plus_eps(), 1) == SIG2.one() - EPS


def test_dlog_matches_finite_differences():
    rng = random.Random(67)
    f = (
        x_plus_eps()
        * RF.monic_linear(SIG2, 1).inverse()
        * RF.monic_linear(SIG2, gaussian(0, 1))
    )
    h = 1e-5
    for _ in range(10):
        z = complex(rng.uniform(2, 5), rng.uniform(1, 3))
        numeric = (f.eval(z + h) - f.eval(z - h)) * (1 / (2 * h)) * f.eval(z).inverse()
        assert deviation(numeric, dlog_value(f, z)) < 1e-6


@pytest.mark.parametrize("text", ["(x-1/3+eps)", "(x-1/3+eps)^-1", "(x-1+eps)*(x+2-eps)"])
def test_float_dlog_eval_matches_the_widened_exact_value(text):
    # f'/f is compiled once, exactly, as partial fractions at the roots of
    # f, which `float_dlog` widens and samples in complex arithmetic
    f = parse_ratfunc(text, SIG2)
    compiled = f.float_dlog
    assert [root for _, root, _ in compiled.poles] == f.roots()
    points = [gaussian(Fraction(1, 2), Fraction(1, 3)), gaussian(-3, 1), gaussian(Fraction(-1, 4)), gaussian(0, 2)]
    for z in points:
        exact = dlog_value(f, z)
        assert deviation(dlog_value(f, complex(z)), exact) <= 1e-13 * max(1.0, exact.widen().max_abs())


EPS_DELTA = parse_signature("gens=eps,delta;degree=3;scalars=exact")
ROOTS = ["0", "1", "-1/2", "2*i", "1/3-1/2*i", "-3/2+i"]
GENS = {SIG2: ["eps"], EPS_DELTA: ["eps", "delta", "eps*delta", "eps^2"]}


@st.composite
def functions_and_points(draw):
    """A product of shifted, plain and carrier factors and of polynomial
    parts from infinity, and an exact point off its roots."""
    sig = draw(st.sampled_from([SIG2, EPS_DELTA]))
    gen = st.sampled_from(GENS[sig])
    coeff = st.sampled_from(["1", "-2", "1/3", "i"])
    kinds = st.sampled_from(["shifted", "plain", "carrier", "polynomial"])
    factors = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        r, a, g = draw(st.sampled_from(ROOTS)), draw(coeff), draw(gen)
        if kind == "shifted":
            factors.append(f"(x-({r})+({a})*{g})^{draw(st.sampled_from([-2, -1, 1, 2]))}")
        elif kind == "plain":
            factors.append(f"(x-({r}))^{draw(st.sampled_from([-1, 1, 3]))}")
        elif kind == "carrier":
            factors.append(f"(x-({r})+({a})*{g})*(x-({r}))^-1")
        else:
            factors.append(f"(1+({a})*{g}*x^{draw(st.integers(1, 3))})")
    f = parse_ratfunc("*".join(factors), sig)
    z = gaussian(Fraction(draw(st.integers(-5, 5)), 4), Fraction(draw(st.integers(-5, 5)), 3))
    assume(z not in f.roots())
    return f, z


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(functions_and_points())
def test_partial_fractions_are_the_log_derivative_of_the_expansion(case):
    # f(z + x) = a0 + a1 x + O(x^2) exactly, so f'/f(z) = a1/a0 over Q(i)
    f, z = case
    series = f.expand_at(SpherePoint.finite(z), 2)
    assert dlog_value(f, z) == series.coeff(1) * series.coeff(0).inverse()


def test_support_examples():
    f = RF.monic_linear(TRIV, 0) * RF.monic_linear(TRIV, 1).inverse()
    g = RF.monic_linear(TRIV, 2)
    assert [str(s) for s in rf_support(f, g)] == ["0", "1", "2", "inf"]

    f2 = x_plus_eps()
    g2 = RF.monic_linear(SIG2, 1)
    assert [str(s) for s in rf_support(f2, g2)] == ["0", "1", "inf"]

    # degree-zero pair: infinity excluded
    h = RF.monic_linear(TRIV, 1) * RF.monic_linear(TRIV, 1).inverse()
    assert [str(s) for s in rf_support(h, h)] == ["1"]


def test_support_ordering():
    f = RF.monic_linear(TRIV, gaussian(0, 1)) * RF.monic_linear(TRIV, gaussian(0, -1))
    g = RF.monic_linear(TRIV, -1)
    pts = rf_support(f, g)
    assert [str(s) for s in pts] == ["-1", "-1*i", "1*i", "inf"]


def test_unbalanced_perturbation_involves_infinity():
    # 1 + eps*x has nilpotent data at infinity even though the reduction
    # is constant
    f = RF(SIG2, (), None, (SIG2.one(), EPS), (SIG2.one(),))
    assert f.pert_excess == 1
    assert f.involves_infinity()
    assert [str(s) for s in rf_support(f, RF.constant(SIG2, 1))] == ["inf"]


def test_validate_poles():
    good = x_plus_eps()
    good.validate_poles()
    # perturbation pole at 5 with no carrier root
    bad = RF(
        SIG2,
        (),
        None,
        (SIG2.scalar(-5) + EPS, SIG2.one()),
        (SIG2.scalar(-5), SIG2.one()),
    )
    with pytest.raises(InputError):
        bad.validate_poles()


def test_perturbation_reduction_must_match():
    with pytest.raises(InputError):
        RF(SIG2, (), None, (SIG2.one(), SIG2.one()), (SIG2.one(),))


def test_expand_geometric():
    f = RF.monic_linear(TRIV, 1) * RF.constant(TRIV, -1)  # 1 - x
    series = f.inverse().expand_at(SpherePoint.finite(0), 3)
    assert series.coeffs == {0: TRIV.one(), 1: TRIV.one(), 2: TRIV.one()}
    assert series.trunc == 3


def test_expand_at_infinity():
    series = RF.monic_linear(TRIV, 0).expand_at(SpherePoint.infinity(), 5)
    assert series.coeffs == {-1: TRIV.one()}
    f = x_plus_eps().expand_at(SpherePoint.infinity(), 5)
    assert f.coeffs == {-1: SIG2.one(), 0: EPS}


def test_expand_identity_with_shift():
    series = x_plus_eps().expand_at(SpherePoint.finite(0), 2)
    assert series.coeffs == {0: EPS, 1: SIG2.one()}
    assert series.valuation() == 1


def test_an_expansion_just_above_the_valuation_keeps_the_denominators_unit_term():
    # a product of five inverses: its perturbation's denominator vanishes at
    # 1/3 to order 5, past the first window, which used to cut it there
    f = power(parse_ratfunc("(x-1/3+eps)*(1+eps/(x-2))", SIG2), -5, RF.constant(SIG2, 1))
    s = SpherePoint.finite(Fraction(1, 3))
    nu = f.order_at(s)
    assert f.expand_at(s, nu + 1) == f.expand_at(s, nu + 8).truncate(nu + 1)


def test_degree_zero_divisor():
    rng = random.Random(71)
    roots = [gaussian(0), gaussian(1), gaussian(-1), gaussian(2), gaussian(0, 1)]
    for _ in range(15):
        f = RF.constant(SIG2, rng.choice([1, 2, -1]))
        for _ in range(rng.randint(1, 3)):
            root = rng.choice(roots)
            mult = rng.choice([-2, -1, 1, 2])
            shift = EPS * rng.randint(0, 1)
            f = f * RF.monic_linear(SIG2, root, shift=shift) ** mult
        total = 0
        for s in rf_support(f, f):
            total += f.expand_at(s, 9).valuation()
        assert total == 0


def test_local_global_consistency():
    # summing the local series at s + h approaches the evaluation there
    f = (
        x_plus_eps()
        * RF.monic_linear(SIG2, 2).inverse()
        * RF.monic_linear(SIG2, -1)
    )
    s = SpherePoint.finite(0)
    h = Fraction(1, 8)
    target = f.eval(h)
    devs = []
    for T in (4, 8, 12):
        series = f.expand_at(s, T)
        acc = SIG2.zero()
        for e, c in series.coeffs.items():
            acc = acc + c * SIG2.scalar(gaussian(h)) ** e
        devs.append(deviation(acc, target))
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] < 1e-9


def test_products_and_powers():
    f = RF.monic_linear(TRIV, 0) ** 2 * RF.monic_linear(TRIV, 3).inverse()
    assert f.total_degree == 1
    assert f.eval(1) == TRIV.scalar(Fraction(-1, 2))
    nets = dict(f.base_factors)
    assert nets[gaussian(0)] == 2 and nets[gaussian(3)] == -1


def test_monic_linear_rejects_unit_shift():
    with pytest.raises(InputError):
        RF.monic_linear(SIG2, 0, shift=SIG2.one())


def test_plain_factors_carry_no_perturbation():
    one = SIG2.one()
    plain = RF(SIG2, ((gaussian(1), 1),), None, (-one, one), (-one, one))
    for f in (plain, parse_ratfunc("(x-1/3)", SIG2), parse_ratfunc("(2*x+1)^3*(x-1/3)^-5", SIG2)):
        assert f.pert_num == f.pert_den == (one,)
        assert "[pert]" not in str(f)
    shifted = parse_ratfunc("(x-1/2+1/3*eps)", SIG2)
    assert shifted.pert_num == (SIG2.scalar(-3) + EPS * 2, SIG2.scalar(6))
    assert shifted.pert_den == (SIG2.scalar(-3), SIG2.scalar(6))


SIG3 = parse_signature("gens=eps,delta;degree=3;scalars=exact")


@pytest.mark.parametrize(
    "sig, text",
    [
        (SIG2, "(x-1/3+eps)*(1+eps/(x-2))"),
        (SIG2, "(x+eps*x^2)*(x-1+i)^-1"),
        (SIG3, "(x-1/2+eps+delta)*(1+eps*delta/(x-2))*(x-i)"),
        (SIG3, "(2-i)*(x+eps*x^2)*(x-1/2+delta)^-1"),
    ],
)
def test_powers_match_the_product_oracle(sig, text):
    # f ** n takes the binomial sum on the factored form; the oracle
    # scalars.power multiplies through __mul__
    f = parse_ratfunc(text, sig)
    points = [gaussian(Fraction(5, 2), Fraction(1, 3)), gaussian(-3, 1), gaussian(Fraction(-1, 4))]
    for n in range(-5, 6):
        fast, slow = f ** n, power(f, n, RF.constant(sig, 1))
        assert dict(fast.base_factors) == {r: m for r, m in slow.base_factors}
        assert rf_support(fast, fast) == rf_support(slow, slow)
        for z in points:
            assert fast.eval(z) == slow.eval(z)
            assert dlog_value(fast, z) == dlog_value(slow, z)
        for s in rf_support(fast, fast):
            nu = -fast.total_degree if s.is_infinite else dict(fast.base_factors).get(s.value, 0)
            assert fast.expand_at(s, max(nu, 0) + 4) == slow.expand_at(s, max(nu, 0) + 4)
        # the binomial sum ends at K = min(|n|, N-1): degree at most K times f's
        K = min(abs(n), sig.truncation_degree - 1)
        assert len(fast.pert_num) - 1 <= K * max(len(f.pert_num) - 1, len(f.pert_den) - 1)
        assert len(fast.pert_den) - 1 <= K * max(len(f.pert_num) - 1, len(f.pert_den) - 1)


def test_one_entry_per_root():
    f = parse_ratfunc("(x-1/3)^-4096", SIG2)
    assert f.base_factors == ((gaussian(Fraction(1, 3)), -4096),)
    assert len(str(f)) < 40
    # merged, sorted as sphere points, a net multiplicity of 0 kept as a carrier
    g = parse_ratfunc("(x-2)*x*(x-i)*(x-2)^-1*x", SIG2)
    assert g.base_factors == ((gaussian(0), 2), (gaussian(0, 1), 1), (gaussian(2), 0))


def test_products_of_plain_factors_commute_structurally():
    factors = [parse_ratfunc(t, SIG2) for t in ("(x-1/3)", "x^2", "(2*x+i)^-1", "(x-1)^3", "(1-x)")]
    for f in factors:
        for g in factors:
            assert f * g == g * f


def test_truncation_at_or_below_the_valuation_names_the_needed_truncation():
    f = parse_ratfunc("x^20*(x-1)^-3", SIG2)
    with pytest.raises(InsufficientTruncation, match="at least 21"):
        f.expand_at(SpherePoint.finite(0), 20)
    assert f.expand_at(SpherePoint.finite(0), 21).valuation() == 20
    with pytest.raises(InsufficientTruncation, match="at least -16"):
        f.expand_at(SpherePoint.infinity(), -17)
    # a window that ends below x^0 keeps the scale and the unit parts of the factors
    assert f.expand_at(SpherePoint.infinity(), -16) == LaurentSeries.monomial(SIG2, -17, trunc=-16)


def test_a_trivial_perturbation_takes_no_polynomial_product(monkeypatch):
    plain, shifted = parse_ratfunc("2*(x-1/3)^2", SIG2), parse_ratfunc("(x-1+eps)", SIG2)
    expected = [shifted * plain, plain * shifted, plain * plain]
    calls = []
    mul = ratfunc.poly_mul
    monkeypatch.setattr(ratfunc, "poly_mul", lambda *args: calls.append(args) or mul(*args))
    assert [shifted * plain, plain * shifted, plain * plain] == expected and not calls
    assert (shifted * shifted).pert_num == tuple(ratfunc.poly_mul(shifted.pert_num, shifted.pert_num, SIG2))
    assert calls


def test_a_function_over_a_float_signature_is_an_input_error():
    # coefficients are exact; forms and complex points read the widened `float_dlog`
    float_sig = SIG2.to_float()
    for build in (lambda: RF(float_sig), lambda: RF.constant(float_sig, 2), lambda: RF.monic_linear(float_sig, 1)):
        with pytest.raises(InputError, match="exact coefficients"):
            build()


def test_pole_order_of_the_perturbation():
    f = parse_ratfunc("(x-1/3+eps)^-1*(x-1/3+eps/2)^-1*(x-2)*(1+eps/(x-2))", SIG2)
    assert [f.pole_order(SpherePoint.finite(r)) for r in (Fraction(1, 3), 2, 0)] == [2, 1, 0]
    assert f.pole_order(SpherePoint.infinity()) == 0
    unbalanced = RF(SIG2, ((gaussian(1), 1),), None, (SIG2.one(), EPS), (SIG2.one(),))  # (x-1)(1+eps x)
    assert unbalanced.pole_order(SpherePoint.infinity()) == unbalanced.pert_excess == 1


@pytest.mark.parametrize("sig", [SIG2, parse_signature("gens=eps,delta;degree=3;scalars=exact")], ids=str)
def test_the_first_expansion_window_suffices_on_bench_shaped_inputs(sig, monkeypatch):
    # the window starts twice the perturbation's pole order past the
    # requested truncation, which is as far as inverting its denominator erodes
    calls = {"expand_at": 0, "_expand_window": 0}
    for name in calls:
        method = getattr(RF, name)
        monkeypatch.setattr(RF, name, lambda *a, _m=method, _n=name: calls.__setitem__(_n, calls[_n] + 1) or _m(*a))
    rng = random.Random(f"weil windows {sig}")
    for k in range(10):
        f, g = (parse_ratfunc(text, sig) for text in bench_weil_texts(rng, sig.generators, k % 2))
        assert len(local_symbols(f, g, rf_support(f, g), 10 + k % 5)) == len(rf_support(f, g))
    assert calls["expand_at"] > 40 and calls["_expand_window"] == calls["expand_at"]
