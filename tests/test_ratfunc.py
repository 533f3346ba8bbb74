import random
from fractions import Fraction

import pytest

from ccsym.algebra import deviation, parse_signature
from ccsym.errors import InputError, InsufficientTruncation, NotInvertible
from ccsym.parsing import parse_ratfunc
from ccsym.ratfunc import RationalFunctionA as RF, SpherePoint, rf_support
from ccsym.scalars import gaussian, power

from conftest import dlog_value

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
