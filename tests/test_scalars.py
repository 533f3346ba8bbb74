"""The exact scalars of ccsym.scalars against the Fraction-pair oracle, and
the shared ring primitives (`power`, `geometric`, `poly_eval`) on every
ring type, checked against the dense oracles."""

import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ccsym import algebra, laurent, scalars
from ccsym.algebra import AlgebraElement, deviation, parse_signature
from ccsym.errors import InputError, InsufficientTruncation
from ccsym.laurent import LaurentSeries
from ccsym.scalars import GR_ONE, GaussianRational, gaussian, geometric, poly_eval, power

from conftest import (
    OracleGaussian,
    agrees_with,
    oracle_alg_mul,
    oracle_series_inverse,
    oracle_series_mul,
    random_element,
    random_gaussian,
    random_invertible_series,
)

SIG2 = parse_signature("gens=eps;degree=2;scalars=exact")
SIG3 = parse_signature("gens=eps,delta;degree=3;scalars=exact")
SIG4 = parse_signature("gens=eps;degree=4;scalars=exact")
EXPONENTS = list(range(10)) + [-1, -2, -3]


def oracle_alg_power(coeffs: dict, n: int, sig) -> dict:
    one = {sig.empty_monomial(): GR_ONE}
    return reduce(lambda acc, _: oracle_alg_mul(acc, coeffs, sig.truncation_degree), range(n), one)


def oracle_series_power(coeffs: dict, n: int, sig) -> dict:
    return reduce(lambda acc, _: oracle_series_mul(acc, coeffs, sig), range(n), {0: sig.one()})


def below(coeffs: dict, trunc) -> dict:
    return {e: c for e, c in coeffs.items() if e < trunc}


# -- GaussianRational against the Fraction-pair oracle ------------------------------

HUGE = 10 ** 320  # past the largest double, about 1.8e308
FRACTIONS = st.builds(Fraction, st.integers(-40, 40) | st.integers(-HUGE, HUGE),
                      st.integers(1, 40) | st.integers(1, HUGE))
PAIRS = st.builds(lambda re, im: (gaussian(re, im), OracleGaussian(re, im)),
                  FRACTIONS, FRACTIONS | st.just(Fraction(0)))


def outcome(op, *args):
    """op(*args), or the class and message of the exception it raises."""
    try:
        value = op(*args)
    except (ZeroDivisionError, InputError) as exc:
        return type(exc), str(exc)
    if isinstance(value, GaussianRational):
        # the stored form is the lowest-terms one over a positive denominator
        assert value.d > 0 and math.gcd(value.p, value.q, value.d) == 1
    return (value.re, value.im) if isinstance(value, (GaussianRational, OracleGaussian)) else value


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(PAIRS, PAIRS, st.integers(-4, 4))
def test_gaussian_rational_is_the_fraction_pair_oracle(x, y, n):
    (a, a_ref), (b, b_ref) = x, y
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert outcome(op, a, b) == outcome(op, a_ref, b_ref)
    for z, z_ref in ((a, a_ref), (b, b_ref), (a - a, a_ref - a_ref)):
        assert outcome(operator.neg, z) == outcome(operator.neg, z_ref)
        assert outcome(GaussianRational.inverse, z) == outcome(OracleGaussian.inverse, z_ref)
        assert outcome(bool, z) == outcome(bool, z_ref)
        assert outcome(str, z) == outcome(str, z_ref)
        assert outcome(complex, z) == outcome(complex, z_ref)
        assert (z.re, z.im) == (z_ref.re, z_ref.im)
        if max(abs(z_ref.re), abs(z_ref.im)) < 10 ** 12:
            assert outcome(operator.pow, z, n) == outcome(operator.pow, z_ref, n)
    assert (a == b) == (a_ref == b_ref) and a == gaussian(a_ref.re, a_ref.im)
    same = (a * b) / b if b else a  # equal to a by another route
    assert same == a and hash(same) == hash(a)


def test_gaussian_rational_edges():
    assert gaussian(0) == GaussianRational._make(0, 0, 7) and str(gaussian(0)) == "0"
    assert gaussian(2, -4) == GaussianRational._make(6, -12, 3) == gaussian(Fraction(4, 2), Fraction(-8, 2))
    assert gaussian(Fraction(1, 6), Fraction(1, 4)) == GaussianRational(2, 3, 12)
    assert GaussianRational(1, 0, 3) != Fraction(1, 3) and gaussian(1) != 1
    with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
        gaussian(0) ** -1
    with pytest.raises(InputError, match=f"a number of {(10 ** 321 // 3).bit_length()} bits is too large for a float"):
        complex(gaussian(Fraction(10 ** 321, 3), 1))


@pytest.mark.parametrize("other", [2, Fraction(1, 2), 0.5])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_gaussian_rational_arithmetic_refuses_other_number_types(op, other):
    # as ==, every operator returns NotImplemented for a non-GaussianRational,
    # so Python raises TypeError on either side rather than an internal error
    with pytest.raises(TypeError):
        op(gaussian(1), other)
    with pytest.raises(TypeError):
        op(other, gaussian(1))


def test_exact_elements_build_and_read_back_without_fractions(monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    for module in (algebra, scalars):
        monkeypatch.setattr(module, "Fraction", NoFraction)
    one_third = GaussianRational._make(1, 0, 3)
    a = SIG3.element({(0, 0): gaussian(2, -1), (1, 0): one_third, (0, 2): GaussianRational._make(1, 1, 2)})
    b = SIG3.scalar(3) + SIG3.gen("delta")
    for x in (a, b, a * b, a.inverse(), SIG3.gen("eps")):
        assert all(type(c) is GaussianRational for c in x.coeffs.values())
        assert type(x.reduce()) is GaussianRational
    assert a.reduce() == gaussian(2, -1) and (a * b).reduce() == gaussian(6, -3) and SIG3.gen("eps").reduce() == gaussian(0)
    assert (a * b).coeffs[(1, 0)] == GaussianRational(1, 0, 1)


def test_power_helper_matches_repeated_multiplication():
    rng = random.Random(101)
    for _ in range(10):
        x = random_gaussian(rng)
        for n in range(10):
            assert power(x, n, GR_ONE) == reduce(lambda acc, _: acc * x, range(n), GR_ONE)


def test_gaussian_powers():
    rng = random.Random(103)
    for _ in range(10):
        x = random_gaussian(rng)
        while not x:
            x = random_gaussian(rng)
        for n in EXPONENTS:
            base = x if n >= 0 else GR_ONE / x
            assert x ** n == reduce(lambda acc, _: acc * base, range(abs(n)), GR_ONE)


@pytest.mark.parametrize("sig", [SIG2, SIG3, SIG4])
def test_exact_element_powers_against_oracle(sig):
    rng = random.Random(107)
    for _ in range(4):
        x = random_element(rng, sig, unit=True)
        inv = x.inverse()
        for n in EXPONENTS:
            base = x if n >= 0 else inv
            assert (x ** n).coeffs == oracle_alg_power(base.coeffs, abs(n), sig)


@pytest.mark.parametrize("sig", [SIG2, SIG3, SIG4])
def test_float_element_powers_match_exact(sig):
    rng = random.Random(109)
    for _ in range(4):
        x = random_element(rng, sig, unit=True)
        xf = x.widen()
        for n in EXPONENTS:
            exact = (x ** n).widen()
            assert deviation(xf ** n, exact) <= 1e-12 * max(1.0, exact.max_abs())


@pytest.mark.parametrize("sig", [SIG2, SIG3, SIG4])
def test_exact_inverse_is_exact(sig):
    rng = random.Random(113)
    for _ in range(20):
        x = random_element(rng, sig, unit=True)
        assert x * x.inverse() == sig.one()
        assert oracle_alg_mul(x.coeffs, x.inverse().coeffs, sig.truncation_degree) == {
            sig.empty_monomial(): GR_ONE
        }


@pytest.mark.parametrize("sig", [SIG2, SIG3])
def test_truncated_series_powers_against_oracle(sig):
    rng = random.Random(127)
    for _ in range(3):
        f = random_invertible_series(rng, sig, trunc=6)
        inv = f.inverse()
        assert agrees_with(f * inv, LaurentSeries.one(sig))
        for n in EXPONENTS:
            p = f ** n
            base = f if n >= 0 else inv
            assert p.coeffs == below(oracle_series_power(base.coeffs, abs(n), sig), p.trunc)


def test_unit_binomial_inverse_with_positive_exponent():
    # (1 - a x^j)^{-1} for a unit a: sum_k a^k x^{jk} below the truncation
    rng = random.Random(131)
    for j in (1, 2, 3):
        a = random_element(rng, SIG3, unit=True)
        trunc = 10
        binomial = LaurentSeries(SIG3, {0: SIG3.one(), j: -a}, trunc)
        expected = {j * k: a ** k for k in range(math.ceil(trunc / j))}
        expected[0] = SIG3.one()
        inv = binomial.inverse()
        assert inv.coeffs == expected
        assert below(oracle_series_mul(binomial.coeffs, inv.coeffs, SIG3), trunc) == {0: SIG3.one()}


def test_nilpotent_binomial_inverse_with_negative_exponent():
    # (1 - a x^j)^{-1} for a nilpotent a and j < 0 is a finite Laurent
    # polynomial, exact at infinite truncation
    rng = random.Random(137)
    for j in (-1, -2):
        a = random_element(rng, SIG4, unit=False)
        while a.is_zero():
            a = random_element(rng, SIG4, unit=False)
        binomial = LaurentSeries(SIG4, {0: SIG4.one(), j: -a})
        inv = binomial.inverse()
        assert math.isinf(inv.trunc)
        assert oracle_series_mul(binomial.coeffs, inv.coeffs, SIG4) == {0: SIG4.one()}
        direct = geometric(LaurentSeries(SIG4, {j: a}), LaurentSeries.one(SIG4), 4)
        assert direct == inv


def test_geometric_stops_at_zero_power():
    eps = SIG4.gen("eps")
    # eps^4 = 0, so asking for more terms changes nothing
    assert geometric(eps, SIG4.one(), 50) == SIG4.one() + eps + eps * eps + eps * eps * eps


def test_geometric_never_multiplies_by_one(monkeypatch):
    # the powers start from u: 1 + u + u^2 + u^3 takes the products u * u
    # and u^2 * u, and with more terms one more, to the power that is zero
    eps, one = SIG4.gen("eps"), SIG4.one()
    eps2, eps3 = eps * eps, eps * eps * eps
    operands = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(AlgebraElement, "__mul__", lambda a, b: operands.append((a, b)) or mul(a, b))
    geometric(eps, one, 4)
    assert operands == [(eps, eps), (eps2, eps)]
    operands.clear()
    geometric(eps, one, 50)
    assert operands == [(eps, eps), (eps2, eps), (eps3, eps)]


def test_power_never_multiplies_by_one(monkeypatch):
    # the product starts from x at the lowest set bit: x^5 takes x * x,
    # x^2 * x^2 and x * x^4, and x^1 and x^0 take none
    x = SIG4.one() + SIG4.gen("eps")
    x2 = x * x
    x4 = x2 * x2
    f = LaurentSeries(SIG4, {0: x, 1: x2}, 6)
    f2 = f * f
    operands = []
    for cls in (AlgebraElement, LaurentSeries):
        mul = cls.__mul__
        monkeypatch.setattr(cls, "__mul__", lambda a, b, mul=mul: operands.append((a, b)) or mul(a, b))
    x5 = x ** 5
    assert operands == [(x, x), (x2, x2), (x, x4)]
    assert x5 == x * x4
    operands.clear()
    assert x ** 1 is x and x ** 0 == SIG4.one() and not operands
    f3 = f ** 3
    assert [pair for pair in operands if isinstance(pair[0], LaurentSeries)] == [(f, f), (f, f2)]
    assert f3 == f * f2


def test_poly_eval_on_elements_and_series():
    rng = random.Random(139)
    coeffs = [random_element(rng, SIG3) for _ in range(4)]
    z = random_element(rng, SIG3)
    direct = reduce(lambda acc, k: acc + coeffs[k] * z ** k, range(4), SIG3.zero())
    assert poly_eval(coeffs, z, SIG3.zero()) == direct
    x = LaurentSeries(SIG3, {0: z, 1: SIG3.one()})
    series = poly_eval(coeffs, x, LaurentSeries.zero(SIG3))
    expected = {}
    for k, c in enumerate(coeffs):
        for e, v in oracle_series_power(x.coeffs, k, SIG3).items():
            expected[e] = expected.get(e, SIG3.zero()) + v * c
    assert series.coeffs == {e: v for e, v in expected.items() if not v.is_zero()}


def test_poly_eval_never_multiplies_by_zero(monkeypatch):
    # Horner starts from zero plus the top coefficient: a degree-d
    # polynomial takes d products, a constant none
    coeffs = [SIG3.one(), SIG3.gen("eps"), SIG3.scalar(2)]
    x = LaurentSeries(SIG3, {0: SIG3.scalar(3), 1: SIG3.one()})
    operands = []
    for cls in (AlgebraElement, LaurentSeries):
        mul = cls.__mul__
        monkeypatch.setattr(cls, "__mul__", lambda a, b, mul=mul: operands.append((a, b)) or mul(a, b))
    for z, zero in ((SIG3.gen("delta"), SIG3.zero()), (x, LaurentSeries.zero(SIG3))):
        operands.clear()
        value = poly_eval(coeffs, z, zero)
        assert len(operands) == 2 and not any(a == zero for a, _ in operands)
        assert value == (z * coeffs[2] + coeffs[1]) * z + coeffs[0]
        assert poly_eval(coeffs[:1], z, zero) == zero + coeffs[0] and poly_eval([], z, zero) == zero


def test_non_integer_powers_are_rejected():
    with pytest.raises(TypeError):
        SIG2.gen("eps") ** 1.5
    with pytest.raises(TypeError):
        LaurentSeries.one(SIG2) ** 0.5


def test_float_series_inverse_with_rounding_residue():
    # (3+i) * (3+i)^-1 - 1 is a few ulps, not 0: the long division over A
    # must not let that residue grow over the orders below the truncation
    sig = parse_signature("gens=eps;degree=2;scalars=float")
    f = LaurentSeries(sig, {0: sig.scalar(3 + 1j), 1: sig.one(), 3: sig.gen("eps")}, 9)
    product = f * f.inverse()
    assert product.trunc == 9
    assert deviation(product.coeff(0), sig.one()) < 1e-15
    assert max(deviation(product.coeff(e), sig.zero()) for e in range(1, 9)) < 1e-15


def count_series_products(monkeypatch) -> list:
    """A list that gains an entry at every `LaurentSeries.__mul__` call."""
    products = []
    mul = LaurentSeries.__mul__
    monkeypatch.setattr(LaurentSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    return products


def test_float_series_inverse_ignores_rounding_residue(monkeypatch):
    # a reciprocal that rounds (of 3+i) must not lengthen the correction
    # for the sub-valuation tail: a leading coefficient 3+i costs as many
    # series products as 2 does
    sig = parse_signature("gens=eps;degree=2;scalars=float")
    eps = sig.gen("eps")
    products = count_series_products(monkeypatch)
    counts = []
    for lead in (2, 3 + 1j):
        products.clear()
        LaurentSeries(sig, {-1: eps, 0: sig.scalar(lead), 1: sig.one(), 3: eps}, 9).inverse()
        counts.append(len(products))
    assert counts[0] == counts[1]


def test_series_inverse_with_nothing_to_correct_takes_no_series_product(monkeypatch):
    # with no term below the valuation and a unit above it, or with one
    # term alone, the divisor is the whole series: long division is all
    eps, scalar = SIG3.gen("eps"), SIG3.scalar
    cases = [
        LaurentSeries(SIG3, {0: scalar(2), 1: scalar(1), 3: eps}, 9),
        LaurentSeries(SIG3, {1: scalar(3), 2: eps, 4: scalar(1)}, 12),
        LaurentSeries(SIG3, {-2: eps + scalar(Fraction(1, 2))}, 9),
        LaurentSeries(SIG3, {-2: eps + scalar(Fraction(1, 2))}),
    ]
    products = count_series_products(monkeypatch)
    for f in cases:
        f.inverse()
    assert products == []


def test_series_inverse_term_cap(monkeypatch):
    # 1/(1+x) below x^T takes T terms of the long division over A
    monkeypatch.setattr(laurent, "_TERM_CAP", 5)
    triv = parse_signature("gens=;degree=1;scalars=exact")
    one_plus_x = {0: triv.one(), 1: triv.one()}
    assert LaurentSeries(triv, one_plus_x, 5).inverse().support() == [0, 1, 2, 3, 4]
    with pytest.raises(InsufficientTruncation):
        LaurentSeries(triv, one_plus_x, 6).inverse()


def test_series_with_two_unit_terms_needs_a_finite_truncation():
    triv = parse_signature("gens=;degree=1;scalars=exact")
    with pytest.raises(InsufficientTruncation, match="more than one unit term needs a finite truncation order"):
        LaurentSeries(triv, {0: triv.one(), 1: triv.one()}).inverse()


@pytest.mark.parametrize("text", ["gens=eps;degree=2", "gens=eps;degree=3", "gens=eps,delta;degree=3"])
def test_series_inverse_is_the_two_stage_inverse(text):
    # equal coefficients and truncation orders: the random series, then
    # each with its terms above the valuation cut to their nilpotent
    # parts, which leaves the lead alone as the divisor, at its own
    # truncation order and at inf
    sig = parse_signature(text)
    rng = random.Random(151)
    tails = set()
    for trunc in range(3, 15):
        for _ in range(6):
            f = random_invertible_series(rng, sig, trunc)
            nu = f.valuation()
            tails.add(f.lower_bound < nu)
            nilpotent_above = {e: c if e <= nu else c.nilpotent_part() for e, c in f.coeffs.items()}
            for g in (f, LaurentSeries(sig, nilpotent_above, trunc), LaurentSeries(sig, nilpotent_above)):
                assert g.inverse() == oracle_series_inverse(g), g
    assert tails == {True, False}


def test_series_inverse_edge_cases_against_the_two_stage_inverse():
    eps, one = SIG2.gen("eps"), SIG2.one()
    one_plus_eps_x = LaurentSeries(SIG2, {0: one, 1: eps})  # nilpotent above nu, at inf
    assert one_plus_eps_x.inverse() == LaurentSeries(SIG2, {0: one, 1: -eps}) == oracle_series_inverse(one_plus_eps_x)
    # one term at a truncation order far past the term cap: no long division
    half = LaurentSeries(SIG2, {-2: SIG2.scalar(Fraction(1, 2))}, 20_000)
    assert half.inverse() == oracle_series_inverse(half)
    assert str(half.inverse()) == "2*x^2+O(x^20004)"


def widened_inverse_agrees(f: LaurentSeries, rng: random.Random) -> bool:
    """Whether f's inverse agrees, below its truncation order, with the
    inverse of f known six orders further (a random tail from rng), and
    that inverse is known at least as far."""
    sig = f.signature
    tail = {f.trunc + k: random_element(rng, sig) for k in range(6)}
    g, wide = f.inverse(), LaurentSeries(sig, {**f.coeffs, **tail}, f.trunc + 6).inverse()
    return wide.trunc >= g.trunc and agrees_with(g, wide)


@pytest.mark.parametrize("text", ["gens=eps;degree=3", "gens=eps,delta;degree=3", "gens=eps;degree=4"])
def test_series_inverse_claims_only_coefficients_a_wider_series_confirms(text):
    # the m-adic correction's powers start from an untruncated 1, since its
    # truncation order can be at most 0, and a power zero only below its
    # truncation order still counts: its successors lower that order
    sig = parse_signature(text)
    for seed in range(5):
        rng = random.Random(seed)
        for trunc in range(2, 11):
            f = random_invertible_series(rng, sig, trunc)
            if any(c.is_unit() for c in f.coeffs.values()):  # the unit lead may lie past trunc
                assert widened_inverse_agrees(f, rng), (seed, trunc, f)


# the inverse truncation orders at truncations 4..12; each inverse agrees
# with the inverse of its series known six orders further
PINNED_INVERSE_TRUNCS = {
    SIG2: [7, 1, 6, 5, 11, 9, 12, 7, 12],
    SIG3: [6, 9, 8, 9, 2, 11, 6, 13, 16],
}


@pytest.mark.parametrize("sig", [SIG2, SIG3])
def test_series_inverse_by_long_division_against_oracle(sig):
    rng = random.Random(149)
    truncs = []
    for trunc in range(4, 13):
        f = random_invertible_series(rng, sig, trunc)
        g = f.inverse()
        # below the product's truncation order, f * g is exactly 1
        window = min(f.trunc + g.lower_bound, g.trunc + f.lower_bound)
        assert below(oracle_series_mul(f.coeffs, g.coeffs, sig), window) == below({0: sig.one()}, window)
        assert widened_inverse_agrees(f, random.Random(trunc))
        truncs.append(g.trunc)
    assert truncs == PINNED_INVERSE_TRUNCS[sig]
