"""The shared ring primitives in ccsym.scalars (`power`, `geometric`,
`poly_eval`) on every ring type, checked against the dense oracles."""

import math
import random
from functools import reduce

import pytest

from ccsym import laurent
from ccsym.algebra import deviation, parse_signature
from ccsym.errors import InsufficientTruncation
from ccsym.laurent import LaurentSeries
from ccsym.scalars import GR_ONE, geometric, poly_eval, power

from conftest import (
    oracle_alg_mul,
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
        assert (f * inv).agrees_with(LaurentSeries.one(sig))
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


def test_non_integer_powers_are_rejected():
    with pytest.raises(TypeError):
        SIG2.gen("eps") ** 1.5
    with pytest.raises(TypeError):
        LaurentSeries.one(SIG2) ** 0.5


def test_float_series_inverse_with_rounding_residue():
    # (3+i) * (3+i)^-1 - 1 is a few ulps, not 0, so lb(t) = 0 and the
    # stage-1 sum runs until the powers of that residue underflow to 0
    sig = parse_signature("gens=eps;degree=2;scalars=float")
    f = LaurentSeries(sig, {0: sig.scalar(3 + 1j), 1: sig.one(), 3: sig.gen("eps")}, 9)
    product = f * f.inverse()
    assert product.trunc == 9
    assert deviation(product.coeff(0), sig.one()) < 1e-15
    assert max(deviation(product.coeff(e), sig.zero()) for e in range(1, 9)) < 1e-15


def test_float_series_inverse_ignores_rounding_residue(monkeypatch):
    # a reciprocal that rounds (of 3+i) must not lengthen the inverse: a
    # leading coefficient 3+i costs as many series products as 2 does
    sig = parse_signature("gens=eps;degree=2;scalars=float")
    products = []
    mul = LaurentSeries.__mul__
    monkeypatch.setattr(LaurentSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    counts = []
    for lead in (2, 3 + 1j):
        products.clear()
        LaurentSeries(sig, {0: sig.scalar(lead), 1: sig.one(), 3: sig.gen("eps")}, 9).inverse()
        counts.append(len(products))
    assert counts == [3, 3]


def test_series_inverse_term_cap(monkeypatch):
    # 1/(1+x) below x^T takes T terms of the stage-1 long division
    monkeypatch.setattr(laurent, "_TERM_CAP", 5)
    triv = parse_signature("gens=;degree=1;scalars=exact")
    one_plus_x = {0: triv.one(), 1: triv.one()}
    assert LaurentSeries(triv, one_plus_x, 5).inverse().support() == [0, 1, 2, 3, 4]
    with pytest.raises(InsufficientTruncation):
        LaurentSeries(triv, one_plus_x, 6).inverse()


# the inverse truncation orders at truncations 4..12, as the geometric-sum
# inverse computed them before long division replaced it
PINNED_INVERSE_TRUNCS = {
    SIG2: [6, -1, 6, 5, 10, 9, 12, 7, 12],
    SIG3: [5, 9, 8, 9, 1, 11, 5, 13, 16],
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
        truncs.append(g.trunc)
    assert truncs == PINNED_INVERSE_TRUNCS[sig]
