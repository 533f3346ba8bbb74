import math
import random
from fractions import Fraction

import pytest

from ccsym import cli
from ccsym.algebra import deviation, parse_signature
from ccsym.errors import CcsymError, InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from ccsym.laurent import CanonicalFactorization, LaurentSeries, factorize
from ccsym.parsing import parse_series
from ccsym.ratfunc import poly_mul, poly_trim

from conftest import agrees_with, oracle_factorize, oracle_series_mul, random_invertible_series, reconstruct

SIG2 = parse_signature("gens=eps;degree=2;scalars=exact")
SIG3 = parse_signature("gens=eps,delta;degree=3;scalars=exact")
TRIV = parse_signature("gens=;degree=1;scalars=exact")
EPS3 = parse_signature("gens=eps;degree=3;scalars=exact")
EPS5 = parse_signature("gens=eps;degree=5;scalars=exact")


def x_series(sig, trunc=math.inf):
    return LaurentSeries.monomial(sig, 1, trunc=trunc)


def test_mul_basics():
    x = x_series(TRIV)
    assert x * x.inverse() == LaurentSeries.one(TRIV)
    geom = LaurentSeries(TRIV, {k: TRIV.one() for k in range(12)}, 12)
    one_minus_x = LaurentSeries.one(TRIV) - x
    prod = one_minus_x * geom
    assert agrees_with(prod, LaurentSeries.one(TRIV, 12))


def test_mul_nilpotent_cancellation():
    # (x + eps)(x - eps) = x^2 when eps^2 = 0
    eps = SIG2.gen("eps")
    f = x_series(SIG2) + LaurentSeries(SIG2, {0: eps})
    g = x_series(SIG2) - LaurentSeries(SIG2, {0: eps})
    expected = oracle_series_mul(f.coeffs, g.coeffs, SIG2)
    assert (f * g).coeffs == expected
    assert (f * g).coeffs == {2: SIG2.one()}


def test_exact_products_equal_the_sum_of_pair_products():
    # coefficients accumulate on Gaussian integers over one lcm denominator;
    # float series round once per coefficient, and polynomials share the sum
    rng = random.Random(7)
    for sig in (SIG2, SIG3):
        for _ in range(30):
            f, g = (random_invertible_series(rng, sig, math.inf, max_terms=5) for _ in range(2))
            expected = oracle_series_mul(f.coeffs, g.coeffs, sig)
            assert (f * g).coeffs == expected
            wide, exact = f.widen() * g.widen(), LaurentSeries(sig, expected).widen()
            scale = max(c.max_abs() for c in exact.coeffs.values())
            for e in wide.coeffs.keys() | exact.coeffs.keys():
                assert deviation(wide.coeff(e), exact.coeff(e)) <= 1e-13 * scale
            # the exponents lie in -4..5: coefficient lists from x^-4 on
            p, q = ([s.coeffs.get(e, sig.zero()) for e in range(-4, 6)] for s in (f, g))
            assert poly_mul(p, q, sig) == poly_trim([expected.get(k - 8, sig.zero()) for k in range(19)])


@pytest.mark.parametrize("sig", [SIG2, SIG3, SIG3.to_float()], ids=str)
def test_derivative_scales_by_the_exponent(sig):
    rng = random.Random(f"derivative:{sig}")
    for _ in range(30):
        f = random_invertible_series(rng, SIG3 if sig is not SIG2 else SIG2, 9)
        f = f.widen() if sig.backend.value == "float" else f
        d = f.derivative()
        assert d == LaurentSeries(sig, {e - 1: c * e for e, c in f.coeffs.items() if e}, f.trunc - 1)


def test_scaling_by_zero_is_zero_at_every_exponent():
    f = LaurentSeries(SIG2, {-1: SIG2.gen("eps"), 0: SIG2.one()}, 5)
    assert f.scale(SIG2.zero()) == f * LaurentSeries.zero(SIG2) == LaurentSeries.zero(SIG2)
    assert f.scale(SIG2.scalar(2)).trunc == 5


def test_mul_truncation_bookkeeping():
    f = LaurentSeries(SIG2, {-1: SIG2.one()}, trunc=5)  # x^-1 known below x^5
    g = LaurentSeries(SIG2, {2: SIG2.one()}, trunc=7)
    assert (f * g).trunc == min(5 + 2, 7 - 1)
    assert (f + g).trunc == 5


def test_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        x_series(SIG2) * x_series(TRIV)


def test_invert_examples():
    x = x_series(TRIV)
    assert x.inverse().coeffs == {-1: TRIV.one()}
    inv = (LaurentSeries.one(TRIV) - x).truncate(9).inverse()
    assert inv.coeffs == {k: TRIV.one() for k in range(9)}
    # invert(x + eps) = x^-1 - eps x^-2
    eps = SIG2.gen("eps")
    f = (x_series(SIG2) + LaurentSeries(SIG2, {0: eps})).truncate(8)
    fi = f.inverse()
    assert fi.coeffs == {-1: SIG2.one(), -2: -eps}
    assert agrees_with(f * fi, LaurentSeries.one(SIG2, (f * fi).trunc))


def test_invert_rejects_all_nilpotent():
    eps = SIG2.gen("eps")
    with pytest.raises(NotInvertible):
        LaurentSeries(SIG2, {0: eps, 3: eps}, 8).inverse()
    with pytest.raises(NotInvertible):
        LaurentSeries.zero(SIG2, 8).valuation()


def test_invert_randomized():
    rng = random.Random(23)
    one = LaurentSeries.one(SIG2)
    for _ in range(50):
        f = random_invertible_series(rng, SIG2, trunc=14)
        prod = f * f.inverse()
        assert agrees_with(prod, one, upto=prod.trunc)


def test_valuation():
    assert LaurentSeries(TRIV, {-2: TRIV.scalar(3), 1: TRIV.one()}, 8).valuation() == -2
    eps = SIG2.gen("eps")
    f = x_series(SIG2) + LaurentSeries(SIG2, {0: eps})
    assert f.valuation() == 1
    g = LaurentSeries(SIG2, {-5: eps, 0: SIG2.one(), 1: SIG2.one()}, 8)
    assert g.valuation() == 0


def test_valuation_additive_randomized():
    rng = random.Random(29)
    for _ in range(40):
        f = random_invertible_series(rng, SIG2, 14)
        g = random_invertible_series(rng, SIG2, 14)
        assert (f * g).valuation() == f.valuation() + g.valuation()


def test_factorize_monomial():
    fac = factorize(LaurentSeries.monomial(TRIV, 3, 2), trunc=8)
    assert (fac.nu, fac.a0, fac.neg_factors, fac.pos_factors) == (
        3,
        TRIV.scalar(2),
        {},
        {},
    )


def test_factorize_one_minus_x():
    f = (LaurentSeries.one(TRIV) - x_series(TRIV)).truncate(8)
    fac = factorize(f)
    assert fac.nu == 0
    assert fac.a0 == TRIV.one()
    assert fac.neg_factors == {}
    assert fac.pos_factors == {1: TRIV.one()}


def test_factorize_nilpotent_shift():
    # x + eps = x * (1 + eps x^-1), so a_{-1} = -eps
    eps = SIG2.gen("eps")
    f = (x_series(SIG2) + LaurentSeries(SIG2, {0: eps})).truncate(8)
    fac = factorize(f)
    assert fac.nu == 1
    assert fac.a0 == SIG2.one()
    assert fac.neg_factors == {-1: -eps}
    assert agrees_with(reconstruct(fac), f, upto=fac.trunc_order)


def test_factorize_requires_finite_truncation():
    with pytest.raises(InputError):
        factorize(x_series(SIG2) + LaurentSeries(SIG2, {0: SIG2.gen("eps")}))


def test_reconstruct_examples():
    eps = SIG2.gen("eps")
    fac = CanonicalFactorization(SIG2, 1, SIG2.one(), {-1: -eps}, {}, 8)
    rec = reconstruct(fac)
    assert rec.coeffs == {0: eps, 1: SIG2.one()}

    fac = CanonicalFactorization(TRIV, 0, TRIV.scalar(2), {}, {}, math.inf)
    assert reconstruct(fac).coeffs == {0: TRIV.scalar(2)}

    # (1-x)(1-x^2) = 1 - x - x^2 + x^3
    fac = CanonicalFactorization(TRIV, 0, TRIV.one(), {}, {1: TRIV.one(), 2: TRIV.one()}, 10)
    rec = reconstruct(fac)
    assert rec.coeffs == {
        0: TRIV.one(),
        1: -TRIV.one(),
        2: -TRIV.one(),
        3: TRIV.one(),
    }


def test_factorization_validates_fields():
    eps = SIG2.gen("eps")
    with pytest.raises(NotInvertible):
        CanonicalFactorization(SIG2, 0, eps)  # a0 not a unit
    with pytest.raises(InputError):
        CanonicalFactorization(SIG2, 0, SIG2.one(), {-1: SIG2.one()})  # unit in m slot
    with pytest.raises(InputError):
        CanonicalFactorization(SIG2, 0, SIG2.one(), {1: eps})  # wrong sign index


def test_round_trip_randomized():
    rng = random.Random(31)
    for _ in range(60):
        f = random_invertible_series(rng, SIG2, 16)
        fac = factorize(f)
        assert agrees_with(reconstruct(fac), f, upto=fac.trunc_order)
        for a in fac.neg_factors.values():
            assert not a.is_unit()
            assert (a ** SIG2.truncation_degree).is_zero()


def test_round_trip_deeper_algebra():
    rng = random.Random(37)
    for _ in range(25):
        f = random_invertible_series(rng, SIG3, 18)
        fac = factorize(f)
        assert agrees_with(reconstruct(fac), f, upto=fac.trunc_order)


def test_factorize_is_unique_on_reconstructions():
    rng = random.Random(41)
    eps = SIG2.gen("eps")
    for _ in range(30):
        nu = rng.randint(-2, 2)
        neg = {}
        if rng.random() < 0.7:
            neg[-rng.randint(1, 2)] = eps * rng.randint(1, 3)
        pos = {}
        for j in range(1, 4):
            if rng.random() < 0.5:
                pos[j] = SIG2.scalar(rng.randint(-2, 2)) + eps * rng.randint(-1, 1)
        pos = {j: a for j, a in pos.items() if not a.is_zero()}
        fac = CanonicalFactorization(SIG2, nu, SIG2.scalar(rng.choice([1, 2, -1])), neg, pos, 12)
        redone = factorize(reconstruct(fac))
        assert redone.nu == fac.nu
        assert redone.a0 == fac.a0
        assert redone.neg_factors == fac.neg_factors
        for j, a in fac.pos_factors.items():
            assert redone.pos_factors.get(j, SIG2.zero()) == a


@pytest.mark.parametrize("sig", [SIG2, EPS3, SIG3, EPS5, TRIV], ids=str)
def test_factorize_is_the_peeling_oracle(sig):
    rng = random.Random(f"factorize:{sig}")
    for _ in range(80):
        assert_factorize_is_the_oracle(random_invertible_series(rng, sig, rng.randint(1, 12), low_terms=3))


def test_factorize_finds_the_negative_factors_past_log_f_minus():
    # exp(-eps/x) = (1 - eps/x)(1 + eps^2/(2 x^2)): log f_- ends at x^-1, its
    # second Witt coordinate does not
    eps = EPS3.gen("eps")
    f = LaurentSeries(EPS3, {0: EPS3.one(), -1: -eps, -2: eps * eps * EPS3.scalar(Fraction(1, 2))}, 8)
    assert factorize(f).neg_factors == {-1: eps, -2: -(eps * eps).divided_by_int(2)}
    assert_factorize_is_the_oracle(f)


FLOAT_RESIDUE = ("(-1+(2/3-2*i)*eps)+(2/3+(1+1*i)*eps)*x^2", 6)  # once factored with (1-(-1.1e-16*eps)*x^4)


def test_float_factorize_reports_no_rounding_residue_as_a_factor(capsys):
    # a float algebra factors the exact series and widens the factors
    text, trunc = FLOAT_RESIDUE
    exact = factorize(parse_series(text, SIG2, trunc))
    assert (set(exact.neg_factors), set(exact.pos_factors)) == (set(), {2})
    assert cli.main(["factorize", "--algebra", "gens=eps;degree=2;scalars=float", "--f", text, "--trunc", str(trunc)]) == 0
    out = capsys.readouterr().out
    assert "x^4" not in out and out == f"{exact.widen()}\n"


@pytest.mark.parametrize("sig", [SIG2, EPS3, SIG3, EPS5], ids=str)
def test_widened_factorize_finds_the_exact_factor_indices(sig):
    """Which Witt coordinates are zero is decided exactly: a widened
    factorization has the factors of the exact one, and a float series
    is not factored."""
    rng = random.Random(f"widened:{sig}")
    for _ in range(60):
        f = random_invertible_series(rng, sig, rng.randint(4, 10), low_terms=rng.choice((1, 2)))
        try:
            fac = factorize(f)
        except InsufficientTruncation:
            continue
        wide = fac.widen()
        assert wide.signature == sig.to_float() and (wide.nu, wide.trunc_order) == (fac.nu, fac.trunc_order)
        assert (set(wide.neg_factors), set(wide.pos_factors)) == (set(fac.neg_factors), set(fac.pos_factors))
        assert wide.a0 == fac.a0.widen()
        assert all(wide.factor(j) == fac.factor(j).widen() for j in (*fac.neg_factors, *fac.pos_factors))
        with pytest.raises(InputError, match="exact series"):
            factorize(f.widen())


def assert_factorize_is_the_oracle(f):
    """The ghost-map inversion and the peel agree on every field wherever
    the peel succeeds, and fail with the same exception class where it
    does not; a success rebuilds f below its trunc_order."""
    try:
        expected = oracle_factorize(f)
    except CcsymError as exc:
        with pytest.raises(type(exc)):
            factorize(f)
        return
    fac = factorize(f)
    assert (fac.nu, fac.a0, fac.neg_factors, fac.pos_factors, fac.trunc_order) == (
        expected.nu, expected.a0, expected.neg_factors, expected.pos_factors, expected.trunc_order)
    assert agrees_with(reconstruct(fac), f, upto=fac.trunc_order)


def test_neg_support_bound():
    # the sub-valuation tail deepens m-adically: factor indices stay above
    # (N-1) * (lower_bound - nu)
    sig = parse_signature("gens=eps,delta;degree=3;scalars=exact")
    eps, delta = sig.gen("eps"), sig.gen("delta")
    f = LaurentSeries(sig, {0: sig.one(), -1: eps, -2: delta}, 10)
    fac = factorize(f)
    n = sig.truncation_degree
    bound = (n - 1) * (f.lower_bound - 0)
    assert fac.neg_factors
    assert min(fac.neg_factors) >= bound
    assert agrees_with(reconstruct(fac), f, upto=fac.trunc_order)
    # this example genuinely needs a factor below lower_bound - nu
    assert min(fac.neg_factors) == -3


def test_insufficient_truncation_detected():
    eps = SIG2.gen("eps")
    f = LaurentSeries(SIG2, {-3: eps, 0: SIG2.one()}, 2)
    with pytest.raises(InsufficientTruncation):
        factorize(f)


def test_str_of_a_computed_infinite_truncation():
    shifted = LaurentSeries.one(SIG2).shift(1)  # trunc is inf + 1, a new float
    assert math.isinf(shifted.trunc)
    assert str(shifted) == "x"
    assert str(shifted.truncate(3)) == "x+O(x^3)"
