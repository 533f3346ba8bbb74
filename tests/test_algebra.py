import math
import random
from fractions import Fraction

import pytest

from ccsym.algebra import (
    Backend,
    DenseLayout,
    deviation,
    element_to_json,
    exp,
    format_element,
    log1m,
    parse_signature,
)
from ccsym.errors import InputError, NotAUnit, NotNilpotent, SignatureMismatch
from ccsym.scalars import gaussian

from conftest import oracle_alg_mul, random_element

SIG2 = parse_signature("gens=eps;degree=2;scalars=exact")
SIG3 = parse_signature("gens=eps;degree=3;scalars=exact")
SIG2G = parse_signature("gens=eps,delta;degree=2;scalars=exact")


def test_signature_parsing_round_trip():
    sig = parse_signature("gens=eps,delta;degree=3;scalars=exact")
    assert sig.generators == ("eps", "delta")
    assert sig.truncation_degree == 3
    assert sig.backend is Backend.EXACT
    assert parse_signature(str(sig)) == sig


def test_signature_validation():
    with pytest.raises(InputError):
        parse_signature("gens=eps;degree=0;scalars=exact")
    with pytest.raises(InputError):
        parse_signature("gens=eps,eps;degree=2;scalars=exact")
    with pytest.raises(InputError):
        parse_signature("gens=eps;degree=2;scalars=quad")
    with pytest.raises(InputError):
        parse_signature("gens=eps;degree=2;bogus=1")


def test_mul_truncates_at_degree():
    eps = SIG2.gen("eps")
    one = SIG2.one()
    assert (one + eps) * (one - eps) == one  # eps^2 truncated
    sig3 = SIG3
    e = sig3.gen("eps")
    assert (sig3.one() + e) * (sig3.one() + e) == sig3.element(
        {(0,): 1, (1,): 2, (2,): 1}
    )


def test_mul_matches_dense_oracle():
    # (1 + eps + eps^2)(1 - eps) = 1 at degree 3
    e = SIG3.gen("eps")
    a = SIG3.one() + e + e * e
    b = SIG3.one() - e
    expected = oracle_alg_mul(a.coeffs, b.coeffs, 3)
    assert (a * b).coeffs == expected
    assert a * b == SIG3.one()


def test_mul_oracle_randomized():
    rng = random.Random(7)
    for _ in range(50):
        a = random_element(rng, SIG2G)
        b = random_element(rng, SIG2G)
        assert (a * b).coeffs == oracle_alg_mul(a.coeffs, b.coeffs, 2)


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        SIG2.one() * SIG3.one()


def test_invert_geometric_series():
    e = SIG3.gen("eps")
    inv = (SIG3.one() - e).inverse()
    assert inv == SIG3.one() + e + e * e
    assert SIG2.scalar(2).inverse() == SIG2.scalar(Fraction(1, 2))
    # invert(2 + eps) at degree 2: check by multiplying back
    a = SIG2.scalar(2) + SIG2.gen("eps")
    assert a * a.inverse() == SIG2.one()
    assert a.inverse() == SIG2.element({(0,): Fraction(1, 2), (1,): Fraction(-1, 4)})


def test_invert_requires_unit():
    with pytest.raises(NotAUnit):
        SIG2.gen("eps").inverse()


def test_invert_randomized_exact():
    rng = random.Random(11)
    for _ in range(100):
        a = random_element(rng, SIG2G, unit=True)
        assert a * a.inverse() == SIG2G.one()


def test_ring_axioms_randomized():
    rng = random.Random(13)
    for _ in range(60):
        a = random_element(rng, SIG2G)
        b = random_element(rng, SIG2G)
        c = random_element(rng, SIG2G)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_log1m_examples():
    e = SIG3.gen("eps")
    assert log1m(e) == SIG3.element({(1,): -1, (2,): Fraction(-1, 2)})
    assert log1m(SIG3.zero()) == SIG3.zero()
    # all degree-2 monomials vanish at degree 2
    e1, d1 = SIG2G.gen("eps"), SIG2G.gen("delta")
    assert log1m(e1 + d1) == -(e1 + d1)


def test_log1m_requires_nilpotent():
    with pytest.raises(NotNilpotent):
        log1m(SIG2.one())


def test_exp_examples():
    e = SIG3.gen("eps")
    assert exp(e) == SIG3.element({(0,): 1, (1,): 1, (2,): Fraction(1, 2)})
    assert exp(SIG3.zero()) == SIG3.one()
    assert exp(log1m(e)) == SIG3.one() - e


def test_exp_log_round_trips_randomized():
    rng = random.Random(17)
    for _ in range(60):
        a = random_element(rng, SIG3, unit=False)
        assert exp(log1m(a)) == SIG3.one() - a
        # log(exp(a)) = a via log1m(1 - exp(a))
        assert log1m(SIG3.one() - exp(a)) == a


def test_exp_exact_rejects_units():
    with pytest.raises(NotNilpotent):
        exp(SIG2.one())


def test_exp_float_general_argument():
    import cmath

    sig = parse_signature("gens=eps;degree=2;scalars=float")
    a = sig.scalar(1 + 2j) + sig.gen("eps") * 0.5
    v = exp(a)
    scale = cmath.exp(1 + 2j)
    assert abs(complex(v.reduce()) - scale) < 1e-12
    assert abs(v.coeffs[(1,)] - 0.5 * scale) < 1e-12


def test_ipow():
    e = SIG2.gen("eps")
    assert (SIG2.one() + e) ** 0 == SIG2.one()
    assert SIG2.scalar(2) ** 3 == SIG2.scalar(8)
    val = (SIG2.one() - e) ** (-2)
    assert val == SIG2.one() + e * 2
    assert val * (SIG2.one() - e) ** 2 == SIG2.one()
    with pytest.raises(NotAUnit):
        e ** (-1)


def test_nilpotent_power_vanishes():
    rng = random.Random(19)
    for _ in range(40):
        a = random_element(rng, SIG2G, unit=False)
        assert (a ** SIG2G.truncation_degree).is_zero()


def test_reduce():
    e = SIG3.gen("eps")
    assert (SIG3.scalar(2) + e * 3).reduce() == gaussian(2)
    assert e.reduce() == gaussian(0)
    assert (SIG3.one() + e + e * e).reduce() == gaussian(1)


def test_widening_preserves_values():
    e = SIG2.gen("eps")
    a = SIG2.scalar(Fraction(3, 2)) - e * Fraction(1, 4)
    w = a.widen()
    assert w.signature.backend is Backend.FLOAT
    assert w.coeffs[(0,)] == 1.5
    assert w.coeffs[(1,)] == -0.25


def test_canonical_zero_pruning():
    e = SIG2.gen("eps")
    assert (e - e).coeffs == {}
    assert (SIG2.one() - SIG2.one()).is_zero()


def test_formatting():
    e = SIG2.gen("eps")
    assert format_element(SIG2.one() + e) == "1+eps"
    assert format_element(SIG2.scalar(Fraction(3, 2)) - e * Fraction(3, 2)) == "3/2-3/2*eps"
    assert format_element(SIG2.zero()) == "0"
    assert str(SIG2.scalar(gaussian(Fraction(1, 2), Fraction(1, 3)))) == "1/2+1/3*i"


def test_element_json_shape():
    e = SIG2.gen("eps")
    payload = element_to_json(SIG2.one() + e * Fraction(1, 2))
    assert payload == {"1": [1.0, 0.0], "eps": [0.5, 0.0]}


def test_degree_one_signature_is_plain_c():
    sig = parse_signature("gens=;degree=1;scalars=exact")
    assert sig.one() * sig.scalar(5) == sig.scalar(5)
    two_gen = parse_signature("gens=eps;degree=1;scalars=exact")
    assert two_gen.gen("eps").is_zero()


def test_dense_layout_matches_the_exact_oracle():
    # exact products and quotients, then widened, against the dense float layout
    rng = random.Random(11)
    sig = parse_signature("gens=eps,delta;degree=3;scalars=exact")
    layout = DenseLayout(sig.to_float(), [(1, 0), (0, 1)])
    assert layout.monomials == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    # the same layout over Q(i) is exact: structural equality with the oracle
    exact_layout = DenseLayout(sig, [(1, 0), (0, 1)])
    assert exact_layout.monomials == layout.monomials
    for _ in range(30):
        a, b = random_element(rng, sig), random_element(rng, sig, unit=True)
        va, vb = exact_layout.vector(a), exact_layout.vector(b)
        assert exact_layout.element(exact_layout.mul(va, vb)) == sig.element(oracle_alg_mul(a.coeffs, b.coeffs, 3))
        assert exact_layout.element(exact_layout.divide(va, vb)) == a * b.inverse()
        exact = sig.element(oracle_alg_mul(a.coeffs, b.coeffs, 3)).widen()
        got = layout.element(layout.mul(layout.vector(a.widen()), layout.vector(b.widen())))
        assert deviation(got, exact) <= 1e-13
        quotient = layout.element(layout.divide(layout.vector(a.widen()), layout.vector(b.widen())))
        assert deviation(quotient, (a * b.inverse()).widen()) <= 1e-13 * (a * b.inverse()).max_abs()
    with pytest.raises(NotAUnit):
        layout.divide(layout.vector(sig.one().widen()), layout.vector(sig.gen("eps").widen()))
    with pytest.raises(NotAUnit):
        exact_layout.divide(exact_layout.vector(sig.one()), exact_layout.vector(sig.gen("eps")))


def test_dense_layout_spans_only_reachable_monomials():
    sig = parse_signature("gens=eps,delta,eta;degree=4;scalars=float")
    assert DenseLayout(sig).monomials == [(0, 0, 0)]
    assert DenseLayout(sig, [(0, 1, 0)]).monomials == [(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0)]
    assert DenseLayout(sig, [(2, 0, 0), (0, 0, 1)]).monomials == [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (2, 0, 0), (0, 0, 3), (2, 0, 1),
    ]


EXACT_SIGS = [
    parse_signature("gens=;degree=1;scalars=exact"),
    parse_signature("gens=eps;degree=2;scalars=exact"),
    parse_signature("gens=eps,delta;degree=3;scalars=exact"),
]


@pytest.mark.parametrize("sig", EXACT_SIGS, ids=str)
def test_integer_form_against_the_fraction_oracles(sig):
    rng = random.Random(f"integer-form:{sig}")
    for _ in range(40):
        a, b = random_element(rng, sig), random_element(rng, sig)
        assert (a * b).coeffs == oracle_alg_mul(a.coeffs, b.coeffs, sig.truncation_degree)
        total = {m: a.coeffs.get(m, gaussian(0)) + b.coeffs.get(m, gaussian(0)) for m in {*a.coeffs, *b.coeffs}}
        assert (a + b).coeffs == {m: c for m, c in total.items() if c}
        assert a + b == sig.element(total) and hash(a + b) == hash(sig.element(total))


@pytest.mark.parametrize("sig", EXACT_SIGS, ids=str)
def test_integer_form_is_canonical(sig):
    rng = random.Random(f"canonical:{sig}")
    for _ in range(40):
        a = random_element(rng, sig)
        zero = a + (-a)
        assert zero.is_zero() and zero == sig.zero() and hash(zero) == hash(sig.zero())
        back = (a * 2) / 2
        assert back == a and hash(back) == hash(a) and str(back) == str(a)
        assert back.den == a.den and back.num == a.num
        if a.is_unit():
            assert a * a.inverse() == 1 and a.inverse() * a == sig.one()
        k = rng.randint(2, 9)
        assert a.divided_by_int(k) == a * sig.scalar(Fraction(1, k))
        assert a.divided_by_int(k) * k == a


def test_integer_form_past_64_bits():
    sig = EXACT_SIGS[2]
    big = Fraction(3, 2**70 + 1)
    a = sig.element({(0, 0): 1, (1, 0): big, (0, 1): gaussian(0, Fraction(1, 3))})
    assert a.den == 3 * (2**70 + 1)
    assert a.coeffs[(1, 0)] == gaussian(big)
    assert (a * a).coeffs == oracle_alg_mul(a.coeffs, a.coeffs, 3)
    assert a * a.inverse() == sig.one()
    assert (a - sig.one()).divided_by_int(2**70 + 1).coeffs[(1, 0)] == gaussian(big / (2**70 + 1))


def test_exact_element_equals_the_float_it_widens_to():
    sig = EXACT_SIGS[1]
    assert sig.one() == 1.0 and sig.one() == complex(1)
    assert sig.one() != 0.5
    assert sig.scalar(Fraction(1, 2)) + sig.gen("eps") != 0.5


def test_widen_drops_coefficients_that_round_to_zero():
    tiny = Fraction(1, 10**400)
    eps = SIG2.element({(0,): tiny, (1,): 1}).widen()
    assert eps == SIG2.to_float().gen("eps") and str(eps) == "eps"
    assert SIG2.element({(0,): tiny}).widen().is_zero()


def test_float_reciprocal_keeps_extreme_residues():
    # den (p - q i) / (p^2 + q^2) over- and underflows on floats; complex division does not
    sig = parse_signature("gens=eps;degree=2;scalars=float")
    eps = sig.gen("eps")
    assert (sig.scalar(1e-200) + eps).inverse().coeffs == {(0,): 1e200, (1,): -math.inf}
    assert (sig.scalar(1e200) + eps).inverse() == sig.scalar(1e-200)


@pytest.mark.parametrize("sig", EXACT_SIGS[1:], ids=str)
def test_float_arithmetic_agrees_with_the_widened_exact(sig):
    # both backends share one arithmetic on (re, im) pairs; the float side
    # must track the exact one to rounding
    rng = random.Random(f"cross-backend:{sig}")

    def close(exact, got):
        want = exact.widen()
        assert got.signature == want.signature
        assert deviation(got, want) <= 1e-13 * want.max_abs()

    for _ in range(30):
        a, b = random_element(rng, sig), random_element(rng, sig, unit=True)
        fa, fb = a.widen(), b.widen()
        close(a + b, fa + fb)
        close(a - b, fa - fb)
        close(a * b, fa * fb)
        close(b.inverse(), fb.inverse())
        k = rng.randint(2, 9)
        close(a.divided_by_int(k), fa.divided_by_int(k))
        for n in range(-3, 4):
            close(b ** n, fb ** n)
            if n >= 0:
                close(a ** n, fa ** n)
        nil = random_element(rng, sig, unit=False)
        close(exp(nil), exp(nil.widen()))
        close(log1m(nil), log1m(nil.widen()))
