import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ccsym import cli, symbol
from ccsym.algebra import parse_signature
from ccsym.errors import InputError, InsufficientTruncation, NotInvertible, SignatureMismatch
from ccsym.laurent import LaurentSeries, _logs, factorize
from ccsym.parsing import parse_ratfunc
from ccsym.ratfunc import RationalFunctionA as RF, rf_support
from ccsym.scalars import gaussian
from ccsym.symbol import cc_symbol_series, local_symbols, tame_symbol

from conftest import cc_symbol, oracle_factorize, random_element, random_invertible_series

TRIV = parse_signature("gens=;degree=1;scalars=exact")
SIG2 = parse_signature("gens=eps;degree=2;scalars=exact")
SIG3 = parse_signature("gens=eps,delta;degree=3;scalars=exact")


def x_over(sig, trunc=12):
    return LaurentSeries.monomial(sig, 1).truncate(trunc)


def one_minus_x(sig, trunc=12):
    return (LaurentSeries.one(sig) - LaurentSeries.monomial(sig, 1)).truncate(trunc)


def test_tame_milnor_formula_x_x():
    x = x_over(TRIV)
    assert tame_symbol(x, x) == gaussian(-1)


def test_tame_examples():
    x2 = (LaurentSeries.monomial(TRIV, 1) ** 2).truncate(12)
    x3 = (LaurentSeries.monomial(TRIV, 1) ** 3).truncate(12)
    assert tame_symbol(x2, x3) == gaussian(1)  # (-1)^6 x^6/x^6
    two = LaurentSeries(TRIV, {0: TRIV.scalar(2)}, 12)
    assert tame_symbol(x_over(TRIV), two) == gaussian(Fraction(1, 2))


def test_tame_rejects_nontrivial_algebra():
    with pytest.raises(InputError):
        tame_symbol(x_over(SIG2), x_over(SIG2))


def test_cc_symbol_x_x():
    assert cc_symbol_series(x_over(TRIV), x_over(TRIV)) == TRIV.scalar(-1)


def test_cc_symbol_steinberg_x():
    assert cc_symbol_series(x_over(TRIV), one_minus_x(TRIV)) == TRIV.one()


def test_cc_symbol_nilpotent_example():
    # <1 - eps/x, 1 - x> = 1 + eps over C[eps]/(eps^2)
    eps = SIG2.gen("eps")
    f = (LaurentSeries.one(SIG2) - LaurentSeries.monomial(SIG2, -1, eps)).truncate(12)
    val = cc_symbol_series(f, one_minus_x(SIG2))
    assert val == SIG2.one() + eps


def test_cc_symbol_constant_partner():
    # <x, c> = c^{-1} for a constant unit c
    c = LaurentSeries(TRIV, {0: TRIV.scalar(5)}, 12)
    assert cc_symbol_series(x_over(TRIV), c) == TRIV.scalar(Fraction(1, 5))
    assert cc_symbol_series(
        LaurentSeries(TRIV, {0: TRIV.scalar(2)}, 12),
        LaurentSeries(TRIV, {0: TRIV.scalar(3)}, 12),
    ) == TRIV.one()


def test_cc_symbol_series_matches_factored_route():
    eps = SIG2.gen("eps")
    f = (x_over(SIG2, 14) + LaurentSeries(SIG2, {0: eps})).truncate(14)
    g = one_minus_x(SIG2, 14)
    direct = cc_symbol(oracle_factorize(f), oracle_factorize(g))
    assert cc_symbol_series(f, g) == direct


def test_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        cc_symbol(factorize(x_over(TRIV)), factorize(x_over(SIG2)))


def test_insufficient_truncation_for_deep_negatives():
    eps = SIG2.gen("eps")
    # f has a nilpotent term five below the valuation: the double product
    # needs the partner's positive factors up to index N*5 = 10
    f = LaurentSeries(SIG2, {-5: eps, 0: SIG2.one()}, 4)
    g = one_minus_x(SIG2, 4)
    with pytest.raises(InsufficientTruncation):
        cc_symbol_series(f, g)
    # and with a wide enough window it succeeds
    f_wide = LaurentSeries(SIG2, {-5: eps, 0: SIG2.one()}, 24)
    assert cc_symbol_series(f_wide, one_minus_x(SIG2, 24)).is_unit()


def steinberg(f: LaurentSeries):
    """<f, 1 - f>; equals 1 whenever both arguments are invertible."""
    return cc_symbol_series(f, LaurentSeries.one(f.signature) - f)


def test_steinberg_examples():
    assert steinberg(x_over(TRIV)) == TRIV.one()
    two = LaurentSeries(TRIV, {0: TRIV.scalar(2)}, 12)
    assert steinberg(two) == TRIV.one()
    eps = SIG2.gen("eps")
    f = (x_over(SIG2, 14) + LaurentSeries(SIG2, {0: eps})).truncate(14)
    assert steinberg(f) == SIG2.one()


def test_steinberg_rejects_noninvertible_complement():
    one = LaurentSeries.one(TRIV).truncate(12)
    with pytest.raises(NotInvertible):
        steinberg(one)  # 1 - f = 0


def _random_pair(rng, sig, trunc):
    return (
        random_invertible_series(rng, sig, trunc),
        random_invertible_series(rng, sig, trunc),
    )


def test_bimultiplicativity_randomized():
    rng = random.Random(43)
    for _ in range(40):
        f = random_invertible_series(rng, SIG2, 24)
        g = random_invertible_series(rng, SIG2, 24)
        h = random_invertible_series(rng, SIG2, 24)
        lhs = cc_symbol_series(f, g * h)
        rhs = cc_symbol_series(f, g) * cc_symbol_series(f, h)
        assert lhs == rhs


def test_antisymmetry_randomized():
    rng = random.Random(47)
    for _ in range(40):
        f, g = _random_pair(rng, SIG2, 24)
        fg = cc_symbol_series(f, g)
        gf = cc_symbol_series(g, f)
        assert fg * gf == SIG2.one()
        g_inv = g.inverse()
        assert cc_symbol_series(f, g_inv) == fg.inverse()


def test_f_minus_f_randomized():
    rng = random.Random(53)
    for _ in range(40):
        f = random_invertible_series(rng, SIG2, 24)
        assert cc_symbol_series(f, -f) == SIG2.one()


def test_scalar_multiple_evaluator():
    # <f, c f>; only <f, -f> = 1 is asserted as an identity
    x = x_over(TRIV)
    assert cc_symbol_series(x, x.scale(TRIV.scalar(-1))) == TRIV.one()
    # <x, cx> = -1/c for the discrete-valuation pairing
    assert cc_symbol_series(x, x.scale(TRIV.scalar(2))) == TRIV.scalar(Fraction(-1, 2))


def test_tame_specialization_randomized():
    rng = random.Random(59)
    for _ in range(40):
        f, g = _random_pair(rng, TRIV, 20)
        cc = cc_symbol_series(f, g)
        assert cc.reduce() == tame_symbol(f, g)


def test_truncation_stability():
    # recomputing with any larger working truncation yields the same value
    rng = random.Random(61)
    for _ in range(20):
        f, g = _random_pair(rng, SIG2, 40)
        v1 = cc_symbol_series(f.truncate(20), g.truncate(20))
        v2 = cc_symbol_series(f.truncate(31), g.truncate(31))
        v3 = cc_symbol_series(f, g)
        assert v1 == v2 == v3


# -- the residue form against the double product ---------------------------------

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def double_product(f, g):
    """cc_symbol over both factorizations, or None when they are too short.
    The factorizations are peeled, with no logarithms, so that the residue
    form is held to a route that shares no code with `laurent._logs`."""
    try:
        return cc_symbol(oracle_factorize(f), oracle_factorize(g))
    except InsufficientTruncation:
        return None


def with_random_tail(rng, f):
    """f with random terms above its truncation, known 30 orders further:
    a symbol that f determines cannot depend on them."""
    tail = {f.trunc + k: random_element(rng, f.signature) for k in range(3)}
    return LaurentSeries(f.signature, {**tail, **f.coeffs}, f.trunc + 30)


@PROPERTY
@given(st.sampled_from([SIG2, SIG3]), st.integers(1, 14), st.integers(0, 2**32))
def test_residue_form_equals_the_double_product_on_series(sig, trunc, seed):
    rng = random.Random(seed)
    f, g = (random_invertible_series(rng, sig, trunc) for _ in range(2))
    if not all(any(c.is_unit() for c in s.coeffs.values()) for s in (f, g)):
        return  # the unit term fell past the truncation
    expected = double_product(f, g)
    try:
        value = cc_symbol_series(f, g)
    except InsufficientTruncation:
        # the residue form reads no more than the double product does
        assert expected is None
        return
    if expected is None:  # only the residue form is determined: widen the inputs
        expected = double_product(with_random_tail(rng, f), with_random_tail(rng, g))
    assert value == expected


ROOTS = [gaussian(0), gaussian(1), gaussian(-1), gaussian(2), gaussian(0, 1), gaussian(Fraction(1, 2), -1)]


def random_ratfunc(rng, sig):
    f = RF.constant(sig, random_element(rng, sig, unit=True))
    for _ in range(rng.randint(1, 3)):
        shift = random_element(rng, sig, unit=False)
        f = f * RF.monic_linear(sig, rng.choice(ROOTS), shift=shift) ** rng.choice([-2, -1, 1, 2, 3])
    return f


def local_double_product(f, g, s, trunc):
    try:
        return double_product(f.expand_at(s, trunc), g.expand_at(s, trunc))
    except InsufficientTruncation:  # trunc at or below a valuation
        return None


def named_trunc(exc) -> int:
    return int(re.search(r"--trunc at least (\d+)", str(exc)).group(1))


@settings(PROPERTY, max_examples=15)
@given(st.sampled_from([SIG2, SIG3]), st.integers(1, 12), st.integers(0, 2**32))
def test_residue_form_equals_the_double_product_at_every_local_pair(sig, trunc, seed):
    rng = random.Random(seed)
    f, g = random_ratfunc(rng, sig), random_ratfunc(rng, sig)
    support = rf_support(f, g)
    for s in support:
        expected = local_double_product(f, g, s, trunc)
        try:
            [value] = local_symbols(f, g, [s], trunc)
        except InsufficientTruncation as exc:
            assert expected is None  # the residue form reads no more than the double product does
            with pytest.raises(InsufficientTruncation):  # the --trunc named is the least that suffices
                local_symbols(f, g, [s], named_trunc(exc) - 1)
            [value] = local_symbols(f, g, [s], named_trunc(exc))
        assert expected is None or value == expected
        deep = max(trunc, f.order_at(s), g.order_at(s)) + 12
        assert value == local_double_product(f, g, s, deep)
    try:
        local_symbols(f, g, support, trunc)
    except InsufficientTruncation as exc:  # the --trunc named suffices at every point
        local_symbols(f, g, support, named_trunc(exc))


# -- where the local symbols read, and how much they build ------------------------------


@pytest.mark.parametrize("f_text, g_text", [
    ("2*(x-1)*(x+1+eps)^-1*(x-1/2*i)^2", "(x-1)^-1*(x-3+delta)"),  # a tame infinity
    ("2*(x-1)*(x+1+eps)^-1*(x-1/2*i)^2", "(x-1)^-1*(x-3+delta)*(1+eps*x)"),  # pole of g's perturbation at inf
])
def test_local_symbols_equal_the_factored_route_at_tame_and_other_points(f_text, g_text, monkeypatch):
    f, g = parse_ratfunc(f_text, SIG3), parse_ratfunc(g_text, SIG3)
    reads = []
    expand_at = RF.expand_at
    monkeypatch.setattr(RF, "expand_at", lambda r, s, t: reads.append((s, t - r.order_at(s))) or expand_at(r, s, t))
    support = rf_support(f, g)
    values = local_symbols(f, g, support, 12)
    monkeypatch.undo()
    poles = {s: f.pole_order(s) + g.pole_order(s) for s in support}
    assert sorted(str(s) for s, n in poles.items() if n) == (["-1", "3"] if "eps*x" not in g_text else ["-1", "3", "inf"])
    for s, value in zip(support, values):
        assert value == local_double_product(f, g, s, max(12, f.order_at(s), g.order_at(s)) + 12)
        # a point where neither perturbation has a pole is read one order past the valuation
        windows = {k for p, k in reads if p == s}
        if poles[s]:
            assert min(windows) == 4
        else:
            assert windows == {1}


def test_a_tame_point_takes_no_logarithms(monkeypatch):
    """Where neither expansion has a term below its valuation the symbol is
    read from the two lead coefficients, with no `_logs`; elsewhere it is not."""
    f, g = parse_ratfunc("2*(x-1)*(x+1+eps)^-1*(x-1/2*i)^2", SIG3), parse_ratfunc("(x-1)^-1*(x-3+delta)", SIG3)
    support = rf_support(f, g)
    expected = local_symbols(f, g, support, 12)
    calls = []
    monkeypatch.setattr(symbol, "_logs", lambda *args: calls.append(args) or _logs(*args))
    for s, value in zip(support, expected):
        calls.clear()
        assert local_symbols(f, g, [s], 12) == [value]
        tame = all(r.expand_at(s, r.order_at(s) + 1).lower_bound == r.order_at(s) for r in (f, g))
        assert tame == (not f.pole_order(s) and not g.pole_order(s))
        assert (len(calls) == 0) == tame, s
    # two series known only at their valuations
    x = LaurentSeries.monomial(SIG3, 1)
    a = (x ** 3).scale(SIG3.scalar(2) + SIG3.gen("eps")).truncate(4)
    b = (x ** -1).scale(SIG3.scalar(gaussian(0, 3)) - SIG3.gen("delta")).truncate(0)
    calls.clear()
    value = cc_symbol_series(a, b)
    assert not calls and value == -(a.coeff(3) ** -1 * b.coeff(-1) ** -3)
    assert value == cc_symbol(oracle_factorize(a), oracle_factorize(b))


FIXED_WEIL = ["verify", "weil", "--algebra", "gens=eps,delta;degree=3;scalars=exact",
              "--f", "i*(x-(1/2*i)+(-3/2)*eps+(3/2)*delta)*(x-(-1))^-1",
              "--g", "(1-i)*(x-(1/2*i))^-1*(x-(-1/2*i)+(1/3)*eps+(1)*delta)", "--trunc", "12"]
FIXED_SYMBOL = ["symbol", "--algebra", "gens=eps;degree=2;scalars=exact", "--trunc", "12",
                "--f", "(1/3)*eps*x^-1+(-1-1*i)+(3/2)*eps+(1-1*i)*x+(1/3-1/2*i)*eps*x+(1+1*i)*x^3+(1/2+1/2*i)*eps*x^3",
                "--g", "(-2)*eps*x^-1+(3+1*i)+(-1/2+1/2*i)*eps+(-1+1*i)*x+(3/2-1/2*i)*eps*x+(3+1*i)*x^2+(1+1/2*i)*eps*x^2"]


@pytest.mark.parametrize("argv, most", [(FIXED_WEIL, (46, 16)), (FIXED_SYMBOL, (4, 2))], ids=["weil", "symbol"])
def test_the_exact_path_builds_no_more_series_than_it_reads(argv, most, monkeypatch, capsys):
    """Series products and inverses of one `verify weil` and one `symbol`.

    Before literals were folded as scalars, Horner started from a product
    by zero and every expansion window was four orders wider than read,
    these took 58 products and 16 inverses (weil) and 50 products and 15
    inverses (symbol)."""
    counts = {"__mul__": 0, "inverse": 0}
    for name in counts:
        method = getattr(LaurentSeries, name)
        monkeypatch.setattr(LaurentSeries, name, lambda *a, _m=method, _n=name: counts.__setitem__(_n, counts[_n] + 1) or _m(*a))
    assert cli.main(argv) == 0
    assert counts["__mul__"] <= most[0] and counts["inverse"] <= most[1]
    assert capsys.readouterr().out
