"""`laurent._logs` on a tame expansion, one with no term below its
valuation: log f_- = 0 and a0 is the lead coefficient, so only p'/p is
computed, with the truncation orders of the full computation."""

import random

import pytest

from ccsym import symbol
from ccsym.algebra import exp, parse_signature
from ccsym.errors import NotInvertible
from ccsym.laurent import LaurentSeries, _logs
from ccsym.parsing import parse_series
from ccsym.scalars import GaussianRational

from conftest import random_invertible_series


def full_logs(f: LaurentSeries, nu: int):
    """`_logs` with no tame shortcut: log(1 - u) summed over u's powers."""
    h = f.shift(-nu)
    sig = h.signature
    p = LaurentSeries(sig, {e: c for e, c in h.coeffs.items() if e >= 0}, h.trunc)
    p_inv = p.inverse()
    u = (p - h) * p_inv
    order = min((sum(m) for c in (h - p).coeffs.values() for m in c.coeffs), default=sig.truncation_degree)
    log, term = -u, u
    for k in range(2, -(-sig.truncation_degree // order)):
        term = term * u
        log = log - term.scale(sig.scalar(GaussianRational(1, 0, k)))
    a0 = p.coeff(0) * exp(log.coeff(0)) if log.trunc > 0 else None
    return p.derivative() * p_inv + log.derivative(), log, a0


def tame_series(rng, sig):
    """A random series cut to its terms from its valuation on, or None."""
    f = random_invertible_series(rng, sig, rng.randint(1, 8))
    try:
        nu = f.valuation()
    except NotInvertible:
        return None
    if nu >= f.trunc:
        return None
    return LaurentSeries(sig, {e: c for e, c in f.coeffs.items() if e >= nu}, f.trunc), nu


@pytest.mark.parametrize("sig_text", ["gens=eps;degree=3", "gens=eps,delta;degree=3", "gens=eps;degree=4;scalars=float"])
def test_a_tame_side_gives_what_the_full_logs_give(sig_text):
    sig, checked = parse_signature(sig_text), 0
    for seed in range(60):
        drawn = tame_series(random.Random(seed), sig)
        if drawn is None:
            continue
        f, nu = drawn
        (d, log, a0), (d_full, log_full, a0_full) = _logs(f, nu), full_logs(f, nu)
        assert d == d_full and d.trunc == d_full.trunc
        assert log == log_full and log.trunc == log_full.trunc
        assert a0 == a0_full
        checked += 1
    assert checked >= 30


def test_a_tame_side_next_to_a_wild_one_takes_no_product_with_u(monkeypatch):
    # the tame side's products are p'/p and those of p's inverse; the wild
    # side takes its u and the powers of u as before
    sig = parse_signature("gens=eps;degree=3")
    f = parse_series("(2-x)*(3+x^2)", sig, 8)
    g = parse_series("(1-eps*x^-1)*(1+eps*x^-2)*(3+x)", sig, 8)
    products = []
    mul = LaurentSeries.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    f.inverse()
    inverse = len(products)
    products.clear()
    _logs(f, 0)
    assert len(products) == inverse + 1
    products.clear()
    value, short = symbol._residue_symbol(f, 0, g, 0)
    assert max(short) <= 0 and value is not None
    assert not any(not a.coeffs or not b.coeffs for a, b in products)


@pytest.mark.parametrize("sig_text", ["gens=eps;degree=3", "gens=eps,delta;degree=3", "gens=eps;degree=5"])
def test_the_full_logs_give_what_logs_gives_on_a_wild_series(sig_text):
    # a series with terms below its valuation, so that h - p is not empty
    sig, checked = parse_signature(sig_text), 0
    for seed in range(40):
        f = random_invertible_series(random.Random(seed), sig, 8)
        try:
            nu = f.valuation()
        except NotInvertible:
            continue
        if f.lower_bound >= nu or nu >= f.trunc:
            continue
        (d, log, a0), (d_full, log_full, a0_full) = _logs(f, nu), full_logs(f, nu)
        assert d == d_full and log == log_full and a0 == a0_full
        checked += 1
    assert checked >= 10
