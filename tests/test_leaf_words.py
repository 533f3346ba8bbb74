"""A leaf word's block update: one column dot per block instead of four
stage products per step."""

import random

import pytest

from ccsym import chen
from ccsym.algebra import parse_signature
from ccsym.chen import QuadratureConfig, transport
from ccsym.forms import BinomialLogForm, DenseLayout, DlogForm
from ccsym.parsing import parse_ratfunc, parse_scalar
from ccsym.paths import lasso

from conftest import oracle_transport, random_gaussian
from test_chen import ORACLE_FORMS

NODES = 9


def _columns(rng, layout, scalar):
    """Random columns over NODES nodes, about one in three of them zero at every node."""
    return [[layout.zero] * NODES if rng.random() < 1 / 3 else [scalar(rng) for _ in range(NODES)]
            for _ in layout.monomials]


def _node_sums(layout, a, b):
    return [sum(col, layout.zero) for col in layout.mul(a, b)]


@pytest.mark.parametrize("seed", range(20))
def test_an_exact_dot_is_the_node_sum_of_the_product_columns(seed):
    rng = random.Random(seed)
    layout = DenseLayout(parse_signature("gens=eps,delta;degree=3;scalars=exact"), [(1, 0), (0, 1)])
    a, b = (_columns(rng, layout, random_gaussian) for _ in range(2))
    assert layout.dot(a, b) == _node_sums(layout, a, b)


@pytest.mark.parametrize("seed", range(20))
def test_a_float_dot_is_the_node_sum_of_the_product_columns_to_rounding(seed):
    rng = random.Random(seed)
    layout = DenseLayout(parse_signature("gens=eps,delta;degree=3;scalars=float"), [(1, 0), (0, 1)])
    a, b = (_columns(rng, layout, lambda r: complex(r.uniform(-2, 2), r.uniform(-2, 2))) for _ in range(2))
    scale = NODES * 4 * 4 * len(layout.monomials)  # bounds every sum of products
    for got, want in zip(layout.dot(a, b), _node_sums(layout, a, b)):
        assert abs(got - want) <= 1e-15 * scale


def test_a_two_letter_leaf_takes_no_column_product(monkeypatch):
    calls = {"mul": 0, "dot": 0}

    def counted(name):
        method = getattr(DenseLayout, name)

        def wrapper(self, a, b):
            calls[name] += 1
            return method(self, a, b)

        return wrapper

    for name in calls:
        monkeypatch.setattr(DenseLayout, name, counted(name))
    monkeypatch.setattr(chen, "BLOCK", 64)
    sig = parse_signature("gens=eps;degree=2;scalars=exact")
    forms = [DlogForm(parse_ratfunc("(x-1/2+eps)*(x+2)^-1", sig)), DlogForm(parse_ratfunc("(x+1/3*i-eps)", sig))]
    steps = 100  # two blocks a segment, the second one short
    transport(forms, lasso(-1j, 0.5, 0.25), 2, QuadratureConfig(steps, 1e-8), [(1, 2)])
    blocks = -(-steps // chen.BLOCK) * 3  # out, around and back
    assert calls == {"mul": 0, "dot": blocks}


@pytest.mark.parametrize("keep", [True, False], ids=["replayed", "unkept"])
@pytest.mark.parametrize("steps", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("algebra", list(ORACLE_FORMS))
def test_the_block_stepper_is_rk4_step_by_step_to_rounding(monkeypatch, algebra, steps, keep):
    # the leaves (1, 3), (2, 2) and (1, 2, 1) take one dot per block; the
    # per-step RK4 sums the same increments in another order
    monkeypatch.setattr(chen, "BLOCK", 64)  # up to three blocks a leg
    sig_text, make = ORACLE_FORMS[algebra]
    sig = parse_signature(sig_text)
    a = sum((sig.gen(g) for g in sig.generators), sig.scalar(parse_scalar("1/5")))
    forms = make(sig) + [BinomialLogForm(sig, a, 2)]
    words = [(1, 2, 1), (2, 2), (1, 3)]
    if not keep:
        monkeypatch.setattr(chen, "KEEP_SAMPLES", 0)
    F = transport(forms, lasso(0, 0.5, 0.25), 3, QuadratureConfig(steps, 1e-8), words)
    expected = oracle_transport(forms, lasso(0, 0.5, 0.25), words, steps, replay=keep, per_step=True)
    assert set(F.coeffs) == set(expected)
    for w, c in F.coeffs.items():
        for m in set(c.coeffs) | set(expected[w]):
            want = expected[w].get(m, 0j)
            assert abs(c.coeffs.get(m, 0j) - want) <= 1e-13 * max(1.0, abs(want))
