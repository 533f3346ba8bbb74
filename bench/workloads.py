"""Seeded inputs for the three benchmark workloads.

A workload is one pass of checks; each check is one or two `ccsym` CLI
argument lists plus what the gate needs to judge their output.  Every
input is drawn from `random.Random(f"{workload}:{seed}")`, so the same
seed always gives the same argument lists.  The structure of a pass
(which commands, how many steps, word lengths, truncation orders) is
fixed; the seed only moves roots, radii, start angles and coefficients,
so the cost of a pass barely depends on the seed.

Steps and tolerances are pairs the acceptance tests pin: 512 steps at
1e-7 for the scalar forms, 512 steps at 1e-6 for the nilpotent dlog
forms.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("chen-scalar", "chen-dlog-nilpotent", "exact-reciprocity")

STEPS = 512
SCALAR_TOL = 1e-7
DLOG_TOL = 1e-6

EPS = ("eps",)
EPS_DELTA = ("eps", "delta")
ALGEBRAS = {EPS: 2, EPS_DELTA: 3}  # generators -> truncation degree


@dataclass
class Check:
    """One gated unit of work: `kind` selects the gate in `gate.py`."""

    kind: str
    argvs: list
    expect: dict = field(default_factory=dict)


# -- rendering exact inputs as CLI literals ------------------------------------


def fmt_gauss(re: Fraction, im: Fraction = Fraction(0)) -> str:
    if not im:
        return f"({re})"
    if not re:
        return f"({im}*i)"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}*i)"


def fmt_mono(gens, mono) -> str:
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(gens, mono) if e
    )


def fmt_series(gens, series: dict) -> str:
    """{x-exponent: element map} as a sum of `(c)*mono*x^e` terms."""
    terms = []
    for e in sorted(series):
        for mono, (re, im) in sorted(series[e].items()):
            parts = [fmt_gauss(re, im), fmt_mono(gens, mono)]
            if e:
                parts.append("x" if e == 1 else f"x^{e}")
            terms.append("*".join(p for p in parts if p))
    return "+".join(terms)


def algebra_flag(gens) -> str:
    return f"--algebra=gens={','.join(gens)};degree={ALGEBRAS[gens]};scalars=exact"


def monomials(gens, nilpotent: bool) -> list:
    degree = ALGEBRAS[gens]
    out = [()]
    for _ in gens:
        out = [m + (e,) for m in out for e in range(degree)]
    return sorted(m for m in out if sum(m) < degree and (sum(m) > 0 or not nilpotent))


# -- seeded draws ----------------------------------------------------------------


def small_rational(rng, lo=1, hi=5, den=10) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), den)


def small_gauss(rng, bound: float):
    """A nonzero Gaussian rational of modulus at most `bound`."""
    re = small_rational(rng)
    im = Fraction(rng.randint(-3, 3), 10)
    while abs(complex(re, im)) > bound:
        re, im = re / 2, im / 2
    return re, im


def random_element(rng, gens, nilpotent: bool) -> dict:
    """Dense element; a unit one has a constant term from a fixed pool."""
    out = {}
    for mono in monomials(gens, nilpotent):
        if sum(mono) == 0:
            out[mono] = (Fraction(rng.choice((1, 2, 3, -1, -2))), Fraction(rng.randint(-1, 1)))
        else:
            out[mono] = (small_rational(rng, 1, 3, rng.randint(1, 3)), Fraction(rng.randint(-1, 1), 2))
    return out


def random_series(rng, gens) -> dict:
    """Invertible series of fixed shape: a unit at the valuation nu, two
    higher terms and one nilpotent term just below nu."""
    nu = rng.randint(-1, 1)
    return {
        nu - 1: random_element(rng, gens, nilpotent=True),
        nu: random_element(rng, gens, nilpotent=False),
        nu + 1: random_element(rng, gens, nilpotent=False),
        nu + rng.randint(2, 3): random_element(rng, gens, nilpotent=False),
    }


def nilpotent_shift(rng, gens) -> str:
    """`+c*eps...` text for a linear-factor shift inside the maximal ideal."""
    return "".join(
        f"+{fmt_gauss(small_rational(rng, 1, 3, rng.randint(1, 3)))}*{g}" for g in gens
    )


GRID = [Fraction(k, 2) for k in range(-3, 4)]
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # axis directions
# start angle, in turns, of a circle whose start point lies in that direction
UNIT_TURNS = {(1, 0): "0", (0, 1): "1/4", (-1, 0): "1/2", (0, -1): "3/4"}


def grid_point(rng):
    return rng.choice(GRID), rng.choice(GRID)


def shifted(p, u, d: Fraction):
    return p[0] + u[0] * d, p[1] + u[1] * d


# -- workloads ---------------------------------------------------------------------


def chen_scalar(rng) -> list:
    steps, tol = f"--steps={STEPS}", f"--tol={SCALAR_TOL:g}"
    checks = []
    for r in (1, 2, 3, 4):
        radius = rng.choice(("1/4", "1/3", "1/2", "2/3", "3/4", "1", "3/2", "2"))
        argv = ["verify", "lemma", "--id=3.2", f"--r={r}", f"--radius={radius}", steps, tol, "--json"]
        checks.append(Check("report", [argv]))
    for _ in range(2):
        n = rng.choice((-2, -1, 1, 2))
        radius = rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(1)))
        a = small_gauss(rng, 0.5 / float(radius) ** n)
        argv = ["verify", "lemma", "--id=3.4", f"--n={n}", f"--a={fmt_gauss(*a)}",
                f"--radius={radius}", steps, tol, "--json"]
        checks.append(Check("report", [argv]))
    for _ in range(2):
        j, k = rng.sample((-2, -1, 1, 2), 2)
        radius = rng.choice((Fraction(1, 2), Fraction(3, 4), Fraction(1)))
        a = small_gauss(rng, 0.5 / float(radius) ** j)
        b = small_gauss(rng, 0.5 / float(radius) ** k)
        argv = ["verify", "lemma", "--id=3.5", f"--j={j}", f"--k={k}", f"--a={fmt_gauss(*a)}",
                f"--b={fmt_gauss(*b)}", f"--radius={radius}", steps, tol, "--json"]
        checks.append(Check("report", [argv]))
    checks.append(Check("report", [["verify", "identities", steps, tol, "--json"]]))
    # int_gamma dz/(z-c) o dz/(z-b) around circle(c, rho) from z0, with b
    # outside the circle, is 2*pi*i*log(1 - (z0-c)/(b-c)); the reversed
    # word gives its negative because int_gamma dz/(z-b) = 0
    for k in range(4):
        c = grid_point(rng)
        rho = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)))
        turns = rng.choice((Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(5, 6)))
        w = (0, 0)
        while abs(complex(*w)) < 2:
            w = (rng.randint(-4, 4), rng.randint(-4, 4))
        b = (c[0] + rho * w[0], c[1] + rho * w[1])
        z0 = float(rho) * cmath.exp(2j * math.pi * float(turns))
        value = 2j * math.pi * cmath.log(1 - z0 / (complex(*b) - complex(*c)))
        fc, fb = f"(x-{fmt_gauss(*c)})", f"(x-{fmt_gauss(*b)})"
        f, g = (fc, fb) if k % 2 == 0 else (fb, fc)
        argv = ["integrate", f"--f={f}", f"--g={g}",
                f"--path=circle({fmt_gauss(*c)},{rho},{turns})", steps, tol, "--json"]
        checks.append(Check("integrate", [argv], {
            "value": value if k % 2 == 0 else -value, "tol": SCALAR_TOL,
        }))
    return checks


def chen_dlog_nilpotent(rng) -> list:
    steps, tol = f"--steps={STEPS}", f"--tol={DLOG_TOL:g}"
    checks = []
    # main theorem: a lasso from the far side of r1 around r1 alone
    for gens in (EPS, EPS_DELTA):
        r1, u, d = grid_point(rng), rng.choice(UNITS), rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
        r2 = shifted(r1, u, d)
        f = f"(x-{fmt_gauss(*r1)}{nilpotent_shift(rng, gens)})"
        g = f"(x-{fmt_gauss(*r2)}{nilpotent_shift(rng, gens[-1:])})"
        base = shifted(r1, u, -d / 2)
        argv = ["verify", "main-theorem", algebra_flag(gens), f"--f={f}", f"--g={g}",
                f"--point={fmt_gauss(*r1)}", f"--base={fmt_gauss(*base)}",
                f"--radius={d / 4}", "--trunc=12", steps, tol, "--json"]
        checks.append(Check("report", [argv]))
    # bilinear loop sum: a short shell around r and a large clockwise
    # circle around infinity, both reached along radial segments
    r, u = grid_point(rng), rng.choice(UNITS)
    f = f"(x-{fmt_gauss(*r)}{nilpotent_shift(rng, EPS)})"
    g = f"(x-{fmt_gauss(*r)}{nilpotent_shift(rng, EPS)})^-1"
    base = shifted(r, u, rng.choice((Fraction(1), Fraction(3, 2), Fraction(2))))
    argv = ["verify", "bilinear", algebra_flag(EPS), f"--f={f}", f"--g={g}",
            f"--base={fmt_gauss(*base)}", steps, tol, "--json"]
    checks.append(Check("report", [argv]))
    # commutator of two circles tangent at their common base point
    r1, u, d = grid_point(rng), rng.choice(UNITS), rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
    r2 = shifted(r1, u, d)
    back = (-u[0], -u[1])
    alpha = f"circle({fmt_gauss(*r1)},{d / 2},{UNIT_TURNS[u]})"
    beta = f"circle({fmt_gauss(*r2)},{d / 2},{UNIT_TURNS[back]})"
    f = f"(x-{fmt_gauss(*r1)}{nilpotent_shift(rng, EPS)})"
    g = f"(x-{fmt_gauss(*r2)}{nilpotent_shift(rng, EPS)})"
    argv = ["verify", "commutator", algebra_flag(EPS), f"--alpha={alpha}", f"--beta={beta}",
            f"--f={f}", f"--g={g}", steps, tol, "--json"]
    checks.append(Check("report", [argv]))
    return checks


SERIES_TRUNC = 12
UNIT_SCALES = ("2", "-1", "1/2", "3", "-1/3", "i", "(1-i)")


def exact_reciprocity(rng) -> list:
    checks = []
    for gens in (EPS, EPS_DELTA):
        for trunc in (10, 11, 12, 13, 14):
            r1, r2, r3 = rng.sample([(a, b) for a in GRID[1:-1] for b in GRID[1:-1]], 3)
            f = (f"{rng.choice(UNIT_SCALES)}*(x-{fmt_gauss(*r1)}{nilpotent_shift(rng, gens)})"
                 f"*(x-{fmt_gauss(*r2)})^-1")
            g = (f"{rng.choice(UNIT_SCALES)}*(x-{fmt_gauss(*r1)})^{(-1, 2)[trunc % 2]}"
                 f"*(x-{fmt_gauss(*r3)}{nilpotent_shift(rng, gens)})")
            argv = ["verify", "weil", algebra_flag(gens), f"--f={f}", f"--g={g}",
                    f"--trunc={trunc}", "--json"]
            checks.append(Check("report", [argv], {"exact": True}))
    for gens in (EPS, EPS_DELTA, EPS):
        f, g = fmt_series(gens, random_series(rng, gens)), fmt_series(gens, random_series(rng, gens))
        flags = [algebra_flag(gens), f"--trunc={SERIES_TRUNC}"]
        checks.append(Check("symbol", [
            ["symbol", *flags, f"--f={f}", f"--g={g}"],
            ["symbol", *flags, f"--f={g}", f"--g={f}"],
        ], {"gens": gens, "degree": ALGEBRAS[gens]}))
    for gens in (EPS, EPS_DELTA, EPS_DELTA):
        series = random_series(rng, gens)
        argv = ["factorize", algebra_flag(gens), f"--f={fmt_series(gens, series)}", f"--trunc={SERIES_TRUNC}", "--json"]
        checks.append(Check("factorize", [argv], {
            "gens": gens, "degree": ALGEBRAS[gens],
            "series": {e: {m: complex(*c) for m, c in el.items()} for e, el in series.items() if e < SERIES_TRUNC},
        }))
    return checks


BUILDERS = {
    "chen-scalar": chen_scalar,
    "chen-dlog-nilpotent": chen_dlog_nilpotent,
    "exact-reciprocity": exact_reciprocity,
}

# algebras whose elements each workload multiplies and inverts, for the
# algebra micro-timings: (generators, truncation degree)
SIGNATURES = {
    "chen-scalar": [((), 1)],
    "chen-dlog-nilpotent": [(EPS, 2), (EPS_DELTA, 3)],
    "exact-reciprocity": [(EPS, 2), (EPS_DELTA, 3)],
}


def build(workload: str, seed: int) -> list:
    """The checks of one pass; the same (workload, seed) gives the same list."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
