"""Independent arithmetic for the correctness gate.

Nothing here imports ccsym: elements of the truncated algebra
C[gens]/(total degree >= N) are plain {exponent tuple: scalar} maps,
multiplied by dense convolution, so the gate does not share a code path
with the layer it checks.  Exact scalars are (re, im) pairs of
`fractions.Fraction`; float scalars are `complex`.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def dense_mul(a: dict, b: dict, degree: int, mul=gmul, add=gadd, zero=ZERO) -> dict:
    """Product of two exponent-tuple maps, dropping total degree >= degree.
    Exact (re, im) scalars by default; pass complex operations for floats."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            if sum(mono) >= degree:
                continue
            c = mul(c1, c2)
            out[mono] = add(out[mono], c) if mono in out else c
    return {m: c for m, c in out.items() if c != zero}


def monomial_of(text: str, gens) -> tuple:
    """'eps^2*delta' -> exponent tuple over gens; '1' is the empty monomial."""
    exps = [0] * len(gens)
    if text != "1":
        for part in text.split("*"):
            name, _, power = part.partition("^")
            exps[gens.index(name)] += int(power) if power else 1
    return tuple(exps)


# -- exact element text ------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|[-+*/^()])")


class _ElementParser:
    """Recursive descent over the printed form of an exact element, such
    as `1/2-3/4*i+(1-1*i)*eps-eps*delta^2`.  Values are exponent maps."""

    def __init__(self, text: str, gens, degree: int):
        self.tokens = _TOKEN.findall(text)
        if "".join(self.tokens) != re.sub(r"\s+", "", text):
            raise ValueError(f"unexpected character in {text!r}")
        self.pos = 0
        self.gens = tuple(gens)
        self.degree = degree

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r} at token {self.pos}, got {tok!r}")
        self.pos += 1
        return tok

    def constant(self, g):
        return {(0,) * len(self.gens): g} if g != ZERO else {}

    def parse(self) -> dict:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.pos}")
        return value

    def expr(self) -> dict:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        out = self.scaled(self.term(), sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            for m, c in self.scaled(self.term(), sign).items():
                out[m] = gadd(out.get(m, ZERO), c)
        return {m: c for m, c in out.items() if c != ZERO}

    @staticmethod
    def scaled(value: dict, sign: int) -> dict:
        return {m: (c[0] * sign, c[1] * sign) for m, c in value.items()}

    def term(self) -> dict:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = dense_mul(out, self.factor(), self.degree)
        return out

    def factor(self) -> dict:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            self.take(")")
            return value
        if tok.isdigit():
            num = Fraction(int(tok))
            if self.peek() == "/":
                self.take()
                num /= int(self.take())
            return self.constant((num, Fraction(0)))
        if tok == "i":
            return self.constant((Fraction(0), Fraction(1)))
        if tok in self.gens:
            power = 1
            if self.peek() == "^":
                self.take()
                power = int(self.take())
            mono = tuple(power if g == tok else 0 for g in self.gens)
            return {mono: ONE} if sum(mono) < self.degree else {}
        raise ValueError(f"unexpected token {tok!r}")


def parse_exact_element(text: str, gens, degree: int) -> dict:
    return _ElementParser(text, gens, degree).parse()


def exact_one(ngens: int) -> dict:
    return {(0,) * ngens: ONE}


# -- float Laurent polynomials -------------------------------------------------


def json_element(entry: dict, gens) -> dict:
    """A `{monomial: [re, im]}` JSON map as an exponent map of complex."""
    return {monomial_of(k, gens): complex(v[0], v[1]) for k, v in entry.items()}


def series_mul(f: dict, g: dict, degree: int) -> dict:
    """Product of {x-exponent: exponent map} Laurent polynomials."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            prod = dense_mul(c1, c2, degree, operator.mul, operator.add, 0j)
            acc = out.setdefault(e1 + e2, {})
            for m, c in prod.items():
                acc[m] = acc.get(m, 0j) + c
    return out


def reconstruct_factorization(payload: dict, gens, degree: int) -> dict:
    """a0 * x^nu * prod_j (1 - a_j x^j) from the factorize JSON report."""
    one = {(0,) * len(gens): 1 + 0j}
    out = {payload["nu"]: json_element(payload["a0"], gens)}
    for key in ("neg_factors", "pos_factors"):
        for j, entry in payload[key].items():
            a = json_element(entry, gens)
            out = series_mul(out, {0: one, int(j): {m: -c for m, c in a.items()}}, degree)
    return out
