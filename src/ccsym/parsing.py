"""Input grammar: scalar, element and series literals, factored rational functions.

One tokenizer and one precedence-climbing parser feed the evaluators:
one fold for exact scalars (points, radii, path parameters), algebra
elements and Laurent series (the symbol pipeline), and factored
rational functions (the sphere harness).  `paths.parse_path` reads path
literals with the same parser.  Precedence is ^ above unary minus above
* and / above + and -; exponents are integer literals.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import NamedTuple

from .algebra import AlgebraElement, AlgebraSignature, Backend
from .errors import CcsymError, InputError
from .laurent import INF, LaurentSeries
from .ratfunc import RationalFunctionA, poly_mul, poly_reduction
from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, power

# Bounds both the nesting the parser recurses through (parentheses, unary
# minus, path constructors) and the depth of the tree the evaluators
# recurse through, where a flat sum of n terms is n levels deep.
MAX_DEPTH = 100
# Bounds the size of an exact power before it is computed, estimated as
# |n| times the largest bit length among the base's numerators and
# denominators; it keeps every result printable (Python prints ints of
# at most 4300 digits) and quick to compute.
MAX_POWER_BITS = 8192
# Bounds the x-degree a sum's numerator or denominator may reach, read off
# its leaves before the sum is expanded and checked on every polynomial
# the expansion builds, since expanding costs about the square of the degree.
MAX_SUM_DEGREE = 64


def tokenize(text: str) -> list:
    """(kind, text, position) tuples, kind NUM, NAME, OP or END: a number is
    a run of ASCII digits, a name a letter or _ and the letters, digits
    and _ after it.  Plain tuples: building a NamedTuple per token took
    about as long as the scan itself."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in "+-*/^(),":
            tokens.append(("OP", ch, i))
        elif "0" <= ch <= "9":
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("NUM", text[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
        elif not ch.isspace():
            raise InputError(f"unexpected character {ch!r} at position {i}")
        i = j
    tokens.append(("END", "", n))
    return tokens


# AST: ("num", int) ("name", str) ("neg", a) ("add"/"sub"/"mul"/"div", a, b)
#      ("pow", a, int)

_INFIX = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2)}


def _ast_depth(node) -> int:
    """Depth of an expression tree, measured level by level without recursion."""
    level, depth = [node], 0
    while level:
        depth += 1
        level = [child for n in level for child in n[1:] if isinstance(child, tuple)]
    return depth


def _integer(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than Python converts
        raise InputError(f"number literal at position {pos} is too long") from None


class ExpressionParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self) -> tuple:
        return self.tokens[self.idx]

    def advance(self) -> tuple:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, text: str):
        _, got, pos = self.advance()
        if got != text:
            raise InputError(f"expected {text!r} at position {pos} in {self.text!r}, got {got!r}")

    def fail(self, message: str):
        raise InputError(f"{message} at position {self.peek()[2]} in {self.text!r}")

    def nested(self, parse):
        """parse() one nesting level deeper, within MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"input nested deeper than {MAX_DEPTH} levels")
        node = parse()
        self.depth -= 1
        return node

    def parse_expression(self):
        node = self.parse_sum()
        if _ast_depth(node) > MAX_DEPTH:
            self.fail(f"expression deeper than {MAX_DEPTH} levels")
        return node

    def parse_sum(self, level=1):
        """Operands joined left to right by the infix operators of `level`
        or above: + and - are level 1, * and / level 2."""
        node = self.parse_unary()
        while (op := _INFIX.get(self.tokens[self.idx][1])) and op[1] >= level:
            self.idx += 1
            node = (op[0], node, self.parse_unary() if op[1] == 2 else self.parse_sum(2))
        return node

    def parse_unary(self):
        """-u, or a number, a name or a parenthesized sum, then an optional
        ^ with an integer literal, signed or not."""
        kind, text, pos = self.advance()
        if text == "-":
            return ("neg", self.nested(self.parse_unary))
        if kind == "NUM":
            node = ("num", _integer(text, pos))
        elif kind == "NAME":
            node = ("name", text)
        elif text == "(":
            node = self.nested(self.parse_sum)
            self.expect(")")
        else:
            raise InputError(f"unexpected token {text!r} at position {pos} in {self.text!r}")
        if self.peek()[1] != "^":
            return node
        sign = -1 if self.tokens[self.idx + 1][1] == "-" else 1
        self.idx += 1 + (sign < 0)  # past the ^ and its sign
        kind, text, pos = self.advance()
        if kind != "NUM":
            raise InputError(f"exponent must be an integer literal at position {pos} in {self.text!r}")
        return ("pow", node, sign * _integer(text, pos))


def parse_expression(text: str):
    parser = ExpressionParser(text)
    node = parser.parse_expression()
    if parser.peek()[0] != "END":
        parser.fail(f"trailing input {parser.peek()[1]!r}")
    return node


# -- scalar, element and series evaluation ---------------------------------------
#
# One bottom-up fold serves scalars, elements and series: a subtree with
# neither x nor a generator stays an exact scalar, one without x an
# element, and a value moves up only where it meets one of a higher rank.
# Every value is exact: a float algebra reads it over its exact signature
# and rounds the result once, so 7/10 reads as the double nearest 0.7.


def _rank(value) -> int:
    return _RANKS.get(type(value), 1)


_RANKS = {GaussianRational: 0, LaurentSeries: 2}  # anything else is an element, or a sum path's _Fraction or _Span


def _scaled(a: AlgebraElement, c: GaussianRational) -> AlgebraElement:
    """a * c for an exact scalar c, on a's numerators: no element is built for c."""
    if not c:
        return a.signature.zero()
    p, q = c.p, c.q
    return AlgebraElement._normal(a.signature, {m: (re * p - im * q, re * q + im * p) for m, (re, im) in a.num.items()},
                                  a.den * c.d)


def _lift(value, sig: AlgebraSignature, rank: int):
    """value as a value of the given rank or its own, whichever is higher."""
    if (own := _rank(value)) < min(rank, 1):
        value, own = _scaled(sig.one(), value), 1
    return LaurentSeries(sig, {0: value}) if own < rank else value


def _ranked(a, b):
    """a, b and their ranks, the value of the higher rank first."""
    ra, rb = _RANKS.get(type(a), 1), _RANKS.get(type(b), 1)
    return (a, b, ra, rb) if ra >= rb else (b, a, rb, ra)


def _add(a, b):
    a, b, ra, rb = _ranked(a, b)
    return a + (b if ra == rb else _lift(b, a.signature, ra))


def _mul(a, b):
    """a * b: an element times a scalar on its numerators, a series times
    a scalar or an element by `scale`."""
    a, b, ra, rb = _ranked(a, b)
    if ra == rb:
        return a * b
    if b is GR_ONE:  # the denominator 1 of a sum's leaves, or a power 0 of a scalar: no product
        return a
    return _scaled(a, b) if ra == 1 else a.scale(_lift(b, a.signature, 1))


_BINARY = {"add": _add, "sub": lambda a, b: _add(a, -b), "mul": _mul}


def _fold(node, leaf, div, pow_):
    """Evaluate an AST with the ring operators of the values `leaf` gives
    for its num/name nodes; `div` and `pow_` supply / and ^."""
    kind = node[0]
    if kind in ("num", "name"):
        return leaf(node)
    a = _fold(node[1], leaf, div, pow_)
    if kind == "neg":
        return -a
    if kind == "pow":
        return _power(a, node[2], pow_)
    b = _fold(node[2], leaf, div, pow_)
    return div(a, b) if kind == "div" else _BINARY[kind](a, b)


def _bit_length(value) -> int:
    """The largest bit length among the numerators and denominators of
    the exact scalars of an evaluated value, zero parts skipped; those of
    (p + q i)/d are p/d and q/d in lowest terms, one gcd each."""
    if _rank(value) == 0:
        d = value.d
        return max((k.bit_length() for n in (value.p, value.q) if n for g in [gcd(n, d)] for k in (n // g, d // g)),
                   default=0)
    if isinstance(value, RationalFunctionA):
        parts = [r for r, _ in value.base_factors] + [value.scale, *value.pert_num, *value.pert_den]
    else:  # an AlgebraElement, a LaurentSeries of them, a _Fraction of those, or a _Span, which has none
        parts = value[:2] if isinstance(value, _Fraction) else getattr(value, "coeffs", {}).values()
    return max(map(_bit_length, parts), default=0)


def _power(base, n: int, pow_):
    """pow_(base, n), unless MAX_POWER_BITS rules the result out."""
    if abs(n) * _bit_length(base) > MAX_POWER_BITS:
        raise InputError(
            f"power too large: the exponent times the bit length of the base's "
            f"numbers exceeds {MAX_POWER_BITS} bits"
        )
    return pow_(base, n)


def _leaves(sig: AlgebraSignature, top: int, text: str):
    """The reader of num and name leaves up to rank `top`: an exact scalar
    or i, a generator of sig (each built once), and x at rank 2."""
    named = {g: sig.gen(g) for g in sig.generators} if top else {}
    if top > 1:
        named["x"] = LaurentSeries(sig, {1: sig.one()})
    named.setdefault("i", GR_I)

    def leaf(node):
        if node[0] == "num":
            return GaussianRational(node[1])
        if (value := named.get(node[1])) is None:
            raise InputError(f"unknown name {node[1]!r} in {text!r}" if top else f"cannot use {node[1]!r} in a scalar context")
        return value

    return leaf


def _evaluate(node, sig, top: int, text: str, trunc=INF):
    """The value of an expression with values up to rank `top`: 0 for
    scalars, 1 for elements, 2 for series in x, whose inverses are taken
    at `trunc`.  A value of lower rank that is not a unit is lifted to
    `top` before it is inverted, so the error names that context."""
    leaf = _leaves(sig, top, text)
    x = leaf(("name", "x")) if top > 1 else None

    def invertible(value):
        """value, to be inverted: a unit scalar or element as it is, else lifted
        to `top`; a series of more than one term is cut at trunc."""
        if bool(value) if _rank(value) == 0 else _rank(value) == 1 and value.is_unit():
            return value
        if not top:
            raise InputError(f"division by zero in {text!r}")
        value = _lift(value, sig, top)
        return value if len(value.coeffs) == 1 or top < 2 else value.truncate(trunc)

    def pow_(base, n):
        base = invertible(base) if n < 0 else base
        return LaurentSeries(sig, {n: sig.one()}) if base == x else base ** n

    return _fold(node, leaf, lambda a, b: _mul(a, invertible(b).inverse()), pow_)


def eval_scalar(node, text: str = "") -> GaussianRational:
    return _evaluate(node, None, 0, text)


def parse_scalar(text: str) -> GaussianRational:
    return eval_scalar(parse_expression(text), text)


def parse_element(text: str, sig: AlgebraSignature) -> AlgebraElement:
    """The element of `text` read over sig's exact signature, widened once for a float sig."""
    exact = sig.to_exact()
    value = _lift(_evaluate(parse_expression(text), exact, 1, text), exact, 1)
    return value if sig.backend is Backend.EXACT else value.widen()


def parse_series(text: str, sig: AlgebraSignature, trunc=INF) -> LaurentSeries:
    """The Laurent series in x of `text`, its inverses taken at `trunc`, as `parse_element` reads it."""
    exact = sig.to_exact()
    value = _lift(_evaluate(parse_expression(text), exact, 2, text, trunc), exact, 2).truncate(trunc)
    return value if sig.backend is Backend.EXACT else value.widen()


def _reduction_lead(text: str, sig: AlgebraSignature):
    """The exponent of the first term of the series of `text` mod m, read over C,
    where the generators are 0, with each leaf, quotient and power cut after its
    first term; None when that reduction is 0 or leading terms cancel."""
    red = AlgebraSignature(sig.generators, 1)
    leaf = _leaves(red, 2, text)

    def lead(value):
        s = _lift(value, red, 2)
        return s.truncate(s.lower_bound + 1)

    try:  # a quotient by cancelled leading terms has no inverse
        s = lead(_fold(parse_expression(text), lambda node: lead(leaf(node)), lambda a, b: a * lead(b).inverse(),
                       lambda b, n: lead(b) ** n))
    except CcsymError:
        return None
    return min(s.coeffs, default=None)


# -- factored rational function evaluation -----------------------------------------
#
# A sum is read as one fraction num/den of polynomials in x (scalars,
# elements or series), every sum and product of two fractions taken over
# both denominators.  Before that fold, the same fold over `_Span`s
# bounds the x-degrees of the reductions mod m of num and den.


class _Fraction(NamedTuple):
    """num/den, each a scalar, an element or a series in x; `text` names the sum in errors."""

    num: object
    den: object
    text: str

    def __add__(self, other):
        return self.make(_add(_mul(self.num, other.den), _mul(other.num, self.den)), _mul(self.den, other.den))

    def __neg__(self):
        return _Fraction(-self.num, self.den, self.text)

    def __mul__(self, other):
        return self.make(_mul(self.num, other.num), _mul(self.den, other.den))

    def inverse(self):
        return _Fraction(self.den, self.num, self.text)

    def make(self, num, den):
        # a backstop for the sums the `_Span` fold cannot bound
        if (degree := max(max(p.coeffs, default=0) if _rank(p) == 2 else 0 for p in (num, den))) > MAX_SUM_DEGREE:
            raise _degree_error(degree, self.text, what="sum with a polynomial of x-degree")
        return _Fraction(num, den, self.text)


class _Span(NamedTuple):
    """The x-degrees of the reductions mod m of a fraction's numerator and
    denominator, -INF for 0, and whether both are exact: where the two
    terms of a sum reach the same degree they may cancel, and the degrees
    are only bounds."""

    num: float
    den: float = 0
    exact: bool = True

    def __add__(self, other):
        a, c = self.num + other.den, other.num + self.den
        return _Span(max(a, c), self.den + other.den, self.exact and other.exact and a != c)

    def __neg__(self):
        return self

    def __mul__(self, other):
        return _Span(self.num + other.num, self.den + other.den, self.exact and other.exact)

    def inverse(self):
        return _Span(self.den, self.num, self.exact)


def _fraction(node, leaf, one):
    """Fold a subtree into a `_Fraction` or a `_Span`, as `leaf` and `one` are."""
    return _fold(node, leaf, lambda a, b: a * b.inverse(), lambda b, n: power(b, n, one))


def _factored(value, sig: AlgebraSignature, text: str):
    """(base factors, lead, p, r) of a polynomial p in x, as a list over A, whose
    reduction mod m must be a constant or monomial c*x^k, or affine c*(x-r):
    r is that reduction as a list over A.  Anything else needs explicitly
    factored input."""
    s = _lift(value, sig, 2)
    p = [s.coeffs.get(k, sig.zero()) for k in range(max(s.coeffs, default=-1) + 1)]
    red = poly_reduction(p)
    if not red:
        raise InputError(f"nilpotent (non-invertible) factor in {text!r}")
    support = [k for k, c in enumerate(red) if c]
    if len(support) > 1 and len(red) > 2:
        raise _degree_error(len(red) - 1, text)
    base = ((-(red[0] / red[1]), 1),) if len(support) > 1 else ((GR_ZERO, support[0]),) if support[0] else ()
    return base, red[-1], p, [_scaled(sig.one(), c) for c in red]


def _degree_error(degree: int, text: str, known=True, what="factor with reduction of degree") -> InputError:
    cap = f" (a sum may reach degree {MAX_SUM_DEGREE})" if degree > MAX_SUM_DEGREE else ""
    return InputError(f"{what} {'' if known else 'up to '}{degree} in {text!r}{cap}; "
                      "write the input as a product of (x - root)^m factors")


def _sum(node, sig: AlgebraSignature, text: str) -> RationalFunctionA:
    """A sum as the quotient of its factored numerator and denominator, built once."""
    leaf = _leaves(sig, 2, text)
    # a reduction above MAX_SUM_DEGREE is named and rejected before the
    # powers that build it are expanded; `_factored` rejects lower ones.
    # x reduces to degree 1, a nonzero scalar to 0 and a generator to 0 mod m
    num, den, known = _fraction(
        node, lambda node: _Span(1 if (rank := _rank(v := leaf(node))) == 2 else 0 if rank == 0 and v else -INF),
        _Span(0))
    if (high := num if num > MAX_SUM_DEGREE else den) > MAX_SUM_DEGREE:
        raise _degree_error(high, text, known)
    frac = _fraction(node, lambda node: _Fraction(leaf(node), GR_ONE, text), _Fraction(GR_ONE, GR_ONE, text))
    base, lead, *top = _factored(frac.num, sig, text)
    inverse, lead_den, *bottom = _factored(frac.den, sig, text)
    # the perturbations p/r of both, the denominator's inverted, multiplied as
    # `RationalFunctionA.__mul__` does: one that is 1/1 (p = r) leaves the other as it is
    perts = [pert for pert in (top, bottom[::-1]) if pert[0] != pert[1]]
    pert = perts[0] if len(perts) == 1 else [poly_mul(*pair, sig) for pair in zip(*perts)] if perts else ()
    return RationalFunctionA(sig, base + tuple((r, -m) for r, m in inverse), sig.scalar(lead / lead_den), *pert)


def eval_ratfunc(node, sig: AlgebraSignature, text: str = ""):
    """The function of a subtree read factor by factor over the exact sig,
    or, for a subtree with neither x nor a generator whose value is not 0,
    that value as an exact scalar; a scalar factor joins a function's scale."""
    kind = node[0]
    if kind not in ("mul", "div") and "i" not in sig.generators:  # a scalar reads i as the imaginary unit
        try:
            c = eval_scalar(node, text)
        except InputError:  # x, a generator, a zero divisor or a power past the cap
            c = None
        if c:
            return c
    if kind in ("num", "name"):
        return (RationalFunctionA.monic_linear(sig, 0) if node[1] == "x"
                else RationalFunctionA.constant(sig, _evaluate(node, sig, 1, text)))
    if kind in ("add", "sub"):
        return _sum(node, sig, text)
    f = eval_ratfunc(node[1], sig, text)
    if kind == "pow":
        return _power(_function(sig, f), node[2], operator.pow)
    g = GaussianRational(-1) if kind == "neg" else eval_ratfunc(node[2], sig, text)  # -f is f times -1
    g = g.inverse() if kind == "div" else g
    return f * g if _rank(f) == _rank(g) == 0 else _function(sig, f) * _function(sig, g)


def _function(sig: AlgebraSignature, value) -> RationalFunctionA:
    return RationalFunctionA.constant(sig, value) if _rank(value) == 0 else value


def parse_ratfunc(text: str, sig: AlgebraSignature) -> RationalFunctionA:
    """The function over sig's exact signature, whichever sig's scalars are."""
    exact = sig.to_exact()
    f = _function(exact, eval_ratfunc(parse_expression(text), exact, text))
    f.validate_poles()
    return f
