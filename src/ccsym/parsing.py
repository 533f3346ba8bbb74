"""Input grammar: scalar, element and series literals, factored rational functions.

One tokenizer and one Pratt-style expression parser feed the evaluators:
one fold for exact scalars (points, radii, path parameters), algebra
elements and Laurent series (the symbol pipeline), and factored
rational functions (the sphere harness).  `paths.parse_path` reads path
literals with the same parser.  Precedence is ^ above unary minus above
* and / above + and -; exponents are integer literals.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .algebra import AlgebraElement, AlgebraSignature, Backend
from .errors import CcsymError, InputError
from .laurent import INF, LaurentSeries
from .ratfunc import RationalFunctionA, poly_add, poly_mul, poly_reduction, poly_trim
from .scalars import GR_I, GaussianRational, gaussian, power

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
# its leaves before `_polyfrac` expands it and checked on every polynomial
# it builds, since expanding costs about the square of the degree.
MAX_SUM_DEGREE = 64


class Token(NamedTuple):
    kind: str  # NUM NAME OP END
    text: str
    pos: int


def tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(Token("OP", ch, i))
            i += 1
            continue
        raise InputError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("END", "", n))
    return tokens


# AST: ("num", int) ("name", str) ("neg", a) ("add"/"sub"/"mul"/"div", a, b)
#      ("pow", a, int)


def _ast_depth(node) -> int:
    """Depth of an expression tree, measured level by level without recursion."""
    level, depth = [node], 0
    while level:
        depth += 1
        level = [child for n in level for child in n[1:] if isinstance(child, tuple)]
    return depth


class ExpressionParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def advance(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.advance()
        if tok.text != text:
            raise InputError(
                f"expected {text!r} at position {tok.pos} in {self.text!r}, got {tok.text!r}"
            )
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise InputError(f"{message} at position {tok.pos} in {self.text!r}")

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

    def parse_sum(self):
        node = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            rhs = self.parse_unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_unary(self):
        if self.peek().text == "-":
            self.advance()
            return ("neg", self.nested(self.parse_unary))
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().text == "^":
            self.advance()
            return ("pow", base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        sign = 1
        if self.peek().text == "-":
            self.advance()
            sign = -1
        tok = self.advance()
        if tok.kind != "NUM":
            raise InputError(
                f"exponent must be an integer literal at position {tok.pos} in {self.text!r}"
            )
        return sign * self.integer(tok)

    def integer(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # more digits than Python converts
            raise InputError(f"number literal at position {tok.pos} is too long") from None

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "NUM":
            return ("num", self.integer(tok))
        if tok.kind == "NAME":
            return ("name", tok.text)
        if tok.text == "(":
            node = self.nested(self.parse_sum)
            self.expect(")")
            return node
        raise InputError(
            f"unexpected token {tok.text!r} at position {tok.pos} in {self.text!r}"
        )

    def parse_full(self):
        node = self.parse_expression()
        if self.peek().kind != "END":
            self.fail(f"trailing input {self.peek().text!r}")
        return node


def parse_expression(text: str):
    return ExpressionParser(text).parse_full()


# -- scalar, element and series evaluation ---------------------------------------
#
# One bottom-up fold serves scalars, elements and series: a subtree with
# neither x nor a generator stays an exact scalar, one without x an
# element, and a value moves up only where it meets one of a higher rank.
# Every value is exact: a float algebra reads it over its exact signature
# and rounds the result once, so 7/10 reads as the double nearest 0.7.


def _rank(value) -> int:
    return _RANKS.get(type(value), 1)


_RANKS = {GaussianRational: 0, LaurentSeries: 2}  # anything else is an element


def _lift(value, sig: AlgebraSignature, rank: int):
    """value as a value of the given rank or its own, whichever is higher."""
    if _rank(value) < min(rank, 1):
        value = sig.scalar(value)
    return LaurentSeries(sig, {0: value}) if _rank(value) < rank else value


def _lifted(op, rank=2):
    """op on two values, the one of higher rank on the left, whose type
    takes the other lifted to its rank, or to `rank` if that is lower."""

    def apply(a, b):
        ra, rb = _rank(a), _rank(b)
        if ra == rb:
            return op(a, b)
        if ra < rb:
            a, b, ra = b, a, rb
        return op(a, _lift(b, a.signature, min(ra, rank)))

    return apply


# a series times a scalar or an element scales by it, with no series product
_BINARY = {"add": _lifted(operator.add), "sub": lambda a, b: _BINARY["add"](a, -b),
           "mul": _lifted(lambda a, b: a.scale(b) if _rank(b) < _rank(a) == 2 else a * b, 1)}


def _fold(node, leaf, div, pow_):
    """Evaluate an AST with the ring operators of the values `leaf` gives
    for its num/name nodes; `div` and `pow_` supply / and ^."""
    kind = node[0]
    if kind in ("num", "name"):
        return leaf(node)
    if kind == "neg":
        return -_fold(node[1], leaf, div, pow_)
    if kind == "pow":
        return _power(_fold(node[1], leaf, div, pow_), node[2], pow_)
    a = _fold(node[1], leaf, div, pow_)
    b = _fold(node[2], leaf, div, pow_)
    return div(a, b) if kind == "div" else _BINARY[kind](a, b)


def _bit_length(value) -> int:
    """The largest bit length among the numerators and denominators of
    the exact scalars of an evaluated value, zero parts skipped."""
    if isinstance(value, GaussianRational):
        return max((n.bit_length() for q in (value.re, value.im) if q for n in (q.numerator, q.denominator)),
                   default=0)
    if isinstance(value, RationalFunctionA):
        parts = [r for r, _ in value.base_factors] + [value.scale, *value.pert_num, *value.pert_den]
    elif isinstance(value, _PolyFraction):
        parts = value.num + value.den
    else:  # an AlgebraElement, or a LaurentSeries of them
        parts = value.coeffs.values()
    return max(map(_bit_length, parts), default=0)


def _power(base, n: int, pow_):
    """pow_(base, n), unless MAX_POWER_BITS rules the result out."""
    if abs(n) * _bit_length(base) > MAX_POWER_BITS:
        raise InputError(
            f"power too large: the exponent times the bit length of the base's "
            f"numbers exceeds {MAX_POWER_BITS} bits"
        )
    return pow_(base, n)


def _evaluate(node, sig, top: int, text: str, trunc=INF):
    """The value of an expression with values up to rank `top`: 0 for
    scalars, 1 for elements, 2 for series in x, whose inverses are taken
    at `trunc`.  A value of lower rank that is not a unit is lifted to
    `top` before it is inverted, so the error names that context."""
    x = LaurentSeries.monomial(sig, 1) if top > 1 else None

    def leaf(node):
        name = node[1]
        if node[0] == "num":
            return gaussian(name)
        if top > 1 and name == "x":
            return x
        if top and name in sig.generators:
            return sig.gen(name)
        if name == "i":
            return GR_I
        raise InputError(f"unknown name {name!r} in {text!r}" if top else f"cannot use {name!r} in a scalar context")

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
        return LaurentSeries.monomial(sig, n) if top > 1 and base == x else base ** n

    return _fold(node, leaf, lambda a, b: _BINARY["mul"](a, invertible(b).inverse()), pow_)


def eval_scalar(node, text: str = "") -> GaussianRational:
    return _evaluate(node, None, 0, text)


def parse_scalar(text: str) -> GaussianRational:
    return eval_scalar(parse_expression(text), text)


def eval_element(node, sig: AlgebraSignature, text: str = "") -> AlgebraElement:
    """Evaluate an expression without x as an algebra element."""
    return _lift(_evaluate(node, sig, 1, text), sig, 1)


def _in_scalars_of(sig: AlgebraSignature, value):
    """A value read over sig's exact signature, widened once if sig is a float one."""
    return value if sig.backend is Backend.EXACT else value.widen()


def parse_element(text: str, sig: AlgebraSignature) -> AlgebraElement:
    return _in_scalars_of(sig, eval_element(parse_expression(text), sig.to_exact(), text))


def parse_series(text: str, sig: AlgebraSignature, trunc=INF) -> LaurentSeries:
    """The Laurent series in x of `text`, its inverses taken at `trunc`."""
    exact = sig.to_exact()
    return _in_scalars_of(sig, _lift(_evaluate(parse_expression(text), exact, 2, text, trunc), exact, 2).truncate(trunc))


def _reduction_lead(text: str, sig: AlgebraSignature):
    """The exponent of the first term of the series of `text` mod m, read over C,
    where the generators are 0, with each leaf, quotient and power cut after its
    first term; None when that reduction is 0 or leading terms cancel."""
    red = AlgebraSignature(sig.generators, 1)

    def lead(value):
        s = _lift(value, red, 2)
        return s.truncate(s.lower_bound + 1)

    def leaf(node):
        return lead(LaurentSeries.monomial(red, 1) if node == ("name", "x") else eval_element(node, red, text))

    try:  # a quotient by cancelled leading terms has no inverse
        s = lead(_fold(parse_expression(text), leaf, lambda a, b: a * lead(b).inverse(), lambda b, n: lead(b) ** n))
    except CcsymError:
        return None
    return min(s.coeffs, default=None)


# -- factored rational function evaluation -----------------------------------------


class _PolyFraction:
    """A fraction num/den of A-polynomials in x (lists, lowest degree first)."""

    __slots__ = ("sig", "num", "den", "text")

    def __init__(self, sig: AlgebraSignature, num: list, den: list, text: str):
        # a backstop for the sums `_reduction_spans` cannot bound
        if (degree := max(len(num), len(den)) - 1) > MAX_SUM_DEGREE:
            raise _degree_error(degree, text, what="sum with a polynomial of x-degree")
        self.sig, self.num, self.den, self.text = sig, num, den, text

    def __neg__(self):
        return _PolyFraction(self.sig, [-c for c in self.num], self.den, self.text)

    def __add__(self, other):
        sig = self.sig
        total = poly_add(poly_mul(self.num, other.den, sig), poly_mul(other.num, self.den, sig), sig)
        return _PolyFraction(sig, total, poly_mul(self.den, other.den, sig), self.text)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        num = poly_mul(self.num, other.num, self.sig)
        return _PolyFraction(self.sig, num, poly_mul(self.den, other.den, self.sig), self.text)

    def inverse(self):
        return _PolyFraction(self.sig, self.den, self.num, self.text)


def _polyfrac(node, sig: AlgebraSignature, text: str) -> _PolyFraction:
    """Evaluate a subtree as a fraction of A-polynomials in x."""

    def leaf(node):
        if node == ("name", "x"):
            return _PolyFraction(sig, [sig.zero(), sig.one()], [sig.one()], text)
        return _PolyFraction(sig, [eval_element(node, sig, text)], [sig.one()], text)

    def pow_(base, n):
        return power(base, n, _PolyFraction(sig, [sig.one()], [sig.one()], text))

    return _fold(node, leaf, lambda a, b: a * b.inverse(), pow_)


def _classify_poly(p: list, sig: AlgebraSignature, text: str) -> RationalFunctionA:
    """Turn an A-polynomial into factored form.  The reduction must be a
    constant, a monomial c*x^k, or affine c*(x-r); anything else needs
    explicitly factored input."""
    p = poly_trim(list(p))
    red = poly_reduction(p)
    if not red:
        raise InputError(f"nilpotent (non-invertible) factor in {text!r}")
    support = [k for k, c in enumerate(red) if c]
    c_lead = red[-1]
    c_elt = sig.scalar(c_lead)
    if len(support) == 1:
        k = support[0]
        base = ((gaussian(0), k),) if k else ()
        return RationalFunctionA(sig, base, c_elt, p, [sig.zero()] * k + [c_elt])
    if len(red) == 2:
        root = -(red[0] / red[1])
        return RationalFunctionA(sig, ((root, 1),), c_elt, p, [sig.scalar(-root) * c_lead, c_elt])
    raise _degree_error(len(red) - 1, text)


def _degree_error(degree: int, text: str, known=True, what="factor with reduction of degree") -> InputError:
    cap = f" (a sum may reach degree {MAX_SUM_DEGREE})" if degree > MAX_SUM_DEGREE else ""
    return InputError(f"{what} {'' if known else 'up to '}{degree} in {text!r}{cap}; "
                      "write the input as a product of (x - root)^m factors")


def _reduction_spans(node, sig: AlgebraSignature, text: str):
    """The highest x-degree of the reductions mod m of the numerator and
    the denominator that `_polyfrac` builds, read off the leaves before any
    product is formed, and whether both are exact: where the two terms of
    a sum reach the same degree they may cancel, and the degrees are only
    bounds.  A zero reduction has degree -INF."""
    kind = node[0]
    if node == ("name", "x"):
        return 1, 0, True
    if kind in ("num", "name"):
        return (0 if eval_element(node, sig, text).is_unit() else -INF), 0, True
    if kind == "neg":
        return _reduction_spans(node[1], sig, text)
    if kind == "pow":
        num, den, exact = _reduction_spans(node[1], sig, text)
        n = node[2]
        if n < 0:
            num, den, n = den, num, -n
        return (num * n, den * n, exact) if n else (0, 0, True)
    (a, b, exact_a), (c, d, exact_c) = (_reduction_spans(t, sig, text) for t in node[1:])
    if kind == "div":
        c, d = d, c
    if kind in ("mul", "div"):
        return a + c, b + d, exact_a and exact_c
    return max(a + d, c + b), b + d, exact_a and exact_c and a + d != c + b  # num = a*d +- c*b


def eval_ratfunc(node, sig: AlgebraSignature, text: str = "") -> RationalFunctionA:
    """A subtree with neither x nor a generator is one constant, unless its
    value is 0; the rest is read factor by factor, over the exact sig."""
    if "i" not in sig.generators:  # a scalar reads i as the imaginary unit
        try:
            c = eval_scalar(node, text)
        except InputError:  # x, a generator, a zero divisor or a power past the cap
            c = None
        if c:
            return RationalFunctionA.constant(sig, c)
    kind = node[0]
    if kind == "mul":
        return eval_ratfunc(node[1], sig, text) * eval_ratfunc(node[2], sig, text)
    if kind == "div":
        return eval_ratfunc(node[1], sig, text) * eval_ratfunc(node[2], sig, text).inverse()
    if kind == "pow":
        return _power(eval_ratfunc(node[1], sig, text), node[2], operator.pow)
    if kind == "neg":
        return RationalFunctionA.constant(sig, -1) * eval_ratfunc(node[1], sig, text)
    if kind == "name" and node[1] == "x":
        return RationalFunctionA.monic_linear(sig, 0)
    if kind in ("num", "name"):
        return RationalFunctionA.constant(sig, eval_element(node, sig, text))
    if kind in ("add", "sub"):
        # a reduction above MAX_SUM_DEGREE is named and rejected before the
        # powers that build it are expanded; `_classify_poly` rejects lower ones
        num, den, known = _reduction_spans(node, sig, text)
        too_high = [hi for hi in (num, den) if hi > MAX_SUM_DEGREE]
        if too_high:
            raise _degree_error(too_high[0], text, known)
        frac = _polyfrac(node, sig, text)
        return _classify_poly(frac.num, sig, text) * _classify_poly(frac.den, sig, text).inverse()
    raise InputError(f"bad function expression in {text!r}")


def parse_ratfunc(text: str, sig: AlgebraSignature) -> RationalFunctionA:
    """The function over sig's exact signature, whichever sig's scalars are."""
    f = eval_ratfunc(parse_expression(text), sig.to_exact(), text)
    f.validate_poles()
    return f
