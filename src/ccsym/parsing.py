"""Input grammar: series literals, factored rational functions, paths.

One tokenizer and one Pratt-style expression parser feed three
evaluators: Laurent series (for the symbol pipeline), factored rational
functions (for the sphere harness), and exact scalars (for points,
radii and path parameters).  Precedence is ^ above unary minus above
* and / above + and -; exponents are integer literals.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .algebra import AlgebraElement, AlgebraSignature
from .errors import InputError
from .laurent import INF, LaurentSeries
from .paths import Path, circle, commutator, concat, segment
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


@dataclass(frozen=True)
class Token:
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

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


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
    the exact scalars of an evaluated value; a float scalar counts 1."""
    if isinstance(value, GaussianRational):
        return max(n.bit_length() for q in (value.re, value.im) for n in (q.numerator, q.denominator))
    if isinstance(value, complex):
        return 1
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


def eval_scalar(node, text: str = "") -> GaussianRational:
    def leaf(node):
        if node[0] == "num":
            return gaussian(node[1])
        if node[1] == "i":
            return GR_I
        raise InputError(f"cannot use {node[1]!r} in a scalar context")

    def div(a, b):
        if not b:
            raise InputError(f"division by zero in {text!r}")
        return a / b

    return _fold(node, leaf, div, operator.pow)


def parse_scalar(text: str) -> GaussianRational:
    return eval_scalar(parse_expression(text), text)


def eval_element(node, sig: AlgebraSignature, text: str = "") -> AlgebraElement:
    """Evaluate an expression without x as an algebra element."""

    def leaf(node):
        if node[0] == "num":
            return sig.scalar(node[1])
        if node[1] in sig.generators:
            return sig.gen(node[1])
        if node[1] == "i":
            return sig.scalar(GR_I if sig.backend.value == "exact" else 1j)
        raise InputError(f"unknown name {node[1]!r} in {text!r}")

    return _fold(node, leaf, lambda a, b: a * b.inverse(), operator.pow)


def parse_element(text: str, sig: AlgebraSignature) -> AlgebraElement:
    return eval_element(parse_expression(text), sig, text)


def eval_series(node, sig: AlgebraSignature, trunc, text: str = "") -> LaurentSeries:
    """Evaluate as a Laurent series in x; inverses are taken at `trunc`."""

    def leaf(node):
        if node == ("name", "x"):
            return LaurentSeries.monomial(sig, 1)
        return LaurentSeries(sig, {0: eval_element(node, sig, text)})

    def pow_(base, n):
        return base.truncate(trunc) ** n if n < 0 else base ** n

    return _fold(node, leaf, lambda a, b: a * b.truncate(trunc).inverse(), pow_)


def parse_series(text: str, sig: AlgebraSignature, trunc=INF) -> LaurentSeries:
    series = eval_series(parse_expression(text), sig, trunc, text)
    return series.truncate(trunc)


# -- factored rational function evaluation -----------------------------------------


@dataclass(frozen=True)
class _PolyFraction:
    """A fraction num/den of A-polynomials in x (lists, lowest degree first)."""

    sig: AlgebraSignature
    num: list
    den: list
    text: str

    def __post_init__(self):  # a backstop for the sums `_reduction_spans` cannot bound
        if (degree := max(len(self.num), len(self.den)) - 1) > MAX_SUM_DEGREE:
            raise _degree_error(degree, self.text, known=False)

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


def _degree_error(degree: int, text: str, known: bool = True) -> InputError:
    cap = f" (a sum may reach degree {MAX_SUM_DEGREE})" if degree > MAX_SUM_DEGREE else ""
    return InputError(
        f"factor with reduction of degree {'' if known else 'up to '}{degree} in {text!r}{cap}; "
        "write the input as a product of (x - root)^m factors"
    )


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
        # factor over the exact scalars, so that a root stays exact on the float backend
        exact = AlgebraSignature(sig.generators, sig.truncation_degree)
        # a reduction above MAX_SUM_DEGREE is named and rejected before the
        # powers that build it are expanded; `_classify_poly` rejects lower ones
        num, den, known = _reduction_spans(node, exact, text)
        too_high = [hi for hi in (num, den) if hi > MAX_SUM_DEGREE]
        if too_high:
            raise _degree_error(too_high[0], text, known)
        frac = _polyfrac(node, exact, text)
        f = _classify_poly(frac.num, exact, text) * _classify_poly(frac.den, exact, text).inverse()
        return f if exact == sig else f.widen()
    raise InputError(f"bad function expression in {text!r}")


def parse_ratfunc(text: str, sig: AlgebraSignature) -> RationalFunctionA:
    f = eval_ratfunc(parse_expression(text), sig, text)
    f.validate_poles()
    return f


# -- path literals -------------------------------------------------------------------


class PathParser(ExpressionParser):
    """Path grammar: circle(c,r[,angle]), seg(a,b), concat(p,...),
    rev(p), comm(p,q); parameters are scalar expressions."""

    def parse_path(self) -> Path:
        tok = self.advance()
        if tok.kind != "NAME":
            raise InputError(
                f"expected a path constructor at position {tok.pos} in {self.text!r}"
            )
        name = tok.text
        self.expect("(")
        if name == "circle":
            args = self.scalar_args(2, 3)
            center = complex(args[0])
            radius = complex(args[1])
            if radius.imag:
                raise InputError("circle radius must be real")
            angle = 2 * math.pi * float(complex(args[2]).real) if len(args) > 2 else 0.0
            return circle(center, radius.real, angle)
        if name == "seg":
            args = self.scalar_args(2, 2)
            return segment(complex(args[0]), complex(args[1]))
        if name == "concat":
            paths = [self.nested(self.parse_path)]
            while self.peek().text == ",":
                self.advance()
                paths.append(self.nested(self.parse_path))
            self.expect(")")
            return concat(*paths)
        if name == "rev":
            inner = self.nested(self.parse_path)
            self.expect(")")
            return inner.reversed()
        if name == "comm":
            first = self.nested(self.parse_path)
            self.expect(",")
            second = self.nested(self.parse_path)
            self.expect(")")
            return commutator(first, second)
        raise InputError(f"unknown path constructor {name!r} in {self.text!r}")

    def scalar_args(self, at_least: int, at_most: int):
        args = [eval_scalar(self.parse_expression(), self.text)]
        while self.peek().text == ",":
            self.advance()
            args.append(eval_scalar(self.parse_expression(), self.text))
        self.expect(")")
        if not at_least <= len(args) <= at_most:
            raise InputError(
                f"wrong number of arguments in {self.text!r}: got {len(args)}"
            )
        return args


def parse_path(text: str) -> Path:
    parser = PathParser(text)
    path = parser.parse_path()
    tok = parser.peek()
    if tok.kind != "END":
        raise InputError(f"trailing input {tok.text!r} at position {tok.pos} in {text!r}")
    return path
