"""1-forms on the sphere with values in A, sampled in columns.

The numeric engine holds elements of A as dense lists over the
monomials its operands can reach, in degree order (`DenseLayout`), and
a block of nodes as columns: per monomial, one value a node.  A
layout's product and quotient take columns, so each runs in Python once
per block instead of once per node; the quotient is one forward
substitution, as a unit's monomials come in degree order.

A form is a handle with a declared pole set and one evaluator, its
`sampler(layout)`: `sample(zs, vs)` returns v times the form's
coefficient of dz at z, per node z with velocity v, as columns over the
transport's `layout`, which holds the form's own.  `eval(z)` is that
sampler on one node with velocity 1, a dense list over the form's own
`layout`, and `value(z)` the same as an element.
"""

from __future__ import annotations

import cmath
from functools import cached_property
from operator import add, mul, sub

from .algebra import AlgebraElement, AlgebraSignature
from .errors import InputError, NotAUnit, SignatureMismatch


class DenseLayout:
    """Elements as dense coefficient lists over the monomials that
    products of the given ones can reach (with 1, below the truncation
    degree), ordered by (degree, exponents), in the scalars of the given
    signature.  A layout over the monomials that actually occur stays as
    small as the sparse maps it replaces; `rows[i]` lists (j, k) with
    monomials[i] * monomials[j] = monomials[k] in increasing j, so
    rows[i][0] == (0, i) and every later k exceeds i."""

    __slots__ = ("signature", "monomials", "rows", "zero", "one")

    def __init__(self, signature: AlgebraSignature, monomials=()):
        self.signature = signature
        self.zero, self.one = signature.scalar_zero(), signature.scalar_one()
        n = signature.truncation_degree
        steps = {m for m in monomials if sum(m)}
        reached = {signature.empty_monomial()}
        frontier = list(reached)
        while frontier:
            frontier = [p for p in {tuple(map(sum, zip(m, s))) for m in frontier for s in steps}
                        if sum(p) < n and p not in reached]
            reached.update(frontier)
        self.monomials = sorted(reached, key=lambda m: (sum(m), m))
        index = {m: i for i, m in enumerate(self.monomials)}
        self.rows = [
            [(j, index[p]) for j, m2 in enumerate(self.monomials)
             if (p := tuple(map(sum, zip(m1, m2)))) in index]
            for m1 in self.monomials
        ]

    def vector(self, a: AlgebraElement) -> list:
        """The coefficients of an element, which must lie in the layout."""
        coeffs = a.coeffs
        return [coeffs.get(m, self.zero) for m in self.monomials]

    def element(self, v: list) -> AlgebraElement:
        return AlgebraElement(self.signature, {m: c for m, c in zip(self.monomials, v) if c})

    def mul(self, a: list, b: list) -> list:
        """Node by node, the product of elements given as columns: per monomial,
        one coefficient a node; its columns are lists or maps, read once.  A sum
        starts at zero and adds its terms in `rows` order, skipping those whose
        column of a or b is zero at every node: for finite operands, adding an
        exact zero product to a sum that starts at zero changes no bit."""
        out = [[self.zero] * len(b[0])] * len(b)
        live = list(map(any, b))
        for x, row in zip(a, self.rows):
            if any(x):
                for j, k in row:
                    if live[j]:
                        out[k] = map(add, out[k], map(mul, x, b[j]))
        return out

    def dot(self, a: list, b: list) -> list:
        """The sum over the nodes of `mul(a, b)`, taken per (i, j) -> k pair of `rows` first."""
        out = [self.zero] * len(b)
        live = list(map(any, b))
        for x, row in zip(a, self.rows):
            if any(x):
                for j, k in row:
                    if live[j]:
                        out[k] += sum(map(mul, x, b[j]), self.zero)
        return out

    def divide(self, a: list, b: list) -> list:
        """Node by node, a/b for elements given as list columns, by forward
        substitution: the quotient's column k is fixed once every lower-degree
        one is, since rows[k][0] == (0, k) and the rest of rows[k] reaches only
        later monomials.  A row whose column is zero at every node is skipped;
        at the nodes where it is zero, its terms subtract zero products, which
        change no value (only, at most, the sign of a zero)."""
        if not all(b[0]):
            raise NotAUnit("cannot divide by an element of the maximal ideal")
        c_inv = [self.one / c for c in b[0]]
        out = list(a)
        for k, row in enumerate(self.rows):
            if any(out[k]):
                q = out[k] = list(map(mul, out[k], c_inv))
                for j, p in row[1:]:
                    out[p] = list(map(sub, out[p], map(mul, q, b[j])))
        return out


class DifferentialForm:
    """A 1-form handle: its sampler plus its declared pole set."""

    signature: AlgebraSignature
    poles: tuple
    label: str
    layout: DenseLayout

    def sampler(self, layout: DenseLayout):
        raise NotImplementedError

    @cached_property
    def samples(self) -> dict:
        """The columns this form sampled per leg, for `chen.transport`: per
        (segment, node count, layout monomials), the leg's blocks."""
        return {}

    def eval(self, z: complex) -> list:
        return [c[0] for c in self.sampler(self.layout)([z], [self.layout.one])]

    def value(self, z: complex) -> AlgebraElement:
        return self.layout.element(self.eval(z))

    @staticmethod
    def _scalar_sampler(layout: DenseLayout, column):
        """`sample(zs, vs)` for a form valued in the scalars: `column(zs, vs)` at 1, zero elsewhere."""
        return lambda zs, vs: [column(zs, vs)] + [[layout.zero] * len(zs)] * (len(layout.monomials) - 1)

    def __str__(self):
        return self.label


class Dz(DifferentialForm):
    def __init__(self, signature: AlgebraSignature):
        self.signature = signature.to_float()
        self.layout = DenseLayout(self.signature)
        self.poles = ()
        self.label = "dz"

    def sampler(self, layout: DenseLayout):
        one = layout.one
        return self._scalar_sampler(layout, lambda zs, vs: [one * v for v in vs])


class SimplePole(DifferentialForm):
    """dz/(z - c)."""

    def __init__(self, signature: AlgebraSignature, c: complex):
        self.signature = signature.to_float()
        self.layout = DenseLayout(self.signature)
        self.c = complex(c)
        self.poles = (self.c,)
        self.label = f"dz/(z-{self.c})" if self.c else "dz/z"

    def sampler(self, layout: DenseLayout):
        c = self.c
        return self._scalar_sampler(layout, lambda zs, vs: [1.0 / (z - c) * v for z, v in zip(zs, vs)])


class DlogForm(DifferentialForm):
    """df/f for a rational function with coefficients in A, sampled on its
    widened partial fractions (`RationalFunctionA.float_dlog`)."""

    def __init__(self, f):
        self.f = f
        self.layout = f.float_dlog.layout
        self.signature = self.layout.signature
        self.poles = tuple(complex(r) for r in f.roots())
        self.label = f"dlog({f})"

    def sampler(self, layout: DenseLayout):
        return self.f.float_dlog.sampler(layout.monomials)


class BinomialLogForm(DifferentialForm):
    """d(1 - a z^n) / (1 - a z^n) for a nonzero integer n and a in A."""

    def __init__(self, signature: AlgebraSignature, a, n: int):
        if not isinstance(n, int) or n == 0:
            raise InputError(f"binomial exponent must be a nonzero integer, got {n!r}")
        self.signature = signature.to_float()
        self.a = (a if isinstance(a, AlgebraElement) else signature.scalar(a)).widen()
        if self.a.signature != self.signature:
            raise SignatureMismatch(f"binomial coefficient over {self.a.signature}, not {self.signature}")
        self.n = n
        poles = [] if n > 0 else [0j]
        a_red = complex(self.a.reduce())
        if a_red != 0:
            # solutions of a z^n = 1
            target = 1.0 / a_red if n > 0 else a_red
            m = abs(n)
            rho = abs(target) ** (1.0 / m)
            phi = cmath.phase(target)
            poles.extend(
                rho * cmath.exp(1j * (phi + 2 * cmath.pi * k) / m) for k in range(m)
            )
        self.poles = tuple(poles)
        self.label = f"dlog(1-a*z^{n})"
        self.layout = DenseLayout(self.signature, self.a.coeffs)
        self._a = self.layout.vector(self.a)

    def sampler(self, layout: DenseLayout):
        """-n a z^(n-1) over 1 - a z^n in the form's own layout, times v, in `layout`."""
        at = [layout.monomials.index(m) for m in self.layout.monomials]
        n = self.n

        def sample(zs, vs):
            zn1 = [z ** (n - 1) for z in zs]  # safe at z = 0 for n >= 1
            zn = list(map(mul, zn1, zs))
            den = [[-(c * w) for w in zn] for c in self._a]
            den[0] = [d + 1 for d in den[0]]
            cols = [[layout.zero] * len(zs)] * len(layout.monomials)
            for k, col in zip(at, self.layout.divide([[c * (-n * w) for w in zn1] for c in self._a], den)):
                cols[k] = list(map(mul, col, vs))
            return cols

        return sample
