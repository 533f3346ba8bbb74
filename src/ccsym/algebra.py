"""Truncated nilpotent polynomial algebras over C.

A signature fixes generators eps_1, ..., eps_g and a truncation degree N;
the algebra is C[eps_1, ..., eps_g] with every monomial of total degree
>= N set to zero.  The maximal ideal m is generated by the eps_i and
satisfies m^N = 0, so every element splits as unit-or-nilpotent by its
constant coefficient, inverses are finite geometric series, and exp/log
are finite sums.

Elements keep their coefficients in a canonical zero-pruned map, so
equality on the exact backend is structural equality.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, NotAUnit, NotNilpotent, SignatureMismatch
from .scalars import GR_ONE, GR_ZERO, GaussianRational, as_exact, as_float, gaussian, geometric, power

Monomial = tuple


class Backend(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"


@dataclass(frozen=True)
class AlgebraSignature:
    """Generators, truncation degree and scalar backend of the algebra."""

    generators: tuple
    truncation_degree: int
    backend: Backend = Backend.EXACT

    def __post_init__(self):
        if self.truncation_degree < 1:
            raise InputError("truncation degree must be >= 1")
        if len(set(self.generators)) != len(self.generators):
            raise InputError("generator names must be distinct")
        for name in self.generators:
            if not name.isidentifier():
                raise InputError(f"bad generator name {name!r}")

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def empty_monomial(self) -> Monomial:
        return (0,) * self.ngens

    def coerce_scalar(self, value):
        if self.backend is Backend.EXACT:
            return as_exact(value)
        return as_float(value)

    def scalar_zero(self):
        return GR_ZERO if self.backend is Backend.EXACT else 0j

    def scalar_one(self):
        return GR_ONE if self.backend is Backend.EXACT else complex(1)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return self.scalar(1)

    def scalar(self, value) -> "AlgebraElement":
        c = self.coerce_scalar(value)
        if not _nonzero(c):
            return self.zero()
        return AlgebraElement(self, {self.empty_monomial(): c})

    def gen(self, name: str) -> "AlgebraElement":
        if name not in self.generators:
            raise InputError(f"unknown generator {name!r}")
        if self.truncation_degree == 1:
            return self.zero()
        mono = tuple(1 if g == name else 0 for g in self.generators)
        return AlgebraElement(self, {mono: self.scalar_one()})

    def element(self, coeffs: dict) -> "AlgebraElement":
        """Build an element from a {monomial tuple: scalar} map."""
        out = {}
        for mono, value in coeffs.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != self.ngens or any(e < 0 for e in mono):
                raise InputError(f"bad monomial {mono!r}")
            if sum(mono) >= self.truncation_degree:
                continue
            c = self.coerce_scalar(value)
            if _nonzero(c):
                out[mono] = c
        return AlgebraElement(self, out)

    def to_float(self) -> "AlgebraSignature":
        return AlgebraSignature(self.generators, self.truncation_degree, Backend.FLOAT)

    def __str__(self) -> str:
        gens = ",".join(self.generators)
        return f"gens={gens};degree={self.truncation_degree};scalars={self.backend.value}"


def parse_signature(text: str) -> AlgebraSignature:
    """Parse the textual form `gens=eps,delta;degree=3;scalars=exact`."""
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"bad signature field {part!r}")
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"gens", "degree", "scalars"}
    if unknown:
        raise InputError(f"unknown signature fields {sorted(unknown)}")
    gens = tuple(g.strip() for g in fields.get("gens", "").split(",") if g.strip())
    try:
        degree = int(fields.get("degree", "1"))
    except ValueError:
        raise InputError(f"bad degree {fields.get('degree')!r}") from None
    backend_name = fields.get("scalars", "exact")
    try:
        backend = Backend(backend_name)
    except ValueError:
        raise InputError(f"scalars must be 'exact' or 'float', got {backend_name!r}") from None
    return AlgebraSignature(gens, degree, backend)


def _nonzero(c) -> bool:
    # exact zero test on both backends; no epsilon pruning
    return bool(c) if isinstance(c, GaussianRational) else c != 0


class AlgebraElement:
    """An element of a truncated nilpotent polynomial algebra.

    `coeffs` maps exponent tuples (total degree < N) to nonzero scalars.
    All arithmetic is value-semantic: operands are never mutated.
    """

    __slots__ = ("signature", "coeffs")

    def __init__(self, signature: AlgebraSignature, coeffs: dict):
        self.signature = signature
        self.coeffs = coeffs

    # -- structure ---------------------------------------------------------

    def reduce(self):
        """Coefficient of the empty monomial (the residue in C)."""
        return self.coeffs.get(self.signature.empty_monomial(), self.signature.scalar_zero())

    def is_unit(self) -> bool:
        return _nonzero(self.reduce())

    def is_zero(self) -> bool:
        return not self.coeffs

    def nilpotent_part(self) -> "AlgebraElement":
        return self - self.signature.scalar(self.reduce())

    def widen(self) -> "AlgebraElement":
        """Exact to float conversion (identity on the float backend)."""
        if self.signature.backend is Backend.FLOAT:
            return self
        sig = self.signature.to_float()
        return AlgebraElement(sig, {m: complex(c) for m, c in self.coeffs.items()})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.signature != other.signature:
            raise SignatureMismatch(
                f"operands over different signatures: {self.signature} vs {other.signature}"
            )

    def __add__(self, other):
        other = self._as_element(other)
        self._check(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = out.get(mono)
            s = c if s is None else s + c
            if _nonzero(s):
                out[mono] = s
            else:
                out.pop(mono, None)
        return AlgebraElement(self.signature, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + (-self._as_element(other))

    def __rsub__(self, other):
        return self._as_element(other) - self

    def __neg__(self):
        return AlgebraElement(self.signature, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self._scale(self.signature.coerce_scalar(other))
        self._check(other)
        n = self.signature.truncation_degree
        out = {}
        for m1, c1 in self.coeffs.items():
            d1 = sum(m1)
            for m2, c2 in other.coeffs.items():
                if d1 + sum(m2) >= n:
                    continue
                mono = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = out.get(mono)
                s = c if s is None else s + c
                if _nonzero(s):
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return AlgebraElement(self.signature, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        other = self._as_element(other)
        return self * other.inverse()

    def _scale(self, c) -> "AlgebraElement":
        if not _nonzero(c):
            return self.signature.zero()
        return AlgebraElement(self.signature, {m: v * c for m, v in self.coeffs.items()})

    def _as_element(self, value) -> "AlgebraElement":
        if isinstance(value, AlgebraElement):
            return value
        return self.signature.scalar(value)

    def divided_by_int(self, k: int) -> "AlgebraElement":
        if self.signature.backend is Backend.EXACT:
            return self._scale(gaussian(Fraction(1, k)))
        return self._scale(1.0 / k)

    def inverse(self) -> "AlgebraElement":
        """Multiplicative inverse via a geometric series on the nilpotent part."""
        c = self.reduce()
        if not _nonzero(c):
            raise NotAUnit("cannot invert an element of the maximal ideal")
        c_inv = (GR_ONE / c) if isinstance(c, GaussianRational) else (1.0 / c)
        one = self.signature.one()
        u = self._scale(c_inv) - one  # nilpotent; 1/(1+u) = sum of (-u)^k
        return geometric(-u, one, self.signature.truncation_degree)._scale(c_inv)

    def __pow__(self, n: int) -> "AlgebraElement":
        return power(self, n, self.signature.one())

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.signature == other.signature and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, float, complex, GaussianRational)):
            return self == self.signature.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.signature, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"AlgebraElement({self})"

    def __str__(self):
        return format_element(self)

    def max_abs(self) -> float:
        """Largest coefficient modulus; used for float deviations."""
        if not self.coeffs:
            return 0.0
        return max(abs(complex(c)) for c in self.coeffs.values())


def deviation(a: AlgebraElement, b: AlgebraElement) -> float:
    """Max monomial-component modulus of a - b, after widening to floats."""
    return (a.widen() - b.widen()).max_abs()


# -- exp / log on the nilpotent ideal --------------------------------------


def log1m(a: AlgebraElement) -> AlgebraElement:
    """log(1 - a) = -sum_{k>=1} a^k/k for a in the maximal ideal."""
    if a.is_unit():
        raise NotNilpotent("log1m requires an element of the maximal ideal")
    out = a.signature.zero()
    power = a.signature.one()
    for k in range(1, a.signature.truncation_degree):
        power = power * a
        if power.is_zero():
            break
        out = out - power.divided_by_int(k)
    return out


def exp(a: AlgebraElement) -> AlgebraElement:
    """e^a.  Exact backend: a must be nilpotent (finite sum).

    Float backend accepts any a via e^a = e^{reduce(a)} * e^{a - reduce(a)}.
    """
    sig = a.signature
    c = a.reduce()
    if _nonzero(c):
        if sig.backend is Backend.EXACT:
            raise NotNilpotent("exact exp requires an element of the maximal ideal")
        scale = cmath.exp(c)
        a = a.nilpotent_part()
    else:
        scale = None
    out = sig.one()
    term = sig.one()
    for n in range(1, sig.truncation_degree):
        term = (term * a).divided_by_int(n)
        if term.is_zero():
            break
        out = out + term
    return out if scale is None else out._scale(scale)


# -- printing ---------------------------------------------------------------


def _format_scalar(c) -> str:
    if isinstance(c, GaussianRational):
        return str(c)
    if c.imag == 0:
        return f"{c.real:.12g}"
    sign = "+" if c.imag > 0 else "-"
    if c.real == 0:
        return f"{abs(c.imag):.12g}*i" if c.imag > 0 else f"-{abs(c.imag):.12g}*i"
    return f"{c.real:.12g}{sign}{abs(c.imag):.12g}*i"


def format_monomial(signature: AlgebraSignature, mono: Monomial) -> str:
    parts = []
    for name, e in zip(signature.generators, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _is_one(c) -> bool:
    if isinstance(c, GaussianRational):
        return c == GR_ONE
    return c == 1

def _is_minus_one(c) -> bool:
    if isinstance(c, GaussianRational):
        return c == -GR_ONE
    return c == -1


def format_element(a: AlgebraElement) -> str:
    if not a.coeffs:
        return "0"
    terms = []
    for mono in sorted(a.coeffs, key=lambda m: (sum(m), m)):
        c = a.coeffs[mono]
        mono_str = format_monomial(a.signature, mono)
        if mono_str == "1":
            terms.append(_format_scalar(c))
            continue
        if _is_one(c):
            terms.append(mono_str)
        elif _is_minus_one(c):
            terms.append(f"-{mono_str}")
        else:
            s = _format_scalar(c)
            if ("+" in s[1:]) or ("-" in s[1:]):
                s = f"({s})"
            terms.append(f"{s}*{mono_str}")
    return "+".join(terms).replace("+-", "-")


def element_to_json(a: AlgebraElement) -> dict:
    """Serialize as {monomial: [re, im]} with float entries."""
    out = {}
    for mono in sorted(a.coeffs, key=lambda m: (sum(m), m)):
        c = complex(a.coeffs[mono]) if isinstance(a.coeffs[mono], GaussianRational) else a.coeffs[mono]
        out[format_monomial(a.signature, mono)] = [c.real, c.imag]
    return out
