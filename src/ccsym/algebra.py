"""Truncated nilpotent polynomial algebras over C.

A signature fixes generators eps_1, ..., eps_g and a truncation degree N;
the algebra is C[eps_1, ..., eps_g] with every monomial of total degree
>= N set to zero.  The maximal ideal m is generated by the eps_i and
satisfies m^N = 0, so every element splits as unit-or-nilpotent by its
constant coefficient, inverses are finite geometric series, and exp/log
are finite sums.

Both backends share one arithmetic on (re, im) numerator pairs over one
denominator, zero pairs dropped: Gaussian integers in lowest terms over
a positive denominator on the exact backend (the form of FLINT's
fmpq_poly), so equality is structural; floats over 1 on the float
backend, whose products round as complex ones do.  The exact format is
the one of `scalars.GaussianRational`, (p + q i)/d in ints, so an element
takes its numerators from its scalars and gives them back with integer
products and one gcd each.  Only building, normalising and converting
an element read the backend, and a float residue's reciprocal, which
takes complex division to stay in range.
`AlgebraElement.dot`, a sum of products normalised once, is the one
product behind element, series and polynomial products.  The numeric
engine holds elements as dense columns instead (`forms.DenseLayout`).
A monomial of degree d < N is keyed by the int d B^g + sum e_i B^i, B = N
(Kronecker substitution): below degree N the key of a product is the sum
of the keys, and from degree N on that sum lies at or past `limit`.
"""

from __future__ import annotations

import cmath
import enum
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import mul

from .errors import InputError, NotAUnit, NotNilpotent, SignatureMismatch
from .scalars import GR_ONE, GR_ZERO, GaussianRational, as_exact, as_float, geometric, power

Monomial = tuple


class Backend(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"


_FLOAT = Backend.FLOAT  # read per operation: cheaper than Backend.FLOAT


_SIGNATURES = {}  # (generators, degree, backend) -> the one signature built for it


class AlgebraSignature:
    """Generators, truncation degree and scalar backend of the algebra.

    A signature is validated and built once, so equal signatures are one
    object, and it shares `_codes`, tuple <-> packed key, with its twin
    on the other backend."""

    def __new__(cls, generators: tuple, truncation_degree: int, backend: Backend = Backend.EXACT):
        generators = tuple(generators)
        key = generators, truncation_degree, backend
        if (sig := _SIGNATURES.get(key)) is not None:
            return sig
        _check_fields(generators, truncation_degree)
        sig = _SIGNATURES[key] = object.__new__(cls)
        sig.generators, sig.truncation_degree, sig.backend, sig.ngens = *key, len(generators)
        twin = _SIGNATURES.get((generators, truncation_degree, Backend.FLOAT if backend is Backend.EXACT else Backend.EXACT))
        sig._codes = {} if twin is None else twin._codes
        return sig

    def empty_monomial(self) -> Monomial:
        return (0,) * self.ngens

    @cached_property
    def limit(self) -> int:  # N B^g, B = N: the packed keys of degree >= N lie at or past it
        return self.truncation_degree ** (self.ngens + 1)

    def pack(self, mono: Monomial) -> int:
        """The key d B^g + sum e_i B^i of a monomial of degree d < N, B = N, by Horner's rule."""
        if (key := self._codes.get(mono)) is None:
            key = self._codes[mono] = reduce(lambda k, e: k * self.truncation_degree + e, reversed(mono), sum(mono))
        return key

    def unpack(self, key: int) -> Monomial:
        """The exponent tuple of a packed key: its digits below B^g."""
        if (mono := self._codes.get(key)) is None:
            b = self.truncation_degree
            mono = self._codes[key] = tuple(key // b ** i % b for i in range(self.ngens))
        return mono

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
        return self._one

    @cached_property
    def _one(self) -> "AlgebraElement":  # built once: elements are immutable
        return AlgebraElement(self, {self.empty_monomial(): self.scalar_one()})

    def scalar(self, value) -> "AlgebraElement":
        c = self.coerce_scalar(value)
        return AlgebraElement(self, {self.empty_monomial(): c} if c else {})

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
            if c:
                out[mono] = c
        return AlgebraElement(self, out)

    def to_float(self) -> "AlgebraSignature":
        return AlgebraSignature(self.generators, self.truncation_degree, Backend.FLOAT)

    def to_exact(self) -> "AlgebraSignature":
        return AlgebraSignature(self.generators, self.truncation_degree)

    def __str__(self) -> str:
        gens = ",".join(self.generators)
        return f"gens={gens};degree={self.truncation_degree};scalars={self.backend.value}"


def _check_fields(generators: tuple, truncation_degree: int):
    """Raise InputError for fields no signature may have."""
    if truncation_degree < 1:
        raise InputError("truncation degree must be >= 1")
    if len(set(generators)) != len(generators):
        raise InputError("generator names must be distinct")
    for name in generators:
        if not name.isidentifier():
            raise InputError(f"bad generator name {name!r}")
        if name == "x":
            raise InputError("x is the variable of series and functions, not a generator name")


def parse_signature(text: str, check=None) -> AlgebraSignature:
    """Parse the textual form `gens=eps,delta;degree=3;scalars=exact`.  `check`,
    if given, sees the validated generators and degree before the signature
    is built, so a signature it rejects is never kept in `_SIGNATURES`."""
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"bad signature field {part!r}")
        key, _, value = (s.strip() for s in part.partition("="))
        if key in fields:
            raise InputError(f"signature field {key!r} is given more than once")
        fields[key] = value
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
    _check_fields(gens, degree)
    if check:
        check(gens, degree)
    return AlgebraSignature(gens, degree, backend)


class AlgebraElement:
    """An element of a truncated nilpotent polynomial algebra.

    The arithmetic runs on `num`, {packed key: (re, im)} numerator pairs
    over the denominator `den`, with no zero pair: Gaussian integers in
    lowest terms over a positive `den` on the exact backend, floats over
    `den` = 1 on the float backend; `reduce()` reads key 0 alone.
    `coeffs`, the {exponent tuple: scalar} map (total degree < N) in the
    backend's scalars, is derived on first use.
    All arithmetic is value-semantic: operands are never mutated.
    """

    __slots__ = ("signature", "num", "den", "_coeffs")

    def __init__(self, signature: AlgebraSignature, coeffs: dict):
        self.signature, pack = signature, signature.pack
        if signature.backend is _FLOAT:
            self.num, self.den, self._coeffs = {pack(m): (c.real, c.imag) for m, c in coeffs.items() if c}, 1, None
            return
        self._coeffs = coeffs
        # over the lcm of the scalars' denominators no prime divides every numerator
        self.den = den = lcm(*(c.d for c in coeffs.values()))
        self.num = {pack(m): (c.p * (den // c.d), c.q * (den // c.d)) for m, c in coeffs.items()}

    @classmethod
    def _normal(cls, signature: AlgebraSignature, num: dict, den: int) -> "AlgebraElement":
        """num / den, for nonzero numerators: in lowest terms with den > 0
        on the exact backend, with den divided out on the float backend."""
        if signature.backend is not _FLOAT:
            g = gcd(den, *chain.from_iterable(num.values())) * (1 if den > 0 else -1)
            if g != 1:
                num, den = {m: (re // g, im // g) for m, (re, im) in num.items()}, den // g
        elif den != 1:  # a float quotient can underflow to a zero pair
            r = 1 / den
            num, den = {m: (re * r, im * r) for m, (re, im) in num.items()}, 1
            num = {m: c for m, c in num.items() if c[0] or c[1]}
        out = object.__new__(cls)
        out.signature, out.num, out.den, out._coeffs = signature, num, den, None
        return out

    @property
    def coeffs(self) -> dict:
        """{monomial: scalar}; not to be mutated."""
        if self._coeffs is None:
            d, make, unpack = self.den, GaussianRational._make, self.signature.unpack
            exact = self.signature.backend is not _FLOAT
            self._coeffs = {unpack(m): make(re, im, d) if exact else complex(re, im) for m, (re, im) in self.num.items()}
        return self._coeffs

    # -- structure ---------------------------------------------------------

    def reduce(self):
        """Coefficient of the empty monomial (the residue in C)."""
        c = self.num.get(0)
        if c is None:
            return self.signature.scalar_zero()
        return complex(*c) if self.signature.backend is _FLOAT else GaussianRational._make(*c, self.den)

    def is_unit(self) -> bool:
        return 0 in self.num

    def is_zero(self) -> bool:
        return not self.num

    def nilpotent_part(self) -> "AlgebraElement":
        return self - self.signature.scalar(self.reduce())

    def widen(self) -> "AlgebraElement":
        """Exact to float conversion (identity on the float backend); a
        coefficient that rounds to 0j is dropped."""
        if self.signature.backend is _FLOAT:
            return self
        return AlgebraElement(self.signature.to_float(), {m: complex(c) for m, c in self.coeffs.items()})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.signature is not other.signature:
            raise SignatureMismatch(
                f"operands over different signatures: {self.signature} vs {other.signature}"
            )

    def __add__(self, other):
        other = self._as_element(other)
        self._check(other)
        g = gcd(self.den, other.den)
        f1, f2 = other.den // g, self.den // g
        out = {m: (re * f1, im * f1) for m, (re, im) in self.num.items()}
        for mono, (re, im) in other.num.items():
            s = out.get(mono, (0, 0))
            out[mono] = (s[0] + re * f2, s[1] + im * f2)
        out = {m: c for m, c in out.items() if c[0] or c[1]}
        return AlgebraElement._normal(self.signature, out, self.den * f1)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._as_element(other))

    def __neg__(self):
        return AlgebraElement._normal(self.signature, {m: (-re, -im) for m, (re, im) in self.num.items()}, self.den)

    @classmethod
    def dot(cls, signature: AlgebraSignature, pairs: list) -> "AlgebraElement":
        """The sum of c1 * c2 over the (c1, c2) pairs, the one product of
        ccsym: each pair's convolution scaled from c1.den * c2.den to the
        lcm of those, summed on the numerators and normalised once."""
        limit, den, out = signature.limit, lcm(*(c1.den * c2.den for c1, c2 in pairs)), {}
        for c1, c2 in pairs:
            k = den // (c1.den * c2.den)  # 1 on the float backend, where a * k is a exactly
            for m1, (a, b) in c1.num.items():
                a, b = a * k, b * k
                for m2, (c, d) in c2.num.items():
                    if (mono := m1 + m2) < limit:
                        s = out.get(mono, (0, 0))
                        # one rounding per product part, as complex multiplication
                        re, im = s[0] + (a * c - b * d), s[1] + (a * d + b * c)
                        if re or im:
                            out[mono] = (re, im)
                        else:
                            out.pop(mono, None)
        return cls._normal(signature, out, den)

    def __mul__(self, other):
        other = self._as_element(other)
        self._check(other)
        return AlgebraElement.dot(self.signature, [(self, other)])

    def __truediv__(self, other):
        return self * self._as_element(other).inverse()

    def _as_element(self, value) -> "AlgebraElement":
        if isinstance(value, AlgebraElement):
            return value
        return self.signature.scalar(value)

    def divided_by_int(self, k: int) -> "AlgebraElement":
        return AlgebraElement._normal(self.signature, self.num, self.den * k)

    def times_int(self, k: int) -> "AlgebraElement":
        """self * k for a nonzero int k, on the numerators alone."""
        return AlgebraElement._normal(self.signature, {m: (re * k, im * k) for m, (re, im) in self.num.items()}, self.den)

    def inverse(self) -> "AlgebraElement":
        """Multiplicative inverse via a geometric series on the nilpotent part."""
        sig, c = self.signature, self.num.get(0)
        if not c:
            raise NotAUnit("cannot invert an element of the maximal ideal")
        p, q = c
        if sig.backend is _FLOAT:  # complex division keeps a float reciprocal in range
            c_inv = sig.scalar(1 / complex(p, q))
        else:  # c = (p + q i) / den, so 1/c = den (p - q i) / (p^2 + q^2)
            c_inv = AlgebraElement._normal(sig, {0: (self.den * p, -self.den * q)}, p * p + q * q)
        if len(self.num) == 1:  # a scalar: no nilpotent part to correct
            return c_inv
        one = sig.one()
        u = self * c_inv - one  # nilpotent; 1/(1+u) = sum of (-u)^k
        return geometric(-u, one, sig.truncation_degree) * c_inv

    def __pow__(self, n: int) -> "AlgebraElement":
        return power(self, n, self.signature.one())

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.signature == other.signature and self.den == other.den and self.num == other.num
        if isinstance(other, (float, complex)) and self.signature.backend is not _FLOAT:
            return self.widen() == other
        if isinstance(other, (int, Fraction, float, complex, GaussianRational)):
            return self == self.signature.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.signature, self.den, frozenset(self.num.items())))

    def __repr__(self):
        return f"AlgebraElement({self})"

    def __str__(self):
        return format_element(self)

    def max_abs(self) -> float:
        """Largest coefficient modulus; used for float deviations."""
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)


def deviation(a: AlgebraElement, b: AlgebraElement) -> float:
    """Max monomial-component modulus of a - b, after widening to floats."""
    return (a.widen() - b.widen()).max_abs()


# -- exp / log on the nilpotent ideal --------------------------------------


def log1m(a: AlgebraElement) -> AlgebraElement:
    """log(1 - a) = -sum_{k>=1} a^k/k for a in the maximal ideal."""
    if a.is_unit():
        raise NotNilpotent("log1m requires an element of the maximal ideal")
    out = a.signature.zero()
    # the powers start from a itself, so no product is by one
    for k, power in enumerate(accumulate(repeat(a, a.signature.truncation_degree - 1), mul), 1):
        if power.is_zero():
            break
        out = out - power.divided_by_int(k)
    return out


def exp(a: AlgebraElement) -> AlgebraElement:
    """e^a.  Exact backend: a must be nilpotent (finite sum).

    Float backend accepts any a via e^a = e^{reduce(a)} * e^{a - reduce(a)}.
    """
    sig, scale = a.signature, None
    if a.is_unit():
        if sig.backend is Backend.EXACT:
            raise NotNilpotent("exact exp requires an element of the maximal ideal")
        scale = cmath.exp(a.reduce())
        a = a.nilpotent_part()
    out = sig.one()
    # the terms a^n / n! start from a itself, so no product is by one
    terms = accumulate(range(2, sig.truncation_degree), lambda term, n: (term * a).divided_by_int(n), initial=a)
    for term in terms:
        if term.is_zero():
            break
        out = out + term
    return out if scale is None else out * scale


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


def format_element(a: AlgebraElement) -> str:
    if not a.coeffs:
        return "0"
    one = a.signature.scalar_one()
    terms = []
    for mono in sorted(a.coeffs, key=lambda m: (sum(m), m)):
        c = a.coeffs[mono]
        mono_str = format_monomial(a.signature, mono)
        if mono_str == "1":
            terms.append(_format_scalar(c))
            continue
        if c == one:
            terms.append(mono_str)
        elif c == -one:
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
        c = complex(a.coeffs[mono])
        out[format_monomial(a.signature, mono)] = [c.real, c.imag]
    return out
