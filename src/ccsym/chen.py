"""Chen iterated integrals via truncated noncommutative parallel transport.

The transport of a connection sum_i A_i w_i along a path solves
dF = F (sum_i A_i w_i) in the free associative algebra on letters
A_1..A_n, truncated at word length L.  The word coefficients of the
solution are exactly the iterated integrals, every word at once, and the
composition law F_{ab} = F_a F_b holds by construction.

The stepper is a classical fourth-order Runge-Kutta update in the word
algebra with a fixed number of steps per path segment, so reports are
reproducible bit for bit.  Integration of algebra-valued forms happens
componentwise on the monomial basis.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from itertools import combinations

from .algebra import AlgebraElement, AlgebraSignature, Backend, deviation
from .errors import InputError, PoleOnPath, SignatureMismatch
from .paths import Path
from .ratfunc import RationalFunctionA
from .reports import CheckReport, make_report


@dataclass(frozen=True)
class QuadratureConfig:
    steps_per_segment: int = 256
    tolerance: float = 1e-8
    pole_clearance: float = 1e-6

    def __post_init__(self):
        if self.steps_per_segment < 1:
            raise InputError("steps_per_segment must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise InputError("tolerance must be a positive finite number")


# -- differential form handles ------------------------------------------------


class DifferentialForm:
    """A 1-form handle: an evaluator plus its declared pole set."""

    signature: AlgebraSignature
    poles: tuple
    label: str

    def eval(self, z: complex) -> AlgebraElement:
        raise NotImplementedError

    def __str__(self):
        return self.label


class Dz(DifferentialForm):
    def __init__(self, signature: AlgebraSignature):
        self.signature = signature.to_float()
        self.poles = ()
        self.label = "dz"

    def eval(self, z: complex) -> AlgebraElement:
        return self.signature.one()


class SimplePole(DifferentialForm):
    """dz/(z - c)."""

    def __init__(self, signature: AlgebraSignature, c: complex):
        self.signature = signature.to_float()
        self.c = complex(c)
        self.poles = (self.c,)
        self.label = f"dz/(z-{self.c})" if self.c else "dz/z"

    def eval(self, z: complex) -> AlgebraElement:
        return self.signature.scalar(1.0 / (z - self.c))


class DlogForm(DifferentialForm):
    """df/f for a rational function with coefficients in A."""

    def __init__(self, f: RationalFunctionA):
        self.f = f
        self.signature = f.signature.to_float()
        self.poles = tuple(f.pole_points())
        self.label = f"dlog({f})"

    def eval(self, z: complex) -> AlgebraElement:
        return self.f.dlog_eval(complex(z))


class BinomialLogForm(DifferentialForm):
    """d(1 - a z^n) / (1 - a z^n) for integer n and a in A."""

    def __init__(self, signature: AlgebraSignature, a, n: int):
        if n == 0:
            raise InputError("binomial exponent must be nonzero")
        self.signature = signature.to_float()
        a_elt = a if isinstance(a, AlgebraElement) else signature.scalar(a)
        self.a = a_elt.widen()
        self.n = int(n)
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

    def eval(self, z: complex) -> AlgebraElement:
        zn1 = z ** (self.n - 1)  # safe at z = 0 for n >= 1
        denom = self.signature.one() - self.a * (zn1 * z)
        return self.a * (-self.n * zn1) * denom.inverse()


# -- word series ----------------------------------------------------------------


class TruncatedWordSeries:
    """Word-indexed coefficients (length <= max_len) in A, letters 1..n."""

    __slots__ = ("signature", "alphabet_size", "max_len", "coeffs")

    def __init__(self, signature, alphabet_size: int, max_len: int, coeffs: dict):
        self.signature = signature
        self.alphabet_size = alphabet_size
        self.max_len = max_len
        self.coeffs = coeffs

    @classmethod
    def identity(cls, signature, alphabet_size: int, max_len: int):
        return cls(signature, alphabet_size, max_len, {(): signature.one()})

    def coeff(self, word) -> AlgebraElement:
        word = tuple(word)
        if len(word) > self.max_len:
            raise InputError(f"word {word} longer than the truncation length {self.max_len}")
        if any(not 1 <= a <= self.alphabet_size for a in word):
            raise InputError(f"word {word} uses letters outside 1..{self.alphabet_size}")
        return self.coeffs.get(word, self.signature.zero())

    def _compatible(self, other):
        if (
            self.signature != other.signature
            or self.alphabet_size != other.alphabet_size
            or self.max_len != other.max_len
        ):
            raise SignatureMismatch("incompatible word series")

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return TruncatedWordSeries(self.signature, self.alphabet_size, self.max_len, out)

    def scale(self, s) -> "TruncatedWordSeries":
        return TruncatedWordSeries(
            self.signature,
            self.alphabet_size,
            self.max_len,
            {w: c * s for w, c in self.coeffs.items()},
        )

    def __mul__(self, other):
        """Concatenation product truncated at max_len."""
        self._compatible(other)
        out = {}
        L = self.max_len
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                if len(w1) + len(w2) > L:
                    continue
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                out[w] = c if s is None else s + c
        return TruncatedWordSeries(self.signature, self.alphabet_size, L, out)

    def right_connection(self, omega: list) -> "TruncatedWordSeries":
        """Multiply on the right by sum_i A_i omega[i]."""
        out = {}
        L = self.max_len
        for w, c in self.coeffs.items():
            if len(w) >= L:
                continue
            for i, v in enumerate(omega, start=1):
                prod = c * v
                if prod.is_zero():
                    continue
                key = w + (i,)
                s = out.get(key)
                out[key] = prod if s is None else s + prod
        return TruncatedWordSeries(self.signature, self.alphabet_size, L, out)

    def deviation(self, other) -> float:
        self._compatible(other)
        words = set(self.coeffs) | set(other.coeffs)
        dev = 0.0
        for w in words:
            dev = max(dev, deviation(self.coeff(w), other.coeff(w)))
        return dev

    def words(self):
        return sorted(self.coeffs, key=lambda w: (len(w), w))

    def __str__(self):
        bits = [f"{'.'.join(map(str, w)) or '1'}: {self.coeffs[w]}" for w in self.words()]
        return "{" + ", ".join(bits) + "}"


# -- transport -------------------------------------------------------------------


def _clearance_check(forms, path: Path, cfg: QuadratureConfig):
    for form in forms:
        for pole in form.poles:
            for seg in path.segments:
                d = seg.distance_to(pole)
                if d <= cfg.pole_clearance:
                    raise PoleOnPath(
                        f"path passes within {d:.2e} of the pole {pole} of {form}"
                    )


def transport(forms, path: Path, max_len: int, cfg: QuadratureConfig) -> TruncatedWordSeries:
    """Solve dF = F (sum_i A_i omega_i) along the path, truncated at word
    length max_len, with a fixed-step RK4 update per segment."""
    if max_len < 1:
        raise InputError("word truncation length must be >= 1")
    if not forms:
        raise InputError("transport needs at least one form")
    sig = forms[0].signature
    for form in forms:
        if form.signature != sig:
            raise SignatureMismatch("forms over different signatures")
    if sig.backend is not Backend.FLOAT:
        raise InputError("transport runs on the float backend")
    _clearance_check(forms, path, cfg)

    F = TruncatedWordSeries.identity(sig, len(forms), max_len)
    steps = cfg.steps_per_segment
    h = 1.0 / steps
    for seg in path.segments:
        samples = [None] * (2 * steps + 1)

        def omega_at(idx):
            # idx counts half-steps along the segment
            if samples[idx] is None:
                t = idx * (0.5 * h)
                z = seg.point(t)
                v = seg.velocity(t)
                samples[idx] = [form.eval(z) * v for form in forms]
            return samples[idx]

        for k in range(steps):
            w0 = omega_at(2 * k)
            w_half = omega_at(2 * k + 1)
            w1 = omega_at(2 * k + 2)
            k1 = F.right_connection(w0)
            k2 = (F + k1.scale(h / 2)).right_connection(w_half)
            k3 = (F + k2.scale(h / 2)).right_connection(w_half)
            k4 = (F + k3.scale(h)).right_connection(w1)
            incr = k1 + k2.scale(2.0) + k3.scale(2.0) + k4
            F = F + incr.scale(h / 6)
    return F


def iterated_integral(forms_word, path: Path, cfg: QuadratureConfig) -> AlgebraElement:
    """The iterated integral of the given word of forms along the path."""
    forms_word = list(forms_word)
    r = len(forms_word)
    F = transport(forms_word, path, r, cfg)
    return F.coeff(tuple(range(1, r + 1)))


def line_integral(form, path: Path, cfg: QuadratureConfig) -> AlgebraElement:
    return iterated_integral([form], path, cfg)


# -- identity checks ---------------------------------------------------------------


def shuffles(m: int, n: int):
    """Interleavings of (1..m) with (m+1..m+n) preserving both orders."""
    out = []
    for positions in combinations(range(m + n), m):
        word = [0] * (m + n)
        first = iter(range(m))
        second = iter(range(m, m + n))
        pos_set = set(positions)
        for idx in range(m + n):
            word[idx] = next(first) if idx in pos_set else next(second)
        out.append(tuple(word))
    return out


def chen_identity_check(kind: str, cfg: QuadratureConfig, **inputs) -> CheckReport:
    """Numerically verify one of the basic iterated-integral identities:
    shuffle, reversal, composition, or homotopy invariance."""
    started = time.perf_counter()
    if kind == "shuffle":
        word1, word2, path = inputs["word1"], inputs["word2"], inputs["path"]
        forms = list(word1) + list(word2)
        m, n = len(word1), len(word2)
        F = transport(forms, path, m + n, cfg)
        lhs = F.coeff(tuple(range(1, m + 1))) * F.coeff(tuple(range(m + 1, m + n + 1)))
        rhs = F.signature.zero()
        for tau in shuffles(m, n):
            rhs = rhs + F.coeff(tuple(i + 1 for i in tau))
    elif kind == "reversal":
        word, path = list(inputs["word"]), inputs["path"]
        r = len(word)
        lhs = iterated_integral(word, path, cfg)
        rhs = iterated_integral(list(reversed(word)), path.reversed(), cfg)
        if r % 2:
            rhs = -rhs
    elif kind == "composition":
        word, path1, path2 = list(inputs["word"]), inputs["path1"], inputs["path2"]
        r = len(word)
        F1 = transport(word, path1, r, cfg)
        F2 = transport(word, path2, r, cfg)
        lhs = iterated_integral(word, path1 + path2, cfg)
        rhs = F1.signature.zero()
        for i in range(r + 1):
            rhs = rhs + F1.coeff(tuple(range(1, i + 1))) * F2.coeff(tuple(range(i + 1, r + 1)))
    elif kind == "homotopy":
        word, path_a, path_b = list(inputs["word"]), inputs["path_a"], inputs["path_b"]
        lhs = iterated_integral(word, path_a, cfg)
        rhs = iterated_integral(word, path_b, cfg)
    else:
        raise InputError(f"unknown identity kind {kind!r}")

    echoed = {"kind": kind, "steps_per_segment": cfg.steps_per_segment}
    for key, value in inputs.items():
        if isinstance(value, (list, tuple)):
            echoed[key] = [str(v) for v in value]
        else:
            echoed[key] = str(value)
    return make_report(
        f"chen-{kind}", echoed, lhs, rhs, deviation(lhs, rhs), cfg.tolerance, started
    )
