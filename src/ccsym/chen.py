"""Chen iterated integrals via truncated noncommutative parallel transport.

The transport of a connection sum_i A_i w_i along a path solves
dF = F (sum_i A_i w_i) in the free associative algebra on letters
A_1..A_n, truncated at word length L.  The word coefficients of the
solution are exactly the iterated integrals, and the composition law
F_{ab} = F_a F_b holds by construction.

The coefficient of a word w = (v, a) obeys dF[w] = F[v] w_a, so it
needs only its prefixes.  The state therefore holds the prefix closure
of the words the caller reads: r + 1 words for an iterated integral of
r forms instead of every word up to length r.  Each coefficient is a
dense list over the monomials of A that the forms can reach, in
(degree, exponents) order, multiplied through the product table of
`algebra.DenseLayout`.

The stepper is a classical fourth-order Runge-Kutta update with a fixed
number of steps per path segment, so reports are reproducible bit for
bit.  Its four stages are fused into one pass over the words in length
order: stage s of w is (F + c_s k_{s-1})[v] times the letter's form
value at that stage's sample, read from the stages of the parent v.
Forms are compiled once into dense coefficients: a dlog form samples
`RationalFunctionA.dlog_eval` of its function's float twin, which costs
a few complex Horner evaluations and at most one dense division per
perturbation polynomial.  A form's `eval` returns a dense list over its
own layout, which the transport scatters into its state's layout through
index lists built once per call, so the step loop builds no algebra
element.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from itertools import combinations

from .algebra import AlgebraElement, AlgebraSignature, Backend, DenseLayout, deviation
from .errors import InputError, PoleOnPath, SignatureMismatch
from .paths import Path
from .ratfunc import RationalFunctionA
from .reports import CheckReport, make_report


@dataclass(frozen=True)
class QuadratureConfig:
    steps_per_segment: int = 256
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.steps_per_segment < 1:
            raise InputError("steps_per_segment must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise InputError("tolerance must be a positive finite number")


# -- differential form handles ------------------------------------------------


class DifferentialForm:
    """A 1-form handle: an evaluator plus its declared pole set.

    `eval(z)` is the form's coefficient of dz at z as a dense list over
    the form's own `layout`, the monomials of A its values can reach;
    the transport scatters it into its state's layout.  `value(z)` is
    the same coefficient as an element."""

    signature: AlgebraSignature
    poles: tuple
    label: str
    layout: DenseLayout

    def eval(self, z: complex) -> list:
        raise NotImplementedError

    def value(self, z: complex) -> AlgebraElement:
        return self.layout.element(self.eval(z))

    def __str__(self):
        return self.label


class Dz(DifferentialForm):
    def __init__(self, signature: AlgebraSignature):
        self.signature = signature.to_float()
        self.layout = DenseLayout(self.signature)
        self.poles = ()
        self.label = "dz"

    def eval(self, z: complex) -> list:
        return [self.layout.one]


class SimplePole(DifferentialForm):
    """dz/(z - c)."""

    def __init__(self, signature: AlgebraSignature, c: complex):
        self.signature = signature.to_float()
        self.layout = DenseLayout(self.signature)
        self.c = complex(c)
        self.poles = (self.c,)
        self.label = f"dz/(z-{self.c})" if self.c else "dz/z"

    def eval(self, z: complex) -> list:
        return [1.0 / (z - self.c)]


class DlogForm(DifferentialForm):
    """df/f for a rational function with coefficients in A, sampled by
    `RationalFunctionA.dlog_eval` of its float twin."""

    def __init__(self, f: RationalFunctionA):
        self.f = f.widen()
        self.signature = self.f.signature
        self.poles = tuple(complex(r) for r in f.roots())
        self.label = f"dlog({f})"
        _, self.layout, _ = self.f.compiled_dlog

    def eval(self, z: complex) -> list:
        return self.f.dlog_eval(z)


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
        self.layout = DenseLayout(self.signature, self.a.coeffs)
        self._a = self.layout.vector(self.a)

    def eval(self, z: complex) -> list:
        zn1 = z ** (self.n - 1)  # safe at z = 0 for n >= 1
        zn = zn1 * z
        denom = [-(c * zn) for c in self._a]
        denom[0] += 1
        return self.layout.divide([c * (-self.n * zn1) for c in self._a], denom)


# -- word series ----------------------------------------------------------------


def _words_up_to(alphabet_size: int, max_len: int) -> list:
    """Every word of length <= max_len in letters 1..alphabet_size, by length."""
    words = level = [()]
    for _ in range(max_len):
        level = [w + (a,) for w in level for a in range(1, alphabet_size + 1)]
        words = words + level
    return words


class TruncatedWordSeries:
    """Coefficients in A of a set of words (length <= max_len, letters
    1..n): `coeffs` maps each computed word to its coefficient."""

    __slots__ = ("signature", "alphabet_size", "max_len", "coeffs")

    def __init__(self, signature, alphabet_size: int, max_len: int, coeffs: dict):
        self.signature = signature
        self.alphabet_size = alphabet_size
        self.max_len = max_len
        self.coeffs = coeffs

    @classmethod
    def identity(cls, signature, alphabet_size: int, max_len: int):
        coeffs = {w: signature.zero() for w in _words_up_to(alphabet_size, max_len)}
        coeffs[()] = signature.one()
        return cls(signature, alphabet_size, max_len, coeffs)

    def coeff(self, word) -> AlgebraElement:
        word = tuple(word)
        c = self.coeffs.get(word)
        if c is None:
            raise InputError(
                f"word {word} is not among the computed words "
                f"(letters 1..{self.alphabet_size}, length <= {self.max_len})"
            )
        return c

    def _compatible(self, other):
        if (
            self.signature != other.signature
            or self.alphabet_size != other.alphabet_size
            or self.max_len != other.max_len
        ):
            raise SignatureMismatch("incompatible word series")

    def __mul__(self, other):
        """Concatenation product, on the words whose every split into a
        prefix and a suffix has the prefix in self and the suffix in other."""
        self._compatible(other)
        a, b = self.coeffs, other.coeffs
        out = {}
        for w in a:
            splits = [(w[:i], w[i:]) for i in range(len(w) + 1)]
            if all(u in a and v in b for u, v in splits):
                out[w] = sum((a[u] * b[v] for u, v in splits), self.signature.zero())
        return TruncatedWordSeries(self.signature, self.alphabet_size, self.max_len, out)

    def deviation(self, other) -> float:
        self._compatible(other)
        if self.coeffs.keys() != other.coeffs.keys():
            raise SignatureMismatch("word series over different word sets")
        return max((deviation(c, other.coeffs[w]) for w, c in self.coeffs.items()), default=0.0)


# -- transport -------------------------------------------------------------------

POLE_CLEARANCE = 1e-6  # least distance between a path and a form's pole


def _clearance_check(forms, path: Path):
    for form in forms:
        for pole in form.poles:
            for seg in path.segments:
                d = seg.distance_to(pole)
                if d <= POLE_CLEARANCE:
                    raise PoleOnPath(
                        f"path passes within {d:.2e} of the pole {pole} of {form}"
                    )


def _prefix_closure(words, alphabet_size: int, max_len: int) -> list:
    """The given words and all their prefixes, by length; () first."""
    words = [tuple(w) for w in words]
    for w in words:
        if len(w) > max_len or any(not 1 <= a <= alphabet_size for a in w):
            raise InputError(
                f"word {w} is not a word of length <= {max_len} in letters 1..{alphabet_size}"
            )
    closure = {w[:i] for w in words for i in range(len(w) + 1)} | {()}
    return sorted(closure, key=lambda w: (len(w), w))


def transport(forms, path: Path, max_len: int, cfg: QuadratureConfig, words=None) -> TruncatedWordSeries:
    """Solve dF = F (sum_i A_i omega_i) along the path with a fixed-step
    RK4 update per segment, for the given words and their prefixes
    (every word up to length max_len when `words` is None)."""
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
    n = len(forms)
    state = _words_up_to(n, max_len) if words is None else _prefix_closure(words, n, max_len)
    _clearance_check(forms, path)

    index = {w: i for i, w in enumerate(state)}
    # (word, parent = word minus its last letter, last letter) by length
    links = [(i, index[w[:-1]], w[-1] - 1) for i, w in enumerate(state) if w]
    layout = DenseLayout(sig, [m for form in forms for m in form.layout.monomials])
    mul = layout.mul
    place = {m: i for i, m in enumerate(layout.monomials)}
    # each form's sampler and where its layout's monomials sit in this one
    samplers = [(form.eval, [place[m] for m in form.layout.monomials]) for form in forms]
    zero = [0j] * len(place)
    F = [layout.vector(sig.one())] + [zero] * len(links)
    steps = cfg.steps_per_segment
    h = 1.0 / steps
    half, sixth = h / 2, h / 6
    for seg in path.segments:

        def omega_at(idx):
            # idx counts half-steps along the segment
            t = idx * (0.5 * h)
            z = seg.point(t)
            v = seg.velocity(t)
            out = [list(zero) for _ in samplers]
            for w, (sample, at) in zip(out, samplers):
                for i, c in zip(at, sample(z)):
                    w[i] = c * v
            return out

        w1 = omega_at(0)
        for k in range(steps):
            w0, w_half, w1 = w1, omega_at(2 * k + 1), omega_at(2 * k + 2)
            # the four RK4 stages of each word from those of its parent
            K1, K2, K3 = [zero] * len(F), [zero] * len(F), [zero] * len(F)
            G = list(F)
            for w, p, a in links:
                x = F[p]
                k1 = mul(x, w0[a])
                k2 = mul([u + y * half for u, y in zip(x, K1[p])], w_half[a])
                k3 = mul([u + y * half for u, y in zip(x, K2[p])], w_half[a])
                k4 = mul([u + y * h for u, y in zip(x, K3[p])], w1[a])
                K1[w], K2[w], K3[w] = k1, k2, k3
                G[w] = [
                    f + (b1 + b2 * 2.0 + b3 * 2.0 + b4) * sixth
                    for f, b1, b2, b3, b4 in zip(F[w], k1, k2, k3, k4)
                ]
            F = G
    coeffs = {w: layout.element(F[i]) for i, w in enumerate(state)}
    return TruncatedWordSeries(sig, n, max_len, coeffs)


def iterated_integral(forms_word, path: Path, cfg: QuadratureConfig) -> AlgebraElement:
    """The iterated integral of the given word of forms along the path."""
    forms_word = list(forms_word)
    word = tuple(range(1, len(forms_word) + 1))
    return transport(forms_word, path, len(word), cfg, [word]).coeff(word)


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
        first, second = tuple(range(1, m + 1)), tuple(range(m + 1, m + n + 1))
        shuffled = [tuple(i + 1 for i in tau) for tau in shuffles(m, n)]
        F = transport(forms, path, m + n, cfg, [first, second, *shuffled])
        lhs = F.coeff(first) * F.coeff(second)
        rhs = F.signature.zero()
        for w in shuffled:
            rhs = rhs + F.coeff(w)
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
        prefixes = [tuple(range(1, i + 1)) for i in range(r + 1)]
        suffixes = [tuple(range(i + 1, r + 1)) for i in range(r + 1)]
        F1 = transport(word, path1, r, cfg, prefixes)
        F2 = transport(word, path2, r, cfg, suffixes)
        lhs = iterated_integral(word, path1 + path2, cfg)
        rhs = F1.signature.zero()
        for prefix, suffix in zip(prefixes, suffixes):
            rhs = rhs + F1.coeff(prefix) * F2.coeff(suffix)
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
