"""Chen iterated integrals via truncated noncommutative parallel transport.

The transport of a connection sum_i A_i w_i along a path solves
dF = F (sum_i A_i w_i) in the free associative algebra on letters
A_1..A_n, truncated at word length L.  The word coefficients of the
solution are exactly the iterated integrals, and the composition law
F_{ab} = F_a F_b holds by construction.

The coefficient of a word w = (v, a) obeys dF[w] = F[v] w_a, so it needs
only its prefixes.  The state therefore holds the prefix closure of the
words the caller reads: r + 1 words for an iterated integral of r forms
instead of every word up to length r.  Each coefficient is a dense list
over the monomials of A that the forms can reach, in (degree, exponents)
order, multiplied through the product table of `forms.DenseLayout`.

`transport` feeds a leg sampler to a stepper, one path segment at a
time.  The sampler `_legs` yields each leg as blocks of `BLOCK` RK4
steps, and a direction, +1.  A block holds per form, per monomial, one
column of the form's value times the velocity over the block's nodes,
the steps and their midpoints, from the form's `sampler`: a leg's first
block is sampled whole, first node included, and a later one starts at
the last node of the block before, so no node is sampled twice, and a
form given twice is sampled once.  By Chen's reversal law a leg that
runs back over an earlier leg of the transport replays that leg's
blocks in reverse order, each column reversed, with the opposite
direction instead (so the nodes must be symmetric under t -> 1 - t),
while the kept samples fit in `KEEP_SAMPLES` values.  Each form also
stores the blocks it sampled on a leg, keyed by the segment (by `==`),
the node count and the transport's layout monomials, for as long as the
form lives: a later leg over an equal segment, in this transport or a
later one, reads them instead of sampling, bit for bit the same.  A
form stores at most `KEEP_SAMPLES` values; it records a leg block by
block as the leg streams, and a leg that does not fit streams unstored.
The stepper `_rk4` takes a fixed number of classical fourth-order
Runge-Kutta steps per segment, so reports are reproducible bit for bit.
Per block it visits the words in length order.  A parent w = (v, a) with
v not () takes its four stages at all the block's steps at once: stage
s is (F + c_s k_{s-1})[v] times the letter's sample at its node, a
column product (`DenseLayout.mul`).  For v = () the stages are the
samples, so a letter's update is Simpson's rule, h/6 (w0 + 4 w_half +
w1), and its stage columns X2 = X1 + h/2 w0, X3 = X1 + h/2 w_half and
X4 = X1 + h w_half are built only for a child that is itself a parent.
A leaf with v not () is read once a block, so its increment
h/6 sum_j Y_j W_j is one `DenseLayout.dot` over the nodes, with v's RK4
weights Y: X1 + X4 at a step, 2 (X2 + X3) between.  A one-letter v
builds them from its running sum X1 and its samples: 4 X1 + h (w0 +
w_half) between steps, X1_j + X1_(j-1) + h w_half_(j-1) at an inner
step, X1 at the first and X1 + h w_half at the last.
"""

from __future__ import annotations

import math
import time
from array import array
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, product, repeat
from operator import add, mul

from .algebra import AlgebraElement, Backend, deviation
from .errors import InputError, PoleOnPath, SignatureMismatch
from .forms import DenseLayout, DifferentialForm  # noqa: F401 (the forms' base, as the traced benchmark binds it)
from .paths import Path
from .reports import CheckReport, make_report


class QuadratureConfig:
    def __init__(self, steps_per_segment: int = 256, tolerance: float = 1e-8):
        if steps_per_segment < 1:
            raise InputError("steps_per_segment must be >= 1")
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise InputError("tolerance must be a positive finite number")
        self.steps_per_segment, self.tolerance = steps_per_segment, tolerance

    @cached_property
    def nodes(self) -> array:
        """RK4's nodes on a segment's parameter interval: the steps and their midpoints, 8 bytes a node."""
        return array("d", map(mul, range(2 * self.steps_per_segment + 1), repeat(0.5 / self.steps_per_segment)))


# -- word series ----------------------------------------------------------------


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
        coeffs = {w: signature.zero() for w in _prefix_closure(None, alphabet_size, max_len)}
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
                out[w] = AlgebraElement.dot(self.signature, [(a[u], b[v]) for u, v in splits])
        return TruncatedWordSeries(self.signature, self.alphabet_size, self.max_len, out)

    def deviation(self, other) -> float:
        self._compatible(other)
        if self.coeffs.keys() != other.coeffs.keys():
            raise SignatureMismatch("word series over different word sets")
        return max((deviation(c, other.coeffs[w]) for w, c in self.coeffs.items()), default=0.0)


# -- transport -------------------------------------------------------------------

POLE_CLEARANCE = 1e-6  # least distance between a path and a form's pole
KEEP_SAMPLES = 1 << 16  # most form values a transport keeps for its return legs, and a form stores
BLOCK = 512  # RK4 steps a leg samples, and the stepper takes, at a time


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
    """The given words (all of length max_len if None) and their prefixes, by length; () first."""
    if words is None:
        words = product(range(1, alphabet_size + 1), repeat=max_len)
    words = [tuple(w) for w in words]
    for w in words:
        if len(w) > max_len or any(not 1 <= a <= alphabet_size for a in w):
            raise InputError(
                f"word {w} is not a word of length <= {max_len} in letters 1..{alphabet_size}"
            )
    closure = {w[:i] for w in words for i in range(len(w) + 1)} | {()}
    return sorted(closure, key=lambda w: (len(w), w))


def _blocks(samplers, seg, ts):
    """A leg's samples at the nodes `ts`, BLOCK steps at a time: per form, its
    columns over a block's nodes, the first of which ends the block before."""
    for k in range(0, len(ts) - 1, 2 * BLOCK):
        zs, vs = seg.nodes(ts[k + bool(k):k + 2 * BLOCK + 1])  # a later block's first node is sampled already
        new = [sample(zs, vs) for sample in samplers]
        block = [[[c[-1], *d] for c, d in zip(last, cols)] for last, cols in zip(block, new)] if k else new
        yield block


def _stored_blocks(samplers, stores, monomials, seg, ts):
    """A leg's blocks: per form, those its store holds for the segment, the
    node count and the layout's monomials, or its samples, which the store
    records block by block while it has room."""
    key = seg, len(ts), monomials
    held = [store.get(key) for store in stores]
    fresh = [k for k, blocks in enumerate(held) if blocks is None]
    if not fresh:
        yield from zip(*held)
        return
    size = len(ts) * len(monomials)  # the values a form stores for the leg
    record = {k: [] for k in fresh if size + sum(n * len(m) for _, n, m in stores[k]) <= KEEP_SAMPLES}
    held = [None if blocks is None else iter(blocks) for blocks in held]
    for new in _blocks([samplers[k] for k in fresh], seg, ts):
        new = iter(new)
        block = [next(new if blocks is None else blocks) for blocks in held]
        for k, blocks in record.items():
            blocks.append(block[k])
        yield block
    for k, blocks in record.items():
        stores[k][key] = blocks


def _legs(forms, layout, segments, ts):
    """Per segment: its blocks of samples at the nodes `ts`, symmetric under t -> 1 - t, and a direction."""
    distinct = list(dict.fromkeys(forms))  # a form given twice is sampled once
    at = [distinct.index(form) for form in forms]
    samplers = [form.sampler(layout) for form in distinct]
    stores = [form.samples for form in distinct]
    monomials = tuple(layout.monomials)
    back = {}  # leg back[i] runs back over leg i and replays its samples
    for i, seg in enumerate(segments):
        rev = seg.reversed()
        if later := [j for j in range(i + 1, len(segments)) if segments[j] == rev and j not in back.values()]:
            back[i] = later[0]
    kept = {}  # the blocks of a leg whose reverse is still to come, and that reverse's direction
    leg_size = len(ts) * len(forms) * len(layout.monomials)  # the values a leg keeps
    for i, seg in enumerate(segments):
        if i in kept:
            # a leg's reverse has its nodes in reverse order with every value
            # negated: the same, bit for bit, as stepping them backwards
            blocks, sign = kept.pop(i)
            blocks = ([[c[::-1] for c in cols] for cols in block] for block in reversed(blocks))
        else:
            blocks = _stored_blocks(samplers, stores, monomials, seg, ts)
            blocks, sign = ([block[k] for k in at] for block in blocks), 1
        if i in back and (len(kept) + 1) * leg_size <= KEEP_SAMPLES:
            blocks = list(blocks)
            kept[back[i]] = blocks, -sign
        yield blocks, sign


def _rk4(F, links, layout, block, h):
    """F advanced by RK4 steps of size h over one block of a leg's samples at its steps and midpoints."""
    F, half, sixth = list(F), h / 2, h / 6
    halves, sixths, twos, fours, hs = repeat(half), repeat(sixth), repeat(2.0), repeat(4.0), repeat(h)
    # per form: its samples at the block's steps, their midpoints and their ends
    W = [([c[:-1:2] for c in cols], [c[1::2] for c in cols], [c[2::2] for c in cols]) for cols in block]
    X, Y = {}, {}  # per parent word: (F + c_s k_{s-1})[w] at each stage s over the steps; its weights at the nodes
    for w, p, a, parent, weights, stages in links:
        if p and not parent:  # a leaf: h/6 sum_j Y_j W_j over the nodes
            F[w] = list(map(add, F[w], map(mul, layout.dot(Y[p], block[a]), sixths)))
            continue
        w0, w_half, w1 = W[a]
        if p:
            k1, k2, k3, k4 = map(layout.mul, X[p], (w0, w_half, w_half, w1))
            k1, k2, k3 = ([list(c) for c in k] for k in (k1, k2, k3))  # a product's columns are read once
            # per monomial: the word's increments over the block's steps
            ds = [map(mul, map(add, map(add, map(add, b1, map(mul, b2, twos)), map(mul, b3, twos)), b4), sixths)
                  for b1, b2, b3, b4 in zip(k1, k2, k3, k4)]
        else:  # a first letter: its stages are its samples, so its update is Simpson's rule, h/6 (w0 + 4 w_half + w1)
            k1, k2, k3 = w0, w_half, w_half
            ds = [map(mul, map(add, map(add, b1, map(mul, b2, fours)), b4), sixths) for b1, b2, b4 in zip(w0, w_half, w1)]
        if not parent:
            F[w] = [reduce(add, d, f) for f, d in zip(F[w], ds)]
            continue
        states = [list(accumulate(d, add, initial=f)) for f, d in zip(F[w], ds)]
        F[w] = [s[-1] for s in states]
        x1 = [s[:-1] for s in states]
        if p or stages:
            X[w] = x1, *([list(map(add, u, map(mul, y, c))) for u, y in zip(x1, k)] for k, c in ((k1, halves), (k2, halves), (k3, hs)))
        if weights and p:  # per monomial: X1 + X4 at a step (X1 alone at the first, X4 at the last), 2 (X2 + X3) between
            Y[w] = [[*chain(*zip([u1[0], *map(add, u1[1:], u4)], map(mul, map(add, u2, u3), twos))), u4[-1]]
                    for u1, u2, u3, u4 in zip(*X[w])]
        elif weights:  # the same from X1 and the samples: 4 X1 + h (w0 + w_half) between steps,
            # X1_j + X1_(j-1) + h w_half_(j-1) at an inner step, X1 at the first and X1 + h w_half at the last
            Y[w] = []
            for u, b1, b2 in zip(x1, w0, w_half):
                hb2 = list(map(mul, b2, hs))
                mids = map(add, map(mul, u, fours), map(mul, map(add, b1, b2), hs))
                Y[w].append([*chain(*zip([u[0], *map(add, map(add, u[1:], u), hb2)], mids)), u[-1] + hb2[-1]])
    return F


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
    state = _prefix_closure(words, n, max_len)
    _clearance_check(forms, path)

    index = {w: i for i, w in enumerate(state)}
    parents = {w[:-1] for w in state if w}
    weights = {w[:-1] for w in state if w not in parents}  # the words with a leaf child
    stages = {w[:-1] for w in parents if w}  # the words with a child that is a parent
    # (word, parent = word minus its last letter, last letter, whether a parent, whether in weights,
    # whether in stages) by length
    links = [(i, index[w[:-1]], w[-1] - 1, w in parents, w in weights, w in stages) for i, w in enumerate(state) if w]
    layout = DenseLayout(sig, [m for form in forms for m in form.layout.monomials])
    F = [layout.vector(sig.one())] + [[0j] * len(layout.monomials)] * len(links)
    steps = cfg.steps_per_segment
    for blocks, sign in _legs(forms, layout, path.segments, cfg.nodes):
        for block in blocks:
            F = _rk4(F, links, layout, block, sign / steps)
    return TruncatedWordSeries(sig, n, max_len, {w: layout.element(f) for w, f in zip(state, F)})


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
    for positions in map(set, combinations(range(m + n), m)):
        first, second = iter(range(m)), iter(range(m, m + n))
        out.append(tuple(next(first) if idx in positions else next(second) for idx in range(m + n)))
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
        rhs = sum((F.coeff(w) for w in shuffled), F.signature.zero())
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
        rhs = sum((F1.coeff(p) * F2.coeff(s) for p, s in zip(prefixes, suffixes)), F1.signature.zero())
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
