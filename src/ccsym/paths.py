"""Piecewise-smooth parametrized curves in the complex plane.

Paths are chains of line segments and circular arcs, each parametrized
over [0, 1] with an explicit derivative.  Constructors cover the loop
shapes the verification harness needs: segments, full circles, path
concatenation and reversal, and commutators of loops.  `parse_path`
reads them from text, such as `concat(seg(-2,-1/2),circle(0,1/2,1/2))`.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
from operator import mul

from .errors import InputError, PathError
from .parsing import ExpressionParser, eval_scalar
from .ratfunc import SpherePoint

CHAIN_TOL = 1e-12


class _Segment:
    """A segment equals, and hashes as, a segment of its own class with the same fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


class LineSegment(_Segment):
    __slots__ = ("start", "end")

    def __init__(self, start: complex, end: complex):
        self.start, self.end = complex(start), complex(end)

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def velocity(self, t: float) -> complex:
        return self.end - self.start

    def nodes(self, ts) -> tuple:
        """(points, velocities) at the parameters ts, as `point` and `velocity` give them."""
        start, d = self.start, self.end - self.start
        return [start + t * d for t in ts], [d] * len(ts)

    def reversed(self) -> "LineSegment":
        return LineSegment(self.end, self.start)

    def distance_to(self, p: complex) -> float:
        d = self.end - self.start
        L2 = abs(d) ** 2
        if L2 == 0:
            return abs(p - self.start)
        t = ((p - self.start) * d.conjugate()).real / L2
        t = min(1.0, max(0.0, t))
        return abs(p - (self.start + t * d))


class ArcSegment(_Segment):
    __slots__ = ("center", "radius", "theta0", "sweep")

    def __init__(self, center: complex, radius: float, theta0: float, sweep: float):  # sweep > 0 is counterclockwise
        self.center = complex(center)
        if isinstance(radius, complex):
            if radius.imag != 0:
                raise PathError("arc radius must be real")
            radius = radius.real
        self.radius, self.theta0, self.sweep = float(radius), float(theta0), float(sweep)

    def point(self, t: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * (self.theta0 + t * self.sweep))

    def velocity(self, t: float) -> complex:
        return 1j * self.sweep * self.radius * cmath.exp(1j * (self.theta0 + t * self.sweep))

    def nodes(self, ts) -> tuple:
        """(points, velocities) at the parameters ts, as `point` and `velocity` give them, one exp a node."""
        exp, center, radius, theta0, sweep = cmath.exp, self.center, self.radius, self.theta0, self.sweep
        es = [exp(1j * (theta0 + t * sweep)) for t in ts]
        return [center + radius * e for e in es], list(map(mul, repeat(1j * sweep * radius), es))

    def reversed(self) -> "ArcSegment":
        return ArcSegment(self.center, self.radius, self.theta0 + self.sweep, -self.sweep)

    def distance_to(self, p: complex) -> float:
        rel = p - self.center
        if rel == 0:
            return self.radius
        # is the angle of p inside the swept sector?
        ang = cmath.phase(rel)
        lo, hi = sorted((self.theta0, self.theta0 + self.sweep))
        k = math.floor((lo - ang) / (2 * math.pi))
        inside = any(
            lo <= ang + 2 * math.pi * (k + d) <= hi for d in (0, 1, 2)
        )
        if inside:
            return abs(abs(rel) - self.radius)
        return min(abs(p - self.point(0.0)), abs(p - self.point(1.0)))


class Path:
    """An ordered chain of segments; ends must meet to within 1e-12."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        segments = tuple(segments)
        for a, b in zip(segments, segments[1:]):
            if abs(a.point(1.0) - b.point(0.0)) > CHAIN_TOL:
                raise PathError(
                    f"segments do not chain: {a.point(1.0)} != {b.point(0.0)}"
                )
        self.segments = segments

    @property
    def start(self) -> complex:
        if not self.segments:
            raise PathError("empty path has no endpoints")
        return self.segments[0].point(0.0)

    @property
    def end(self) -> complex:
        if not self.segments:
            raise PathError("empty path has no endpoints")
        return self.segments[-1].point(1.0)

    def is_loop(self) -> bool:
        return bool(self.segments) and abs(self.start - self.end) <= CHAIN_TOL

    def reversed(self) -> "Path":
        return Path([seg.reversed() for seg in reversed(self.segments)])

    def __add__(self, other: "Path") -> "Path":
        return Path(self.segments + other.segments)

    def __repr__(self):
        return f"Path({len(self.segments)} segments, {self.start}->{self.end})" if self.segments else "Path(empty)"


def segment(a: complex, b: complex) -> Path:
    return Path([LineSegment(complex(a), complex(b))])


def circle(center: complex, radius: float, base_angle: float = 0.0, clockwise: bool = False) -> Path:
    """Full loop around `center` starting at angle `base_angle`."""
    if radius <= 0:
        raise PathError("circle radius must be positive")
    sweep = -2 * math.pi if clockwise else 2 * math.pi
    return Path([ArcSegment(complex(center), float(radius), float(base_angle), sweep)])


def concat(*paths: Path) -> Path:
    return Path([seg for p in paths for seg in p.segments])


def commutator(alpha: Path, beta: Path) -> Path:
    """alpha beta alpha^-1 beta^-1 for two loops at the same base point."""
    if not (alpha.is_loop() and beta.is_loop()):
        raise PathError("commutator needs two loops")
    if abs(alpha.start - beta.start) > CHAIN_TOL:
        raise PathError("commutator loops must share their base point")
    return concat(alpha, beta, alpha.reversed(), beta.reversed())


def lasso(base: complex, center: complex, radius: float) -> Path:
    """Loop from `base`: walk to the circle around `center`, go around it counterclockwise, walk back."""
    approach = complex(base) - complex(center)
    if abs(approach) <= radius:
        raise PathError("lasso base point lies inside the loop circle")
    theta = cmath.phase(approach)
    foot = complex(center) + radius * cmath.exp(1j * theta)
    go = segment(base, foot)
    return concat(go, circle(center, radius, theta), go.reversed())


def _ray_loop(base: complex, center, radius: float, theta: float, clockwise=False) -> Path:
    """From `base` out to the circle about `center` at angle theta, once
    around it, and back."""
    go = segment(base, center + radius * cmath.exp(1j * theta))
    return concat(go, circle(center, radius, theta, clockwise), go.reversed())


def _isolating_loop(s: SpherePoint, base: complex, radius: float, others) -> Path:
    """Loop from `base` going once around s (counterclockwise on the
    sphere) and around no other support point."""
    if s.is_infinite:
        bound = max(max((abs(complex(t.value)) for t in others), default=0.0), abs(base))
        if radius <= bound:
            raise InputError(f"loop around infinity needs radius > {bound:g}")
        return _ray_loop(base, 0, radius, cmath.phase(base) if base != 0 else 0.0, clockwise=True)
    center = complex(s.value)
    for t in others:
        if not t.is_infinite and abs(complex(t.value) - center) <= radius:
            raise InputError(f"loop around {s} also encloses {t}")
    return lasso(base, center, radius)


def _shell_loops(points, base: complex):
    """Nested-shell loop system: loops from `base`, one per finite point,
    whose ordered product is homotopic to a single circle around all of
    them.  Points must have distinct distances from the base."""
    dists = [abs(complex(p.value) - base) for p in points]
    order = sorted(range(len(points)), key=lambda i: dists[i])
    sorted_d = [dists[i] for i in order]
    for d1, d2 in zip(sorted_d, sorted_d[1:]):
        if d2 - d1 < 1e-9:
            raise InputError(
                "support points equidistant from the base point; "
                "pick a different base for the loop construction"
            )
    if sorted_d and sorted_d[0] < 1e-9:
        raise InputError("base point lies on the support")

    # shell radii strictly between consecutive distance rings
    radii = []
    for i, d in enumerate(sorted_d):
        nxt = sorted_d[i + 1] if i + 1 < len(sorted_d) else d * 2 + 1
        radii.append(d + (nxt - d) / 2)

    # a ray from the base that stays clear of every point
    clear = min(
        [(d2 - d1) for d1, d2 in zip(sorted_d, sorted_d[1:])] + [sorted_d[0]]
    ) / 4 if sorted_d else 1.0
    theta = None
    for k in range(256):
        cand = 2 * math.pi * k / 256
        ray = cmath.exp(1j * cand)
        ok = True
        for i, p in enumerate(points):
            rel = complex(p.value) - base
            t = (rel * ray.conjugate()).real
            d_line = abs(rel - max(t, 0.0) * ray)
            if d_line <= clear:
                ok = False
                break
        if ok:
            theta = cand
            break
    if theta is None:
        raise InputError("no clear ray from the base point; support too crowded")

    loops = [None] * len(points)
    prev = None
    for idx, i in enumerate(order):
        outer = _ray_loop(base, base, radii[idx], theta)
        loops[i] = outer if prev is None else concat(prev.reversed(), outer)
        prev = outer
    return loops, order, (radii[-1] if radii else 1.0), theta


# -- path literals -------------------------------------------------------------------


class PathParser(ExpressionParser):
    """Path grammar: circle(c,r[,angle]), seg(a,b), concat(p,...),
    rev(p), comm(p,q); parameters are scalar expressions."""

    def parse_path(self) -> Path:
        kind, name, pos = self.advance()
        if kind != "NAME":
            raise InputError(
                f"expected a path constructor at position {pos} in {self.text!r}"
            )
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
            while self.peek()[1] == ",":
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
        while self.peek()[1] == ",":
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
    kind, rest, pos = parser.peek()
    if kind != "END":
        raise InputError(f"trailing input {rest!r} at position {pos} in {text!r}")
    return path
