"""Piecewise-smooth parametrized curves in the complex plane.

Paths are chains of line segments and circular arcs, each parametrized
over [0, 1] with an explicit derivative.  Constructors cover the loop
shapes the verification harness needs: segments, full circles, path
concatenation and reversal, and commutators of loops.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import PathError

CHAIN_TOL = 1e-12


@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def __post_init__(self):
        object.__setattr__(self, "start", complex(self.start))
        object.__setattr__(self, "end", complex(self.end))

    def point(self, t: float) -> complex:
        return self.start + t * (self.end - self.start)

    def velocity(self, t: float) -> complex:
        return self.end - self.start

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


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    theta0: float
    sweep: float  # signed; positive is counterclockwise

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        r = self.radius
        if isinstance(r, complex):
            if r.imag != 0:
                raise PathError("arc radius must be real")
            r = r.real
        object.__setattr__(self, "radius", float(r))
        object.__setattr__(self, "theta0", float(self.theta0))
        object.__setattr__(self, "sweep", float(self.sweep))

    def point(self, t: float) -> complex:
        return self.center + self.radius * cmath.exp(1j * (self.theta0 + t * self.sweep))

    def velocity(self, t: float) -> complex:
        return 1j * self.sweep * self.radius * cmath.exp(1j * (self.theta0 + t * self.sweep))

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
    segs = []
    for p in paths:
        segs.extend(p.segments)
    return Path(segs)


def commutator(alpha: Path, beta: Path) -> Path:
    """alpha beta alpha^-1 beta^-1 for two loops at the same base point."""
    if not (alpha.is_loop() and beta.is_loop()):
        raise PathError("commutator needs two loops")
    if abs(alpha.start - beta.start) > CHAIN_TOL:
        raise PathError("commutator loops must share their base point")
    return concat(alpha, beta, alpha.reversed(), beta.reversed())


def lasso(base: complex, center: complex, radius: float, clockwise: bool = False) -> Path:
    """Loop from `base`: walk to the circle around `center`, go around, walk back."""
    approach = complex(base) - complex(center)
    if abs(approach) <= radius:
        raise PathError("lasso base point lies inside the loop circle")
    theta = cmath.phase(approach)
    foot = complex(center) + radius * cmath.exp(1j * theta)
    go = segment(base, foot)
    return concat(go, circle(center, radius, theta, clockwise), go.reversed())
