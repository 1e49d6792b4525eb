"""Planar region primitives used by density specifications and the quadrature engine.

All regions are measurable subsets of C with piecewise circular/linear
boundaries.  Besides pointwise membership they support three exact queries
that the adaptive integrator relies on:

* classification of an axis-aligned cell as inside / outside / straddling,
* the exact area of the intersection with an axis-aligned cell,
* the positive radii at which a ray ``s + t*exp(i*theta)`` can cross the
  region boundary (so radial integrals can be split into segments on which
  the indicator is constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INSIDE = 1
OUTSIDE = -1
STRADDLE = 0


def _sqrt_primitive(cx: float, r: float, a: float, b: float) -> float:
    """Integral of sqrt(r^2 - (x-cx)^2) over [a, b] (clamped to the chord)."""

    def prim(x: float) -> float:
        t = (x - cx) / r
        t = min(1.0, max(-1.0, t))
        return 0.5 * (r * r * math.asin(t) + (x - cx) * math.sqrt(max(r * r - (x - cx) ** 2, 0.0)))

    return prim(b) - prim(a)


def disk_rect_area(cx: float, cy: float, r: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """Exact area of the intersection of the disc D((cx,cy), r) with a rectangle.

    The vertical extent of the disc at abscissa x is [cy - s(x), cy + s(x)]
    with s = sqrt(r^2 - (x-cx)^2); clipping against [y0, y1] is piecewise
    analytic with breakpoints where the circle crosses the horizontal edges,
    so the area reduces to closed-form arcsin/sqrt primitives per piece.
    """
    if r <= 0.0:
        return 0.0
    lo = max(x0, cx - r)
    hi = min(x1, cx + r)
    if lo >= hi:
        return 0.0
    xs = [lo, hi]
    for yb in (y0 - cy, y1 - cy):
        if abs(yb) < r:
            d = math.sqrt(r * r - yb * yb)
            for x in (cx - d, cx + d):
                if lo < x < hi:
                    xs.append(x)
    xs.sort()
    total = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        if b - a <= 0.0:
            continue
        xm = 0.5 * (a + b)
        s = math.sqrt(max(r * r - (xm - cx) ** 2, 0.0))
        top = min(cy + s, y1)
        bot = max(cy - s, y0)
        if top <= bot:
            continue
        if cy + s < y1:
            upper = cy * (b - a) + _sqrt_primitive(cx, r, a, b)
        else:
            upper = y1 * (b - a)
        if cy - s > y0:
            lower = cy * (b - a) - _sqrt_primitive(cx, r, a, b)
        else:
            lower = y0 * (b - a)
        total += upper - lower
    return max(total, 0.0)


def rect_rect_area(ax0: float, ax1: float, ay0: float, ay1: float,
                   bx0: float, bx1: float, by0: float, by1: float) -> float:
    w = min(ax1, bx1) - max(ax0, bx0)
    h = min(ay1, by1) - max(ay0, by0)
    return w * h if (w > 0.0 and h > 0.0) else 0.0


def _circle_ray_crossings(cx: float, cy: float, r: float,
                          sx: float, sy: float, ct: float, st: float) -> list[float]:
    dx = sx - cx
    dy = sy - cy
    beta = dx * ct + dy * st
    disc = beta * beta - (dx * dx + dy * dy - r * r)
    if disc <= 0.0:
        return []
    sq = math.sqrt(disc)
    return [t for t in (-beta - sq, -beta + sq) if t > 0.0]


def _line_crossing(coord_s: float, coord_target: float, direction: float) -> list[float]:
    if abs(direction) < 1e-14:
        return []
    t = (coord_target - coord_s) / direction
    return [t] if t > 0.0 else []


@dataclass(frozen=True)
class Disk:
    cx: float
    cy: float
    r: float

    curved = True

    def contains(self, u):
        re = np.real(u) - self.cx
        im = np.imag(u) - self.cy
        return re * re + im * im <= self.r * self.r

    def classify_cell(self, x0: float, x1: float, y0: float, y1: float) -> int:
        ndx = max(x0 - self.cx, 0.0, self.cx - x1)
        ndy = max(y0 - self.cy, 0.0, self.cy - y1)
        if ndx * ndx + ndy * ndy >= self.r * self.r:
            return OUTSIDE
        fdx = max(x1 - self.cx, self.cx - x0)
        fdy = max(y1 - self.cy, self.cy - y0)
        if fdx * fdx + fdy * fdy <= self.r * self.r:
            return INSIDE
        return STRADDLE

    def cell_area(self, x0: float, x1: float, y0: float, y1: float) -> float:
        return disk_rect_area(self.cx, self.cy, self.r, x0, x1, y0, y1)

    def ray_crossings(self, sx: float, sy: float, ct: float, st: float) -> list[float]:
        return _circle_ray_crossings(self.cx, self.cy, self.r, sx, sy, ct, st)

    def boundary_distance(self, x: float, y: float) -> float:
        return abs(math.hypot(x - self.cx, y - self.cy) - self.r)

    def within_disc(self, cx: float, cy: float, radius: float, tol: float = 1e-12) -> bool:
        return math.hypot(self.cx - cx, self.cy - cy) + self.r <= radius * (1.0 + tol) + tol

    @property
    def area(self) -> float:
        return math.pi * self.r * self.r


@dataclass(frozen=True)
class Annulus:
    cx: float
    cy: float
    r_inner: float
    r_outer: float

    curved = True

    def contains(self, u):
        re = np.real(u) - self.cx
        im = np.imag(u) - self.cy
        d2 = re * re + im * im
        return (d2 >= self.r_inner * self.r_inner) & (d2 <= self.r_outer * self.r_outer)

    def classify_cell(self, x0: float, x1: float, y0: float, y1: float) -> int:
        outer = Disk(self.cx, self.cy, self.r_outer).classify_cell(x0, x1, y0, y1)
        if outer == OUTSIDE:
            return OUTSIDE
        inner = Disk(self.cx, self.cy, self.r_inner).classify_cell(x0, x1, y0, y1)
        if inner == INSIDE:
            return OUTSIDE
        if outer == INSIDE and inner == OUTSIDE:
            return INSIDE
        return STRADDLE

    def cell_area(self, x0: float, x1: float, y0: float, y1: float) -> float:
        return (disk_rect_area(self.cx, self.cy, self.r_outer, x0, x1, y0, y1)
                - disk_rect_area(self.cx, self.cy, self.r_inner, x0, x1, y0, y1))

    def ray_crossings(self, sx: float, sy: float, ct: float, st: float) -> list[float]:
        return (_circle_ray_crossings(self.cx, self.cy, self.r_inner, sx, sy, ct, st)
                + _circle_ray_crossings(self.cx, self.cy, self.r_outer, sx, sy, ct, st))

    def boundary_distance(self, x: float, y: float) -> float:
        d = math.hypot(x - self.cx, y - self.cy)
        return min(abs(d - self.r_inner), abs(d - self.r_outer))

    def within_disc(self, cx: float, cy: float, radius: float, tol: float = 1e-12) -> bool:
        return math.hypot(self.cx - cx, self.cy - cy) + self.r_outer <= radius * (1.0 + tol) + tol

    @property
    def area(self) -> float:
        return math.pi * (self.r_outer ** 2 - self.r_inner ** 2)


@dataclass(frozen=True)
class Rectangle:
    x0: float
    y0: float
    x1: float
    y1: float

    curved = False

    def contains(self, u):
        re = np.real(u)
        im = np.imag(u)
        return (re >= self.x0) & (re <= self.x1) & (im >= self.y0) & (im <= self.y1)

    def classify_cell(self, x0: float, x1: float, y0: float, y1: float) -> int:
        if x1 <= self.x0 or x0 >= self.x1 or y1 <= self.y0 or y0 >= self.y1:
            return OUTSIDE
        if x0 >= self.x0 and x1 <= self.x1 and y0 >= self.y0 and y1 <= self.y1:
            return INSIDE
        return STRADDLE

    def cell_area(self, x0: float, x1: float, y0: float, y1: float) -> float:
        return rect_rect_area(self.x0, self.x1, self.y0, self.y1, x0, x1, y0, y1)

    def ray_crossings(self, sx: float, sy: float, ct: float, st: float) -> list[float]:
        out: list[float] = []
        out += _line_crossing(sx, self.x0, ct)
        out += _line_crossing(sx, self.x1, ct)
        out += _line_crossing(sy, self.y0, st)
        out += _line_crossing(sy, self.y1, st)
        return out

    def boundary_distance(self, x: float, y: float) -> float:
        if self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1:
            return min(x - self.x0, self.x1 - x, y - self.y0, self.y1 - y)
        dx = max(self.x0 - x, 0.0, x - self.x1)
        dy = max(self.y0 - y, 0.0, y - self.y1)
        return math.hypot(dx, dy)

    def within_disc(self, cx: float, cy: float, radius: float, tol: float = 1e-12) -> bool:
        far = 0.0
        for px in (self.x0, self.x1):
            for py in (self.y0, self.y1):
                far = max(far, math.hypot(px - cx, py - cy))
        return far <= radius * (1.0 + tol) + tol

    @property
    def area(self) -> float:
        return max(self.x1 - self.x0, 0.0) * max(self.y1 - self.y0, 0.0)


Region = Disk | Annulus | Rectangle
