"""Planar region primitives used by density specifications and the quadrature engine.

All regions are measurable subsets of C with piecewise circular/linear
boundaries.  Besides pointwise membership they support three exact queries
that the adaptive integrator relies on:

* classification of an axis-aligned cell as inside / outside / straddling,
* the exact area of the intersection with an axis-aligned cell,
* the positive radii at which a ray ``s + t*exp(i*theta)`` can cross the
  region boundary (so radial integrals can be split into segments on which
  the indicator is constant).

The two cell queries take arrays of cell bounds, so the integrator
classifies and intersects a whole batch of cells at once; scalar bounds
give 0-d arrays.  They reproduce scalar float arithmetic bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INSIDE = 1
OUTSIDE = -1
STRADDLE = 0


def _pymax(a, b):
    """Elementwise max(a, b) with Python's tie rule: a unless b > a."""
    return np.where(b > a, b, a)


def _pymin(a, b):
    """Elementwise min(a, b) with Python's tie rule: a unless b < a."""
    return np.where(b < a, b, a)


def _sq(x):
    """x ** 2 by C pow(), as Python floats square; numpy's x**2 multiplies and
    can differ in the last bit."""
    return np.frompyfunc(pow, 2, 1)(x, 2).astype(float)


def _sqrt_prim(cx, r, x):
    """Primitive of sqrt(r^2 - (x-cx)^2) at x (clamped to the chord)."""
    t = _pymin(1.0, _pymax(-1.0, (x - cx) / r))
    asin = np.frompyfunc(math.asin, 1, 1)(t).astype(float)
    return 0.5 * (r * r * asin + (x - cx) * np.sqrt(_pymax(r * r - _sq(x - cx), 0.0)))


def disk_rect_area(cx, cy, r, x0, x1, y0, y1):
    """Exact area of the intersection of the disc D((cx,cy), r) with a rectangle.

    The vertical extent of the disc at abscissa x is [cy - s(x), cy + s(x)]
    with s = sqrt(r^2 - (x-cx)^2); clipping against [y0, y1] is piecewise
    analytic with breakpoints where the circle crosses the horizontal edges,
    so the area reduces to closed-form arcsin/sqrt primitives per piece.
    Arguments broadcast; scalars give a 0-d array.
    """
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                 for v in (cx, cy, r, x0, x1, y0, y1)))
    out = np.zeros(args[0].shape)
    lo = _pymax(args[3], args[0] - args[2])
    hi = _pymin(args[4], args[0] + args[2])
    live = (args[2] > 0.0) & (lo < hi)
    cx, cy, r, x0, x1, y0, y1 = (a[live] for a in args)
    lo, hi = lo[live], hi[live]
    # Breakpoints: the clipped chord ends, then the circle's crossings with
    # y = y0 and y = y1 inside them; absent crossings repeat hi, giving
    # empty pieces that are skipped.
    xs = [lo, hi]
    for yb in (y0 - cy, y1 - cy):
        cut = np.abs(yb) < r
        d = np.sqrt(np.where(cut, r * r - yb * yb, 0.0))
        for x in (cx - d, cx + d):
            xs.append(np.where(cut & (lo < x) & (x < hi), x, hi))
    xs = np.sort(np.stack(xs, axis=1), axis=1)
    prim = _sqrt_prim(cx[:, None], r[:, None], xs)
    total = np.zeros(lo.shape)
    for k in range(xs.shape[1] - 1):
        a, b = xs[:, k], xs[:, k + 1]
        w = b - a
        s = np.sqrt(_pymax(r * r - _sq(0.5 * (a + b) - cx), 0.0))
        seg = prim[:, k + 1] - prim[:, k]
        upper = np.where(cy + s < y1, cy * w + seg, y1 * w)
        lower = np.where(cy - s > y0, cy * w - seg, y0 * w)
        keep = (w > 0.0) & (_pymin(cy + s, y1) > _pymax(cy - s, y0))
        total = np.where(keep, total + (upper - lower), total)
    out[live] = _pymax(total, 0.0)
    return out


def rect_rect_area(ax0, ax1, ay0, ay1, bx0, bx1, by0, by1):
    """Area of the intersection of two axis-aligned rectangles; broadcasts."""
    w = _pymin(ax1, bx1) - _pymax(ax0, bx0)
    h = _pymin(ay1, by1) - _pymax(ay0, by0)
    return np.where((w > 0.0) & (h > 0.0), w * h, 0.0)


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

    def contains(self, u):
        re = np.real(u) - self.cx
        im = np.imag(u) - self.cy
        return re * re + im * im <= self.r * self.r

    def classify_cell(self, x0, x1, y0, y1):
        ndx = np.maximum(np.maximum(x0 - self.cx, 0.0), self.cx - x1)
        ndy = np.maximum(np.maximum(y0 - self.cy, 0.0), self.cy - y1)
        fdx = np.maximum(x1 - self.cx, self.cx - x0)
        fdy = np.maximum(y1 - self.cy, self.cy - y0)
        rr = self.r * self.r
        return np.where(ndx * ndx + ndy * ndy >= rr, OUTSIDE,
                        np.where(fdx * fdx + fdy * fdy <= rr, INSIDE, STRADDLE))

    def cell_area(self, x0, x1, y0, y1):
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

    def contains(self, u):
        re = np.real(u) - self.cx
        im = np.imag(u) - self.cy
        d2 = re * re + im * im
        return (d2 >= self.r_inner * self.r_inner) & (d2 <= self.r_outer * self.r_outer)

    def classify_cell(self, x0, x1, y0, y1):
        outer = Disk(self.cx, self.cy, self.r_outer).classify_cell(x0, x1, y0, y1)
        inner = Disk(self.cx, self.cy, self.r_inner).classify_cell(x0, x1, y0, y1)
        return np.where((outer == OUTSIDE) | (inner == INSIDE), OUTSIDE,
                        np.where((outer == INSIDE) & (inner == OUTSIDE), INSIDE, STRADDLE))

    def cell_area(self, x0, x1, y0, y1):
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

    def contains(self, u):
        re = np.real(u)
        im = np.imag(u)
        return (re >= self.x0) & (re <= self.x1) & (im >= self.y0) & (im <= self.y1)

    def classify_cell(self, x0, x1, y0, y1):
        out = (x1 <= self.x0) | (x0 >= self.x1) | (y1 <= self.y0) | (y0 >= self.y1)
        inside = (x0 >= self.x0) & (x1 <= self.x1) & (y0 >= self.y0) & (y1 <= self.y1)
        return np.where(out, OUTSIDE, np.where(inside, INSIDE, STRADDLE))

    def cell_area(self, x0, x1, y0, y1):
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
