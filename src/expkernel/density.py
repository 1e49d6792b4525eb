"""Compactly supported densities 0 <= g <= 1 built from signed region indicators.

A density is a finite signed sum of region indicators plus an optional
piecewise-constant grid layer,

    g(u) = sum_i coeff_i * 1_{R_i}(u) + grid(u),

clipped to zero outside the declared support disc.  g jumps only on
circles and on the lines of lattices (a rectangle is a lattice of one
cell), and DensitySpec.curves is the one table of them: every module that
needs g's jumps reads it rather than the region kinds.  g is constant on
each face of the arrangement of those curves, so a spec is validated
exactly by evaluating g at one point of every face: every admissible spec
satisfies 0 <= g <= 1 off the curves.  What g looks like at a point w, the
values it takes around w, the disc about w on which it vanishes and the
curves tangent at w, is read from the same table in one pass (around).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (_CHUNK, _PARALLEL, INSIDE, STRADDLE, Annulus, Disk, Rectangle, Region,
                       _circle_crossings, _line_crossings)

_MASK64 = (1 << 64) - 1


class DensityConfigError(ValueError):
    """Raised for malformed or out-of-contract density configurations."""


class PlacementError(RuntimeError):
    """Raised when swiss-cheese hole placement cannot satisfy disjointness."""


class Mcg64:
    """Fixed 64-bit multiplicative congruential generator.

    state_{n+1} = (0xd1342543de82ef95 * state_n) mod 2^64, state_0 = 2*seed + 1
    (forced odd).  Uniform deviates are the top 53 bits scaled to [0, 1).
    The recurrence uses only integer arithmetic mod 2^64, so streams are
    reproducible across platforms and languages.
    """

    MULTIPLIER = 0xD1342543DE82EF95

    def __init__(self, seed: int):
        self.state = ((int(seed) << 1) | 1) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.MULTIPLIER * self.state) & _MASK64
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        """The next n deviates at once, bit-identical to n calls of uniform().

        state_k = MULTIPLIER^k * state_0 mod 2^64: uint64 array products wrap
        mod 2^64, so jump-ahead powers reproduce the stream exactly.  The
        powers come in blocks of 256, M^(256 j) * M^i, not as one sequential
        product over all n.
        """
        first = np.multiply.accumulate(np.full(min(n, 256), self.MULTIPLIER, dtype=np.uint64))
        blocks = np.multiply.accumulate(np.full(-(-n // 256), first[-1], dtype=np.uint64))
        blocks = np.concatenate((np.ones(1, dtype=np.uint64), blocks[:-1]))
        states = (blocks[:, None] * (first * np.uint64(self.state))).ravel()[:n]
        self.state = int(states[-1])
        states >>= np.uint64(11)
        return states * 2.0 ** -53


@dataclass(frozen=True)
class GridLayer:
    """Piecewise-constant layer: values[iy, ix] on square cells of side `spacing`."""

    origin_x: float
    origin_y: float
    spacing: float
    values: np.ndarray  # shape (ny, nx), non-negative

    def __eq__(self, other):
        if not isinstance(other, GridLayer):
            return NotImplemented
        return (self.origin_x == other.origin_x and self.origin_y == other.origin_y
                and self.spacing == other.spacing and np.array_equal(self.values, other.values))

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        return (self.origin_x, self.origin_x + self.nx * self.spacing,
                self.origin_y, self.origin_y + self.ny * self.spacing)

    def eval(self, re, im):
        ix = np.floor((re - self.origin_x) / self.spacing).astype(np.int64)
        iy = np.floor((im - self.origin_y) / self.spacing).astype(np.int64)
        ok = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)
        out = np.zeros(np.shape(re), dtype=float)
        out[ok] = self.values[iy[ok], ix[ok]]
        return out

    def cell_mass(self, x0, x1, y0, y1):
        """Exact integral of the layer over axis-aligned rectangles (bounds broadcast).

        Each rectangle sums its overlaps with the layer cells row by row, in
        the same order for every rectangle of the batch.
        """
        x0, x1, y0, y1 = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                               for v in (x0, x1, y0, y1)))
        s = self.spacing
        i0 = np.maximum(np.floor((x0 - self.origin_x) / s), 0).astype(np.int64)
        i1 = np.minimum(np.ceil((x1 - self.origin_x) / s), self.nx).astype(np.int64)
        j0 = np.maximum(np.floor((y0 - self.origin_y) / s), 0).astype(np.int64)
        j1 = np.minimum(np.ceil((y1 - self.origin_y) / s), self.ny).astype(np.int64)
        total = np.zeros(x0.shape)
        for dj in range(int(np.max(j1 - j0, initial=0))):
            j = j0 + dj
            cy0 = self.origin_y + j * s
            h = np.minimum(cy0 + s, y1) - np.maximum(cy0, y0)
            row = (j < j1) & (h > 0.0)
            for di in range(int(np.max(i1 - i0, initial=0))):
                i = i0 + di
                cx0 = self.origin_x + i * s
                w = np.minimum(cx0 + s, x1) - np.maximum(cx0, x0)
                v = self.values[np.minimum(j, self.ny - 1), np.minimum(i, self.nx - 1)]
                total = np.where(row & (i < i1) & (w > 0.0), total + w * h * v, total)
        return total

    def ray_crossings(self, sx, sy, ct, st):
        """Radii at which rays cross each grid line, one row per ray (nan: no crossing)."""
        return np.concatenate(
            (_line_crossings(sx, self.origin_x + np.arange(self.nx + 1) * self.spacing, ct),
             _line_crossings(sy, self.origin_y + np.arange(self.ny + 1) * self.spacing, st)),
            axis=-1)


@dataclass(frozen=True)
class DensitySpec:
    """Validated description of a density g as signed regions plus a grid layer."""

    support_center: complex
    support_radius: float
    terms: tuple[tuple[Region, float], ...]
    grid: GridLayer | None = None

    @cached_property
    def curves(self) -> tuple[np.ndarray, tuple]:
        """(circles, lattices): the one place that turns region kinds into
        the curves where g jumps.  g at a point is the sum of the jumps of
        the circles around it plus the value of its cell in each lattice.

        circles: rows (cx, cy, r, jump) in term order, a disc giving (r,
        coeff) and an annulus (r_inner, -coeff), then (r_outer, coeff); rows
        of radius 0 are dropped.  lattices: (xs, ys, values), values[j, i]
        on [xs[i], xs[i+1]] x [ys[j], ys[j+1]]; each rectangle is a 1 x 1
        lattice of its coefficient, in term order, and the grid comes last.
        The support circle clips g but is not a curve of the table.
        """
        circles, lattices = [], []
        for region, coeff in self.terms:
            if isinstance(region, Rectangle):
                lattices.append((np.array([region.x0, region.x1]),
                                 np.array([region.y0, region.y1]), np.array([[coeff]])))
            elif isinstance(region, Disk):
                circles.append((region.cx, region.cy, region.r, coeff))
            else:
                circles += [(region.cx, region.cy, region.r_inner, -coeff),
                            (region.cx, region.cy, region.r_outer, coeff)]
        grid = self.grid
        if grid is not None:
            lattices.append((grid.origin_x + np.arange(grid.nx + 1) * grid.spacing,
                             grid.origin_y + np.arange(grid.ny + 1) * grid.spacing, grid.values))
        return (np.array([c for c in circles if c[2] > 0.0], dtype=float).reshape(-1, 4),
                tuple(lattices))

    @cached_property
    def arrangement(self) -> JumpArrangement:
        """The JumpArrangement of g, built once per spec."""
        return jump_arrangement(self)


def eval_density(g: DensitySpec, u) -> float | np.ndarray:
    """Pointwise g(u); accepts a complex scalar or ndarray.

    Exactly zero outside the support disc.
    """
    scalar = np.ndim(u) == 0
    uu = np.asarray(u, dtype=complex)
    re = uu.real
    im = uu.imag
    val = np.zeros(uu.shape, dtype=float)
    for region, coeff in g.terms:
        np.add(val, coeff, out=val, where=region.contains(uu))
    if g.grid is not None:
        val += g.grid.eval(re, im)
    dx = re - g.support_center.real
    dy = im - g.support_center.imag
    dx *= dx
    dy *= dy
    dx += dy
    val = np.where(dx <= g.support_radius ** 2, val, 0.0)
    return float(val) if scalar else val


# A point lies on a curve when its distance to it is within _ON_CURVE_ULPS
# ulps of the density's scale |support_center| + support_radius, which bounds
# the rounding of the curves' coordinates and of a membership test.
_ON_CURVE_ULPS = 16
# Offsets from a point's place in a comb's sorted lines to its four nearest.
_AROUND = np.arange(-2, 2)
# Two curves through w whose tangents there differ by at most _HORN (a sine)
# are tangent at w, and a sector at w no wider than min(4 eta / r, _HORN),
# r the least radius of the circles through w, is a horn of zero opening:
# the rounding of w turns the tangents of circles tangent at w by about
# eta / r.
_HORN = 1e-6


@dataclass(frozen=True)
class JumpArrangement:
    """The curves on which g can jump, the boundaries of its regions and
    grid cells: circles (rows cx, cy, r) and combs (axis, cs, lo, hi) of
    parallel segments with one extent, the edges of a rectangle or the lines
    of a grid: the vertical segments x = c, lo <= y <= hi for c in the
    sorted cs on axis 0, the horizontal ones y = c, lo <= x <= hi on axis 1.
    g is constant on each face they cut out of the plane.  A point within
    ``eta`` of a curve counts as on it."""

    circles: np.ndarray
    combs: tuple
    eta: float
    scale: float

    def _lines(self, axis: int) -> np.ndarray:
        """Rows (c, lo, hi) of every segment of the combs on one axis."""
        return np.array([(c, lo, hi) for a, cs, lo, hi in self.combs if a == axis
                         for c in cs], dtype=float).reshape(-1, 3)

    def _cuts(self, v: np.ndarray, h: np.ndarray, tol: float):
        """(curve, parameter) of the points where each curve meets another,
        and of its ends: an angle in [0, 2 pi] on a circle, y on a vertical
        segment of v and x on a horizontal one of h, curves numbered circles,
        v, h.  Curves within tol of touching touch."""
        c = self.circles
        nc, nv = len(c), len(v)
        cx, cy, r = (a[:, None] for a in c.T)
        curve, param = [], []
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # circle i meets circle j at angles base +- half about centre i
            dx, dy = cx.T - cx, cy.T - cy
            d = np.hypot(dx, dy)
            touch = (np.abs(d - (r + r.T)) <= tol) | (np.abs(d - np.abs(r - r.T)) <= tol)
            i, j = np.nonzero((d > 0.0) & (touch | ((d < r + r.T) & (d > np.abs(r - r.T)))))
            a = (d * d + r * r - r.T * r.T) / (2.0 * d)
            half = np.arctan2(np.where(touch, 0.0, np.sqrt(r * r - a * a)), a)[i, j]
            base = np.arctan2(dy[i, j], dx[i, j])
            curve += [i, i]
            param += [base + half, base - half]
            # a circle and a segment at offset off from its centre meet at
            # half chords s; no circle or no segment leaves nothing to meet
            for k, seg, off, along in ((0, v, v[:, 0] - cx, cy), (1, h, h[:, 0] - cy, cx)):
                if not off.size:
                    continue
                touch = np.abs(np.abs(off) - r) <= tol
                s = np.where(touch, 0.0, np.sqrt(r * r - off * off))
                for sign in (1.0, -1.0):
                    at = along + sign * s
                    i, j = np.nonzero((touch | (np.abs(off) < r))
                                      & (seg[:, 1] - tol <= at) & (at <= seg[:, 2] + tol))
                    across, off_ij = sign * s[i, j], off[i, j]
                    curve += [i, nc + k * nv + j]
                    param += [np.arctan2(across, off_ij) if k == 0 else np.arctan2(off_ij, across),
                              at[i, j]]
        circle = np.concatenate(curve) < nc
        param = np.concatenate(param)
        param[circle] %= 2.0 * math.pi
        # vertical and horizontal segments
        if nv and len(h):
            j, k = np.nonzero((h[:, 1] - tol <= v[:, :1]) & (v[:, :1] <= h[:, 2] + tol)
                              & (v[:, 1:2] - tol <= h[:, 0]) & (h[:, 0] <= v[:, 2:] + tol))
            curve += [nc + j, nc + nv + k]
            param = np.concatenate((param, h[k, 0], v[j, 0]))
        ends = np.repeat(np.arange(nc + nv + len(h)), 2)
        curve = np.concatenate(curve + [ends])
        param = np.concatenate((param, np.tile((0.0, 2.0 * math.pi), nc),
                                v[:, 1:].ravel(), h[:, 1:].ravel()))
        lo = np.concatenate((np.zeros(nc), v[:, 1], h[:, 1]))
        hi = np.concatenate((np.full(nc, 2.0 * math.pi), v[:, 2], h[:, 2]))
        return curve, np.clip(param, lo[curve], hi[curve])

    def _first_crossing(self, p: np.ndarray, n: np.ndarray) -> np.ndarray:
        """The least t > eta at which each ray p + t n meets a curve (inf:
        none).  A ray along a line of a comb meets it where it reaches the
        segment."""
        x, y, nx, ny = p.real, p.imag, n.real, n.imag
        c, eta = self.circles, self.eta
        t = _circle_crossings(c[:, 0], c[:, 1], c[:, 2], x[:, None], y[:, None],
                              nx[:, None], ny[:, None])
        first = np.where(t > eta, t, np.inf).min(axis=(1, 2), initial=np.inf)
        for axis, cs, lo, hi in self.combs:
            a, b, da, db = (x, y, nx, ny) if axis == 0 else (y, x, ny, nx)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # the stretch t0 <= t <= t1 of the ray within lo <= b <= hi;
                # a subnormal db or da overflows to the infinite limit
                ta, tb = (lo - b) / db, (hi - b) / db
                within = (lo <= b) & (b <= hi)
                t0 = np.where(db != 0.0, np.minimum(ta, tb), np.where(within, -np.inf, np.inf))
                t1 = np.where(db != 0.0, np.maximum(ta, tb), np.where(within, np.inf, -np.inf))
                # the first line past t0 and eta in the ray's direction
                start = a + np.maximum(t0, eta) * da
                i = np.where(da > 0.0, np.searchsorted(cs, start, "left"),
                             np.searchsorted(cs, start, "right") - 1)
                tc = (cs[np.clip(i, 0, cs.size - 1)] - a) / da
            cross = (np.abs(da) >= _PARALLEL) & (i >= 0) & (i < cs.size) & (tc <= t1)
            near = cs[np.clip(np.searchsorted(cs, a)[:, None] + _AROUND, 0, cs.size - 1)]
            along = ((np.abs(da) < _PARALLEL) & (np.abs(a[:, None] - near).min(axis=1) <= eta)
                     & (t0 > eta))
            first = np.minimum(first, np.where(cross, tc, np.where(along, t0, np.inf)))
        return first

    def face_samples(self, lines=None) -> np.ndarray:
        """Points in every face of the arrangement wider than the rounding:
        two beside the midpoint of each piece into which the curves cut one
        another, one on either side.

        Each lies halfway along the normal from the midpoint to the first
        curve it meets beyond eta, so in the face that touches the piece
        there.  A side whose first curve lies within 4 eta of the midpoint
        faces a sliver narrower than the rounding and gets none.  Curves
        within 4 eta of touching are cut where they touch, so a near
        tangency ends pieces rather than narrowing a face at their middle.

        ``lines``, rows (c, lo, hi) of vertical and of horizontal segments,
        replaces the combs' segments as the pieces to cut and sample, while
        a normal still stops at the first curve of the whole arrangement.
        """
        reach = 4.0 * self.eta
        v, h = (self._lines(0), self._lines(1)) if lines is None else lines
        curve, param = self._cuts(v, h, reach)
        order = np.lexsort((param, curve))
        curve, param = curve[order], param[order]
        piece = np.flatnonzero((curve[1:] == curve[:-1]) & (param[1:] > param[:-1]))
        k = curve[piece]
        mid = 0.5 * (param[piece] + param[piece + 1])
        nc, nv = len(self.circles), len(v)
        p = np.empty(k.size, dtype=complex)
        n = np.empty(k.size, dtype=complex)
        m = k < nc
        c = self.circles[k[m]]
        n[m] = np.exp(1j * mid[m])
        p[m] = c[:, 0] + 1j * c[:, 1] + c[:, 2] * n[m]
        m = (k >= nc) & (k < nc + nv)
        p[m] = v[k[m] - nc, 0] + 1j * mid[m]
        n[m] = 1.0
        m = k >= nc + nv
        p[m] = mid[m] + 1j * h[k[m] - nc - nv, 0]
        n[m] = 1j
        p, n = np.concatenate((p, p)), np.concatenate((n, -n))
        step = max(1, _CHUNK // max(1, nc))
        t = np.concatenate([self._first_crossing(p[lo:lo + step], n[lo:lo + step])
                            for lo in range(0, p.size, step)] or [np.empty(0)])
        keep = t > reach
        return p[keep] + 0.5 * np.minimum(t[keep], self.scale) * n[keep]


def around(g: DensitySpec, w: complex):
    """What g looks like at w, read in one pass over DensitySpec.curves and
    the support circle: the tuple (values, clear, horn).  A curve within
    eta of w (_ON_CURVE_ULPS) passes through w.

    values: g(w) when no curve passes through w, else g just off w inside
    each sector of positive opening that the curves through w cut out.  A
    circle through w leaves it both ways along its tangent, a line of a
    lattice each way it goes on past w.  A point just off w lies inside a
    circle, or in a cell of a lattice, as w does, or, across a curve
    through w, as its direction leads.  The jumps and cell values are
    summed exactly, so where they cancel the value is exactly 0.

    clear: the distance from w to the nearest curve, and to the support
    circle when w lies outside it, where g(w) = 0: g vanishes on the disc
    of that radius about w.  0.0 when no such disc is known.

    horn: (spread, rmin, cap) of the curves through w but the support
    circle, each counted once.  spread sums |k - k'| over the pairs tangent
    at w, k the curvatures signed to one side (0 on a line); rmin is the
    least radius of the circles among them (inf: none); cap is the least of
    half the distance to any other curve, the support radius, rmin and
    rmin |sin b| / 2 over the pairs crossing at the angle b, which meet
    again at least rmin |sin b| away.
    """
    x, y = w.real, w.imag
    center, support = g.support_center, g.support_radius
    eta = _ON_CURVE_ULPS * math.ulp(abs(center) + support)
    circles, lattices = g.curves
    c = np.vstack((circles, (center.real, center.imag, support, 0.0)))  # the support last
    dx, dy = x - c[:, 0], y - c[:, 1]
    d = np.hypot(dx, dy)
    gap = np.abs(d - c[:, 2])
    on = gap <= eta
    phi = np.arctan2(dy[on], dx[on])
    rays = [phi + 0.5 * math.pi, phi - 0.5 * math.pi]
    # every curve's distance from w and whether it passes through w, the
    # support circle left out; the circles through w once each
    dist, hit = [gap[:-1]], [on[:-1]]
    through = np.array(sorted(set(map(tuple, circles[on[:-1], :3].tolist()))),
                       dtype=float).reshape(-1, 3)
    lines_through, sides = set(), []
    for xs, ys, _ in lattices:
        for axis, lines, a, b, ends in ((0, xs, x, y, ys), (1, ys, y, x, xs)):
            lo, hi = ends[0], ends[-1]
            dist.append(np.hypot(lines - a, max(lo - b, b - hi, 0.0)))
            hit.append(dist[-1] <= eta)
            if hit[-1].any():
                k = int(np.argmin(dist[-1]))
                sides.append((k, k - 1))
                lines_through.add(axis)
                ahead, behind = (0.5, 1.5) if axis == 0 else (0.0, 1.0)
                rays += [[ahead * math.pi] if b < hi - eta else [],
                         [behind * math.pi] if b > lo + eta else []]
            else:
                sides.append((np.searchsorted(lines, a, "right") - 1,) * 2)
    dist, hit = np.concatenate(dist), np.concatenate(hit)

    a = np.sort(np.concatenate(rays) % (2.0 * math.pi))
    if a.size:
        opening = np.diff(a, append=a[0] + 2.0 * math.pi)
        theta = (a + 0.5 * opening)[opening > min(4.0 * eta / np.min(c[on, 2], initial=np.inf),
                                                  _HORN)]
        ct, st = np.cos(theta), np.sin(theta)
        inside = np.where(on[:, None], dx[:, None] * ct + dy[:, None] * st < 0.0,
                          (c[:, 2] > d)[:, None])
        parts = [np.where(inside[:-1], c[:-1, 3:], 0.0)]
        for (_, _, v), (kx, ky) in zip(lattices, zip(sides[0::2], sides[1::2])):
            ix, iy = np.where(ct > 0.0, *kx), np.where(st > 0.0, *ky)
            ny, nx = v.shape
            ok = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
            parts.append(np.where(ok, v[np.clip(iy, 0, ny - 1), np.clip(ix, 0, nx - 1)], 0.0)[None])
        values = np.where(inside[-1], [math.fsum(p) for p in np.concatenate(parts).T], 0.0)
    else:
        values = np.array([eval_density(g, w)])

    d_support = math.hypot(x - center.real, y - center.imag)  # nearer 1/2 ulp than np.hypot
    clear = min(d_support - support if d_support > support else math.inf,
                float(np.min(dist, initial=math.inf)))
    if not (0.0 < clear < math.inf and (eval_density(g, w) if a.size else values[0]) == 0.0):
        clear = 0.0

    tangents = np.concatenate((-1j * (through[:, 0] + 1j * through[:, 1] - w) / through[:, 2],
                               [(1j, 1.0)[axis] for axis in sorted(lines_through)]))
    kappa = np.append(1.0 / through[:, 2], np.zeros(len(lines_through)))
    turn = tangents[:, None] * np.conj(tangents)
    pair = np.arange(tangents.size)[:, None] < np.arange(tangents.size)
    tangent = pair & (np.abs(turn.imag) <= _HORN)
    spread = float(np.sum(np.abs(kappa[:, None] - np.sign(turn.real) * kappa)[tangent]))
    rmin = float(np.min(through[:, 2], initial=np.inf))
    cap = min(0.5 * np.min(dist[~hit], initial=np.inf), support, rmin,
              0.5 * rmin * np.min(np.abs(turn.imag)[pair & ~tangent], initial=np.inf))
    return values, clear, (spread, rmin, cap)


def sector_values(g: DensitySpec, w: complex) -> np.ndarray:
    """The values g takes around w (around): g(w) when w lies on no jump
    curve of g, else its value just off w inside each sector of positive
    opening that the curves through w cut out.

    The diagonal integral of g |u-w|^-2 diverges exactly when one of them
    is positive; horns of zero opening, as between circles tangent at w,
    carry no such value.
    """
    return around(g, w)[0]


def clear_radius(g: DensitySpec, w: complex) -> float:
    """Radius of a disc around w on which g is certainly identically zero
    (around): the distance to the nearest jump curve of g when g(w) = 0;
    0.0 when no such disc is known."""
    return around(g, w)[1]


def jump_arrangement(g: DensitySpec) -> JumpArrangement:
    """The JumpArrangement of the curves of a structurally valid g
    (DensitySpec.curves): its circles, and two combs per lattice."""
    circles, lattices = g.curves
    combs = set()
    for xs, ys, _ in lattices:
        combs.update(((0, tuple(xs.tolist()), float(ys[0]), float(ys[-1])),
                      (1, tuple(ys.tolist()), float(xs[0]), float(xs[-1]))))
    scale = abs(g.support_center) + g.support_radius
    return JumpArrangement(np.array(sorted(set(map(tuple, circles[:, :3].tolist()))),
                                    dtype=float).reshape(-1, 3),
                           tuple((a, np.array(cs), lo, hi) for a, cs, lo, hi in sorted(combs)),
                           _ON_CURVE_ULPS * math.ulp(scale), scale)


def _cell_lines(xs: np.ndarray, ys: np.ndarray, cells: np.ndarray):
    """Rows (c, lo, hi) of the vertical and of the horizontal edges of the
    marked cells[j, i] of the lattice xs, ys, an edge two cells share once."""
    j, i = np.nonzero(np.pad(cells, ((0, 0), (1, 0))) | np.pad(cells, ((0, 0), (0, 1))))
    k, m = np.nonzero(np.pad(cells, ((1, 0), (0, 0))) | np.pad(cells, ((0, 1), (0, 0))))
    return (np.column_stack((xs[i], ys[j], ys[j + 1])),
            np.column_stack((ys[k], xs[m], xs[m + 1])))


def validate(g: DensitySpec) -> DensitySpec:
    """Check the structure of g, then 0 <= g <= 1 on every face of its jump
    arrangement, at the face samples of JumpArrangement.face_samples.

    A grid cell that no region straddles (classify_cell) is a face of its
    own: g is checked at its centre when a region covers it, and is the
    cell's grid value otherwise.  So only the region curves and the edges of
    the straddled cells are cut into pieces and sampled.

    Raises DensityConfigError with the first offending point when a sample
    violates 0 <= g <= 1.  g is zero outside the support disc by
    construction (eval_density), and its values on the jump curves
    themselves, a set of measure zero, are not checked.
    """
    if not (math.isfinite(g.support_radius) and g.support_radius > 0.0):
        raise DensityConfigError("support_radius must be positive and finite")
    if not (math.isfinite(g.support_center.real) and math.isfinite(g.support_center.imag)):
        raise DensityConfigError("support_center must be finite")
    for region, coeff in g.terms:
        if not math.isfinite(coeff):
            raise DensityConfigError("term coefficient must be finite")
        if isinstance(region, Disk):
            if not (region.r > 0.0):
                raise DensityConfigError(f"degenerate disk radius {region.r}")
        elif isinstance(region, Annulus):
            if not (0.0 <= region.r_inner < region.r_outer):
                raise DensityConfigError(
                    f"degenerate annulus radii ({region.r_inner}, {region.r_outer})")
        elif isinstance(region, Rectangle):
            if not (region.x0 < region.x1 and region.y0 < region.y1):
                raise DensityConfigError("degenerate rectangle corners")
        else:
            raise DensityConfigError(f"unknown region type {type(region)!r}")
        if not region.within_disc(g.support_center.real, g.support_center.imag,
                                  g.support_radius):
            raise DensityConfigError("region extends beyond the support disc")
    if g.grid is not None:
        if not (g.grid.spacing > 0.0):
            raise DensityConfigError("grid spacing must be positive")
        vals = np.asarray(g.grid.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise DensityConfigError("grid values must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(vals)) or vals.min() < 0.0 or vals.max() > 1.0:
            raise DensityConfigError("grid values must lie in [0, 1]")
        bx0, bx1, by0, by1 = g.grid.bbox
        if not Rectangle(bx0, by0, bx1, by1).within_disc(
                g.support_center.real, g.support_center.imag, g.support_radius):
            raise DensityConfigError("grid extends beyond the support disc")

    lines = None
    pts = np.empty(0, dtype=complex)
    if g.grid is not None:
        *rects, (xs, ys, _) = g.curves[1]
        x0, y0 = np.meshgrid(xs[:-1], ys[:-1])
        x1, y1 = np.meshgrid(xs[1:], ys[1:])
        kinds = np.reshape([region.classify_cell(x0, x1, y0, y1) for region, _ in g.terms],
                           (-1,) + x0.shape)
        straddle = (kinds == STRADDLE).any(axis=0)
        centre = (kinds == INSIDE).any(axis=0) & ~straddle
        pts = 0.5 * (x0[centre] + x1[centre]) + 0.5j * (y0[centre] + y1[centre])
        parts = [_cell_lines(rx, ry, np.ones((1, 1), dtype=bool)) for rx, ry, _ in rects]
        lines = tuple(np.concatenate(p) for p in zip(*parts, _cell_lines(xs, ys, straddle)))
    pts = np.concatenate((g.arrangement.face_samples(lines), pts))
    vals = eval_density(g, pts)
    tol = 1e-12
    bad = np.flatnonzero((vals < -tol) | (vals > 1.0 + tol))
    if bad.size:
        k = int(bad[0])
        raise DensityConfigError(
            f"density out of range: g({pts[k]:.17g}) = {vals[k]:.17g}")
    return g


def make_density(support_center: complex, support_radius: float,
                 terms, grid: GridLayer | None = None) -> DensitySpec:
    spec = DensitySpec(complex(support_center), float(support_radius),
                       tuple((r, float(c)) for r, c in terms), grid)
    return validate(spec)


def unit_disc_density(coeff: float = 1.0) -> DensitySpec:
    return make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), coeff)])


def disc_density(center: complex, radius: float, coeff: float = 1.0) -> DensitySpec:
    return make_density(center, radius, [(Disk(center.real, center.imag, radius), coeff)])


def annulus_density(center: complex, r_inner: float, r_outer: float,
                    coeff: float = 1.0) -> DensitySpec:
    return make_density(center, r_outer,
                        [(Annulus(center.real, center.imag, r_inner, r_outer), coeff)])


# Swiss-cheese holes: radius sum below _HOLE_RADIUS_BUDGET, and at most
# _HOLE_ATTEMPTS candidate centres per hole.
_HOLE_RADIUS_BUDGET = 0.5
_HOLE_ATTEMPTS = 200


def swiss_cheese(seed: int, hole_count: int) -> DensitySpec:
    """Unit disc with `hole_count` pairwise-disjoint holes removed.

    Hole radii follow the geometric schedule 0.5 * 2^-(i+1), so the radius
    sum stays below 0.5.  Centers come from the fixed Mcg64 stream seeded
    with `seed`; identical arguments reproduce the identical spec.
    """
    if hole_count < 0:
        raise DensityConfigError("hole_count must be non-negative")
    rng = Mcg64(seed)
    margin = 0.02
    holes: list[Disk] = []
    for i in range(hole_count):
        r = _HOLE_RADIUS_BUDGET * 2.0 ** -(i + 1)
        placed = False
        for _ in range(_HOLE_ATTEMPTS):
            x = 2.0 * rng.uniform() - 1.0
            y = 2.0 * rng.uniform() - 1.0
            if math.hypot(x, y) > 1.0 - r - margin:
                continue
            if all(math.hypot(x - h.cx, y - h.cy) > r + h.r + margin for h in holes):
                holes.append(Disk(x, y, r))
                placed = True
                break
        if not placed:
            raise PlacementError(
                f"could not place hole {i} after {_HOLE_ATTEMPTS} attempts")
    terms = [(Disk(0.0, 0.0, 1.0), 1.0)] + [(h, -1.0) for h in holes]
    return make_density(0j, 1.0, terms)


# ---------------------------------------------------------------------------
# JSON configuration


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise DensityConfigError(f"unknown keys in {what}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise DensityConfigError(f"missing keys in {what}: {sorted(missing)}")


def _parse_number(v, what: str) -> float:
    """A JSON number as a float; bool, str, None and containers raise."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DensityConfigError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise DensityConfigError(f"{what} is out of range") from None


def _parse_point(v, what: str) -> complex:
    if (not isinstance(v, (list, tuple))) or len(v) != 2:
        raise DensityConfigError(f"{what} must be a [x, y] pair")
    x, y = (_parse_number(t, what) for t in v)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DensityConfigError(f"{what} must be finite numbers")
    return complex(x, y)


def _parse_shape(obj) -> Region:
    if not isinstance(obj, dict):
        raise DensityConfigError("shape must be an object")
    kind = obj.get("kind")
    if kind == "disk":
        _require_keys(obj, {"kind", "center", "radius"}, {"kind", "center", "radius"}, "disk shape")
        c = _parse_point(obj["center"], "disk center")
        return Disk(c.real, c.imag, _parse_number(obj["radius"], "disk radius"))
    if kind == "annulus":
        _require_keys(obj, {"kind", "center", "r_inner", "r_outer"},
                      {"kind", "center", "r_inner", "r_outer"}, "annulus shape")
        c = _parse_point(obj["center"], "annulus center")
        return Annulus(c.real, c.imag, _parse_number(obj["r_inner"], "annulus r_inner"),
                       _parse_number(obj["r_outer"], "annulus r_outer"))
    if kind == "rectangle":
        _require_keys(obj, {"kind", "corner_min", "corner_max"},
                      {"kind", "corner_min", "corner_max"}, "rectangle shape")
        lo = _parse_point(obj["corner_min"], "rectangle corner_min")
        hi = _parse_point(obj["corner_max"], "rectangle corner_max")
        return Rectangle(lo.real, lo.imag, hi.real, hi.imag)
    raise DensityConfigError(f"unknown shape kind {kind!r}")


def parse_density_config(obj) -> DensitySpec:
    """Build and validate a DensitySpec from a parsed JSON object (strict keys)."""
    if not isinstance(obj, dict):
        raise DensityConfigError("config must be a JSON object")
    _require_keys(obj, {"support_center", "support_radius", "terms", "grid"},
                  {"support_center", "support_radius", "terms"}, "config")
    center = _parse_point(obj["support_center"], "support_center")
    radius = _parse_number(obj["support_radius"], "support_radius")
    if not isinstance(obj["terms"], list):
        raise DensityConfigError("terms must be a list")
    terms = []
    for t in obj["terms"]:
        if not isinstance(t, dict):
            raise DensityConfigError("term must be an object")
        _require_keys(t, {"shape", "coeff"}, {"shape", "coeff"}, "term")
        terms.append((_parse_shape(t["shape"]), _parse_number(t["coeff"], "coeff")))
    grid = None
    if "grid" in obj:
        gobj = obj["grid"]
        if not isinstance(gobj, dict):
            raise DensityConfigError("grid must be an object")
        _require_keys(gobj, {"origin", "spacing", "values"},
                      {"origin", "spacing", "values"}, "grid")
        origin = _parse_point(gobj["origin"], "grid origin")
        rows = gobj["values"]
        if not (isinstance(rows, list)
                and all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows)):
            raise DensityConfigError("grid values must be a list of rows of one length")
        values = np.array([[_parse_number(v, "grid value") for v in row] for row in rows])
        grid = GridLayer(origin.real, origin.imag, _parse_number(gobj["spacing"], "grid spacing"),
                         values)
    return make_density(center, radius, terms, grid)


def load_density_file(path: str) -> DensitySpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DensityConfigError(f"invalid JSON: {exc}") from None
    return parse_density_config(obj)
