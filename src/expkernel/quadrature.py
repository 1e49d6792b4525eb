"""Adaptive planar quadrature for densities with isolated rational singularities.

The engine evaluates integrals of the form

    I = integral  prod_k S_k(u) * m(u) * g(u)  da(u)

where each singular factor S_k is 1/(u - s) or 1/conj(u - s), m is a smooth
bounded multiplier and g is a DensitySpec.  Strategy:

* a dyadic block (2x2 cells of a fixed quadtree depth) is excised around each
  singular point; inside the block the integral is taken in polar coordinates
  centred at the point, where the area Jacobian cancels one singular factor
  and radial integrals split exactly at the radii where region boundaries
  cross the ray, so the indicator part of g never crosses a quadrature panel;
* the remainder is covered by an adaptive quadtree whose cells are classified
  geometrically against every region: cells on which g is constant use a
  tensor 5-point Gauss-Legendre rule, cells crossed by boundaries take the
  exact mass of g on the cell times the smooth part at the centre, and
  refinement is driven by two-level differences.  g is linear in its terms,
  so that mass is each coefficient times the exact area of its region in
  the cell, plus the grid's exact cell mass, however many boundaries cross;
* the quadtree keeps its leaves as parallel numpy arrays (index, value,
  error), and each refinement step classifies, intersects, evaluates and
  sums one whole batch of cells as array operations;
* cell contributions are accumulated with a fixed-order pairwise summation,
  so results are bit-identical for identical inputs.

The diagonal and disc-mass integrals use exact radial columns under an
adaptive angular rule, broken wherever a column has a kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .density import DensitySpec, clear_radius, eval_density
from .geometry import INSIDE, OUTSIDE, STRADDLE, Annulus, Disk, Rectangle

__all__ = [
    "QuadratureResult", "DiagonalMass", "InvalidPointError", "ToleranceError",
    "QuadratureError", "TolNotReached", "integrate_singular",
    "integrate_bi_singular", "cauchy_transform", "integrate_diagonal",
    "radial_inverse_square_integral", "disc_mass",
]


class QuadratureError(RuntimeError):
    """Engine could not produce a meaningful result."""


class TolNotReached(QuadratureError):
    """Refinement budget ran out with the error estimate above tolerance."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class InvalidPointError(ValueError):
    """Evaluation point violates a precondition (e.g. diagonal point inside support)."""


class ToleranceError(ValueError):
    """Requested tolerance is not a positive finite number."""


def _check_tol(tol: float) -> float:
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise ToleranceError(f"tolerance must be positive and finite, got {tol!r}")
    return float(tol)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    cells: int
    evaluations: int


@dataclass(frozen=True)
class DiagonalMass:
    """Outcome of the diagonal mass integral (1/pi) * integral g(u) |u-w|^-2 da.

    ``divergent`` follows the dichotomy: True when the partial sum over
    geometric annuli crossed the divergence threshold, False when the
    remaining tail is known to vanish (or decays geometrically below tol).
    ``value`` is the finite integral, or the partial sum at stopping.
    """

    divergent: bool
    value: float
    error_estimate: float
    octaves: int


_GL5_X, _GL5_W = leggauss(5)
_GL7_X, _GL7_W = leggauss(7)
_GL15_X, _GL15_W = leggauss(15)

_T5X, _T5Y = np.meshgrid(_GL5_X, _GL5_X, indexing="ij")
_T5X = _T5X.ravel()
_T5Y = _T5Y.ravel()
_T5W = np.outer(_GL5_W, _GL5_W).ravel()
_CENTER_IDX = 12  # node (2, 2) of the 5x5 tensor rule sits at the cell centre

Factor = tuple[str, complex]

# Quadtree depth limit, and the depth of the initial uniform cover.
_MAX_DEPTH = 26
_INIT_DEPTH = 2
# integrate_diagonal: a partial sum above _DIVERGENCE_THRESHOLD certifies
# divergence; _MAX_OCTAVES bounds the descent.
_DIVERGENCE_THRESHOLD = 40.0
_MAX_OCTAVES = 1000
# Rounding bound of an exact radial column, per unit of its operands' size.
_ROUNDING = 4.0 * math.ulp(1.0)


def _factor_values(pts: np.ndarray, factors: tuple[Factor, ...], multiplier) -> np.ndarray:
    F = np.ones_like(pts, dtype=complex)
    for kind, s in factors:
        d = pts - s
        if kind == "recip":
            F = F / d
        else:
            F = F / np.conj(d)
    if multiplier is not None:
        F = F * multiplier(pts)
    return F


# ---------------------------------------------------------------------------
# Radial columns: integrals along a ray with g piecewise constant


def _ray_segments(g: DensitySpec, sx: float, sy: float, ct: float, st: float,
                  r_lo: float, r_hi: float, extra: tuple[float, ...] = ()):
    """Segments (a, b, g_value) of [r_lo, r_hi] on which g is constant along the ray."""
    crossings = [r_lo, r_hi]
    for region, _ in g.terms:
        crossings.extend(region.ray_crossings(sx, sy, ct, st))
    if g.grid is not None:
        crossings.extend(g.grid.ray_crossings(sx, sy, ct, st))
    crossings.extend(
        Disk(g.support_center.real, g.support_center.imag,
             g.support_radius).ray_crossings(sx, sy, ct, st))
    for t in extra:
        crossings.append(t)
    pts = sorted(t for t in crossings if r_lo < t < r_hi)
    pts = [r_lo] + pts + [r_hi]
    edges = []
    last = pts[0]
    for t in pts[1:]:
        if t - last > 1e-15 * max(abs(t), abs(last)):
            edges.append((last, t))
            last = t
    if not edges:
        return []
    mids = np.array([0.5 * (a + b) for a, b in edges])
    us = (sx + mids * ct) + 1j * (sy + mids * st)
    gv = np.atleast_1d(eval_density(g, us))
    return [(a, b, float(v)) for (a, b), v in zip(edges, gv) if v != 0.0]


def _column_exact(g: DensitySpec, sx: float, sy: float, ct: float, st: float,
                  r_lo: float, r_hi: float, weight: str) -> tuple[float, float]:
    """Exact radial integral of g times r ('mass') or 1/r ('invsq'), and a
    bound on its rounding error.

    Each segment's term rounds in proportion to the size of its operands,
    not of the term: b*b - a*a cancels when a is near b, and log(b/a) keeps
    an absolute error of one ulp of b/a.
    """
    total = 0.0
    size = 0.0
    for a, b, gv in _ray_segments(g, sx, sy, ct, st, r_lo, r_hi):
        if weight == "mass":
            total += gv * 0.5 * (b * b - a * a)
            size += abs(gv) * 0.5 * (b * b + a * a)
        else:
            term = gv * math.log(b / a)
            total += term
            size += abs(gv) + abs(term)
    return total, _ROUNDING * size


def _column_gl(g: DensitySpec, s: complex, ct: float, st: float, r_hi: float,
               fvec, seg_tol: float, extra: tuple[float, ...]) -> tuple[complex, float, int]:
    """Adaptive radial integral of fvec(r) * g along a ray from s, split at g breakpoints."""
    segs = _ray_segments(g, s.real, s.imag, ct, st, 0.0, r_hi, extra)
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    stack = [(a, b, gv, 0) for a, b, gv in reversed(segs)]
    while stack:
        a, b, gv, depth = stack.pop()
        h = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        r15 = mid + h * _GL15_X
        r7 = mid + h * _GL7_X
        f15 = fvec(r15)
        f7 = fvec(r7)
        evals += 22
        v15 = h * np.dot(_GL15_W, f15)
        v7 = h * np.dot(_GL7_W, f7)
        d = abs(v15 - v7)
        if d <= seg_tol or depth >= 10 or (b - a) <= 1e-14 * r_hi:
            total += gv * v15
            err += abs(gv) * d
        else:
            stack.append((mid, b, gv, depth + 1))
            stack.append((a, mid, gv, depth + 1))
    return total, err, evals


def _adaptive_1d(f, breaks: list[float], tol: float, max_depth: int = 24):
    """Adaptive GL15/GL7 integration of a scalar callable over consecutive intervals.

    ``f(x)`` returns (value, error, evaluations); node errors are propagated
    into the total estimate alongside the two-level rule differences.
    """
    total = 0.0 + 0.0j
    err_total = 0.0
    evals = 0
    span = breaks[-1] - breaks[0]
    stack = []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b > a:
            stack.append((a, b, tol * (b - a) / span, 0))
    stack.reverse()
    while stack:
        a, b, tol_i, depth = stack.pop()
        h = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        v15 = 0.0 + 0.0j
        v7 = 0.0 + 0.0j
        node_err = 0.0
        for x, wgt in zip(_GL15_X, _GL15_W):
            v, e, n = f(mid + h * x)
            v15 += wgt * v
            node_err += wgt * e
            evals += n
        for x, wgt in zip(_GL7_X, _GL7_W):
            v, e, n = f(mid + h * x)
            v7 += wgt * v
            node_err += wgt * e
            evals += n
        v15 *= h
        v7 *= h
        d = abs(v15 - v7)
        if d <= tol_i or depth >= max_depth or (b - a) <= 1e-12 * span:
            total += v15
            err_total += d + h * node_err
        else:
            stack.append((mid, b, 0.5 * tol_i, depth + 1))
            stack.append((a, mid, 0.5 * tol_i, depth + 1))
    return total, err_total, evals


# ---------------------------------------------------------------------------
# Polar patches over excised blocks


def _block_exit_radius(sx: float, sy: float, ct: float, st: float,
                       bx0: float, bx1: float, by0: float, by1: float) -> float:
    if ct > 1e-300:
        tx = (bx1 - sx) / ct
    elif ct < -1e-300:
        tx = (bx0 - sx) / ct
    else:
        tx = math.inf
    if st > 1e-300:
        ty = (by1 - sy) / st
    elif st < -1e-300:
        ty = (by0 - sy) / st
    else:
        ty = math.inf
    return max(min(tx, ty), 0.0)


def _polar_patch(g: DensitySpec, s: complex, cancel: str | None,
                 rest: tuple[Factor, ...], multiplier, block, tol: float,
                 extra_radii: tuple[float, ...]):
    """Integral over an axis-aligned block around s, in polar coordinates at s.

    The Jacobian r cancels the singular factor at s (``cancel``); remaining
    factors and the multiplier stay in the radial integrand.
    """
    bx0, bx1, by0, by1 = block
    sx, sy = s.real, s.imag
    corners = []
    for cx in (bx0, bx1):
        for cy in (by0, by1):
            corners.append(math.atan2(cy - sy, cx - sx))
    corners = sorted(set(corners))
    breaks = corners + [corners[0] + 2.0 * math.pi]
    n_cols_budget = max(len(breaks) - 1, 1)
    seg_tol = tol / (4.0 * math.pi)

    def column(theta: float):
        ct, st = math.cos(theta), math.sin(theta)
        rmax = _block_exit_radius(sx, sy, ct, st, bx0, bx1, by0, by1)
        if rmax <= 0.0:
            return 0.0 + 0.0j, 0.0, 0
        e = complex(ct, st)
        if cancel == "recip":
            phase = complex(ct, -st)
        elif cancel == "recip_conj":
            phase = e
        else:
            phase = 1.0 + 0.0j

        def fvec(r):
            u = s + r * e
            F = _factor_values(u, rest, multiplier)
            if cancel is None:
                F = F * r
            return F * phase

        return _column_gl(g, s, ct, st, rmax, fvec, seg_tol / n_cols_budget, extra_radii)

    return _adaptive_1d(column, breaks, tol)


# ---------------------------------------------------------------------------
# Adaptive quadtree over the support square


class _Engine:
    def __init__(self, g: DensitySpec, factors: tuple[Factor, ...], multiplier,
                 budget: int):
        self.g = g
        self.factors = factors
        self.multiplier = multiplier
        self.budget = budget
        self.cx = g.support_center.real
        self.cy = g.support_center.imag
        self.half = g.support_radius
        self.evals = 0
        # Leaves as parallel arrays: index (depth, ix, iy), value, error.
        self.depth = self.ix = self.iy = np.zeros(0, dtype=np.int64)
        self.value = np.zeros(0, dtype=complex)
        self.err = np.zeros(0)
        # Blocks live on the dyadic grid as integer index triples (depth, i0, j0)
        # spanning columns [i0, i0+2) and rows [j0, j0+2); keeping them integral
        # makes every containment test exact at any refinement depth.
        self.blocks: list[tuple[int, int, int]] = []

    def set_blocks(self, points: list[complex]) -> list[tuple[complex, tuple]]:
        """Excise an aligned 2x2 cell block around each point inside the root square."""
        pts = [p for p in points
               if abs(p.real - self.cx) <= self.half and abs(p.imag - self.cy) <= self.half]
        if not pts:
            return []
        seps = [abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:] if a != b]
        d = 4
        if seps:
            sep = min(seps)
            if sep > 0.0:
                d = max(4, math.ceil(math.log2(12.0 * self.half / sep)))
        d = min(d, _MAX_DEPTH - 2)
        n = 1 << d
        h = 2.0 * self.half / n
        out = []
        for p in pts:
            tx = (p.real - (self.cx - self.half)) / h
            ty = (p.imag - (self.cy - self.half)) / h
            i0 = min(max(int(math.floor(tx - 0.5)), 0), n - 2)
            j0 = min(max(int(math.floor(ty - 0.5)), 0), n - 2)
            overlap = any(i0 < bi + 2 and i0 + 2 > bi and j0 < bj + 2 and j0 + 2 > bj
                          for _, bi, bj in self.blocks)
            if overlap:
                continue  # near-coincident points share the earlier block (best effort)
            self.blocks.append((d, i0, j0))
            rect = (self.cx - self.half + i0 * h, self.cx - self.half + (i0 + 2) * h,
                    self.cy - self.half + j0 * h, self.cy - self.half + (j0 + 2) * h)
            out.append((p, rect))
        return out

    # -- cell batches: index arrays (depth, ix, iy) in a fixed order

    @staticmethod
    def _children(depth, ix, iy):
        """The four children of each cell, x-major, cell after cell."""
        return (np.repeat(depth + 1, 4), (2 * ix[:, None] + [0, 0, 1, 1]).ravel(),
                (2 * iy[:, None] + [0, 1, 0, 1]).ravel())

    def _block_relation(self, depth, ix, iy):
        """Per cell: 1 inside some block, 0 disjoint from all, -1 partial
        overlap; the first block a cell meets decides."""
        bd, bi, bj = np.array(self.blocks, dtype=np.int64).T[:, None, :]
        d, x, y = depth[:, None], ix[:, None], iy[:, None]
        deep = d >= bd
        sh = np.abs(d - bd)
        px, py = x >> sh, y >> sh
        lx, hx, ly, hy = x << sh, (x + 1) << sh, y << sh, (y + 1) << sh
        within = np.where(deep, (bi <= px) & (px < bi + 2) & (bj <= py) & (py < bj + 2),
                          (bi <= lx) & (hx <= bi + 2) & (bj <= ly) & (hy <= bj + 2))
        meets = ~deep & (lx < bi + 2) & (hx > bi) & (ly < bj + 2) & (hy > bj)
        rel = np.where(within, 1, np.where(meets, -1, 0))
        return rel[np.arange(rel.shape[0]), np.argmax(rel != 0, axis=1)]

    def _materialize(self, depth, ix, iy):
        """The cells outside every block, with the input index each came from.

        A cell inside a block is dropped (its polar patch covers it); one
        partly over a block is replaced, in place, by its children, split
        again where they overlap.  Splits run level by level over the whole
        batch; a lexsort on the child digits restores depth-first order.
        """
        src = np.arange(depth.size)
        if not self.blocks:
            return depth, ix, iy, src
        kept, path = [], [src]
        while True:
            rel = self._block_relation(depth, ix, iy)
            kept.append([a[rel == 0] for a in (depth, ix, iy, *path)])
            split = rel == -1
            if not split.any():
                break
            depth, ix, iy = self._children(depth[split], ix[split], iy[split])
            path = [np.repeat(p[split], 4) for p in path] + [np.tile(np.arange(4), depth.size // 4)]
        # Columns depth, ix, iy, input index, then one child digit per split
        # level.  A kept cell has no descendants, so zero-padded digit paths
        # sort the cells depth first.
        cols = [np.concatenate([k[i] if i < len(k) else np.zeros(k[0].size, dtype=np.int64)
                                for k in kept]) for i in range(3 + len(kept))]
        order = np.lexsort(cols[:2:-1])
        return tuple(c[order] for c in cols[:4])

    # -- classification and evaluation

    def _evaluate(self, depth, ix, iy):
        """Classify and evaluate a batch of cells in one pass: the indices of
        the cells that carry mass, with their values and errors.

        Constant cells take the 5x5 tensor rule, its centre node as the coarse
        level; cells crossed by boundaries take their exact mass times the
        integrand at the centre, the largest change to a corner as the error."""
        n = depth.size
        h = 2.0 * self.half / (1 << depth)
        x0 = self.cx - self.half + ix * h
        y0 = self.cy - self.half + iy * h
        x1, y1 = x0 + h, y0 + h
        statuses = [region.classify_cell(x0, x1, y0, y1) for region, _ in self.g.terms]
        grid = self.g.grid
        gc = np.zeros(n)
        grid_straddle = np.zeros(n, dtype=bool)
        if grid is not None:
            gx0, gx1, gy0, gy1 = grid.bbox
            s = grid.spacing
            i0 = np.floor((x0 - grid.origin_x) / s)
            j0 = np.floor((y0 - grid.origin_y) / s)
            one = ((np.ceil((x1 - grid.origin_x) / s) - i0 == 1)
                   & (np.ceil((y1 - grid.origin_y) / s) - j0 == 1)
                   & (x0 >= gx0) & (x1 <= gx1) & (y0 >= gy0) & (y1 <= gy1))
            gc[one] = grid.values[j0[one].astype(np.int64), i0[one].astype(np.int64)]
            grid_straddle = ~one & ~((x1 <= gx0) | (x0 >= gx1) | (y1 <= gy0) | (y0 >= gy1))
        const = ~grid_straddle
        for st in statuses:
            const &= st != STRADDLE
        mc, mass, absmass = self._masses(np.flatnonzero(~const), x0, x1, y0, y1,
                                         statuses, gc, grid_straddle)
        for (_, coeff), st in zip(self.g.terms, statuses):
            gc = np.where(st == INSIDE, gc + coeff, gc)
        live = np.zeros(n, dtype=bool)
        value = np.zeros(n, dtype=complex)
        err = np.zeros(n)
        cc = np.flatnonzero(const & (gc != 0.0))
        if cc.size:
            xm = 0.5 * (x0[cc] + x1[cc])
            ym = 0.5 * (y0[cc] + y1[cc])
            hx = 0.5 * (x1[cc] - x0[cc])
            hy = 0.5 * (y1[cc] - y0[cc])
            pts = (xm[:, None] + hx[:, None] * _T5X[None, :]) + 1j * (
                ym[:, None] + hy[:, None] * _T5Y[None, :])
            F = _factor_values(pts, self.factors, self.multiplier)
            self.evals += F.size
            area4 = hx * hy  # cell area / 4
            vals = (F @ _T5W) * area4
            d = vals - F[:, _CENTER_IDX] * (4.0 * area4)
            live[cc] = True
            value[cc] = gc[cc] * vals
            err[cc] = 0.5 * np.abs(gc[cc]) * np.hypot(d.real, d.imag)
        if mc.size:
            pts = np.stack([
                0.5 * (x0[mc] + x1[mc]) + 1j * (0.5 * (y0[mc] + y1[mc])),
                x0[mc] + 1j * y0[mc],
                x0[mc] + 1j * y1[mc],
                x1[mc] + 1j * y0[mc],
                x1[mc] + 1j * y1[mc],
            ], axis=1)
            F = _factor_values(pts, self.factors, self.multiplier)
            self.evals += F.size
            fc = F[:, 0]
            dF = np.max(np.abs(F[:, 1:] - fc[:, None]), axis=1)
            live[mc] = True
            value[mc] = fc * mass
            err[mc] = 0.5 * dF * absmass
        live = np.flatnonzero(live)
        return live, value[live], err[live]

    def _masses(self, idx, x0, x1, y0, y1, statuses, grid_const, grid_straddle):
        """(cells, mass, |mass|) of the cells idx crossed by boundaries that
        carry mass.  g is linear in its terms, so the mass is exact however
        many boundaries cross a cell: each coefficient times the area of its
        region in the cell, plus the grid's mass there."""
        x0, x1, y0, y1 = x0[idx], x1[idx], y0[idx], y1[idx]
        area = (x1 - x0) * (y1 - y0)
        mass, absmass = np.zeros((2, idx.size))
        for (region, coeff), st in zip(self.g.terms, statuses):
            st = st[idx]
            a = area.copy()
            cut = np.flatnonzero(st == STRADDLE)
            if cut.size:
                a[cut] = region.cell_area(x0[cut], x1[cut], y0[cut], y1[cut])
            on = st != OUTSIDE
            mass = np.where(on, mass + coeff * a, mass)
            absmass = np.where(on, absmass + abs(coeff) * a, absmass)
        grid = self.g.grid
        if grid is not None:
            gm = grid_const[idx] * area
            cut = np.flatnonzero(grid_straddle[idx])
            if cut.size:
                gm[cut] = grid.cell_mass(x0[cut], x1[cut], y0[cut], y1[cut])
            mass = mass + gm
            absmass = absmass + gm
        keep = absmass > 1e-300
        return idx[keep], mass[keep], absmass[keep]

    def run(self, tol: float) -> tuple[complex, float]:
        n0 = 1 << _INIT_DEPTH
        d, x, y, _ = self._materialize(np.full(n0 * n0, _INIT_DEPTH),
                                       np.repeat(np.arange(n0), n0), np.tile(np.arange(n0), n0))
        live, self.value, self.err = self._evaluate(d, x, y)
        self.depth, self.ix, self.iy = d[live], x[live], y[live]
        while self.evals < self.budget:
            n = max(self.err.size, 1)
            total_err = float(np.sum(np.sort(self.err))) if self.err.size else 0.0
            if total_err <= tol:
                break
            share = tol / (2.0 * n)
            batch = np.flatnonzero((self.err > share) & (self.depth < _MAX_DEPTH))
            if not batch.size:
                break
            # Largest error first, ties in index order; at most half the leaves
            # (but at least 2048) per step.
            batch = batch[np.lexsort((self.iy[batch], self.ix[batch], self.depth[batch],
                                      -self.err[batch]))]
            batch = batch[:max(2048, self.err.size // 2)]
            d, x, y, src = self._materialize(
                *self._children(self.depth[batch], self.ix[batch], self.iy[batch]))
            live, value, _ = self._evaluate(d, x, y)
            # Each parent's children are summed in order; a quarter of the
            # observed change is each child's error.
            owner = src[live] // 4
            kid_sum = np.zeros(batch.size, dtype=complex)
            np.add.at(kid_sum, owner, value)
            change = kid_sum - self.value[batch]
            err = 0.25 * np.hypot(change.real, change.imag)[owner]
            rest = np.ones(self.err.size, dtype=bool)
            rest[batch] = False
            kids = (d[live], x[live], y[live], value, err)
            self.depth, self.ix, self.iy, self.value, self.err = (
                np.concatenate((old[rest], new)) for old, new in
                zip((self.depth, self.ix, self.iy, self.value, self.err), kids))
        order = np.lexsort((self.iy, self.ix, self.depth))
        value = complex(np.sum(self.value[order])) if order.size else 0.0 + 0.0j
        err = float(np.sum(self.err[order])) if order.size else 0.0
        return value, err


# ---------------------------------------------------------------------------
# Public operations


def integrate_singular(g: DensitySpec, factors, tol: float, multiplier=None,
                       attention=(), budget: int = 2_000_000) -> QuadratureResult:
    """Integral of prod(factors) * multiplier * g over the plane.

    ``factors`` is a sequence of ('recip'|'recip_conj', point); ``attention``
    lists additional points around which the integrand is merely non-smooth
    (they get an excised block and a polar patch, without factor cancellation).
    """
    tol = _check_tol(tol)
    factors = tuple((k, complex(s)) for k, s in factors)
    engine = _Engine(g, factors, multiplier, budget)
    # Point -> the factor kind its polar patch cancels (None for attention
    # points); a second factor at the same point keeps the first cancellation.
    kinds: dict[complex, str | None] = {}
    for kind, s in factors:
        kinds.setdefault(s, kind)
    for p in attention:
        kinds.setdefault(complex(p), None)
    placed = engine.set_blocks(list(kinds))
    patch_tol = 0.5 * tol / len(placed) if placed else 0.0
    tree_tol = 0.5 * tol if placed else tol
    value = 0.0 + 0.0j
    err = 0.0
    cells = 0
    evals = 0
    for p, rect in placed:
        rest = list(factors)
        if kinds[p] is not None:
            rest.remove((kinds[p], p))  # exactly one factor; duplicates stay
        extra = tuple(abs(q - p) for q in kinds if q != p)
        v, e, n = _polar_patch(g, p, kinds[p], tuple(rest), multiplier, rect,
                               patch_tol, extra)
        value += v
        err += e
        evals += n
        cells += 1
    tv, te = engine.run(tree_tol)
    value += tv
    err += te
    cells += max(engine.err.size, 1)
    evals += engine.evals
    if err > tol * (1.0 + 1e-9):
        raise TolNotReached(
            f"error estimate {err:.3e} above tolerance {tol:.3e} "
            f"after {evals} evaluations", complex(value), float(err))
    return QuadratureResult(complex(value), float(err), cells, max(evals, cells))


def integrate_bi_singular(g: DensitySpec, w: complex, lam: complex, tol: float,
                          **kw) -> QuadratureResult:
    """log-kernel integral f_w(lam) = -(1/pi) * integral g(u) / (conj(u-w)(u-lam)) da(u).

    Requires lam != w unless g vanishes on a neighbourhood of w, in which case
    the integrand is bounded and the diagonal value is legitimate.
    """
    w = complex(w)
    lam = complex(lam)
    if lam == w and clear_radius(g, w) <= 0.0:
        raise InvalidPointError(
            "diagonal point inside the support: use integrate_diagonal")
    res = integrate_singular(g, [("recip_conj", w), ("recip", lam)], tol=tol, **kw)
    return QuadratureResult(-res.value / math.pi, res.error_estimate / math.pi,
                            res.cells, res.evaluations)


def cauchy_transform(g: DensitySpec, lam: complex, tol: float, multiplier=None,
                     attention=(), **kw) -> QuadratureResult:
    """Cauchy transform (1/pi) * integral m(u) g(u) / (u - lam) da(u)."""
    lam = complex(lam)
    res = integrate_singular(g, [("recip", lam)], tol=tol, multiplier=multiplier,
                             attention=attention, **kw)
    return QuadratureResult(res.value / math.pi, res.error_estimate / math.pi,
                            res.cells, res.evaluations)


def _circles(g: DensitySpec):
    """(center, radius) of every circle on which g can jump."""
    yield g.support_center, g.support_radius
    for region, _ in g.terms:
        if isinstance(region, Disk):
            yield complex(region.cx, region.cy), region.r
        elif isinstance(region, Annulus):
            yield complex(region.cx, region.cy), region.r_inner
            yield complex(region.cx, region.cy), region.r_outer


def _lattices(g: DensitySpec):
    """(xs, ys) of every axis-aligned lattice on whose lines g can jump: each
    rectangle's two edge abscissae and ordinates, and the grid lines."""
    for region, _ in g.terms:
        if isinstance(region, Rectangle):
            yield (region.x0, region.x1), (region.y0, region.y1)
    grid = g.grid
    if grid is not None:
        yield ([grid.origin_x + k * grid.spacing for k in range(grid.nx + 1)],
               [grid.origin_y + k * grid.spacing for k in range(grid.ny + 1)])


def _meets(off: float, rho: float):
    """Offsets along a line at distance off from a centre to its points at
    distance rho > 0 from the centre."""
    h = rho * rho - off * off
    return (-math.sqrt(h), math.sqrt(h)) if rho > 0.0 and h >= 0.0 else ()


def _radial_exact(g: DensitySpec, c: complex, r_lo: float, r_hi: float,
                  weight: str, tol: float) -> tuple[float, float]:
    """(value, error) of the integral of g times r^-2 ('invsq') or 1 ('mass')
    over the annulus r_lo <= |u-c| <= r_hi, as an adaptive angular rule over
    exact radial columns.

    A column stops being smooth in the angle where a ray from c is tangent
    to a circle of g, passes through a corner of a rectangle or a grid
    vertex, or meets a circle, an edge or a grid line exactly at radius r_lo
    or r_hi.  The angular rule breaks there: otherwise both of its levels can
    miss a thin sliver of a kink and agree on the miss.  Each column's
    rounding bound enters the error as the rule's node error.
    """
    cx, cy = c.real, c.imag
    tau = 2.0 * math.pi
    breaks = {0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi}
    for o, radius in _circles(g):
        d = abs(o - c)
        if radius <= 0.0 or d == 0.0:
            continue
        phi = math.atan2(o.imag - cy, o.real - cx)
        halves = [math.asin(radius / d)] if radius <= d else []
        for rho in (r_lo, r_hi):
            if rho > 0.0:
                cos_a = (rho * rho + d * d - radius * radius) / (2.0 * rho * d)
                if abs(cos_a) <= 1.0:
                    halves.append(math.acos(cos_a))
        for a in halves:
            breaks.update(((phi + a) % tau, (phi - a) % tau))

    for xs, ys in _lattices(g):
        # corners and grid vertices in the annulus, and the points where
        # edges and grid lines meet its circles
        pts = [(x, y) for x in xs for y in ys
               if r_lo <= (d := math.hypot(x - cx, y - cy)) <= r_hi and d > 0.0]
        for rho in (r_lo, r_hi):
            pts += [(x, cy + t) for x in xs for t in _meets(x - cx, rho)
                    if ys[0] <= cy + t <= ys[-1]]
            pts += [(cx + t, y) for y in ys for t in _meets(y - cy, rho)
                    if xs[0] <= cx + t <= xs[-1]]
        breaks.update(math.atan2(y - cy, x - cx) % tau for x, y in pts)

    def column(theta: float):
        v, e = _column_exact(g, cx, cy, math.cos(theta), math.sin(theta), r_lo, r_hi, weight)
        return v, e, 1

    v, e, _ = _adaptive_1d(column, sorted(breaks) + [tau], tol)
    return v.real, e


def integrate_diagonal(g: DensitySpec, w: complex, tol: float = 1e-6) -> DiagonalMass:
    """Diagonal mass (1/pi) * integral g(u) |u-w|^-2 da(u) with divergence detection.

    The integral is accumulated over geometric annuli r_k = r_top * 2^-k; the
    partial sum is monotone, so crossing a threshold of 40 certifies
    divergence at any positive Lebesgue density point.  Descent stops early
    when the remaining disc is provably free of support.
    """
    tol = _check_tol(tol)
    w = complex(w)
    cr = clear_radius(g, w)
    r_top = abs(w - g.support_center) + g.support_radius
    acc = 0.0
    err = 0.0
    vals: list[float] = []
    for k in range(_MAX_OCTAVES):
        r_hi = r_top * 2.0 ** (-k)
        if r_hi <= cr:
            return DiagonalMass(False, acc, err, k)
        tol_k = max(tol / (2.0 * (k + 1) * (k + 2)), 1e-13)
        v, e = _radial_exact(g, w, 0.5 * r_hi, r_hi, "invsq", tol_k * math.pi)
        v /= math.pi
        acc += v
        err += e / math.pi
        vals.append(v)
        if acc >= _DIVERGENCE_THRESHOLD:
            return DiagonalMass(True, acc, err, k + 1)
        if len(vals) >= 3 and max(vals[-3:]) <= 0.125 * tol:
            # Quiet octaves alone do not certify convergence: the support may
            # resume deeper inside (an island separated from w by a gap), so
            # stop only once the remaining disc is provably free of mass.
            inner, _ = disc_mass(g, w, 0.5 * r_hi, 1e-9)
            if inner <= 1e-12:
                return DiagonalMass(False, acc, err, k + 1)
    raise QuadratureError(
        f"diagonal mass undecided after {_MAX_OCTAVES} octaves (partial sum {acc:.6g})")


def radial_inverse_square_integral(g: DensitySpec, center: complex, r_lo: float,
                                   r_hi: float, tol: float = 1e-8) -> tuple[float, float]:
    """(1/pi) * integral of g |u-c|^-2 over the annulus r_lo <= |u-c| <= r_hi."""
    tol = _check_tol(tol)
    if not (0.0 < r_lo < r_hi):
        raise InvalidPointError("need 0 < r_lo < r_hi")
    v, e = _radial_exact(g, complex(center), r_lo, r_hi, "invsq", tol * math.pi)
    return v / math.pi, e / math.pi


def disc_mass(g: DensitySpec, center: complex, radius: float,
              tol: float = 1e-9) -> tuple[float, float]:
    """integral of g over the disc D(center, radius) by exact radial columns."""
    tol = _check_tol(tol)
    return _radial_exact(g, complex(center), 0.0, radius, "mass", tol)
