"""Adaptive quadrature for densities with isolated rational singularities.

Two engines.  Every integral without a multiplier,

    (1/pi) * integral g(u) dN/dconj(u) / (u - lam) da(u)

for the potentials N(u) = log|u - w|^2 (the kernel exponent,
boundary_log_kernel) and N(u) = conj(u) (the Cauchy transform,
boundary_cauchy_transform), runs along the jumps of g as one vectorized 1-D
rule, many lam at once.  The 2-D quadtree, integrate_singular, serves the
integrands with a multiplier and cross-checks the boundary rule.

The quadtree evaluates integrals of the form

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
  tensor 5-point Gauss-Legendre rule, and cells crossed by boundaries take the
  exact mass of g on the cell times the smooth part at the centre.  g is
  linear in its terms, so that mass is each coefficient times the exact area
  of its region in the cell plus the grid's cell mass, whatever crosses it;
* the one error estimate is the two-level change: each child carries a quarter
  of the change from its parent to the sum of its siblings and itself;
* the quadtree keeps its leaves as parallel numpy arrays (index, value,
  error), and each refinement step classifies, intersects, evaluates and
  sums one whole batch of cells as array operations, in numpy's own
  arithmetic;
* cell contributions are accumulated in a fixed order, so results are
  bit-identical for identical inputs on one numpy build and CPU.

Whether the diagonal integral diverges is read exactly from the faces of the
jump arrangement of g around w.  A finite diagonal, the disc mass and the
inverse-square integral over an annulus run along the jumps of g too, as
the boundary rule at their centre with a clamped radial potential.

The 1-D rules run level by level: each pass of the adaptive rule sends the
nodes of all its open intervals to the node function at once.  In a polar
patch the node function works on whole arrays of rays, one crossing matrix,
one density evaluation and one multiplier call per pass (in chunks of rays
that bound its memory); the radial panels of all rays bisect level by level
too.  Sums over intervals, panels and Gauss nodes run in a fixed order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .density import _HORN, DensitySpec, clear_radius, eval_density, sector_values
from .geometry import INSIDE, OUTSIDE, STRADDLE, Disk

__all__ = [
    "QuadratureResult", "DiagonalMass", "InvalidPointError", "ToleranceError",
    "QuadratureError", "TolNotReached", "integrate_singular",
    "integrate_bi_singular", "cauchy_transform", "integrate_diagonal",
    "radial_inverse_square_integral", "disc_mass", "boundary_log_kernel",
    "boundary_cauchy_transform",
]


class QuadratureError(RuntimeError):
    """Engine could not produce a meaningful result."""


class TolNotReached(QuadratureError):
    """Error estimate above tolerance: budget spent, or singular points too close."""

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


def _check_point(p) -> complex:
    p = complex(p)
    if not cmath.isfinite(p):
        raise InvalidPointError(f"point must be finite, got {p!r}")
    return p


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    cells: int
    evaluations: int


@dataclass(frozen=True)
class DiagonalMass:
    """Outcome of the diagonal mass integral (1/pi) * integral g(u) |u-w|^-2 da.

    ``divergent`` follows the dichotomy: True when g > 0 on a sector at w of
    positive opening, decided exactly from the jump arrangement of g; then
    ``value`` is inf and ``error_estimate`` is 0.  False when the integral
    is finite: ``value`` is its sum along the jumps of g, with its error
    estimate.  ``octaves`` is always 0: no geometric annuli are summed.
    """

    divergent: bool
    value: float
    error_estimate: float
    octaves: int


_GL5_X, _GL5_W = leggauss(5)
_GL7_X, _GL7_W = leggauss(7)
_GL15_X, _GL15_W = leggauss(15)
# The 22 nodes of a GL15/GL7 pair, and both rules' weights in that order.
_GL22_X = np.concatenate((_GL15_X, _GL7_X))
_GL22_W = np.concatenate((_GL15_W, _GL7_W))

_T5X, _T5Y = np.meshgrid(_GL5_X, _GL5_X, indexing="ij")
_T5X = _T5X.ravel()
_T5Y = _T5Y.ravel()
_T5W = np.outer(_GL5_W, _GL5_W).ravel()

Factor = tuple[str, complex]

# Quadtree depth limit, and the depth of the initial uniform cover.
_MAX_DEPTH = 26
_INIT_DEPTH = 2
# Rounding bound of a boundary-rule node, per unit of its operands' size.
_ROUNDING = 4.0 * math.ulp(1.0)
# Bisection depth limits of the adaptive 1-D rule and of a radial column.
_MAX_DEPTH_1D = 24
_MAX_DEPTH_GL = 10
# Rays times crossing columns per pass of a column function (memory bound).
_CHUNK = 1 << 16
# The boundary rule breaks a curve at a point's nearest point when the
# point lies within this fraction of the curve's length of it.
_NEAR = 0.125
# The least radius excised about a horn, per unit of the length of g's
# jumps: the adaptive rule shares tol in proportion to interval length.
_HORN_FLOOR = 1e-8


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
# Radial columns: integrals along rays with g piecewise constant, many rays
# per array pass


def _node_sum(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Per row of f, the sum of w[k] * f[:, k], node after node: a fixed
    order, where a BLAS dot product's order depends on the CPU."""
    total = np.zeros(f.shape[:1] + f.shape[2:], dtype=f.dtype)
    for k, wk in enumerate(w):
        total = total + wk * f[:, k]
    return total


def _ordered_sum(x: np.ndarray):
    """The sum of x along its first axis, from first to last (np.sum adds pairwise)."""
    return np.add.accumulate(np.concatenate((np.zeros((1,) + x.shape[1:]), x)))[-1]


def _crossings(g: DensitySpec, sx: float, sy: float, ct: np.ndarray, st: np.ndarray,
               extra: tuple[float, ...] = ()) -> np.ndarray:
    """(rays, columns) radii at which rays from (sx, sy) in directions (ct, st)
    can meet a jump of g (its regions, grid and support circle) or reach an
    extra radius; nan where a ray has no such crossing."""
    cols = [region.ray_crossings(sx, sy, ct, st) for region, _ in g.terms]
    if g.grid is not None:
        cols.append(g.grid.ray_crossings(sx, sy, ct, st))
    cols.append(Disk(g.support_center.real, g.support_center.imag,
                     g.support_radius).ray_crossings(sx, sy, ct, st))
    cols.append(np.broadcast_to(np.asarray(extra, dtype=float), (ct.size, len(extra))))
    return np.concatenate(cols, axis=1)


def _ray_segments(g: DensitySpec, sx: float, sy: float, ct: np.ndarray, st: np.ndarray,
                  r_hi, extra: tuple[float, ...] = ()):
    """Segments of [0, r_hi] (r_hi scalar or per ray) on which g is constant
    along each ray, as arrays (ray, a, b, g value), ray by ray from the inside
    out.  Segments where g vanishes are dropped.

    Each crossing merges into the last kept end when closer to it than 1e-15
    relative; the rule is sequential, so it runs column by column.
    """
    hi = np.broadcast_to(np.asarray(r_hi, dtype=float), ct.shape)
    t = _crossings(g, sx, sy, ct, st, extra)
    t = np.sort(np.where((t > 0.0) & (t < hi[:, None]), t, np.nan), axis=1)
    t = t[:, :np.max(np.count_nonzero(t == t, axis=1), initial=0)]
    last = np.zeros(ct.shape)
    ends = []
    for b in (*t.T, hi):
        keep = b - last > 1e-15 * np.maximum(np.abs(b), np.abs(last))
        ends.append((last, b, keep))
        last = np.where(keep, b, last)
    a, b, keep = (np.stack(c, axis=1) for c in zip(*ends))
    ray, col = np.nonzero(keep)
    a, b = a[ray, col], b[ray, col]
    mids = 0.5 * (a + b)
    gv = eval_density(g, (sx + mids * ct[ray]) + 1j * (sy + mids * st[ray]))
    live = gv != 0.0
    return ray[live], a[live], b[live], gv[live]


def _column_gl(g: DensitySpec, s: complex, ct: np.ndarray, st: np.ndarray, r_hi: np.ndarray,
               fvec, seg_tol: float, extra: tuple[float, ...]):
    """Per ray from s, the adaptive radial integral of fvec * g, split at g's
    breakpoints: arrays (value, error, evaluations).

    ``fvec(r, ray)`` takes radii (panels, nodes) and each panel's ray.  The
    panels of all rays are bisected level by level; each ray sums its
    finished panels from the inside out.
    """
    ray, a, b, gv = _ray_segments(g, s.real, s.imag, ct, st, r_hi, extra)
    total = np.zeros(ct.size, dtype=complex)
    err = np.zeros(ct.size)
    evals = np.zeros(ct.size, dtype=np.int64)
    if not ray.size:
        return total, err, evals
    lim = 1e-14 * r_hi
    seg = np.arange(ray.size)
    done = []
    for depth in range(_MAX_DEPTH_GL + 1):
        if not seg.size:
            break
        h = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        f = fvec(mid[:, None] + h[:, None] * _GL22_X, ray[seg])
        evals += 22 * np.bincount(ray[seg], minlength=ct.size)
        v15 = h * _node_sum(_GL15_W, f[:, :15])
        diff = v15 - h * _node_sum(_GL7_W, f[:, 15:])
        d = np.hypot(diff.real, diff.imag)
        ok = (d <= seg_tol) | (depth >= _MAX_DEPTH_GL) | ((b - a) <= lim[ray[seg]])
        k = seg[ok]
        done.append((k, a[ok], gv[k] * v15[ok], np.abs(gv[k]) * d[ok]))
        seg, a, b = (np.concatenate(p) for p in ((seg[~ok], seg[~ok]), (a[~ok], mid[~ok]),
                                                  (mid[~ok], b[~ok])))
    k, a, v, e = (np.concatenate(c) for c in zip(*done))
    order = np.lexsort((a, k))
    np.add.at(total, ray[k[order]], v[order])
    np.add.at(err, ray[k[order]], e[order])
    return total, err, evals


def _adaptive_1d(f, breaks: list[float], tol: float):
    """Adaptive GL15/GL7 integration of one or more integrands over
    consecutive intervals, level by level.

    Each pass sends the 22 nodes of every open interval to ``f`` in one
    call; ``f(x)`` returns (values, errors, evaluations), values and errors
    with a row per node and a column per integrand (1-D for one).  An
    interval stays open while any column's rule difference exceeds both its
    share of tol and its node errors, which join the column's estimate.
    Finished intervals are summed from left to right: arrays (values,
    errors) per column, and the evaluations.
    """
    breaks = np.asarray(breaks, dtype=float)
    span = breaks[-1] - breaks[0]
    a, b = breaks[:-1], breaks[1:]
    a, b = a[b > a], b[b > a]
    tol_i = tol * (b - a) / span
    evals = 0
    done = []
    for depth in range(_MAX_DEPTH_1D + 1):
        if not a.size:
            break
        h = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        v, e, n = f((mid[:, None] + h[:, None] * _GL22_X).ravel())
        v, e = v.reshape(a.size, 22, -1), e.reshape(a.size, 22, -1)
        evals += int(np.sum(n))
        v15 = _node_sum(_GL15_W, v[:, :15]) * h[:, None]
        diff = v15 - _node_sum(_GL7_W, v[:, 15:]) * h[:, None]
        d = np.hypot(diff.real, diff.imag)
        noise = h[:, None] * _node_sum(_GL22_W, e)
        ok = (np.all((d <= tol_i[:, None]) | (d <= noise), axis=1) | (depth >= _MAX_DEPTH_1D)
              | ((b - a) <= 1e-12 * span))
        done.append((a[ok], v15[ok], d[ok] + noise[ok]))
        a, b, tol_i = (np.concatenate(p) for p in ((a[~ok], mid[~ok]), (mid[~ok], b[~ok]),
                                                    (0.5 * tol_i[~ok], 0.5 * tol_i[~ok])))
    a, v, e = (np.concatenate(c) for c in zip(*done))
    order = np.argsort(a, kind="stable")
    return _ordered_sum(v[order]), _ordered_sum(e[order]), evals


# ---------------------------------------------------------------------------
# Polar patches over excised blocks


def _block_exit_radius(sx: float, sy: float, ct: np.ndarray, st: np.ndarray,
                       block) -> np.ndarray:
    """Per ray from (sx, sy), the radius at which it leaves the block."""
    bx0, bx1, by0, by1 = block
    exits = []
    for c, lo, hi in ((ct, bx0 - sx, bx1 - sx), (st, by0 - sy, by1 - sy)):
        t = np.full(c.shape, math.inf)
        np.divide(hi, c, out=t, where=c > 1e-300)
        np.divide(lo, c, out=t, where=c < -1e-300)
        exits.append(t)
    return np.maximum(np.minimum(*exits), 0.0)


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

    def column(theta):
        ct, st = np.cos(theta), np.sin(theta)
        e = ct + 1j * st
        if cancel == "recip":
            phase = np.conj(e)
        elif cancel == "recip_conj":
            phase = e
        else:
            phase = np.ones_like(e)

        def fvec(r, ray):
            F = _factor_values(s + r * e[ray, None], rest, multiplier)
            if cancel is None:
                F = F * r
            return F * phase[ray, None]

        rmax = _block_exit_radius(sx, sy, ct, st, block)
        return _column_gl(g, s, ct, st, rmax, fvec, seg_tol / n_cols_budget, extra_radii)

    # Rays in chunks of at most _CHUNK elements of the crossing matrix, the
    # results joined: bounds the memory of one pass.
    step = max(1, _CHUNK // _crossings(g, sx, sy, np.zeros(0), np.zeros(0), extra_radii).shape[1])

    def chunked(theta):
        parts = [column(theta[i:i + step]) for i in range(0, theta.size, step)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    v, e, n = _adaptive_1d(chunked, breaks, tol)
    return complex(v[0]), float(e[0]), n


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
        """Excise an aligned 2x2 cell block around each point inside the root
        square; points too close for separate blocks raise TolNotReached."""
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
            for (q, _), (_, bi, bj) in zip(out, self.blocks):
                if i0 < bi + 2 and i0 + 2 > bi and j0 < bj + 2 and j0 + 2 > bj:
                    raise TolNotReached(f"singular points {q} and {p} are too close to separate: "
                                        f"their blocks of side {2.0 * h:.3e} overlap")
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
        partly over a block is replaced by its children, split again where
        they overlap.  Splits run level by level over the whole batch, and
        the kept cells come out level by level, each level in input order.
        """
        src = np.arange(depth.size)
        if not self.blocks:
            return depth, ix, iy, src
        kept = []
        while True:
            rel = self._block_relation(depth, ix, iy)
            kept.append([a[rel == 0] for a in (depth, ix, iy, src)])
            split = rel == -1
            if not split.any():
                break
            depth, ix, iy = self._children(depth[split], ix[split], iy[split])
            src = np.repeat(src[split], 4)
        return tuple(np.concatenate(c) for c in zip(*kept))

    # -- classification and evaluation

    def _evaluate(self, depth, ix, iy):
        """Classify and evaluate a batch of cells in one pass: the indices of
        the cells that carry mass, with their values.

        Constant cells take the 5x5 tensor rule; cells crossed by boundaries
        take their exact mass times the integrand at the centre."""
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
        mc, mass = self._masses(np.flatnonzero(~const), x0, x1, y0, y1,
                                statuses, gc, grid_straddle)
        for (_, coeff), st in zip(self.g.terms, statuses):
            gc = np.where(st == INSIDE, gc + coeff, gc)
        live = np.zeros(n, dtype=bool)
        value = np.zeros(n, dtype=complex)
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
            live[cc] = True
            value[cc] = gc[cc] * ((F @ _T5W) * (hx * hy))
        if mc.size:
            F = _factor_values(0.5 * (x0[mc] + x1[mc]) + 1j * (0.5 * (y0[mc] + y1[mc])),
                               self.factors, self.multiplier)
            self.evals += F.size
            live[mc] = True
            value[mc] = F * mass
        live = np.flatnonzero(live)
        return live, value[live]

    def _masses(self, idx, x0, x1, y0, y1, statuses, grid_const, grid_straddle):
        """(cells, mass) of the cells idx crossed by boundaries whose mass is
        not zero.  g is linear in its terms, so the mass is exact however
        many boundaries cross a cell: each coefficient times the area of its
        region in the cell, plus the grid's mass there."""
        x0, x1, y0, y1 = x0[idx], x1[idx], y0[idx], y1[idx]
        area = (x1 - x0) * (y1 - y0)
        mass = np.zeros(idx.size)
        for (region, coeff), st in zip(self.g.terms, statuses):
            st = st[idx]
            a = area.copy()
            cut = np.flatnonzero(st == STRADDLE)
            if cut.size:
                a[cut] = region.cell_area(x0[cut], x1[cut], y0[cut], y1[cut])
            mass = np.where(st != OUTSIDE, mass + coeff * a, mass)
        grid = self.g.grid
        if grid is not None:
            gm = grid_const[idx] * area
            cut = np.flatnonzero(grid_straddle[idx])
            if cut.size:
                gm[cut] = grid.cell_mass(x0[cut], x1[cut], y0[cut], y1[cut])
            mass = mass + gm
        keep = mass != 0.0
        return idx[keep], mass[keep]

    def run(self, tol: float) -> tuple[complex, float]:
        n0 = 1 << _INIT_DEPTH
        d, x, y, _ = self._materialize(np.full(n0 * n0, _INIT_DEPTH),
                                       np.repeat(np.arange(n0), n0), np.tile(np.arange(n0), n0))
        live, self.value = self._evaluate(d, x, y)
        # The cover has no coarser level to compare against: refine all of it.
        self.err = np.full(live.size, np.inf)
        self.depth, self.ix, self.iy = d[live], x[live], y[live]
        while self.evals < self.budget:
            if float(np.sum(np.sort(self.err))) <= tol:
                break
            share = tol / (2.0 * self.err.size)
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
            live, value = self._evaluate(d, x, y)
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
        return complex(np.sum(self.value[order])), float(np.sum(self.err[order]))


# ---------------------------------------------------------------------------
# Public operations


def integrate_singular(g: DensitySpec, factors, tol: float, multiplier=None,
                       attention=(), budget: int = 2_000_000) -> QuadratureResult:
    """Integral of prod(factors) * multiplier * g over the plane.

    ``factors`` is a sequence of ('recip'|'recip_conj', point); ``attention``
    lists additional points around which the integrand is merely non-smooth
    (they get an excised block and a polar patch, without factor cancellation).
    ``budget`` caps the quadtree's integrand evaluations; it is checked before
    each refinement pass, so the last pass can end past it.
    """
    tol = _check_tol(tol)
    factors = tuple((k, _check_point(s)) for k, s in factors)
    engine = _Engine(g, factors, multiplier, budget)
    # Point -> the factor kind its polar patch cancels (None for attention
    # points); a second factor at the same point keeps the first cancellation.
    kinds: dict[complex, str | None] = {}
    for kind, s in factors:
        kinds.setdefault(s, kind)
    for p in attention:
        kinds.setdefault(_check_point(p), None)
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


def _jumps(g: DensitySpec):
    """The curves where g jumps (DensitySpec.curves), end to end by arc length:
    arrays (start, length, jump, origin, radius, direction).  A circle
    (radius > 0) runs counterclockwise from origin + radius, a segment from
    origin along direction; the jump is g left of the path minus g right of
    it.  Curves with no jump are left out, the support circle among them.
    A lattice's lines run upwards and leftwards between its vertices, so a
    line jumps by the cell left of it (or below) minus the cell right of it
    (or above), 0 outside the lattice."""
    circles, lattices = g.curves
    c = circles[circles[:, 3] != 0.0]
    o = np.empty(len(c), dtype=complex)
    o.real, o.imag = c[:, 0], c[:, 1]
    parts = [(o, c[:, 2], c[:, 3], np.zeros(o.size, dtype=complex), 2.0 * math.pi * c[:, 2])]
    for xs, ys, values in lattices:
        v = np.pad(values, 1)
        vjump, hjump = v[1:-1, :-1] - v[1:-1, 1:], v[:-1, 1:-1] - v[1:, 1:-1]
        j, k = np.nonzero(vjump)  # upwards along xs[k]
        parts.append((xs[k] + 1j * ys[j], np.zeros(k.size), vjump[j, k],
                      np.full(k.size, 1j), ys[j + 1] - ys[j]))
        k, i = np.nonzero(hjump)  # leftwards along ys[k]
        parts.append((xs[i + 1] + 1j * ys[k], np.zeros(k.size), hjump[k, i],
                      np.full(k.size, -1.0 + 0j), xs[i + 1] - xs[i]))
    origin, radius, jump, direction, length = (np.concatenate(p) for p in zip(*parts))
    return np.concatenate(([0.0], np.cumsum(length))), length, jump, origin, radius, direction


def _graded_breaks(jumps, pts: np.ndarray):
    """(t, breaks): per point of pts (rows) and curve of _jumps (columns)
    the arc position t of the curve's point nearest to it; and the sorted
    breaks of a boundary rule: the curves' ends and, on each curve within
    _NEAR of its length of a point, breaks 4^k times their distance d to
    either side of t.

    A first-pass interval much longer than its distance to a point could
    miss the peak there in both rules.  d is at least 1e-12 of the curve
    and 1024 ulps of the arc positions: no node rounds onto a point (0/0).
    """
    start, length, jump, origin, radius, direction = jumps
    rel = pts[:, None] - origin
    t = np.where(radius > 0.0, radius * (np.angle(rel) % (2.0 * math.pi)),
                 np.clip((rel * np.conj(direction)).real, 0.0, length))
    dist = np.where(radius > 0.0, np.abs(np.abs(rel) - radius), np.abs(rel - t * direction))
    floor = np.maximum(1e-12 * length, 1024.0 * math.ulp(start[-1]))
    p, k = np.nonzero(dist <= _NEAR * length)
    grades = np.append(0.0, 4.0 ** np.arange(21))
    d = np.maximum(dist[p, k], floor[k])[:, None] * grades
    ln = length[k, None]
    at = t[p, k, None] + np.concatenate((d, -d), axis=1)
    at = np.where(radius[k, None] > 0.0, at % ln, np.clip(at, 0.0, ln))
    return t, np.sort(np.concatenate((start, (start[k, None] + at)[np.tile(d < ln, 2)])))


def _boundary_rule(g: DensitySpec, lams, tol: float, points, potential):
    """V(lam) = (1/pi) * integral g(u) dN/dconj(u) / (u - lam) da(u) for each
    lam of an array, along the jumps of g: arrays (values, error estimates,
    evaluations) in the shape of lams.

    By Green's theorem each piece of g gives (1/2i) * jump * the integral of
    (N(u) - N(lam)) / (u - lam) du along its boundary; with the pole at lam
    subtracted no residue term is left, wherever lam lies.  ``potential(u,
    lam)`` returns N(u) - N(lam) for nodes u (rows) and lams (columns), with
    its rounding bound in units of _ROUNDING; N is singular at ``points``.
    One rule runs over all curves and a chunk of lams, broken near the points
    and the lams.  ``tol`` bounds each integral's error, pi times the value's;
    an estimate above it, or nan, raises TolNotReached carrying pi * V.
    """
    tol = _check_tol(tol)
    lams = np.asarray(lams, dtype=complex)
    shape = lams.shape
    lams = lams.ravel()
    if not np.isfinite(lams).all():
        raise InvalidPointError("points must be finite")
    points = np.asarray(points, dtype=complex)
    if np.isin(lams, points).any():
        raise InvalidPointError("lam = w: use integrate_diagonal")
    start, length, jump, origin, radius, direction = jumps = _jumps(g)
    values, errors, evals = (np.zeros(lams.size, dtype=t) for t in (complex, float, np.int64))
    # Columns per chunk: about _CHUNK elements in the first pass, over the
    # curves and about sixteen graded intervals per lam, shared by all columns.
    step = max(1, int(math.sqrt(_CHUNK / 352 + (length.size / 32) ** 2) - length.size / 32))
    for lo in range(0, lams.size if length.size else 0, step):
        lam = lams[lo:lo + step]

        def f(x):
            k = np.searchsorted(start, x, side="right") - 1
            t = x - start[k]
            c = radius[k] > 0.0
            e = np.exp(1j * t / np.where(c, radius[k], np.inf))
            u = origin[k] + np.where(c, radius[k] * e, t * direction[k])
            du = np.where(c, 1j * e, direction[k]) * (-0.5j / math.pi) * jump[k]
            diff = u[:, None] - lam
            num, size = potential(u, lam)
            dist = np.abs(diff)
            # Rounding: the quotient also carries the relative rounding of diff.
            size = size + np.abs(num) * (np.abs(u)[:, None] + np.abs(lam)) / dist
            return du[:, None] * (num / diff), _ROUNDING * np.abs(du)[:, None] * size / dist, x.size

        _, breaks = _graded_breaks(jumps, np.concatenate((points, lam)))
        values[lo:lo + step], errors[lo:lo + step], evals[lo:lo + step] = _adaptive_1d(
            f, breaks, tol / math.pi)
    bad = np.flatnonzero(~(math.pi * errors <= tol * (1.0 + 1e-9)))
    if bad.size:
        k = bad[np.argmax(errors[bad])]
        raise TolNotReached(f"error estimate {math.pi * errors[k]:.3e} above tolerance "
                            f"{tol:.3e} at lam = {complex(lams[k])} after {evals[k]} evaluations",
                            complex(math.pi * values[k]), float(math.pi * errors[k]))
    return values.reshape(shape), errors.reshape(shape), evals.reshape(shape)


def boundary_log_kernel(g: DensitySpec, w: complex, lams, tol: float):
    """f_w(lam) = -(1/pi) * integral g(u) / (conj(u-w)(u-lam)) da(u) for each
    lam (!= w) of an array: arrays (values, error estimates, evaluations) of
    the boundary rule with N(u) = log|u-w|^2, ``tol`` as in integrate_bi_singular."""
    w = _check_point(w)

    def potential(u, lam):
        # Each log keeps an ulp of its argument; u, an ulp off the curve,
        # moves log|u-w|^2 by 2(|u|+|w|)/|u-w| ulps.
        nl, uw = 2.0 * np.log(np.abs(lam - w)), np.abs(u - w)
        nu = 2.0 * np.log(uw)
        size = 4.0 + np.abs(nl) + (np.abs(nu) + 2.0 * (np.abs(u) + abs(w)) / uw)[:, None]
        return nu[:, None] - nl, size

    values, errors, evals = _boundary_rule(g, lams, tol, [w], potential)
    return -values, errors, evals


def boundary_cauchy_transform(g: DensitySpec, lams, tol: float):
    """ĝ(lam) = (1/pi) * integral g(u) / (u - lam) da(u) for each lam of an
    array: arrays (values, error estimates, evaluations) of the boundary rule
    with N(u) = conj(u), ``tol`` as in cauchy_transform."""
    # The difference keeps an ulp of |u| + |lam|, and u is an ulp off the curve.
    return _boundary_rule(g, lams, tol, [], lambda u, lam: (
        np.conj(u)[:, None] - np.conj(lam), (2.0 * np.abs(u))[:, None] + np.abs(lam)))


def _radial_rule(g: DensitySpec, c: complex, r_lo: float, r_hi: float, F,
                 tol: float, excised: float = 0.0) -> tuple[float, float]:
    """(value, error estimate) of (1/pi) * integral g(u) F'(|u-c|^2) da(u)
    over r_lo <= |u-c| <= r_hi, by the boundary rule at lam = c with
    N(u) = F(clip(|u-c|^2, r_lo^2, r_hi^2)) - F(r_lo^2): dN/dconj(u) / (u-c)
    is F'(|u-c|^2) on the annulus and 0 off it, and N / (u-c) is continuous
    at c, so no residue is left.  u - c is taken from each curve's point p
    nearest c, keeping its relative precision, and the curves break at the
    kinks of N.  ``excised`` bounds a part left out: it joins the estimate,
    and the rule aims no finer than it.  An estimate above tol, or nan,
    raises TolNotReached."""
    start, length, jump, origin, radius, direction = jumps = _jumps(g)
    if not length.size:
        return 0.0, 0.0
    circle = radius > 0.0
    rel = c - origin
    along = rel * np.conj(direction)
    # The circles |u-c| = rho meet a circle at the half-angle
    # 2 asin(sqrt((rho^2 - (|rel| - radius)^2) / (4 |rel| radius))) about p,
    # and a segment at sqrt(rho^2 - across^2) to either side of c's foot.
    rho = np.array([r for r in (r_lo, r_hi) if 0.0 < r < math.inf])[:, None]
    across = np.where(circle, np.abs(np.abs(rel) - radius), np.abs(along.imag))
    (t,), breaks = _graded_breaks(jumps, np.array([c]))
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.sqrt((rho - across) * (rho + across))
        reach = np.where(circle, 2.0 * radius * np.arcsin(
            reach / (2.0 * np.sqrt(np.abs(rel) * radius))), reach)
        at = np.concatenate((reach, -reach)) + np.where(circle, t, along.real)
        at = np.where(circle, at % length, at)
    breaks = np.sort(np.concatenate((breaks, (start[:-1] + at)[(at > 0.0) & (at < length)])))
    # p = origin + radius e^(i phi) on a circle, where u - p is
    # 2i radius e^(i (theta + phi) / 2) sin((theta - phi) / 2).
    phi = t / np.where(circle, radius, 1.0)
    pc = np.where(circle, (radius - np.abs(rel)) * np.exp(1j * phi), t * direction - rel)
    f_lo = F(r_lo * r_lo)

    def f(x):
        k = np.searchsorted(start, x, side="right") - 1
        s = x - start[k]
        on = circle[k]
        r = np.where(on, radius[k], np.inf)
        e = np.exp(1j * s / r)
        du = np.where(on, 1j * e, direction[k]) * (-0.5j / math.pi) * jump[k]
        half = 0.5 * (s - t[k]) / r
        d = pc[k] + np.where(on, 2j * radius[k] * np.exp(1j * (phi[k] + half)) * np.sin(half),
                             (s - t[k]) * direction[k])
        q = d.real * d.real + d.imag * d.imag
        fq = F(np.clip(q, r_lo * r_lo, r_hi * r_hi))
        n = fq - f_lo
        # Rounding: d keeps a few ulps relative, so F keeps a few ulps of
        # 1 + |F| (log or identity), and the quotient a few of n.
        size = 4.0 + 4.0 * np.abs(fq) + abs(f_lo) + np.abs(n)
        return du * (n / d), _ROUNDING * np.abs(du) * size / np.sqrt(q), x.size

    v, e, evals = _adaptive_1d(f, breaks, max(tol - excised, excised))
    v, e = float(v[0].real), float(e[0]) + excised
    if not e <= tol * (1.0 + 1e-9):
        raise TolNotReached(f"error estimate {e:.3e} ({excised:.3e} excised) above "
                            f"tolerance {tol:.3e} about {c} after {evals} evaluations", v, e)
    return v, e


def _horn(g: DensitySpec, w: complex, tol: float) -> tuple[float, float]:
    """(eps, bound) where g lives next to w only on horns between curves
    tangent there: bound bounds (1/pi) * the integral of g |u-w|^-2 over
    |u-w| < eps.  At distance rho from w a circle of radius r through w lies
    asin(rho / 2r) off its tangent, a line 0, so as 0 <= g <= 1 two tangent
    curves of curvatures k, k' (signed to one side) add |k - k'| eps / (pi
    cos) to it, cos = sqrt(1 - (eps / 2r)^2) for the least r.  eps brings
    the bound near tol / 2, but stays above _HORN_FLOOR of the jumps' length
    and within half the distance to any curve or crossing off w.
    """
    arrangement = g.arrangement
    circles, eta = arrangement.circles, arrangement.eta
    gap = np.abs(np.hypot(w.real - circles[:, 0], w.imag - circles[:, 1]) - circles[:, 2])
    r = circles[gap <= eta, 2]
    # The tangents at w of the curves through it, the circles' centres on their left.
    tangents = [-1j * (circles[gap <= eta, 0] + 1j * circles[gap <= eta, 1] - w) / r]
    others = [gap[gap > eta]]
    for axis, cs, lo, hi in arrangement.combs:
        a, b = (w.real, w.imag) if axis == 0 else (w.imag, w.real)
        dl = np.hypot(cs - a, max(lo - b, b - hi, 0.0))
        tangents.append(np.full(np.count_nonzero(dl <= eta), 1j if axis == 0 else 1.0))
        others.append(dl[dl > eta])
    tangents, others = np.concatenate(tangents), np.concatenate(others)
    kappa = np.append(1.0 / r, np.zeros(tangents.size - r.size))
    turn = tangents[:, None] * np.conj(tangents)
    pair = np.triu(np.ones(turn.shape, dtype=bool), 1)
    tangent = pair & (np.abs(turn.imag) <= _HORN)
    spread = float(np.sum(np.abs(kappa[:, None] - np.sign(turn.real) * kappa)[tangent]))
    # Two curves through w crossing at the angle b meet again at least
    # r |sin b| away, r the least radius of the circles through w.
    rmin = float(np.min(r, initial=np.inf))
    cap = min(0.5 * np.min(others, initial=np.inf), g.support_radius, rmin,
              0.5 * rmin * np.min(np.abs(turn.imag)[pair & ~tangent], initial=np.inf))
    eps = min(cap, max(0.5 * math.pi * tol / spread if spread else math.inf,
                       _HORN_FLOOR * float(_jumps(g)[0][-1])))
    return eps, spread * eps / (math.pi * math.sqrt(1.0 - (0.5 * eps / rmin) ** 2))


def integrate_diagonal(g: DensitySpec, w: complex, tol: float = 1e-6) -> DiagonalMass:
    """Diagonal mass (1/pi) * integral g(u) |u-w|^-2 da(u) with divergence detection.

    The integral diverges exactly when g > 0 on a sector at w of positive
    opening: at w itself when w lies on no jump curve of g, else on one of
    the sectors that the curves through w cut out (density.sector_values).
    Otherwise it is finite, and _radial_rule sums it along the jumps of g
    outside a disc about w: the clear disc, on which g vanishes, or, where g
    lives on horns of zero opening at w, a disc that _horn bounds, its bound
    added to the estimate.  An estimate above tol raises TolNotReached.
    """
    tol = _check_tol(tol)
    w = _check_point(w)
    if (sector_values(g, w) > 0.0).any():
        return DiagonalMass(True, math.inf, 0.0, 0)
    r_lo, excised = clear_radius(g, w), 0.0
    if r_lo == 0.0:
        r_lo, excised = _horn(g, w, tol)
    return DiagonalMass(False, *_radial_rule(g, w, r_lo, math.inf, np.log, tol, excised), 0)


def radial_inverse_square_integral(g: DensitySpec, center: complex, r_lo: float,
                                   r_hi: float, tol: float = 1e-8) -> tuple[float, float]:
    """(1/pi) * integral of g |u-c|^-2 over the annulus r_lo <= |u-c| <= r_hi."""
    tol = _check_tol(tol)
    if not (0.0 < r_lo < r_hi):
        raise InvalidPointError("need 0 < r_lo < r_hi")
    return _radial_rule(g, _check_point(center), r_lo, r_hi, np.log, tol)


def disc_mass(g: DensitySpec, center: complex, radius: float,
              tol: float = 1e-9) -> tuple[float, float]:
    """integral of g over the disc D(center, radius), by _radial_rule."""
    tol = _check_tol(tol)
    if math.isnan(radius):
        raise InvalidPointError("radius must be a finite or infinite number, got nan")
    v, e = _radial_rule(g, _check_point(center), 0.0, max(radius, 0.0), lambda s: s,
                        tol / math.pi)
    return math.pi * v, math.pi * e
