"""Reference integrators, independent of the adaptive engine.

The midpoint rules are slow, simple, and share no code with the library's
quadrature, so agreement is evidence rather than tautology.  The scalar
radial and angular rules below are the one-ray, one-interval-at-a-time
loops the library's array passes replace, kept as their reference, the
dense range sampler is the independent check of exact density validation,
and the ring sampler that of the values g takes around a point.
"""

import math

import numpy as np

from expkernel.density import GridLayer, Mcg64, eval_density
from expkernel.geometry import Annulus, Disk, Rectangle


def midpoint_rect(func, x0, x1, y0, y1, n=600):
    """Midpoint rule for integral of func(u) over a rectangle, u complex."""
    xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
    ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
    U = xs[None, :] + 1j * ys[:, None]
    return np.sum(func(U)) * ((x1 - x0) / n) * ((y1 - y0) / n)


def polar_midpoint(func, center, r_max, nr=800, nt=800):
    """Midpoint rule in polar coordinates around `center`.

    The r-Jacobian makes integrands with an |u-center|^-1 factor bounded.
    """
    rs = (np.arange(nr) + 0.5) * r_max / nr
    ts = (np.arange(nt) + 0.5) * 2.0 * np.pi / nt
    U = center + rs[None, :] * np.exp(1j * ts[:, None])
    vals = func(U) * rs[None, :]
    return np.sum(vals) * (r_max / nr) * (2.0 * np.pi / nt)


def mass_oracle(g, center, radius, n=1200):
    """Midpoint mass of the density over a disc."""
    def f(U):
        inside = np.abs(U - center) <= radius
        return np.where(inside, eval_density(g, U.ravel()).reshape(U.shape), 0.0)
    return midpoint_rect(f, center.real - radius, center.real + radius,
                         center.imag - radius, center.imag + radius, n).real


def bi_singular_oracle(g, w, lam, nr=1000, nt=1000):
    """Reference for -(1/pi) integral g(u) / (conj(u-w)(u-lam)) da(u).

    Polar around w cancels the first singular factor exactly; the remaining
    1/(u-lam) pole is integrable and midpoint-sampled, so expect three to
    four digits, not machine precision.
    """
    w = complex(w)
    lam = complex(lam)
    reach = abs(g.support_center - w) + g.support_radius

    def f(U):
        gv = eval_density(g, U.ravel()).reshape(U.shape)
        d = U - w
        # polar Jacobian r = |d| divides out conj(d): exp(i theta)/ (U - lam)
        out = np.zeros_like(U)
        np.divide(d / np.abs(d), (U - lam) * np.abs(d), out=out,
                  where=np.abs(U - lam) > 1e-12)
        return gv * out

    return -polar_midpoint(f, w, reach, nr, nt) / np.pi


# ---------------------------------------------------------------------------
# Scalar references of the radial columns and the angular rule


_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)


def _circle_crossings(cx, cy, r, sx, sy, ct, st):
    dx = sx - cx
    dy = sy - cy
    beta = dx * ct + dy * st
    disc = beta * beta - (dx * dx + dy * dy - r * r)
    if disc <= 0.0:
        return []
    sq = math.sqrt(disc)
    return [t for t in (-beta - sq, -beta + sq) if t > 0.0]


def _line_crossing(coord_s, coord_target, direction):
    if abs(direction) < 1e-14:
        return []
    t = (coord_target - coord_s) / direction
    return [t] if t > 0.0 else []


def ray_crossings(boundary, sx, sy, ct, st):
    """Positive radii at which one ray can cross a region's or grid's boundary."""
    if isinstance(boundary, Disk):
        return _circle_crossings(boundary.cx, boundary.cy, boundary.r, sx, sy, ct, st)
    if isinstance(boundary, Annulus):
        return (_circle_crossings(boundary.cx, boundary.cy, boundary.r_inner, sx, sy, ct, st)
                + _circle_crossings(boundary.cx, boundary.cy, boundary.r_outer, sx, sy, ct, st))
    if isinstance(boundary, Rectangle):
        return (_line_crossing(sx, boundary.x0, ct) + _line_crossing(sx, boundary.x1, ct)
                + _line_crossing(sy, boundary.y0, st) + _line_crossing(sy, boundary.y1, st))
    assert isinstance(boundary, GridLayer)
    out = []
    for k in range(boundary.nx + 1):
        out += _line_crossing(sx, boundary.origin_x + k * boundary.spacing, ct)
    for k in range(boundary.ny + 1):
        out += _line_crossing(sy, boundary.origin_y + k * boundary.spacing, st)
    return out


def ray_segments(g, sx, sy, ct, st, r_lo, r_hi, extra=()):
    """Segments (a, b, g_value) of [r_lo, r_hi] on which g is constant along the ray."""
    crossings = [r_lo, r_hi]
    for region, _ in g.terms:
        crossings.extend(ray_crossings(region, sx, sy, ct, st))
    if g.grid is not None:
        crossings.extend(ray_crossings(g.grid, sx, sy, ct, st))
    crossings.extend(ray_crossings(Disk(g.support_center.real, g.support_center.imag,
                                        g.support_radius), sx, sy, ct, st))
    crossings.extend(extra)
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


def column_exact(g, sx, sy, ct, st, r_lo, r_hi, weight, rounding=4.0 * math.ulp(1.0)):
    """Exact radial integral of g times r ('mass') or 1/r ('invsq') along one
    ray, and a bound on its rounding error."""
    total = 0.0
    size = 0.0
    for a, b, gv in ray_segments(g, sx, sy, ct, st, r_lo, r_hi):
        if weight == "mass":
            total += gv * 0.5 * (b * b - a * a)
            size += abs(gv) * 0.5 * (b * b + a * a)
        else:
            term = gv * math.log(b / a)
            total += term
            size += abs(gv) + abs(term)
    return total, rounding * size


def radial_kinks(g, c, r_lo, r_hi):
    """Sorted angles at which column_exact about c over [r_lo, r_hi] can have
    a kink, 2 pi closing the period: rays tangent to a circle of g or of its
    support, through a vertex of a rectangle or of the grid in the annulus,
    or through a point where the circle |u-c| = r_lo or r_hi meets an edge."""
    cx, cy = c.real, c.imag
    circles = [(g.support_center.real, g.support_center.imag, g.support_radius)]
    edges = []  # (x0, y0, x1, y1), axis-aligned
    points = []
    for region, _ in g.terms:
        if isinstance(region, Disk):
            circles.append((region.cx, region.cy, region.r))
        elif isinstance(region, Annulus):
            circles += [(region.cx, region.cy, r) for r in (region.r_inner, region.r_outer) if r > 0]
        else:
            x0, x1, y0, y1 = region.x0, region.x1, region.y0, region.y1
            edges += [(x0, y0, x0, y1), (x1, y0, x1, y1), (x0, y0, x1, y0), (x0, y1, x1, y1)]
    if g.grid is not None:
        gr = g.grid
        xs = [gr.origin_x + k * gr.spacing for k in range(gr.nx + 1)]
        ys = [gr.origin_y + k * gr.spacing for k in range(gr.ny + 1)]
        edges += [(x, ys[0], x, ys[-1]) for x in xs] + [(xs[0], y, xs[-1], y) for y in ys]
        points += [(x, y) for x in xs for y in ys]
    angles = {0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi}
    for ox, oy, r in circles:
        d = math.hypot(ox - cx, oy - cy)
        if d == 0.0:
            continue
        phi = math.atan2(oy - cy, ox - cx)
        halves = [math.asin(r / d)] if r <= d else []
        for rho in (r_lo, r_hi):
            if 0.0 < rho < math.inf:
                cos_a = (rho * rho + d * d - r * r) / (2.0 * rho * d)
                if abs(cos_a) <= 1.0:
                    halves.append(math.acos(cos_a))
        angles.update(phi + s * a for a in halves for s in (1, -1))
    for x0, y0, x1, y1 in edges:
        points += [(x0, y0), (x1, y1)]
        for rho in (r_lo, r_hi):
            if not 0.0 < rho < math.inf:
                continue
            if x0 == x1:
                h = rho * rho - (x0 - cx) ** 2
                points += [(x0, cy + s * math.sqrt(h)) for s in (1, -1)
                           if h >= 0.0 and y0 <= cy + s * math.sqrt(h) <= y1]
            else:
                h = rho * rho - (y0 - cy) ** 2
                points += [(cx + s * math.sqrt(h), y0) for s in (1, -1)
                           if h >= 0.0 and x0 <= cx + s * math.sqrt(h) <= x1]
    angles.update(math.atan2(y - cy, x - cx) for x, y in points
                  if r_lo <= math.hypot(x - cx, y - cy) <= r_hi)
    return sorted(a % (2.0 * math.pi) for a in angles) + [2.0 * math.pi]


def column_gl(g, s, ct, st, r_hi, fvec, seg_tol, extra):
    """Adaptive radial integral of fvec(r) * g along one ray from s, split at g breakpoints."""
    segs = ray_segments(g, s.real, s.imag, ct, st, 0.0, r_hi, extra)
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    stack = [(a, b, gv, 0) for a, b, gv in reversed(segs)]
    while stack:
        a, b, gv, depth = stack.pop()
        h = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        f15 = fvec(mid + h * _GL15_X)
        f7 = fvec(mid + h * _GL7_X)
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


def adaptive_1d(f, breaks, tol, max_depth=24):
    """Adaptive GL15/GL7 integration of a scalar callable over consecutive
    intervals, depth first; ``f(x)`` returns (value, error, evaluations)."""
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


def _block_exit_radius(sx, sy, ct, st, bx0, bx1, by0, by1):
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


def polar_patch(g, s, cancel, rest, multiplier, block, tol, extra_radii):
    """Integral over an axis-aligned block around s in polar coordinates at
    s, one column per angle."""
    bx0, bx1, by0, by1 = block
    sx, sy = s.real, s.imag
    corners = sorted({math.atan2(cy - sy, cx - sx) for cx in (bx0, bx1) for cy in (by0, by1)})
    breaks = corners + [corners[0] + 2.0 * math.pi]
    seg_tol = tol / (4.0 * math.pi) / max(len(breaks) - 1, 1)

    def column(theta):
        ct, st = math.cos(theta), math.sin(theta)
        rmax = _block_exit_radius(sx, sy, ct, st, bx0, bx1, by0, by1)
        if rmax <= 0.0:
            return 0.0 + 0.0j, 0.0, 0
        e = complex(ct, st)
        phase = {"recip": complex(ct, -st), "recip_conj": e}.get(cancel, 1.0 + 0.0j)

        def fvec(r):
            u = s + r * e
            F = np.ones_like(u)
            for kind, p in rest:
                F = F / (u - p) if kind == "recip" else F / np.conj(u - p)
            if multiplier is not None:
                F = F * multiplier(u)
            if cancel is None:
                F = F * r
            return F * phase

        return column_gl(g, s, ct, st, rmax, fvec, seg_tol, extra_radii)

    return adaptive_1d(column, breaks, tol)


# ---------------------------------------------------------------------------
# Dense sampling of a density's range


def range_violation(g, n=256, band=64, seed=1):
    """First sample at which g leaves [0, 1] by more than 1e-12, or None.

    Samples an n x n jittered grid over the bounding square of the support
    disc and `band` points jittered across each region boundary (band
    half-width 1e-3 of the region's scale), from the Mcg64 stream of `seed`.
    This is the dense sampler that once validated densities: independent of
    the jump arrangement, and blind to faces thinner than its spacing.
    """
    rng = Mcg64(seed)
    cx, cy, rad = g.support_center.real, g.support_center.imag, g.support_radius
    h = 2.0 * rad / n
    jitter = rng.uniforms(2 * n * n).reshape(n, n, 2)
    idx = np.arange(n)
    grid = np.empty((n, n), dtype=complex)
    grid.real = cx - rad + (idx[None, :] + jitter[:, :, 0]) * h
    grid.imag = cy - rad + (idx[:, None] + jitter[:, :, 1]) * h
    pts = []
    for region, _ in g.terms:
        if isinstance(region, (Disk, Annulus)):
            radii = [region.r] if isinstance(region, Disk) else [region.r_inner, region.r_outer]
            scale = max(max(radii), 1.0)
            for k in range(band):
                th = 2.0 * math.pi * rng.uniform()
                r = radii[k % len(radii)] + (rng.uniform() - 0.5) * 2e-3 * scale
                pts.append(complex(region.cx + r * math.cos(th), region.cy + r * math.sin(th)))
        else:
            w, ht = region.x1 - region.x0, region.y1 - region.y0
            scale = max(w, ht, 1.0)
            for _ in range(band):
                t = rng.uniform() * 2.0 * (w + ht)
                dr = (rng.uniform() - 0.5) * 2e-3 * scale
                if t < w:
                    p = complex(region.x0 + t, region.y0 + dr)
                elif t < w + ht:
                    p = complex(region.x1 + dr, region.y0 + (t - w))
                elif t < 2 * w + ht:
                    p = complex(region.x0 + (t - w - ht), region.y1 + dr)
                else:
                    p = complex(region.x0 + dr, region.y0 + (t - 2 * w - ht))
                pts.append(p)
    pts = np.concatenate((grid.ravel(), np.array(pts, dtype=complex)))
    vals = eval_density(g, pts)
    bad = np.flatnonzero((vals < -1e-12) | (vals > 1.0 + 1e-12))
    return (complex(pts[bad[0]]), float(vals[bad[0]])) if bad.size else None


def ring_values(g, w, rho, n):
    """The set of values g takes at n points spaced evenly on the circle of
    radius rho around w, half a step off the direction 0."""
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return set(eval_density(g, complex(w) + rho * np.exp(1j * theta)).tolist())
