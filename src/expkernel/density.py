"""Compactly supported densities 0 <= g <= 1 built from signed region indicators.

A density is a finite signed sum of region indicators plus an optional
piecewise-constant grid layer,

    g(u) = sum_i coeff_i * 1_{R_i}(u) + grid(u),

clipped to zero outside the declared support disc.  Specs are validated by
stratified sampling: every admissible spec satisfies 0 <= g <= 1 everywhere
and vanishes outside the support disc.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Annulus, Disk, Rectangle, Region, _line_crossing

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
        mod 2^64, so jump-ahead powers reproduce the stream exactly.
        """
        powers = np.multiply.accumulate(np.full(n, self.MULTIPLIER, dtype=np.uint64))
        states = powers * np.array(self.state, dtype=np.uint64)
        self.state = int(states[-1])
        return (states >> np.uint64(11)) * 2.0 ** -53


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
            h = np.where(cy0 + s < y1, cy0 + s, y1) - np.where(cy0 > y0, cy0, y0)
            row = (j < j1) & (h > 0.0)
            for di in range(int(np.max(i1 - i0, initial=0))):
                i = i0 + di
                cx0 = self.origin_x + i * s
                w = np.where(cx0 + s < x1, cx0 + s, x1) - np.where(cx0 > x0, cx0, x0)
                v = self.values[np.minimum(j, self.ny - 1), np.minimum(i, self.nx - 1)]
                total = np.where(row & (i < i1) & (w > 0.0), total + w * h * v, total)
        return total

    def ray_crossings(self, sx: float, sy: float, ct: float, st: float) -> list[float]:
        out: list[float] = []
        for k in range(self.nx + 1):
            out += _line_crossing(sx, self.origin_x + k * self.spacing, ct)
        for k in range(self.ny + 1):
            out += _line_crossing(sy, self.origin_y + k * self.spacing, st)
        return out


@dataclass(frozen=True)
class DensitySpec:
    """Validated description of a density g as signed regions plus a grid layer."""

    support_center: complex
    support_radius: float
    terms: tuple[tuple[Region, float], ...]
    grid: GridLayer | None = None


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
        val += coeff * region.contains(uu)
    if g.grid is not None:
        val += g.grid.eval(re, im)
    dx = re - g.support_center.real
    dy = im - g.support_center.imag
    val = np.where(dx * dx + dy * dy <= g.support_radius ** 2, val, 0.0)
    return float(val) if scalar else val


def clear_radius(g: DensitySpec, w: complex) -> float:
    """Radius of a disc around w on which g is certainly identically zero.

    Takes the largest r such that every term indicator (and the grid layer)
    is constant on D(w, r); if the resulting constant value is zero the disc
    is clear.  Returns 0.0 when no such disc is known.
    """
    x, y = w.real, w.imag
    d_support = math.hypot(x - g.support_center.real, y - g.support_center.imag)
    if d_support > g.support_radius:
        outside = d_support - g.support_radius
    else:
        outside = math.inf  # inside support; need term-level clearance
    r = outside
    for region, _ in g.terms:
        r = min(r, region.boundary_distance(x, y))
    if g.grid is not None:
        bx0, bx1, by0, by1 = g.grid.bbox
        if bx0 <= x <= bx1 and by0 <= y <= by1:
            s = g.grid.spacing
            fx = (x - g.grid.origin_x) / s
            fy = (y - g.grid.origin_y) / s
            r = min(r, s * min(fx - math.floor(fx), math.ceil(fx) - fx,
                               fy - math.floor(fy), math.ceil(fy) - fy))
        else:
            r = min(r, Rectangle(bx0, by0, bx1, by1).boundary_distance(x, y))
    if not math.isfinite(r) or r <= 0.0:
        return 0.0
    if eval_density(g, w) != 0.0:
        return 0.0
    return r


def _stratified_points(g: DensitySpec, n: int, rng: Mcg64) -> np.ndarray:
    """n x n jittered grid over the bounding square of the support disc.

    validate() has already checked that every region and the grid lie in the
    support disc, so the square covers them too.  Point k = j*n + i takes
    the deviates 2k (x jitter) and 2k+1 (y jitter) of the stream.
    """
    cx, cy = g.support_center.real, g.support_center.imag
    x0 = cx - g.support_radius
    x1 = cx + g.support_radius
    y0 = cy - g.support_radius
    y1 = cy + g.support_radius
    hx = (x1 - x0) / n
    hy = (y1 - y0) / n
    jitter = rng.uniforms(2 * n * n).reshape(n, n, 2)
    idx = np.arange(n)
    pts = np.empty((n, n), dtype=complex)
    pts.real = x0 + (idx[None, :] + jitter[:, :, 0]) * hx
    pts.imag = y0 + (idx[:, None] + jitter[:, :, 1]) * hy
    return pts.ravel()


def _boundary_band_points(region: Region, n: int, rng: Mcg64) -> np.ndarray:
    """n points jittered across the region boundary (band half-width 1e-3 of scale)."""
    pts = np.empty(n, dtype=complex)
    if isinstance(region, (Disk, Annulus)):
        cx, cy = region.cx, region.cy
        radii = [region.r] if isinstance(region, Disk) else [region.r_inner, region.r_outer]
        scale = max(radii)
        for k in range(n):
            r = radii[k % len(radii)]
            th = 2.0 * math.pi * rng.uniform()
            dr = (rng.uniform() - 0.5) * 2e-3 * max(scale, 1.0)
            pts[k] = complex(cx + (r + dr) * math.cos(th), cy + (r + dr) * math.sin(th))
    else:
        per = 2.0 * ((region.x1 - region.x0) + (region.y1 - region.y0))
        scale = max(region.x1 - region.x0, region.y1 - region.y0, 1.0)
        for k in range(n):
            t = rng.uniform() * per
            dr = (rng.uniform() - 0.5) * 2e-3 * scale
            w = region.x1 - region.x0
            h = region.y1 - region.y0
            if t < w:
                pts[k] = complex(region.x0 + t, region.y0 + dr)
            elif t < w + h:
                pts[k] = complex(region.x1 + dr, region.y0 + (t - w))
            elif t < 2 * w + h:
                pts[k] = complex(region.x0 + (t - w - h), region.y1 + dr)
            else:
                pts[k] = complex(region.x0 + dr, region.y0 + (t - 2 * w - h))
    return pts


# Validation sample: a _GRID_N x _GRID_N stratified grid plus _BAND_N points
# across each region boundary, from the Mcg64 stream of seed _VALIDATION_SEED.
_GRID_N = 256
_BAND_N = 64
_VALIDATION_SEED = 1


def validate(g: DensitySpec) -> DensitySpec:
    """Check the structure of g, and its range and support at sample points.

    Raises DensityConfigError with the first offending point when a sample
    violates 0 <= g <= 1 inside the support disc or g = 0 outside it.
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

    rng = Mcg64(_VALIDATION_SEED)
    pts = [_stratified_points(g, _GRID_N, rng)]
    for region, _ in g.terms:
        pts.append(_boundary_band_points(region, _BAND_N, rng))
    pts = np.concatenate(pts)
    vals = eval_density(g, pts)
    d = np.abs(pts - g.support_center)
    inside = d <= g.support_radius
    tol = 1e-12
    bad = np.where(inside & ((vals < -tol) | (vals > 1.0 + tol)))[0]
    if bad.size:
        k = int(bad[0])
        raise DensityConfigError(
            f"density out of range: g({pts[k]:.17g}) = {vals[k]:.17g}")
    bad = np.where(~inside & (vals != 0.0))[0]
    if bad.size:
        k = int(bad[0])
        raise DensityConfigError(
            f"density nonzero outside support: g({pts[k]:.17g}) = {vals[k]:.17g}")
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


def _parse_point(v, what: str) -> complex:
    if (not isinstance(v, (list, tuple))) or len(v) != 2:
        raise DensityConfigError(f"{what} must be a [x, y] pair")
    x, y = v
    if not all(isinstance(t, (int, float)) and math.isfinite(t) for t in (x, y)):
        raise DensityConfigError(f"{what} must be finite numbers")
    return complex(float(x), float(y))


def _parse_shape(obj) -> Region:
    if not isinstance(obj, dict):
        raise DensityConfigError("shape must be an object")
    kind = obj.get("kind")
    if kind == "disk":
        _require_keys(obj, {"kind", "center", "radius"}, {"kind", "center", "radius"}, "disk shape")
        c = _parse_point(obj["center"], "disk center")
        return Disk(c.real, c.imag, float(obj["radius"]))
    if kind == "annulus":
        _require_keys(obj, {"kind", "center", "r_inner", "r_outer"},
                      {"kind", "center", "r_inner", "r_outer"}, "annulus shape")
        c = _parse_point(obj["center"], "annulus center")
        return Annulus(c.real, c.imag, float(obj["r_inner"]), float(obj["r_outer"]))
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
    radius = obj["support_radius"]
    if not isinstance(radius, (int, float)):
        raise DensityConfigError("support_radius must be a number")
    if not isinstance(obj["terms"], list):
        raise DensityConfigError("terms must be a list")
    terms = []
    for t in obj["terms"]:
        if not isinstance(t, dict):
            raise DensityConfigError("term must be an object")
        _require_keys(t, {"shape", "coeff"}, {"shape", "coeff"}, "term")
        if not isinstance(t["coeff"], (int, float)):
            raise DensityConfigError("coeff must be a number")
        terms.append((_parse_shape(t["shape"]), float(t["coeff"])))
    grid = None
    if "grid" in obj:
        gobj = obj["grid"]
        if not isinstance(gobj, dict):
            raise DensityConfigError("grid must be an object")
        _require_keys(gobj, {"origin", "spacing", "values"},
                      {"origin", "spacing", "values"}, "grid")
        origin = _parse_point(gobj["origin"], "grid origin")
        try:
            values = np.asarray(gobj["values"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise DensityConfigError(f"grid values not numeric: {exc}") from None
        grid = GridLayer(origin.real, origin.imag, float(gobj["spacing"]), values)
    return make_density(center, float(radius), terms, grid)


def load_density_file(path: str) -> DensitySpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DensityConfigError(f"invalid JSON: {exc}") from None
    return parse_density_config(obj)
