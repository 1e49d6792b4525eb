import math

import numpy as np

from expkernel.density import Mcg64
from expkernel.geometry import (INSIDE, OUTSIDE, STRADDLE, Annulus, Disk,
                                Rectangle, disk_rect_area)


def test_disk_rect_area_full_disk():
    # rectangle contains the whole disk
    a = disk_rect_area(0.0, 0.0, 1.0, -2.0, 2.0, -2.0, 2.0)
    np.testing.assert_allclose(a, math.pi, rtol=0, atol=1e-14)


def test_disk_rect_area_half_and_quarter():
    a = disk_rect_area(0.0, 0.0, 1.0, 0.0, 2.0, -2.0, 2.0)
    np.testing.assert_allclose(a, math.pi / 2.0, rtol=0, atol=1e-14)
    a = disk_rect_area(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 2.0)
    np.testing.assert_allclose(a, math.pi / 4.0, rtol=0, atol=1e-14)


def test_disk_rect_area_disjoint():
    assert disk_rect_area(0.0, 0.0, 1.0, 2.0, 3.0, 2.0, 3.0) == 0.0


def test_disk_rect_area_against_midpoint():
    rng = Mcg64(11)
    for _ in range(25):
        cx = 2.0 * rng.uniform() - 1.0
        cy = 2.0 * rng.uniform() - 1.0
        r = 0.2 + rng.uniform()
        x0 = 2.0 * rng.uniform() - 1.5
        y0 = 2.0 * rng.uniform() - 1.5
        x1 = x0 + 0.3 + rng.uniform()
        y1 = y0 + 0.3 + rng.uniform()
        n = 2000
        xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
        ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
        inside = ((xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2) <= r * r
        approx = inside.mean() * (x1 - x0) * (y1 - y0)
        exact = disk_rect_area(cx, cy, r, x0, x1, y0, y1)
        assert abs(exact - approx) < 5e-3


def test_disk_classify_cell():
    d = Disk(0.0, 0.0, 1.0)
    assert d.classify_cell(-0.3, 0.3, -0.3, 0.3) == INSIDE
    assert d.classify_cell(2.0, 3.0, 2.0, 3.0) == OUTSIDE
    assert d.classify_cell(0.5, 1.5, -0.5, 0.5) == STRADDLE
    # cell containing the whole disk straddles its boundary
    assert d.classify_cell(-2.0, 2.0, -2.0, 2.0) == STRADDLE


def test_classification_agrees_with_contains():
    rng = Mcg64(5)
    regions = [Disk(0.1, -0.2, 0.8), Annulus(0.0, 0.1, 0.4, 0.9),
               Rectangle(-0.5, -0.4, 0.6, 0.3)]
    for _ in range(200):
        x0 = 3.0 * rng.uniform() - 1.5
        y0 = 3.0 * rng.uniform() - 1.5
        x1 = x0 + 0.02 + rng.uniform()
        y1 = y0 + 0.02 + rng.uniform()
        xs = x0 + (np.arange(12) + 0.5) * (x1 - x0) / 12
        ys = y0 + (np.arange(12) + 0.5) * (y1 - y0) / 12
        pts = (xs[None, :] + 1j * ys[:, None]).ravel()
        for region in regions:
            st = region.classify_cell(x0, x1, y0, y1)
            hits = region.contains(pts)
            if st == INSIDE:
                assert hits.all()
            elif st == OUTSIDE:
                assert not hits.any()


def test_annulus_cell_area_difference_of_disks():
    ann = Annulus(0.2, -0.1, 0.4, 0.9)
    cell = (-0.3, 0.8, -0.6, 0.5)
    expected = (disk_rect_area(0.2, -0.1, 0.9, *cell)
                - disk_rect_area(0.2, -0.1, 0.4, *cell))
    np.testing.assert_allclose(ann.cell_area(*cell), expected, rtol=1e-14)


def test_annulus_full_area():
    ann = Annulus(0.0, 0.0, 0.5, 1.0)
    np.testing.assert_allclose(ann.cell_area(-2, 2, -2, 2), ann.area, rtol=1e-13)
    np.testing.assert_allclose(ann.area, math.pi * 0.75, rtol=1e-14)


def test_disk_ray_crossings():
    d = Disk(0.0, 0.0, 1.0)
    # ray from the origin along +x crosses the circle once, at t = 1
    ts = d.ray_crossings(0.0, 0.0, 1.0, 0.0)
    ts = [t for t in ts if t > 0]
    np.testing.assert_allclose(sorted(ts), [1.0], atol=1e-14)
    # ray from (-2, 0): crossings at t = 1 and t = 3
    ts = [t for t in d.ray_crossings(-2.0, 0.0, 1.0, 0.0) if t > 0]
    np.testing.assert_allclose(sorted(ts), [1.0, 3.0], atol=1e-13)


def test_boundary_distance():
    d = Disk(0.0, 0.0, 1.0)
    np.testing.assert_allclose(d.boundary_distance(0.25, 0.0), 0.75)
    np.testing.assert_allclose(d.boundary_distance(2.0, 0.0), 1.0)
    ann = Annulus(0.0, 0.0, 0.5, 1.0)
    np.testing.assert_allclose(ann.boundary_distance(0.7, 0.0), 0.2)


def test_rectangle_contains_and_classify():
    r = Rectangle(0.0, 0.0, 1.0, 2.0)
    assert r.contains(0.5 + 1.0j)
    assert not r.contains(1.5 + 1.0j)
    assert r.classify_cell(0.2, 0.8, 0.5, 1.5) == INSIDE
    assert r.classify_cell(3.0, 4.0, 0.0, 1.0) == OUTSIDE
    assert r.classify_cell(0.5, 1.5, 0.5, 1.5) == STRADDLE
    np.testing.assert_allclose(r.cell_area(0.5, 1.5, -0.5, 0.5), 0.25)


def test_within_disc():
    assert Disk(0.0, 0.0, 1.0).within_disc(0.0, 0.0, 1.0)
    assert not Disk(0.5, 0.0, 0.6).within_disc(0.0, 0.0, 1.0)
    assert Annulus(0.1, 0.0, 0.2, 0.5).within_disc(0.0, 0.0, 0.7)


def _scalar_disk_rect_area(cx, cy, r, x0, x1, y0, y1):
    """Reference: the disc-rectangle area in plain Python float arithmetic."""
    if r <= 0.0:
        return 0.0
    lo, hi = max(x0, cx - r), min(x1, cx + r)
    if lo >= hi:
        return 0.0

    def prim(x):
        t = min(1.0, max(-1.0, (x - cx) / r))
        return 0.5 * (r * r * math.asin(t) + (x - cx) * math.sqrt(max(r * r - (x - cx) ** 2, 0.0)))

    xs = [lo, hi]
    for yb in (y0 - cy, y1 - cy):
        if abs(yb) < r:
            d = math.sqrt(r * r - yb * yb)
            xs += [x for x in (cx - d, cx + d) if lo < x < hi]
    xs.sort()
    total = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        if b - a <= 0.0:
            continue
        s = math.sqrt(max(r * r - (0.5 * (a + b) - cx) ** 2, 0.0))
        if min(cy + s, y1) <= max(cy - s, y0):
            continue
        upper = cy * (b - a) + (prim(b) - prim(a)) if cy + s < y1 else y1 * (b - a)
        lower = cy * (b - a) - (prim(b) - prim(a)) if cy - s > y0 else y0 * (b - a)
        total += upper - lower
    return max(total, 0.0)


def _scalar_disk_classify(cx, cy, r, x0, x1, y0, y1):
    """Reference: a disc's cell classification in plain Python floats."""
    ndx, ndy = max(x0 - cx, 0.0, cx - x1), max(y0 - cy, 0.0, cy - y1)
    if ndx * ndx + ndy * ndy >= r * r:
        return OUTSIDE
    fdx, fdy = max(x1 - cx, cx - x0), max(y1 - cy, cy - y0)
    return INSIDE if fdx * fdx + fdy * fdy <= r * r else STRADDLE


def _edge_cells(cx, cy, r):
    """Cells tangent to the circle, cells on its extreme lines, cells
    through its centre, and zero-width overlaps with its bounding box."""
    out = []
    for a, b in ((cx - r, cx + r), (cx - r, cx), (cx + r, cx + 2 * r), (cx - 2 * r, cx - r),
                 (cx - 0.5 * r, cx + 0.25 * r), (cx - r, cx - r + 1e-12)):
        for c, d in ((cy - r, cy + r), (cy + r, cy + 2 * r), (cy - 0.3 * r, cy + 0.9 * r),
                     (cy, cy + r), (cy - 2 * r, cy - r)):
            out.append((a, b, c, d))
    return out


def _cells(rng, n):
    out = []
    for _ in range(n):
        x0 = 3.0 * rng.uniform() - 1.5
        y0 = 3.0 * rng.uniform() - 1.5
        size = 10.0 ** (-3.0 * rng.uniform())
        out.append((x0, x0 + size, y0, y0 + size * (0.5 + rng.uniform())))
    return out


def test_cell_queries_batch_equals_scalar_bit_for_bit():
    regions = [Disk(0.1, -0.2, 0.8), Disk(0.25, 0.0, 0.0625), Annulus(0.0, 0.1, 0.4, 0.9),
               Annulus(-0.3, 0.2, 0.0, 0.45), Rectangle(-0.5, -0.4, 0.6, 0.3)]
    cells = _cells(Mcg64(17), 400)
    for region in regions:
        if isinstance(region, Rectangle):
            edges = [(region.x1, region.x1 + 0.1, 0.0, 0.1), (region.x0 - 0.1, region.x0, -0.4, 0.3),
                     (0.0, 0.1, region.y1, region.y1 + 0.2), (region.x0, region.x1, region.y0, region.y1)]
        else:
            rr = [region.r] if isinstance(region, Disk) else [region.r_inner, region.r_outer]
            edges = [c for r in rr for c in _edge_cells(region.cx, region.cy, r)]
        batch = cells + edges
        x0, x1, y0, y1 = (np.array(v) for v in zip(*batch))
        kinds = region.classify_cell(x0, x1, y0, y1)
        areas = region.cell_area(x0, x1, y0, y1)
        assert kinds.shape == areas.shape == (len(batch),)
        if isinstance(region, Disk):
            assert kinds.tolist() == [_scalar_disk_classify(region.cx, region.cy, region.r, *c)
                                      for c in batch]
        for k, cell in enumerate(batch):
            assert kinds[k] == region.classify_cell(*cell)
            assert areas[k].tobytes() == np.asarray(region.cell_area(*cell)).tobytes()
            assert np.ndim(region.classify_cell(*cell)) == np.ndim(region.cell_area(*cell)) == 0


def _boundary_cells(rng, cx, cy, r, n):
    """n cells of random size and aspect centred near the circle |u-c| = r."""
    th, jit, size, asp = (rng.uniforms(n) for _ in range(4))
    xm = cx + r * np.cos(2.0 * math.pi * th) + 0.01 * (jit - 0.5)
    ym = cy + r * np.sin(2.0 * math.pi * th)
    hx = 0.5 * 10.0 ** (-4.0 * size)
    hy = hx * (0.5 + asp)
    return list(zip(xm - hx, xm + hx, ym - hy, ym + hy))


def test_disk_rect_area_batch_equals_scalar_reference():
    # the last bit depends on taking asin and the square as Python floats
    # do (math.asin, C pow); a few in 10^4 straddling cells show it
    rng = Mcg64(23)
    discs = [(0.1, -0.2, 0.8), (0.25, 0.0, 0.0625), (-0.3, 0.2, 0.0), (0.5, 0.5, 1e-9)]
    rows = []
    for cx, cy, r in discs:
        cells = _cells(rng, 200) + _edge_cells(cx, cy, r) + _boundary_cells(rng, cx, cy, r, 12000)
        rows += [(cx, cy, r) + cell for cell in cells]
    cols = [np.array(v) for v in zip(*rows)]
    got = disk_rect_area(*cols)
    want = np.array([_scalar_disk_rect_area(*row) for row in rows])
    assert got.tobytes() == want.tobytes()
    # scalars in, 0-d out; a scalar disc broadcasts over arrays of cells
    assert np.ndim(disk_rect_area(*rows[0])) == 0
    n = 300
    assert (disk_rect_area(*discs[0], *(c[:n] for c in cols[3:])).tobytes()
            == want[:n].tobytes())
