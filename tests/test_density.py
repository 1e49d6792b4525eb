import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expkernel import density, suites
from expkernel.density import (DensityConfigError, GridLayer, Mcg64,
                               annulus_density, clear_radius, disc_density,
                               eval_density, jump_arrangement, load_density_file,
                               make_density, parse_density_config, sector_values,
                               swiss_cheese, unit_disc_density)
from expkernel.geometry import Annulus, Disk, Rectangle
from oracles import range_violation, ring_values


def test_mcg64_reference_stream():
    # golden values from the recurrence state <- 0xD1342543DE82EF95 * state
    rng = Mcg64(0)
    state = 1
    for _ in range(5):
        state = (0xD1342543DE82EF95 * state) % (1 << 64)
        expected = (state >> 11) * 2.0 ** -53
        assert rng.uniform() == expected


def test_mcg64_determinism_and_range():
    a = [Mcg64(42).uniform() for _ in range(1)]
    b = [Mcg64(42).uniform() for _ in range(1)]
    assert a == b
    rng = Mcg64(7)
    vals = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert len(set(vals)) == 1000


@pytest.mark.parametrize("n", [1, 2, 131072])
def test_mcg64_uniforms_match_scalar_stream(n):
    block, scalar = Mcg64(9), Mcg64(9)
    got = block.uniforms(n)
    want = np.array([scalar.uniform() for _ in range(n)])
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert block.state == scalar.state


def test_eval_density_piecewise_values():
    g = make_density(0j, 2.0, [(Disk(0.0, 0.0, 1.0), 0.6),
                               (Annulus(0.0, 0.0, 0.5, 1.5), 0.4)])
    pts = np.array([0.0 + 0j,        # disk only
                    0.75 + 0j,       # disk + annulus
                    1.25 + 0j,       # annulus only
                    1.75 + 0j])      # outside everything
    np.testing.assert_allclose(eval_density(g, pts), [0.6, 1.0, 0.4, 0.0])


def test_eval_density_scalar_matches_array():
    g = unit_disc_density()
    assert eval_density(g, 0.3 + 0.2j) == 1.0
    assert eval_density(g, 2.0 + 0j) == 0.0


def test_grid_layer_lookup_and_mass():
    values = np.array([[0.2, 0.4], [0.6, 0.8]])
    layer = GridLayer(-0.5, -0.5, 0.5, values)
    g = make_density(0j, 1.0, [], layer)
    # cell (ix=0, iy=0) covers [-0.5, 0) x [-0.5, 0)
    np.testing.assert_allclose(eval_density(g, -0.25 - 0.25j), 0.2)
    np.testing.assert_allclose(eval_density(g, 0.25 - 0.25j), 0.4)
    np.testing.assert_allclose(eval_density(g, -0.25 + 0.25j), 0.6)
    np.testing.assert_allclose(eval_density(g, 0.25 + 0.25j), 0.8)
    assert eval_density(g, 0.9 + 0.9j) == 0.0
    np.testing.assert_allclose(layer.cell_mass(-0.5, 0.5, -0.5, 0.5),
                               0.25 * (0.2 + 0.4 + 0.6 + 0.8), rtol=1e-14)


def test_validate_rejects_out_of_range_density():
    with pytest.raises(DensityConfigError):
        make_density(0j, 2.0, [(Disk(0.0, 0.0, 1.0), 0.7),
                               (Disk(0.2, 0.0, 0.5), 0.7)])
    with pytest.raises(DensityConfigError):
        make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), -0.1)])


def test_validate_rejects_thin_lens():
    # g = 2 on a lens 1e-4 wide, thinner than a dense sample's spacing
    with pytest.raises(DensityConfigError, match="out of range"):
        make_density(0.5, 1.0, [(Disk(0.0, 0.0, 0.5), 1.0), (Disk(0.9999, 0.0, 0.5), 1.0)])


@pytest.mark.parametrize("r", [0.5, 0.3, 0.1])
def test_validate_accepts_externally_tangent_discs(r):
    # g = 2 only at the touching point, and no sample lands there
    g = make_density(r, 2.0 * r, [(Disk(0.0, 0.0, r), 1.0), (Disk(2.0 * r, 0.0, r), 1.0)])
    assert eval_density(g, complex(r, 0.0)) == 2.0
    samples = jump_arrangement(g).face_samples()
    assert np.max(eval_density(g, samples)) == 1.0
    assert np.min(eval_density(g, samples)) == 0.0


@pytest.mark.parametrize("second", [
    Disk(5e-15, 0.0, 0.5), Disk(0.0, 0.0, 0.5 + 5e-15), Disk(5e-15, 0.0, 0.5 + 5e-15),
], ids=["offset", "concentric", "tangent_inside"])
def test_validate_rejects_nearly_coincident_discs(second):
    # g = 2 on almost the whole disc; the two circles lie a few rounding
    # units apart, so the faces between them are slivers
    with pytest.raises(DensityConfigError, match="out of range"):
        make_density(0j, 1.0, [(Disk(0.0, 0.0, 0.5), 1.0), (second, 1.0)])


def test_validation_counts_grid_lines_only_under_regions(monkeypatch):
    points = []

    def counted(g, u):
        points.append(np.size(u))
        return eval_density(g, u)

    monkeypatch.setattr(density, "eval_density", counted)
    grid = GridLayer(-0.5, -0.5, 1.0 / 64, np.full((64, 64), 0.5))
    make_density(0j, 1.0, [], grid)
    assert sum(points) == 0
    make_density(0j, 1.0, [(Rectangle(0.01, 0.01, 0.2, 0.2), 0.5)], grid)
    assert 0 < sum(points) < 1000
    with pytest.raises(DensityConfigError):
        make_density(0j, 1.0, [(Rectangle(0.01, 0.01, 0.2, 0.2), 0.6)], grid)


def test_grid_validation_rays_grow_with_the_straddled_cells(monkeypatch):
    # a grid cell that no region curve crosses is sampled at its centre, so
    # the rays of the face samples grow with the n cells the circle crosses,
    # not with all n^2 cells under the disc
    rays = []
    first_crossing = density.JumpArrangement._first_crossing

    def counted(self, p, n):
        rays.append(p.size)
        return first_crossing(self, p, n)

    monkeypatch.setattr(density.JumpArrangement, "_first_crossing", counted)
    counts = []
    for n in (64, 256):
        rays.clear()
        grid = GridLayer(-0.75, -0.75, 1.5 / n, np.full((n, n), 0.25))
        make_density(0j, 1.1, [(Disk(0.0, 0.0, 0.7), 0.5)], grid)
        counts.append(sum(rays))
    assert 0 < counts[1] <= 6 * counts[0]


def test_validate_grid_cells_no_curve_crosses():
    # a cell inside the disc is checked at its centre; the face between the
    # grid and the disc's circle by the samples of the circle
    values = np.full((16, 16), 0.4)
    make_density(0j, 1.0, [(Disk(0.0, 0.0, 0.9), 0.5)], GridLayer(-0.5, -0.5, 1 / 16, values))
    values[8, 8] = 0.6
    with pytest.raises(DensityConfigError, match="out of range"):
        make_density(0j, 1.0, [(Disk(0.0, 0.0, 0.9), 0.5)], GridLayer(-0.5, -0.5, 1 / 16, values))
    full = GridLayer(-0.5, -0.5, 1 / 16, np.full((16, 16), 0.5))
    with pytest.raises(DensityConfigError, match="out of range"):
        make_density(0j, 1.0, [(Disk(0.0, 0.0, 0.95), -0.5)], full)


def test_validate_rectangle_edge_on_grid_line():
    # the rectangle's left edge lies on the grid line x = 0, its top and
    # bottom on y = +-0.25; where it touches the grid only along x = 0.5,
    # g = 2 on that line alone
    grid = GridLayer(-0.5, -0.5, 0.25, np.full((4, 4), 0.5))
    make_density(0j, 1.0, [(Rectangle(0.0, -0.25, 0.7, 0.25), 0.5)], grid)
    with pytest.raises(DensityConfigError):
        make_density(0j, 1.0, [(Rectangle(0.0, -0.25, 0.7, 0.25), 0.6)], grid)
    full = GridLayer(-0.5, -0.5, 0.25, np.ones((4, 4)))
    make_density(0j, 1.0, [(Rectangle(0.5, -0.25, 0.7, 0.25), 1.0)], full)


def test_validate_rejects_sliver_overlap_of_grid_cell():
    # a 1e-5 overlap with the grid's last column, far below the 2R/256
    # spacing of a dense sample
    grid = GridLayer(-0.5, -0.5, 0.25, np.full((4, 4), 0.8))
    make_density(0j, 1.0, [(Rectangle(0.5, -0.25, 0.7, 0.25), 0.5)], grid)
    with pytest.raises(DensityConfigError):
        make_density(0j, 1.0, [(Rectangle(0.5 - 1e-5, -0.25, 0.7, 0.25), 0.5)], grid)


def test_validate_hole_on_annulus_inner_circle():
    # the disc's circle is the annulus's inner circle: one carrier
    c = 0.1 + 0.05j
    ring = (Annulus(c.real, c.imag, 0.35, 0.8), 1.0)
    g = make_density(c, 0.8, [ring, (Disk(c.real, c.imag, 0.35), 0.5)])
    assert len(jump_arrangement(g).circles) == 2
    make_density(c, 0.8, [ring, (Disk(c.real, c.imag, 0.35), 1.0)])
    with pytest.raises(DensityConfigError):
        make_density(c, 0.8, [ring, (Disk(c.real, c.imag, 0.35), -0.5)])
    with pytest.raises(DensityConfigError):
        make_density(c, 0.8, [ring, (Disk(c.real, c.imag, 0.5), 0.5)])


def test_library_densities_are_accepted():
    # make_density validates every one of them
    assert len(suites.bound_fixtures(200)) == 200
    for g1, g2, _, _, scale, shift in suites.property_fixtures(50):
        suites.combined_density(g1, g2)
        suites.scaled_density(g1, scale, shift)
    assert len(suites.swiss_fixtures(10)) == 10


def test_swiss_cheese_validation_evaluates_few_points(monkeypatch):
    points = []

    def counted(g, u):
        points.append(np.size(u))
        return eval_density(g, u)

    monkeypatch.setattr(density, "eval_density", counted)
    swiss_cheese(0, 4)
    assert 0 < sum(points) < 1000


_coord = st.sampled_from([-0.5, -0.25, 0.0, 0.25]) | st.floats(-0.6, 0.3)
_coeff = st.sampled_from([1.0, 0.5, 0.25, -0.25, -0.5, -1.0]) | st.floats(-1.0, 1.0)
_region = st.one_of(
    st.builds(Disk, st.floats(-0.4, 0.4), st.floats(-0.4, 0.4), st.floats(0.05, 0.4)),
    st.builds(lambda x, y, r, t: Annulus(x, y, t * r, r), st.floats(-0.4, 0.4),
              st.floats(-0.4, 0.4), st.floats(0.1, 0.4), st.floats(0.0, 0.9)),
    st.builds(lambda x, y, w, h: Rectangle(x, y, x + w, y + h), _coord, _coord,
              st.sampled_from([0.25, 0.5]) | st.floats(0.01, 0.3),
              st.sampled_from([0.25, 0.5]) | st.floats(0.01, 0.3)))
_grid = st.none() | st.builds(
    lambda x, y, s, rows: GridLayer(x, y, s, np.array(rows)),
    st.sampled_from([-0.5, -0.25]) | st.floats(-0.6, -0.2),
    st.sampled_from([-0.5, -0.25]) | st.floats(-0.6, -0.2),
    st.sampled_from([0.25]) | st.floats(0.05, 0.2),
    st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                      min_size=3, max_size=3), min_size=1, max_size=3))


@given(terms=st.lists(st.tuples(_region, _coeff), min_size=1, max_size=4), grid=_grid)
@settings(max_examples=80, deadline=None)
# a subnormal centre gives piece normals with subnormal components, whose
# crossing distances overflow
@example(terms=[(Disk(0.0, 0.0, 0.25), 1.0), (Disk(0.0, 0.0, 0.25), 1.0),
                (Disk(0.0, -2.225073858507e-311, 0.25), 1.0),
                (Rectangle(-0.25, -0.5, 0.25, 0.0), 1.0)], grid=None)
def test_dense_sampler_finds_no_violation_in_accepted_specs(terms, grid):
    try:
        g = make_density(0j, 1.0, terms, grid)
    except DensityConfigError:
        return
    assert range_violation(g) is None


def _on_a_curve(g, data):
    """A point drawn on a circle of g, or at a vertex or on a line of one of
    its lattices."""
    circles, lattices = g.curves
    k = data.draw(st.integers(0, len(circles) + len(lattices) - 1))
    t = data.draw(st.floats(0.0, 1.0))
    if k < len(circles):
        cx, cy, r, _ = circles[k]
        return complex(cx + r * math.cos(2.0 * math.pi * t), cy + r * math.sin(2.0 * math.pi * t))
    xs, ys, _ = lattices[k - len(circles)]
    i, j = data.draw(st.integers(0, len(xs) - 2)), data.draw(st.integers(0, len(ys) - 2))
    where = data.draw(st.sampled_from(["vertex", "vertical", "horizontal"]))
    x = xs[i] + t * (xs[i + 1] - xs[i]) if where == "horizontal" else xs[i]
    y = ys[j] + t * (ys[j + 1] - ys[j]) if where == "vertical" else ys[j]
    return complex(x, y)


@given(terms=st.lists(st.tuples(_region, _coeff), min_size=1, max_size=4), grid=_grid,
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_sector_values_are_the_values_on_a_small_ring(terms, grid, data):
    try:
        g = make_density(0j, 1.0, terms, grid)
    except DensityConfigError:
        assume(False)
    w = _on_a_curve(g, data)
    arrangement = g.arrangement
    eta, rho = arrangement.eta, 1e-7
    # every curve passes through w or keeps well clear of the ring
    near = np.append(arrangement.distances(w)[0], abs(abs(w) - 1.0))
    assume(np.all((near <= eta) | (near >= 1e-4)))
    # no horn and no sector narrower than a few ring steps: the tangents at
    # w of distinct curves through it differ by at least 0.01 (mod pi), and
    # the circles through w are much wider than the ring
    circles = np.vstack((arrangement.circles, (0.0, 0.0, 1.0)))
    through = circles[np.abs(np.abs(w - circles[:, 0] - 1j * circles[:, 1]) - circles[:, 2])
                      <= eta]
    assume(np.all(through[:, 2] >= 1e-4))
    tangents = {float(np.angle(w - c - 1j * d) + 0.5 * math.pi) % math.pi for c, d, _ in through}
    for axis, cs, lo, hi in arrangement.combs:
        a, b = (w.real, w.imag) if axis == 0 else (w.imag, w.real)
        if np.abs(cs - a).min() <= eta and lo - eta <= b <= hi + eta:
            tangents.add(0.5 * math.pi if axis == 0 else 0.0)
    ordered = sorted(tangents)
    gaps = np.diff(ordered + [ordered[0] + math.pi])
    assume(np.all(gaps >= 0.01))
    sectors = set(sector_values(g, w).tolist())
    ring = ring_values(g, w, rho, 4096)
    # the sectors sum g's jumps exactly, the ring in term order
    assert all(min(abs(a - b) for b in ring) <= 1e-12 for a in sectors), (w, sectors, ring)
    assert all(min(abs(a - b) for a in sectors) <= 1e-12 for b in ring), (w, sectors, ring)


def test_sector_values_sum_the_jumps_exactly():
    # the annulus's rows -0.3 and +0.3 fall between the disc's 0.1 and the
    # hole's -0.1; summed in row order they would leave 2.8e-17, which
    # reads as g > 0 and a divergent diagonal
    g = make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), 0.1), (Annulus(0.0, 0.0, 0.5, 0.8), 0.3),
                               (Disk(0.0, 0.0, 0.2), -0.1), (Disk(0.05, 0.0, 0.1), 0.0)])
    assert sector_values(g, 0.15 + 0j).tolist() == [0.0, 0.0]


def test_validate_rejects_region_outside_support():
    with pytest.raises(DensityConfigError):
        make_density(0j, 1.0, [(Disk(0.8, 0.0, 0.5), 1.0)])


def test_clear_radius():
    g = unit_disc_density()
    np.testing.assert_allclose(clear_radius(g, 2.0 + 0j), 1.0)
    assert clear_radius(g, 0.5 + 0j) == 0.0
    hole = make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), 1.0),
                                  (Disk(0.0, 0.0, 0.25), -1.0)])
    np.testing.assert_allclose(clear_radius(hole, 0j), 0.25)


def test_swiss_cheese_reproducible_and_valid():
    g1 = swiss_cheese(3, 4)
    g2 = swiss_cheese(3, 4)
    assert g1.terms == g2.terms
    assert len(g1.terms) == 5  # unit disc plus four holes
    disc, coeff = g1.terms[0]
    assert coeff == 1.0 and disc.r == 1.0
    holes = [(r, c) for r, c in g1.terms[1:]]
    for r, c in holes:
        assert c == -1.0
        assert math.hypot(r.cx, r.cy) + r.r < 1.0
    for i, (a, _) in enumerate(holes):
        for b, _ in holes[i + 1:]:
            assert math.hypot(a.cx - b.cx, a.cy - b.cy) > a.r + b.r
    # density is exactly zero inside each hole, one in the cheese
    for hole, _ in holes:
        assert eval_density(g1, complex(hole.cx, hole.cy)) == 0.0


def test_swiss_cheese_different_seeds_differ():
    assert swiss_cheese(0, 3).terms != swiss_cheese(1, 3).terms


def test_parse_density_config_round_trip():
    cfg = {
        "support_center": [0.0, 0.0],
        "support_radius": 2.0,
        "terms": [
            {"shape": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
             "coeff": 0.5},
            {"shape": {"kind": "annulus", "center": [0.1, 0.0],
                       "r_inner": 1.2, "r_outer": 1.6}, "coeff": 1.0},
        ],
    }
    g = parse_density_config(cfg)
    assert g.support_radius == 2.0
    assert isinstance(g.terms[0][0], Disk)
    assert isinstance(g.terms[1][0], Annulus)
    np.testing.assert_allclose(eval_density(g, 0.5 + 0j), 0.5)


def test_parse_density_config_rectangle():
    cfg = {
        "support_center": [0.0, 0.0],
        "support_radius": 2.0,
        "terms": [{"shape": {"kind": "rectangle", "corner_min": [-0.5, -0.5],
                             "corner_max": [0.5, 0.5]}, "coeff": 1.0}],
    }
    g = parse_density_config(cfg)
    assert isinstance(g.terms[0][0], Rectangle)
    assert eval_density(g, 0j) == 1.0


@pytest.mark.parametrize("mutation", [
    {"support_radius": -1.0},
    {"support_center": [0.0]},
    {"extra_key": 1},
    {"terms": [{"shape": {"kind": "blob", "center": [0, 0], "radius": 1},
                "coeff": 1}]},
    {"terms": [{"shape": {"kind": "disk", "center": [0, 0], "radius": 1}}]},
    {"terms": [{"shape": {"kind": "disk", "center": [0, 0], "radius": 1},
                "coeff": 1, "label": "x"}]},
    {"support_radius": 10 ** 400},
    {"grid": {"origin": [-0.5, -0.5], "spacing": 0.5, "values": [[0.25, 0.25], [0.25]]}},
    {"grid": {"origin": [-0.5, -0.5], "spacing": 0.5, "values": [0.25, 0.25]}},
])
def test_parse_density_config_rejects_bad_input(mutation):
    cfg = {"support_center": [0.0, 0.0], "support_radius": 1.0,
           "terms": [{"shape": {"kind": "disk", "center": [0.0, 0.0],
                                "radius": 1.0}, "coeff": 1.0}]}
    cfg.update(mutation)
    with pytest.raises(DensityConfigError):
        parse_density_config(cfg)


_DISK = {"kind": "disk", "center": [0.0, 0.0], "radius": 0.5}
_ANNULUS = {"kind": "annulus", "center": [0.0, 0.0], "r_inner": 0.2, "r_outer": 0.5}


def _config_with(field, value):
    """A valid config with one numeric field replaced by value."""
    shape = dict(_ANNULUS if field in ("r_inner", "r_outer") else _DISK)
    term = {"shape": shape, "coeff": 0.5}
    cfg = {"support_center": [0.0, 0.0], "support_radius": 1.0, "terms": [term],
           "grid": {"origin": [-0.5, -0.5], "spacing": 0.5, "values": [[0.25, 0.25]] * 2}}
    if field in ("radius", "r_inner", "r_outer"):
        shape[field] = value
    elif field == "coeff":
        term["coeff"] = value
    elif field in ("spacing", "values"):
        cfg["grid"][field] = [[value, 0.25]] * 2 if field == "values" else value
    elif field == "support_center":
        cfg["support_center"] = [value, 0.0]
    else:
        cfg[field] = value
    return cfg


_NUMBERS = {"radius": 0.5, "r_inner": 0.2, "r_outer": 0.5, "coeff": 0.5, "spacing": 0.5,
            "values": 0.25, "support_radius": 1, "support_center": 0}


@pytest.mark.parametrize("field", _NUMBERS)
def test_parse_density_config_takes_numbers(field):
    parse_density_config(_config_with(field, _NUMBERS[field]))


@pytest.mark.parametrize("value", ["abc", [1], None, "0.5", True],
                         ids=["str", "list", "null", "numeric-str", "bool"])
@pytest.mark.parametrize("field", _NUMBERS)
def test_parse_density_config_rejects_non_numbers(field, value):
    with pytest.raises(DensityConfigError, match="must be a number"):
        parse_density_config(_config_with(field, value))


def test_load_density_file(tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(json.dumps({
        "support_center": [0.0, 0.0], "support_radius": 1.0,
        "terms": [{"shape": {"kind": "disk", "center": [0.0, 0.0],
                             "radius": 1.0}, "coeff": 1.0}]}))
    g = load_density_file(str(path))
    assert eval_density(g, 0j) == 1.0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DensityConfigError):
        load_density_file(str(bad))


@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       x=st.floats(-1.5, 1.5), y=st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_density_range_property(seed, x, y):
    g = swiss_cheese(seed, 3)
    v = eval_density(g, complex(x, y))
    assert 0.0 <= v <= 1.0


@given(cx=st.floats(-0.3, 0.3), cy=st.floats(-0.3, 0.3),
       coeff=st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_disc_density_value_property(cx, cy, coeff):
    g = disc_density(complex(cx, cy), 0.5, coeff)
    assert eval_density(g, complex(cx, cy)) == coeff
    assert eval_density(g, complex(cx + 0.7, cy)) == 0.0


def test_annulus_density_profile():
    g = annulus_density(0j, 0.5, 1.0, 0.8)
    np.testing.assert_allclose(eval_density(g, 0.75 + 0j), 0.8)
    assert eval_density(g, 0.25 + 0j) == 0.0
    assert eval_density(g, 1.25 + 0j) == 0.0


def _scalar_cell_mass(layer, x0, x1, y0, y1):
    """Reference: the layer's mass over one rectangle in plain Python floats."""
    s = layer.spacing
    total = 0.0
    for j in range(max(math.floor((y0 - layer.origin_y) / s), 0),
                   min(math.ceil((y1 - layer.origin_y) / s), layer.ny)):
        cy0 = layer.origin_y + j * s
        h = min(y1, cy0 + s) - max(y0, cy0)
        for i in range(max(math.floor((x0 - layer.origin_x) / s), 0),
                       min(math.ceil((x1 - layer.origin_x) / s), layer.nx)):
            cx0 = layer.origin_x + i * s
            w = min(x1, cx0 + s) - max(x0, cx0)
            if h > 0.0 and w > 0.0:
                total += w * h * float(layer.values[j, i])
    return total


def test_grid_cell_mass_batch_equals_scalar_reference():
    # rectangles inside, across and beyond the layer, some on its lines
    values = np.array([[0.1, 0.3, 0.2], [0.4, 0.0, 0.6]])
    layer = GridLayer(-0.3, -0.2, 0.2, values)
    rng = Mcg64(9)
    cells = [(-0.3, 0.3, -0.2, 0.2), (-0.1, 0.1, 0.0, 0.2), (0.3, 0.5, 0.0, 0.1),
             (-0.5, -0.3, -0.4, 0.4), (-0.35, -0.05, -0.25, 0.05)]
    for _ in range(300):
        x0, y0 = rng.uniform() - 0.6, rng.uniform() - 0.5
        cells.append((x0, x0 + 0.6 * rng.uniform(), y0, y0 + 0.6 * rng.uniform()))
    got = layer.cell_mass(*(np.array(v) for v in zip(*cells)))
    want = np.array([_scalar_cell_mass(layer, *cell) for cell in cells])
    assert got.tobytes() == want.tobytes()
    assert np.ndim(layer.cell_mass(*cells[0])) == 0
    np.testing.assert_allclose(got[0], 0.04 * values.sum(), rtol=1e-15)
