import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expkernel.density import (DensityConfigError, GridLayer, Mcg64,
                               annulus_density, clear_radius, disc_density,
                               eval_density, load_density_file, make_density,
                               parse_density_config, swiss_cheese,
                               unit_disc_density)
from expkernel.geometry import Annulus, Disk, Rectangle


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
])
def test_parse_density_config_rejects_bad_input(mutation):
    cfg = {"support_center": [0.0, 0.0], "support_radius": 1.0,
           "terms": [{"shape": {"kind": "disk", "center": [0.0, 0.0],
                                "radius": 1.0}, "coeff": 1.0}]}
    cfg.update(mutation)
    with pytest.raises(DensityConfigError):
        parse_density_config(cfg)


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
