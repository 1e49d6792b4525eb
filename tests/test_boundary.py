"""The boundary rule: the kernel exponent of eval_E and grid and the Cauchy
transform against closed forms and the quadtree, and grid rows against
single-point evaluations."""

import cmath
import math

import numpy as np
import pytest

from expkernel.cauchy import disc_transform
from expkernel.cli import main
from expkernel.density import GridLayer, annulus_density, disc_density, make_density, \
    swiss_cheese, unit_disc_density
from expkernel.geometry import Annulus, Disk, Rectangle
from expkernel.kernel import eval_E, eval_E_signed_discs, eval_E_unit_disc
from expkernel.quadrature import TolNotReached, boundary_cauchy_transform, boundary_log_kernel, \
    cauchy_transform, integrate_bi_singular

UNIT = unit_disc_density()
ANNULUS = annulus_density(0.1 + 0.05j, 0.35, 0.8)
ANNULUS_AS_DISCS = make_density(0j, 1.0, [(Disk(0.1, 0.05, 0.8), 1.0),
                                          (Disk(0.1, 0.05, 0.35), -1.0)])
SWISS = swiss_cheese(0, 4)
HOLE = SWISS.terms[1][0]
OFFSET = disc_density(0.45209002079133076 - 0.34896499087124677j, 0.7142942797202967)


def _closed_form(g, lam, w):
    if g is UNIT:
        return eval_E_unit_disc(lam, w)
    return eval_E_signed_discs(ANNULUS_AS_DISCS if g is ANNULUS else g, lam, w)


PANEL = {
    "inside": (UNIT, 0.3 + 0.2j, -0.4 + 0.1j),
    "outside": (UNIT, 1.5 + 1j, -2.0 + 0.3j),
    "lam_inside_w_outside": (UNIT, 0.5, 2.0),
    "lam_outside_w_inside": (UNIT, 2.0, 0.5 - 0.5j),
    "lam_on_circle": (UNIT, cmath.exp(2j), -0.5 + 2j),
    "lam_3e-4_inside_circle": (UNIT, 0.9997 * cmath.exp(1j), 1.5 - 0.5j),
    # lam 2.4e-4 inside the circle, w outside: a peak narrower than the first
    # intervals that both rules missed before the breaks were graded
    "offset_disc_near_circle": (OFFSET, 0.7553870138954943 - 0.995403345974452j,
                                1.0526240225234913 - 1.3893463653010292j),
    "w_on_circle": (UNIT, 0.3, 1j),
    "1e-7_apart": (UNIT, 0.3 + 0.2j, 0.3 + 0.2j + 1e-7),
    "1e-7_apart_outside": (UNIT, 1.3 + 0.2j, 1.3 + 0.2j + 1e-7j),
    "annulus_inside": (ANNULUS, 0.6, -0.5j),
    "annulus_hole": (ANNULUS, 0.1, 0.6j),
    "annulus_lam_on_inner_circle": (ANNULUS, 0.1 + 0.4j, 0.5),
    "swiss_grid_point": (SWISS, -1 / 3 - 1j / 3, 0j),
    "swiss_hole_centre": (SWISS, complex(HOLE.cx, HOLE.cy), 0.7j),
}


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-10])
@pytest.mark.parametrize("name", sorted(PANEL))
def test_estimate_bounds_closed_form_error(name, tol):
    g, lam, w = PANEL[name]
    ref = _closed_form(g, lam, w)
    v, e, n = boundary_log_kernel(g, w, [lam], tol)
    assert abs(cmath.log(cmath.exp(v[0]) / ref)) <= e[0]
    assert n[0] > 0
    assert math.pi * e[0] <= tol
    kv = eval_E(g, lam, w, tol)
    assert abs(kv.value - ref) <= kv.error_estimate


GRID_VALUES = np.array([[0.1, 0.3, 0.2, 0.5], [0.4, 0.0, 0.6, 0.2],
                        [0.3, 0.5, 0.1, 0.4], [0.2, 0.1, 0.5, 0.3]])
NO_CLOSED_FORM = {
    # the two densities on which the quadtree route of eval exited 3 at 1e-5
    "disc_and_annulus": (make_density(0j, 2.0, [(Disk(0.17, 0.23, 0.63), 0.49),
                                                (Annulus(0.12, 0.20, 0.38, 0.77), 0.50)]),
                         0.2 + 0.5j, -0.3 + 0.1j),
    "rectangle_and_grid": (make_density(0j, 1.0, [(Rectangle(-0.5, -0.3, 0.4, 0.2), 0.4)],
                                        GridLayer(-0.4, -0.4, 0.2, GRID_VALUES)),
                           0.15 - 0.25j, -0.35 + 0.05j),
}


@pytest.mark.parametrize("name", sorted(NO_CLOSED_FORM))
def test_boundary_route_agrees_with_quadtree(name):
    g, lam, w = NO_CLOSED_FORM[name]
    v, e, _ = boundary_log_kernel(g, w, [lam], 1e-6)
    assert math.pi * e[0] <= 1e-6
    try:
        q = integrate_bi_singular(g, w, lam, 1e-5)
        qv, qe = q.value, q.error_estimate
    except TolNotReached as exc:
        # the quadtree stops above 1e-5 on the disc and annulus; the integral
        # and estimate it carries still bound where it stopped
        qv, qe = -exc.value / math.pi, exc.error_estimate / math.pi
    assert abs(v[0] - qv) <= e[0] + qe


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-10])
@pytest.mark.parametrize("lam", [0j, 0.3 - 0.5j, cmath.exp(2j), 1.5 + 1j])
def test_cauchy_transform_estimate_bounds_unit_disc_error(lam, tol):
    v, e, n = boundary_cauchy_transform(UNIT, [lam], tol)
    assert abs(v[0] - disc_transform(0j, 1.0, lam)) <= e[0] <= tol / math.pi
    assert n[0] > 0


@pytest.mark.parametrize("lam", [0.15 - 0.25j, -0.5 + 0.1j, -0.5 - 0.3j, 0j],
                         ids=["interior", "edge", "corner", "grid_vertex"])
def test_cauchy_transform_agrees_with_quadtree(lam):
    g = NO_CLOSED_FORM["rectangle_and_grid"][0]
    v, e, _ = boundary_cauchy_transform(g, [lam], 1e-6)
    q = cauchy_transform(g, lam, 1e-5)
    assert abs(v[0] - q.value) <= e[0] + q.error_estimate


def test_lam_on_a_grid_vertex_agrees_with_quadtree():
    # a node that rounded onto the break at lam gave 0/0: nan, and no raise
    g, _, w = NO_CLOSED_FORM["rectangle_and_grid"]
    v, e, _ = boundary_log_kernel(g, w, [0j], 1e-7)
    q = integrate_bi_singular(g, w, 0j, 1e-5)
    assert abs(v[0] - q.value) <= e[0] + q.error_estimate


def test_grid_rows_match_single_point_eval(tmp_path, capsys):
    # swiss cheese exited 3 here on the quadtree; the lattice holds w itself
    # (a divergent diagonal) and points near the unit circle
    argv = ["grid", "swiss-cheese", "--w", "0,0", "--bounds", "-1,1,-1,1", "--n", "5"]
    outs = []
    for k in range(2):
        path = tmp_path / f"run{k}.csv"
        assert main(argv + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    rows = outs[0].decode("ascii").splitlines()
    assert rows[0] == "x,y,re_E,im_E,abs_E,err" and len(rows) == 26
    for row in rows[1:]:
        x, y, re_e, im_e, _, err = (float(t) for t in row.split(","))
        lam = complex(x, y)
        kv = eval_E(SWISS, lam, 0j)
        assert abs(complex(re_e, im_e) - kv.value) <= err + kv.error_estimate
        if lam != 0j:
            assert abs(complex(re_e, im_e) - eval_E_signed_discs(SWISS, lam, 0j)) <= err
