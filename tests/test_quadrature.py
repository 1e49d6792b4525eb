import cmath
import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from expkernel.cauchy import make_transform
from expkernel.density import (GridLayer, Mcg64, annulus_density, disc_density,
                               make_density, sector_values, swiss_cheese,
                               unit_disc_density)
from expkernel.geometry import Annulus, Disk, Rectangle, disk_rect_area
from expkernel import quadrature
from expkernel.kernel import (disc_imag_integral, disc_real_integral, eval_E, eval_E_disc,
                              mobius_imag_disc, mobius_real_disc)
from expkernel.quadrature import (InvalidPointError, TolNotReached,
                                  ToleranceError, cauchy_transform, disc_mass,
                                  integrate_bi_singular, integrate_diagonal,
                                  integrate_singular,
                                  radial_inverse_square_integral)
from oracles import (adaptive_1d, bi_singular_oracle, column_exact, midpoint_rect,
                     polar_patch, radial_kinks, ray_segments)

UNIT = unit_disc_density()


def test_plain_mass_single_disc():
    res = integrate_singular(disc_density(0.2 + 0.1j, 0.7), [], tol=1e-10)
    np.testing.assert_allclose(res.value.real, math.pi * 0.49, rtol=1e-9)
    assert abs(res.value.imag) < 1e-15


def test_plain_mass_annulus():
    res = integrate_singular(annulus_density(0j, 0.4, 0.9, 0.5), [], tol=1e-10)
    np.testing.assert_allclose(res.value.real, 0.5 * math.pi * (0.81 - 0.16),
                               rtol=1e-12)


def test_plain_mass_overlapping_curved_regions():
    # overlapping disk + annulus: cells crossed by both boundaries take the
    # sum of the two exact intersection areas; thin slivers must not be dropped
    g = make_density(0j, 2.0, [
        (Disk(0.17, 0.23, 0.63), 0.49),
        (Annulus(0.12, 0.20, 0.38, 0.77), 0.50),
    ])
    exact = 0.49 * math.pi * 0.63 ** 2 + 0.50 * math.pi * (0.77 ** 2 - 0.38 ** 2)
    res = integrate_singular(g, [], tol=1e-9)
    np.testing.assert_allclose(res.value.real, exact, rtol=0, atol=1e-9)
    assert res.error_estimate <= 1e-9 * (1 + 1e-9)


def test_overlapping_discs_reach_tolerance():
    # two overlapping discs with lam and w inside both: the exponent is
    # linear in g, so it is the coefficient-weighted sum of disc closed forms
    discs = [(-0.35 - 0.2j, 0.6, 0.4), (-0.4 - 0.1j, 0.55, 0.4)]
    g = make_density(0j, 1.5, [(Disk(c.real, c.imag, r), k) for c, r, k in discs])
    lam, w = -0.1j, -0.25 - 0.1j
    res = integrate_bi_singular(g, w, lam, 1e-5)
    exact = sum(k * cmath.log(eval_E_disc(c, r, lam, w)) for c, r, k in discs)
    assert abs(res.value - exact) <= res.error_estimate <= 1e-5 * (1 + 1e-9)


def test_bi_singular_against_oracle_interior_w():
    # w inside the support (polar oracle centers there), lam outside
    w, lam = 0.1 + 0.2j, 1.6 + 0.9j
    got = integrate_bi_singular(UNIT, w, lam, 1e-6).value
    ref = bi_singular_oracle(UNIT, w, lam)
    assert abs(got - ref) < 5e-4


def test_bi_singular_against_oracle_both_outside():
    g = annulus_density(0j, 0.4, 1.0)
    w, lam = 2.0 - 0.5j, 1.4 - 1.1j
    got = integrate_bi_singular(g, w, lam, 1e-6).value
    ref = bi_singular_oracle(g, w, lam)
    assert abs(got - ref) < 5e-4


def test_bi_singular_rejects_coincident_points():
    with pytest.raises(InvalidPointError):
        integrate_bi_singular(UNIT, 0.2 + 0j, 0.2 + 0j, 1e-6)


def test_non_finite_points_are_rejected():
    # the quadtree never converges around a nan or infinite point: it would
    # refine until memory runs out
    nan, inf = float("nan"), float("inf")
    calls = [
        lambda: eval_E(UNIT, nan, 0.0),
        lambda: eval_E(UNIT, 0.0, complex(0.0, inf)),
        lambda: eval_E(UNIT, inf, inf),
        lambda: integrate_singular(UNIT, [("recip", 0.1j)], 1e-6, attention=[complex(nan, 0.0)]),
        lambda: cauchy_transform(UNIT, -inf, 1e-6),
        lambda: integrate_diagonal(UNIT, complex(0.0, nan)),
        lambda: disc_mass(UNIT, nan, 0.5),
        lambda: disc_mass(UNIT, 0.0, nan),
        lambda: radial_inverse_square_integral(UNIT, inf, 0.1, 0.2),
    ]
    for call in calls:
        with pytest.raises(InvalidPointError, match="finite"):
            call()


def test_bi_singular_determinism():
    a = integrate_bi_singular(UNIT, 0.3 + 0.1j, -0.2 + 0.5j, 1e-6)
    b = integrate_bi_singular(UNIT, 0.3 + 0.1j, -0.2 + 0.5j, 1e-6)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_diagonal_dichotomy_unit_disc():
    for r in (0.0, 0.5, 0.9):
        dm = integrate_diagonal(UNIT, complex(r), 1e-6)
        assert dm.divergent
        assert type(dm.value) is float and type(dm.error_estimate) is float
    for r in (1.5, 2.0, 4.0):
        dm = integrate_diagonal(UNIT, complex(r), 1e-6)
        assert not dm.divergent
        assert type(dm.value) is float and type(dm.error_estimate) is float
        np.testing.assert_allclose(dm.value, -math.log(1.0 - 1.0 / r ** 2),
                                   rtol=0, atol=1e-6)


def test_diagonal_annulus_center_closed_form():
    # (1/pi) integral over {a <= |u| <= b} of |u|^-2 is 2 ln(b/a)
    g = annulus_density(0j, 0.5, 1.0)
    dm = integrate_diagonal(g, 0j, 1e-9)
    assert not dm.divergent
    assert type(dm.value) is float and type(dm.error_estimate) is float
    np.testing.assert_allclose(dm.value, 2.0 * math.log(2.0), rtol=1e-9)


def test_diagonal_scaled_density_still_divergent():
    # a density bounded away from 1 still diverges at its density points
    g = disc_density(0j, 1.0, 0.3)
    dm = integrate_diagonal(g, 0j, 1e-6)
    assert dm.divergent
    assert type(dm.value) is float and type(dm.error_estimate) is float


def test_diagonal_island_after_gap_divergent():
    # w sits on a tiny island far below the support radius, with a wide
    # empty gap around it: the inverse-square mass there diverges
    g = make_density(0j, 1.0, [(Disk(0.0, 0.0, 0.025), 1.0)])
    dm = integrate_diagonal(g, 0j, 1e-6)
    assert dm.divergent
    assert type(dm.value) is float and type(dm.error_estimate) is float


def test_diagonal_separated_island_value():
    # support disjoint from w: finite, and all of the island counts
    g = make_density(0j, 1.0, [(Disk(0.4, 0.0, 0.1), 1.0)])
    dm = integrate_diagonal(g, 0j, 1e-6)
    assert not dm.divergent
    assert type(dm.value) is float and type(dm.error_estimate) is float

    def f(u):
        inside = np.abs(u - 0.4) <= 0.1
        safe = np.where(np.abs(u) < 1e-12, 1.0, u)
        return np.where(inside, 1.0 / np.abs(safe) ** 2, 0.0)

    want = midpoint_rect(f, 0.3, 0.5, -0.1, 0.1, n=1500) / math.pi
    np.testing.assert_allclose(dm.value, want, rtol=0, atol=1e-5)


def test_diagonal_estimate_bounds_error_outside_unit_disc():
    # closed form -ln(1 - 1/|w|^2)
    w = 1.5 + 0.2j
    dm = integrate_diagonal(UNIT, w, 1e-5)
    assert not dm.divergent
    assert type(dm.value) is float and type(dm.error_estimate) is float
    assert abs(dm.value + math.log(1.0 - 1.0 / abs(w) ** 2)) <= dm.error_estimate


def test_diagonal_estimate_bounds_error_offset_discs():
    # w outside a disc D(c, r) at |w - c| = k r: the value is -ln(1 - 1/k^2)
    rng = Mcg64(3)
    for _ in range(40):
        c = complex(2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0)
        r = 0.2 + rng.uniform()
        th = 2.0 * math.pi * rng.uniform()
        k = 1.1 + 0.7 * rng.uniform()
        w = c + k * r * complex(math.cos(th), math.sin(th))
        dm = integrate_diagonal(disc_density(c, r), w, 1e-4)
        assert not dm.divergent
        assert type(dm.value) is float and type(dm.error_estimate) is float
        err = abs(dm.value + math.log(1.0 - 1.0 / k ** 2))
        assert err <= dm.error_estimate, (c, r, w)


def test_disc_mass_lens_estimate_bounds_error():
    # a small disc centred on the unit circle covers a lens, not half a disc;
    # the closed lens area cancels terms, so allow a few ulps of each term
    rho = 1.0 / 64.0
    mass, err = disc_mass(UNIT, 1.0 + 0j, rho, 1e-9)
    assert type(mass) is float and type(err) is float
    terms = (rho * rho * math.acos(rho / 2.0), 2.0 * math.asin(rho / 2.0),
             -0.5 * rho * math.sqrt(4.0 - rho * rho))
    rounding = 8.0 * np.finfo(float).eps * sum(abs(t) for t in terms)
    assert abs(mass - sum(terms)) <= err + rounding


RECT = (-0.5, -0.3, 0.4, 0.2)
GRID_VALUES = np.array([[0.1, 0.3, 0.2, 0.5], [0.4, 0.0, 0.6, 0.2],
                        [0.3, 0.5, 0.1, 0.4], [0.2, 0.1, 0.5, 0.3]])


@pytest.mark.parametrize("c", [0.405 + 0j, 0.405 + 0.205j])
def test_disc_mass_rectangle_edge_and_corner_estimate_bounds_error(c):
    # a small disc across a rectangle's edge or corner: the rule breaks
    # the edges where they meet the disc's circle
    rho = 1.0 / 64.0
    g = make_density(0j, 1.0, [(Rectangle(*RECT), 1.0)])
    mass, err = disc_mass(g, c, rho, 1e-9)
    assert type(mass) is float and type(err) is float
    exact = disk_rect_area(c.real, c.imag, rho, RECT[0], RECT[2], RECT[1], RECT[3])
    assert abs(mass - exact) <= err


def test_disc_mass_grid_vertex_estimate_bounds_error():
    # a small disc over a grid vertex, centred on a grid line; then centred
    # on the vertex -0.2-0.2j, where it is four quarter discs and the
    # estimate must cover the rounding of the nodes (40-digit reference)
    rho, c = 1.0 / 64.0, 0.005 + 0j
    g = make_density(0j, 1.0, [], GridLayer(-0.4, -0.4, 0.2, GRID_VALUES))
    mass, err = disc_mass(g, c, rho, 1e-9)
    assert type(mass) is float and type(err) is float
    exact = sum(GRID_VALUES[j, i] * disk_rect_area(c.real, c.imag, rho,
                                                   -0.4 + 0.2 * i, -0.2 + 0.2 * i,
                                                   -0.4 + 0.2 * j, -0.2 + 0.2 * j)
                for j in range(4) for i in range(4))
    assert abs(mass - exact) <= err
    mass, err = disc_mass(g, -0.2 - 0.2j, rho, 1e-9)
    assert type(mass) is float and type(err) is float
    with localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal("3.141592653589793238462643383279502884197")
        quarters = sum(Decimal(v) for v in GRID_VALUES[:2, :2].ravel())
        assert abs(Decimal(mass) - pi * Decimal(rho) ** 2 / 4 * quarters) <= Decimal(err)


SWISS = swiss_cheese(0, 4)
HOLE = SWISS.terms[-1][0]  # the smallest; the quadtree's budget runs out at 1e-6 in larger ones


@pytest.mark.parametrize("g, w", [
    (disc_density(0.3 - 0.2j, 0.5), 1.1 + 0.4j),
    (make_density(0j, 1.0, [(Rectangle(*RECT), 1.0)]), 0.7 - 0.5j),
    (make_density(0j, 1.0, [], GridLayer(-0.4, -0.4, 0.2, GRID_VALUES)), -0.1 - 0.1j),
    (SWISS, complex(HOLE.cx, HOLE.cy)),
    # a Gauss node of the radial rule rounds onto the end of the last curve
    (make_density(0j, 1, [(Annulus(0, 0, 0.25, 0.5), 0.0), (Rectangle(
        -0.0074156945879640945, 0.12129215270601795, 0.37870784729398205,
        0.5074156945879641), 0.5)]), -0.010395790089745735 + 0.8408020520388497j),
], ids=["offset_disc", "rectangle", "grid_zero_cell", "hole", "node_on_last_end"])
def test_diagonal_matches_bi_singular_where_g_vanishes(g, w):
    # where g vanishes near w, the quadtree integrates the bounded diagonal
    # integrand: an independent route to the radial rule
    dm = integrate_diagonal(g, w, 1e-6)
    assert not dm.divergent
    res = integrate_bi_singular(g, w, w, 1e-6)
    assert abs(dm.value + res.value.real) <= dm.error_estimate + res.error_estimate


def _no_radial_rule(*args, **kwargs):
    raise AssertionError("the divergence decision took the radial rule")


_RING = annulus_density(0.1 + 0.05j, 0.35, 0.8)
_ON_CIRCLE = complex(math.cos(1.0), math.sin(1.0))


@pytest.mark.parametrize("g, w", [
    (UNIT, 0.3 - 0.2j),
    (UNIT, 1.0 + 0j),
    (UNIT, -1j),
    (make_density(0j, 1.0, [(Rectangle(*RECT), 1.0)]), complex(RECT[0], RECT[1])),
    (make_density(0j, 1.0, [(Rectangle(*RECT), 1.0)]), complex(RECT[2], 0.0)),
    (make_density(0j, 1.0, [], GridLayer(-0.4, -0.4, 0.2, GRID_VALUES)), -0.2 + 0.0j),
    (SWISS, complex(HOLE.cx, HOLE.cy) + HOLE.r * _ON_CIRCLE),
    (SWISS, complex(HOLE.cx + HOLE.r, HOLE.cy)),
    (_RING, 0.1 + 0.05j + 0.35 * _ON_CIRCLE),
    (_RING, complex(0.1 - 0.35, 0.05)),
    (make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), 1.0), (Disk(0.0, 0.0, 1.0 - 5e-15), 0.0)]),
     1.0 + 0j),
    (make_density(0j, 1.0, [(Disk(0.0, 0.0, 0.25), 0.0), (Annulus(0.0, 0.0, 3.7e-18, 0.25), 1.0)]),
     complex(3.691231159390688e-18, 0.0)),
], ids=["interior", "unit_circle", "unit_circle_i", "rectangle_corner", "rectangle_edge",
        "grid_vertex", "hole_circle", "hole_circle_axis", "annulus_inner", "annulus_inner_axis",
        "circle_beside_circle", "tiny_circle"])
def test_diagonal_divergence_decided_exactly(g, w, monkeypatch):
    # g > 0 on a sector at w of positive opening: nothing is integrated
    monkeypatch.setattr(quadrature, "_radial_rule", _no_radial_rule)
    dm = integrate_diagonal(g, w, 1e-6)
    assert dm == quadrature.DiagonalMass(True, math.inf, 0.0, 0)
    assert type(dm.value) is float and type(dm.error_estimate) is float


HORN = make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), 1.0), (Disk(-0.1, 0.0, 0.9), -1.0)])


def test_sector_values():
    # the quarter inside a rectangle corner and the three outside it; the
    # two sides of the unit circle; a horn between tangent circles has no
    # sector of its own
    rect = make_density(0j, 1.0, [(Rectangle(*RECT), 1.0)])
    assert sorted(sector_values(rect, complex(RECT[0], RECT[1]))) == [0.0, 1.0]
    assert sorted(sector_values(UNIT, 1j)) == [0.0, 1.0]
    assert list(sector_values(UNIT, 0.5 + 0j)) == [1.0]
    assert list(sector_values(HORN, -1.0 + 0j)) == [0.0, 0.0]


def test_diagonal_horn_at_tangency_is_finite():
    # g = 1 between the unit circle and the circle of radius 0.9 tangent to
    # it inside at w = -1: a horn of zero opening at w, where the integral
    # is log(1/0.9); the estimate covers the excised disc about w
    for tol in (1e-4, 1e-6):
        dm = integrate_diagonal(HORN, -1.0 + 0j, tol)
        assert not dm.divergent and dm.octaves == 0
        assert abs(dm.value - math.log(1.0 / 0.9)) <= dm.error_estimate <= tol


def test_diagonal_horn_crossed_by_a_circle():
    # a circle of coefficient 0 crosses the horn at w = -1 at right angles:
    # g and the value log(1/0.9) are unchanged, and the crossing caps the
    # excised radius
    g = make_density(0j, 2.0, [*HORN.terms, (Disk(-1.0, -0.5, 0.5), 0.0)])
    for tol in (1e-4, 1e-6):
        dm = integrate_diagonal(g, -1.0 + 0j, tol)
        assert not dm.divergent
        assert abs(dm.value - math.log(1.0 / 0.9)) <= dm.error_estimate <= tol


def test_diagonal_horn_beyond_reach_raises_promptly():
    # the excised disc cannot shrink without end: a tolerance below its
    # bound raises, and soon
    start = time.perf_counter()
    with pytest.raises(TolNotReached):
        integrate_diagonal(HORN, -1.0 + 0j, 1e-10)
    assert time.perf_counter() - start < 2.0


def test_diagonal_horn_against_a_line_is_consistent():
    # a disc inside a square, tangent to its lower edge at w: horns between
    # a circle and a line; the values at two tolerances agree within their
    # estimates
    g = make_density(0j, 1.0, [(Rectangle(-0.5, -0.5, 0.5, 0.5), 1.0),
                               (Disk(0.0, -0.25, 0.25), -1.0)])
    a, b = (integrate_diagonal(g, -0.5j, tol) for tol in (1e-4, 1e-6))
    assert not a.divergent and not b.divergent
    assert a.error_estimate <= 1e-4 and b.error_estimate <= 1e-6
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


@pytest.mark.parametrize("k, tol", [(4, 1e-12), (6, 1e-10), (8, 1e-6), (10, 1e-6)])
def test_diagonal_estimate_bounds_error_near_the_circle(k, tol):
    # w = 1 + 10^-k just outside the unit disc: the value is
    # 2 log|w| - log((|w| - 1)(|w| + 1)), and w - 1 is exact
    w = 1.0 + 10.0 ** -k
    dm = integrate_diagonal(UNIT, w, tol)
    assert not dm.divergent
    exact = 2.0 * math.log(w) - math.log((w - 1.0) * (w + 1.0))
    assert abs(dm.value - exact) <= dm.error_estimate <= tol


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_diagonal_hole_centres_closed_form(tol):
    # w at the centre of a hole of radius rho in the unit disc, the other
    # holes D(c_k, r_k) outside it: log((1 - |w|^2) / rho^2)
    # + sum log(1 - r_k^2 / |w - c_k|^2)
    holes = [(complex(h.cx, h.cy), h.r) for h, _ in SWISS.terms[1:]]
    for k, (w, rho) in enumerate(holes):
        exact = math.log((1.0 - abs(w) ** 2) / rho ** 2) + sum(
            math.log(1.0 - r * r / abs(w - c) ** 2) for j, (c, r) in enumerate(holes) if j != k)
        dm = integrate_diagonal(SWISS, w, tol)
        assert abs(dm.value - exact) <= dm.error_estimate <= tol


def test_diagonal_too_near_the_circle_raises():
    with pytest.raises(TolNotReached):
        integrate_diagonal(UNIT, 1.0 + 1e-12, 1e-4)


def test_divergent_diagonal_kernel_takes_no_octave(monkeypatch):
    monkeypatch.setattr(quadrature, "_radial_rule", _no_radial_rule)
    assert eval_E(unit_disc_density(), 0.3, 0.3).value == 0.0


def test_radial_inverse_square_unit_disc():
    total, err = radial_inverse_square_integral(UNIT, 0j, 0.25, 1.0, 1e-9)
    assert type(total) is float and type(err) is float
    np.testing.assert_allclose(total, 2.0 * math.log(4.0), rtol=1e-8)
    assert err < 1e-8


def test_disc_mass_matches_area():
    mass, err = disc_mass(UNIT, 0j, 0.35, 1e-10)
    assert type(mass) is float and type(err) is float
    np.testing.assert_allclose(mass, math.pi * 0.35 ** 2, rtol=1e-9)
    mass, err = disc_mass(UNIT, 0.9 + 0j, 0.2, 1e-10)
    assert type(mass) is float and type(err) is float
    assert mass < math.pi * 0.2 ** 2  # partially outside the support


def test_cauchy_transform_unit_disc_closed_form():
    # unit-disc transform: -conj(lam) inside, -1/lam outside
    inside = cauchy_transform(UNIT, 0.5 + 0j, 1e-7)
    np.testing.assert_allclose(inside.value, -0.5, rtol=0, atol=5e-7)
    outside = cauchy_transform(UNIT, 2.0 + 0j, 1e-7)
    np.testing.assert_allclose(outside.value, -0.5, rtol=0, atol=5e-7)


def test_tolerance_validation():
    with pytest.raises(ToleranceError):
        integrate_bi_singular(UNIT, 0.1 + 0j, 0.5 + 0j, 0.0)
    with pytest.raises(ToleranceError):
        integrate_singular(UNIT, [], tol=-1e-6)


def test_budget_exhaustion_raises_tol_not_reached():
    with pytest.raises(TolNotReached) as info:
        integrate_bi_singular(UNIT, 0.1 + 0j, -0.3 + 0.2j, 1e-12,
                              budget=20_000)
    err = info.value
    assert err.value is not None
    assert err.error_estimate > 1e-12


def test_points_too_close_to_separate_raise():
    # 3e-8 apart, the two blocks overlap even at the depth limit; sharing one
    # block gave an exponent 1e-3 off under an estimate of 7e-5
    with pytest.raises(TolNotReached, match=r"singular points \(0\.3\+0\.20000003j\) "
                       r"and \(0\.3\+0\.2j\) are too close to separate: their "
                       r"blocks of side 2\.384e-07 overlap"):
        integrate_bi_singular(UNIT, 0.3 + 0.20000003j, 0.3 + 0.2j, 1e-3)


def _cell_point(engine, d, tx, ty):
    """The point at cell coordinates (tx, ty) of depth d of the root square."""
    h = 2.0 * engine.half / (1 << d)
    return complex(engine.cx - engine.half + tx * h, engine.cy - engine.half + ty * h)


def _block_layouts(engine):
    k, m = (1 << 23) + 12345, (1 << 22) + 777
    return {
        "one": [0.3 + 0.2j],
        # 2 cells apart at the depth limit: the blocks share an edge
        "two_touching": [_cell_point(engine, 24, k + 1.0, m + 1.0),
                         _cell_point(engine, 24, k + 3.0, m + 1.0)],
        # the first sits on the root square's right edge: its block is clamped
        "three_one_on_edge": [complex(engine.cx + engine.half, engine.cy + 0.1),
                              0.1 - 0.2j, -0.45 + 0.3j],
    }


@pytest.mark.parametrize("layout", ["one", "two_touching", "three_one_on_edge"])
def test_materialize_tiles_the_root_square_around_the_blocks(layout):
    engine = quadrature._Engine(disc_density(0.1 - 0.05j, 0.8), (), None, 0)
    engine.set_blocks(_block_layouts(engine)[layout])
    bd, bi, bj = (np.array(c) for c in zip(*engine.blocks))
    if layout == "two_touching":
        assert engine.blocks == [(24, bi[0], bj[0]), (24, bi[0] + 2, bj[0])]
    if layout == "three_one_on_edge":
        assert bi[0] == (1 << bd[0]) - 2
    n0 = 1 << quadrature._INIT_DEPTH
    d0 = np.full(n0 * n0, quadrature._INIT_DEPTH)
    x0, y0 = np.repeat(np.arange(n0), n0), np.tile(np.arange(n0), n0)
    d, x, y, src = engine._materialize(d0, x0, y0)
    # each kept cell lies in the input cell it names
    up = d - d0[src]
    assert np.all(up >= 0)
    assert np.array_equal(x >> up, x0[src]) and np.array_equal(y >> up, y0[src])
    # kept cells and the blocks' four cells, in integer units of the finest depth
    top = int(max(d.max(), bd.max()))
    sk, sb = 1 << (top - d), 1 << (top - bd)
    kept = np.stack((x * sk, (x + 1) * sk, y * sk, (y + 1) * sk), axis=1)
    blocks = np.stack((bi * sb, (bi + 2) * sb, bj * sb, (bj + 2) * sb), axis=1)

    def meet(a, b):
        return ((a[:, None, 0] < b[None, :, 1]) & (b[None, :, 0] < a[:, None, 1])
                & (a[:, None, 2] < b[None, :, 3]) & (b[None, :, 2] < a[:, None, 3]))

    assert not meet(kept, blocks).any()
    cells = np.concatenate((kept, blocks))
    assert np.count_nonzero(meet(cells, cells)) == len(cells)
    assert cells.min() == 0 and cells.max() == 1 << top
    area = (cells[:, 1] - cells[:, 0]) * (cells[:, 3] - cells[:, 2])
    assert int(area.sum()) == 1 << (2 * top)


def test_error_estimates_are_honest():
    # observed error stays below the reported estimate on closed-form cases:
    # the unit disc, the alpha disc with w inside (closed real part) and the
    # beta disc (closed imaginary part), lam on the circle of both
    lam, w = 0.8 + 0.3j, -0.4 - 0.1j
    cases = [(UNIT, 0j, 0.5 + 0j, complex, math.log(0.25)),
             (UNIT, 3.0 + 0j, 2.0 + 0j, complex, math.log(5.0 / 6.0)),
             (mobius_real_disc(lam, w, -1.0 / 3.0).density(), w, lam, lambda z: z.real,
              disc_real_integral(-1.0 / 3.0)),
             (mobius_imag_disc(lam, w, 2.0).density(), w, lam, lambda z: z.imag,
              disc_imag_integral(2.0))]
    for g, w, lam, part, closed in cases:
        res = integrate_bi_singular(g, w, lam, 1e-5)
        assert abs(part(res.value) - closed) <= res.error_estimate + 1e-12
        assert res.error_estimate <= 1e-5 * (1 + 1e-9)


def _bi(w, lam):
    return [("recip_conj", w), ("recip", lam)]


PIN_CASES = {
    "disc": (lambda: disc_density(0.2 + 0.1j, 0.7), _bi(0.1 + 0.2j, 0.5 - 0.1j), 1e-5, {},
             "((2.419904083033338+0.05817101994153086j), 3.2178394912132703e-06, 28117, 620193)"),
    "swiss_cheese": (lambda: swiss_cheese(0, 4), _bi(-0.1 + 0.4j, 0.3 + 0.2j), 1e-4, {},
                     "((4.482349816945634+0.3098480169991916j), 3.821438001792632e-05, 21474, 469746)"),
    "disc_and_annulus": (
        lambda: make_density(0j, 2.0, [(Disk(0.17, 0.23, 0.63), 0.49),
                                       (Annulus(0.12, 0.20, 0.38, 0.77), 0.50)]),
        _bi(-0.3 + 0.1j, 0.2 + 0.5j), 1e-4, {},
        "((1.569844151996323+0.000787764161243959j), 2.5545249400651366e-05, 66244, 1595269)"),
    "rectangle_and_grid": (
        lambda: make_density(0j, 1.0, [(Rectangle(*RECT), 0.4)],
                             GridLayer(-0.4, -0.4, 0.2, GRID_VALUES)),
        _bi(-0.35 + 0.05j, 0.15 - 0.25j), 1e-4, {},
        "((-0.5227004573633132-0.7648772760412038j), 4.619206348519713e-05, 30610, 777473)"),
    "grid_only": (lambda: make_density(0j, 1.0, [], GridLayer(-0.4, -0.4, 0.2, GRID_VALUES)),
                  _bi(0.1 + 0.05j, -0.2 + 0.3j), 1e-4, {},
                  "((0.43320345533253346-0.34729589520359583j), 3.154820130664903e-05, 22428, 568312)"),
    "near_diagonal": (lambda: UNIT, _bi(0.3 + 0.2j, 0.30001 + 0.2j), 1e-4, {},
                      "((71.9003228674432+7.222089103142704e-06j), 1.370258468226524e-05, 15159, 354950)"),
    "multiplier": (lambda: UNIT, [("recip", 0.4 + 0.1j)], 1e-5,
                   {"multiplier": make_transform(disc_density(0.3 - 0.2j, 0.5))},
                   "((-0.12566370726556306-0.09424778110618273j), 3.4872328364088945e-06, 21105, 545548)"),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_engine_results_pinned(name):
    # value, estimate, cells and evaluations of the quadtree engine, pinned
    # to the last bit: the cases cover constant cells (25 evaluations each),
    # exact-mass cells crossed by one or two boundaries (one evaluation each),
    # grid-straddle cells, a block split one cell from the diagonal, and a
    # multiplier integrand.  The polar patches sum their Gauss nodes in a fixed
    # order, so the last bits do not depend on which BLAS dot kernel the CPU
    # selects; they do depend on the numpy and libm build, down to the loop
    # numpy picks for an array's shape, and on the CPU features that numpy's
    # arcsin and log dispatch on (with AVX-512, np.arcsin differs from
    # math.asin in the last bit on about 8% of arguments).
    density, factors, tol, kw, want = PIN_CASES[name]
    r = integrate_singular(density(), factors, tol, **kw)
    assert repr((r.value, r.error_estimate, r.cells, r.evaluations)) == want


# ---------------------------------------------------------------------------
# Array passes of the radial columns and the angular rule against the scalar
# loops they replace (tests/oracles.py)

MIXED = make_density(0j, 1.0, [(Disk(0.1, -0.05, 0.45), 0.3),
                               (Annulus(-0.2, 0.1, 0.2, 0.5), 0.2), (Rectangle(*RECT), 0.1)],
                     GridLayer(-0.4, -0.4, 0.2, GRID_VALUES * 0.3))


def _segment_rows(ray, a, b, gv, n):
    rows = [[] for _ in range(n)]
    for k, x0, x1, v in zip(ray.tolist(), a.tolist(), b.tolist(), gv.tolist()):
        rows[k].append((x0, x1, v))
    return rows


def _rays(origin, targets):
    """Unit directions from origin to each target, as the library's ray arrays."""
    d = np.array([complex(t) - origin for t in targets])
    return d.real / np.abs(d), d.imag / np.abs(d)


@pytest.mark.parametrize("origin,extra", [
    (0j, (1.0,)),  # the support circle's crossing along the axes
    (0.1 + 0.05j, (0.25,)),
    (-0.3 + 0.2j, ()),
    # the third radius is 1e-15 relative from the first but not the second
    (0.5 - 0.2j, (0.6, 0.6 * (1 + 6e-16), 0.6 * (1 + 1.2e-15))),
    (1.3 + 0.4j, ()),
])
def test_ray_segments_equal_scalar_reference_bit_for_bit(origin, extra):
    sx, sy = origin.real, origin.imag
    theta = 2.0 * math.pi * np.array(Mcg64(17).uniforms(400))
    ct, st = np.cos(theta), np.sin(theta)
    # tangent to the disc and to the annulus's circles, through a rectangle
    # corner and a grid vertex, along both axes and next to them
    special = []
    for cx, cy, r in ((0.1, -0.05, 0.45), (-0.2, 0.1, 0.2), (-0.2, 0.1, 0.5), (0.0, 0.0, 1.0)):
        d = complex(cx, cy) - origin
        if abs(d) > r:
            for sign in (1, -1):
                special.append(cmath.phase(d) + sign * math.asin(r / abs(d)))
    for corner in (RECT[0] + 1j * RECT[1], RECT[2] + 1j * RECT[3], 0.2 + 0.2j, -0.2 - 0.4j):
        if corner != origin:
            special.append(cmath.phase(corner - origin))
    special += [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 1e-15, 0.5 * math.pi + 1e-15]
    ct = np.concatenate((ct, np.cos(special), [0.0, -1.0, 5e-15]))
    st = np.concatenate((st, np.sin(special), [1.0, 0.0, -1.0]))
    vx, vy = _rays(origin, [0.2 + 0.2j, RECT[2] + 1j * RECT[1]])
    ct, st = np.concatenate((ct, vx)), np.concatenate((st, vy))
    for r_hi in (2.5, 0.3 + 0.9 * np.arange(ct.size) / ct.size):
        got = _segment_rows(*quadrature._ray_segments(MIXED, sx, sy, ct, st, r_hi, extra),
                            ct.size)
        his = np.broadcast_to(r_hi, ct.shape)
        for k in range(ct.size):
            want = ray_segments(MIXED, sx, sy, float(ct[k]), float(st[k]), 0.0, float(his[k]),
                                extra)
            assert got[k] == want, (k, ct[k], st[k])


def _close(got, want):
    return abs(got - want) <= 1e-13 * max(1.0, abs(want))


PATCH_CASES = [
    (UNIT, 0.3 + 0.2j, "recip", (("recip_conj", 0.31 + 0.23j),), None, 1e-6),
    (UNIT, 0.3 + 0.2j, "recip_conj", (("recip", 0.25 + 0.22j),), None, 1e-6),
    (MIXED, -0.21 + 0.19j, "recip", (("recip_conj", 0.05j),), None, 1e-7),
    (MIXED, 0.4 + 0.2j, None, (("recip", 0.1j),), None, 1e-6),
    (UNIT, 0.4 + 0.1j, "recip", (), make_transform(disc_density(0.3 - 0.2j, 0.5)), 1e-7),
]


@pytest.mark.parametrize("case", range(len(PATCH_CASES)))
def test_polar_patch_matches_scalar_reference(case):
    g, s, cancel, rest, mult, tol = PATCH_CASES[case]
    block = (s.real - 0.03, s.real + 0.05, s.imag - 0.04, s.imag + 0.02)
    extra = tuple(abs(p - s) for _, p in rest)
    v, e, n = quadrature._polar_patch(g, s, cancel, rest, mult, block, tol, extra)
    rv, re_, rn = polar_patch(g, s, cancel, rest, mult, block, tol, extra)
    assert n == rn
    assert _close(v, rv) and _close(e, re_)
    assert type(v) is complex and type(e) is float and type(n) is int


def _lens(d, r1, r2):
    """(area, size): the area of the intersection of two discs of radii r1
    and r2 whose centres lie d apart, and the sum of its terms' moduli."""
    if d >= r1 + r2:
        return 0.0, 0.0
    if d <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2, math.pi * min(r1, r2) ** 2
    terms = (r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)),
             r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)),
             -0.5 * math.sqrt((r1 + r2 - d) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)))
    return sum(terms), sum(abs(t) for t in terms)


def _disc_mass_closed_form(g, c, rho):
    """(mass, rounding allowance) of g on D(c, rho) inside g's support:
    lenses with its discs and annuli, disk_rect_area with its rectangles
    and grid cells."""
    mass, size = 0.0, 0.0
    for region, coeff in g.terms:
        if isinstance(region, Rectangle):
            a, s = disk_rect_area(c.real, c.imag, rho, region.x0, region.x1, region.y0,
                                  region.y1), 0.0
        else:
            d = abs(c - complex(region.cx, region.cy))
            if isinstance(region, Disk):
                a, s = _lens(d, rho, region.r)
            else:
                (ao, so), (ai, si) = _lens(d, rho, region.r_outer), _lens(d, rho, region.r_inner)
                a, s = ao - ai, so + si
        mass += coeff * a
        size += abs(coeff) * s
    grid = g.grid
    if grid is not None:
        for j in range(grid.ny):
            for i in range(grid.nx):
                x0, y0 = grid.origin_x + i * grid.spacing, grid.origin_y + j * grid.spacing
                mass += grid.values[j, i] * disk_rect_area(c.real, c.imag, rho, x0,
                                                           x0 + grid.spacing, y0,
                                                           y0 + grid.spacing)
    return mass, 8.0 * np.finfo(float).eps * size


@pytest.mark.parametrize("g,c,r_lo,r_hi,weight,tol", [
    (UNIT, 1.5 + 0.2j, 0.9, 1.8, "invsq", 1e-9),
    (UNIT, 1.0 + 0j, 0.0, 1.0 / 64.0, "mass", 1e-9),
    (MIXED, 0.2 + 0.2j, 0.0, 0.3, "mass", 1e-10),
    (MIXED, 0.405 + 0.205j, 0.01, 1.5, "invsq", 1e-8),
])
def test_radial_exact_matches_scalar_reference(g, c, r_lo, r_hi, weight, tol):
    # disc_mass against its closed form; radial_inverse_square_integral
    # against exact radial columns under the scalar angular rule, broken at
    # the columns' kinks: agreement within the sum of the estimates
    if weight == "mass":
        assert r_lo == 0.0
        v, e = disc_mass(g, c, r_hi, tol)
        want, slack = _disc_mass_closed_form(g, c, r_hi)
    else:
        v, e = radial_inverse_square_integral(g, c, r_lo, r_hi, tol)
        rv, re_, _ = adaptive_1d(lambda t: (*column_exact(g, c.real, c.imag, math.cos(t),
                                                          math.sin(t), r_lo, r_hi, weight), 1),
                                 radial_kinks(g, c, r_lo, r_hi), tol * math.pi)
        want, slack = rv.real / math.pi, re_ / math.pi
    assert abs(v - want) <= e + slack, (v, want, e, slack)
    assert type(v) is float and type(e) is float


def test_radial_integrals_take_no_ray_crossings(monkeypatch):
    # the radial integrals run along the jumps of g, not along rays
    calls = []
    for cls in (Disk, Annulus, Rectangle, GridLayer):
        def counted(self, *args, _original=cls.ray_crossings):
            calls.append(type(self).__name__)
            return _original(self, *args)
        monkeypatch.setattr(cls, "ray_crossings", counted)
    integrate_diagonal(UNIT, 1.5)
    disc_mass(MIXED, 0.2 + 0.2j, 0.3)
    radial_inverse_square_integral(MIXED, 0.405 + 0.205j, 0.01, 1.5, 1e-8)
    assert calls == []
    cauchy_transform(UNIT, 0.5, 1e-4)  # a polar patch: the counter sees rays
    assert calls


def test_small_chunks_give_the_same_bits(monkeypatch):
    g, s, cancel, rest, mult, tol = PATCH_CASES[2]
    block = (s.real - 0.03, s.real + 0.05, s.imag - 0.04, s.imag + 0.02)

    def run():
        return quadrature._polar_patch(g, s, cancel, rest, mult, block, tol, (0.2,))

    want = run()
    monkeypatch.setattr(quadrature, "_CHUNK", 100)
    assert repr(run()) == repr(want)
