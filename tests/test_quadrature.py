import cmath
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from expkernel.cauchy import make_transform
from expkernel.density import (GridLayer, Mcg64, annulus_density, disc_density,
                               make_density, swiss_cheese, unit_disc_density)
from expkernel.geometry import Annulus, Disk, Rectangle, disk_rect_area
from expkernel.kernel import eval_E_disc
from expkernel.quadrature import (InvalidPointError, TolNotReached,
                                  ToleranceError, cauchy_transform, disc_mass,
                                  integrate_bi_singular, integrate_diagonal,
                                  integrate_singular,
                                  radial_inverse_square_integral)
from oracles import bi_singular_oracle, midpoint_rect

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


def test_bi_singular_determinism():
    a = integrate_bi_singular(UNIT, 0.3 + 0.1j, -0.2 + 0.5j, 1e-6)
    b = integrate_bi_singular(UNIT, 0.3 + 0.1j, -0.2 + 0.5j, 1e-6)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.evaluations == b.evaluations


def test_diagonal_dichotomy_unit_disc():
    for r in (0.0, 0.5, 0.9):
        assert integrate_diagonal(UNIT, complex(r), 1e-6).divergent
    for r in (1.5, 2.0, 4.0):
        dm = integrate_diagonal(UNIT, complex(r), 1e-6)
        assert not dm.divergent
        np.testing.assert_allclose(dm.value, -math.log(1.0 - 1.0 / r ** 2),
                                   rtol=0, atol=1e-6)


def test_diagonal_annulus_center_closed_form():
    # (1/pi) integral over {a <= |u| <= b} of |u|^-2 is 2 ln(b/a)
    g = annulus_density(0j, 0.5, 1.0)
    dm = integrate_diagonal(g, 0j, 1e-9)
    assert not dm.divergent
    np.testing.assert_allclose(dm.value, 2.0 * math.log(2.0), rtol=1e-9)


def test_diagonal_scaled_density_still_divergent():
    # a density bounded away from 1 still diverges at its density points
    g = disc_density(0j, 1.0, 0.3)
    assert integrate_diagonal(g, 0j, 1e-6).divergent


def test_diagonal_island_after_gap_divergent():
    # empty outer octaves must not certify convergence when the support
    # resumes deeper inside: w sits on a tiny island far below the support
    # radius, and the inverse-square mass there diverges
    g = make_density(0j, 1.0, [(Disk(0.0, 0.0, 0.025), 1.0)])
    assert integrate_diagonal(g, 0j, 1e-6).divergent


def test_diagonal_separated_island_value():
    # support disjoint from w: finite, and every octave of the island counts
    g = make_density(0j, 1.0, [(Disk(0.4, 0.0, 0.1), 1.0)])
    dm = integrate_diagonal(g, 0j, 1e-6)
    assert not dm.divergent

    def f(u):
        inside = np.abs(u - 0.4) <= 0.1
        safe = np.where(np.abs(u) < 1e-12, 1.0, u)
        return np.where(inside, 1.0 / np.abs(safe) ** 2, 0.0)

    want = midpoint_rect(f, 0.3, 0.5, -0.1, 0.1, n=1500) / math.pi
    np.testing.assert_allclose(dm.value, want, rtol=0, atol=1e-5)


def test_diagonal_estimate_bounds_error_outside_unit_disc():
    # the exact angular columns have kinks where a ray is tangent to the
    # circle or meets it at an octave radius; closed form -ln(1 - 1/|w|^2)
    w = 1.5 + 0.2j
    dm = integrate_diagonal(UNIT, w, 1e-5)
    assert not dm.divergent
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
        err = abs(dm.value + math.log(1.0 - 1.0 / k ** 2))
        assert err <= dm.error_estimate, (c, r, w)


def test_disc_mass_lens_estimate_bounds_error():
    # a small disc centred on the unit circle covers a lens, not half a disc;
    # the closed lens area cancels terms, so allow a few ulps of each term
    rho = 1.0 / 64.0
    mass, err = disc_mass(UNIT, 1.0 + 0j, rho, 1e-9)
    terms = (rho * rho * math.acos(rho / 2.0), 2.0 * math.asin(rho / 2.0),
             -0.5 * rho * math.sqrt(4.0 - rho * rho))
    rounding = 8.0 * np.finfo(float).eps * sum(abs(t) for t in terms)
    assert abs(mass - sum(terms)) <= err + rounding


RECT = (-0.5, -0.3, 0.4, 0.2)
GRID_VALUES = np.array([[0.1, 0.3, 0.2, 0.5], [0.4, 0.0, 0.6, 0.2],
                        [0.3, 0.5, 0.1, 0.4], [0.2, 0.1, 0.5, 0.3]])


@pytest.mark.parametrize("c", [0.405 + 0j, 0.405 + 0.205j])
def test_disc_mass_rectangle_edge_and_corner_estimate_bounds_error(c):
    # a small disc across a rectangle's edge or corner: the columns have
    # kinks where rays pass the corner or meet an edge at the disc radius
    rho = 1.0 / 64.0
    g = make_density(0j, 1.0, [(Rectangle(*RECT), 1.0)])
    mass, err = disc_mass(g, c, rho, 1e-9)
    exact = disk_rect_area(c.real, c.imag, rho, RECT[0], RECT[2], RECT[1], RECT[3])
    assert abs(mass - exact) <= err


def test_disc_mass_grid_vertex_estimate_bounds_error():
    # a small disc over a grid vertex, centred on a grid line; then centred
    # on the vertex -0.2-0.2j, where it is four quarter discs and the
    # estimate must cover the rounding of the columns (40-digit reference)
    rho, c = 1.0 / 64.0, 0.005 + 0j
    g = make_density(0j, 1.0, [], GridLayer(-0.4, -0.4, 0.2, GRID_VALUES))
    mass, err = disc_mass(g, c, rho, 1e-9)
    exact = sum(GRID_VALUES[j, i] * disk_rect_area(c.real, c.imag, rho,
                                                   -0.4 + 0.2 * i, -0.2 + 0.2 * i,
                                                   -0.4 + 0.2 * j, -0.2 + 0.2 * j)
                for j in range(4) for i in range(4))
    assert abs(mass - exact) <= err
    mass, err = disc_mass(g, -0.2 - 0.2j, rho, 1e-9)
    with localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal("3.141592653589793238462643383279502884197")
        quarters = sum(Decimal(v) for v in GRID_VALUES[:2, :2].ravel())
        assert abs(Decimal(mass) - pi * Decimal(rho) ** 2 / 4 * quarters) <= Decimal(err)


def test_radial_inverse_square_unit_disc():
    total, err = radial_inverse_square_integral(UNIT, 0j, 0.25, 1.0, 1e-9)
    np.testing.assert_allclose(total, 2.0 * math.log(4.0), rtol=1e-8)
    assert err < 1e-8


def test_disc_mass_matches_area():
    mass, err = disc_mass(UNIT, 0j, 0.35, 1e-10)
    np.testing.assert_allclose(mass, math.pi * 0.35 ** 2, rtol=1e-9)
    mass, _ = disc_mass(UNIT, 0.9 + 0j, 0.2, 1e-10)
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


def test_error_estimates_are_honest():
    # observed error stays below the reported estimate on closed-form cases
    for lam, w in ((0.5 + 0j, 0j), (2.0 + 0j, 3.0 + 0j)):
        res = integrate_bi_singular(UNIT, w, lam, 1e-5)
        closed = {0.5 + 0j: math.log(0.25), 2.0 + 0j: math.log(5.0 / 6.0)}[lam]
        assert abs(res.value - closed) <= res.error_estimate + 1e-12
        assert res.error_estimate <= 1e-5 * (1 + 1e-9)


def _bi(w, lam):
    return [("recip_conj", w), ("recip", lam)]


PIN_CASES = {
    "disc": (lambda: disc_density(0.2 + 0.1j, 0.7), _bi(0.1 + 0.2j, 0.5 - 0.1j), 1e-5, {},
             "((2.4199040830333383+0.058171019941530976j), 3.2178394908163583e-06, 28117, 683477)"),
    "swiss_cheese": (lambda: swiss_cheese(0, 4), _bi(-0.1 + 0.4j, 0.3 + 0.2j), 1e-4, {},
                     "((4.482349816945633+0.30984801699919173j), 3.821438001786457e-05, 21474, 519042)"),
    "disc_and_annulus": (
        lambda: make_density(0j, 2.0, [(Disk(0.17, 0.23, 0.63), 0.49),
                                       (Annulus(0.12, 0.20, 0.38, 0.77), 0.50)]),
        _bi(-0.3 + 0.1j, 0.2 + 0.5j), 1e-4, {},
        "((1.569844151996323+0.000787764161243959j), 2.554524940067608e-05, 66244, 1707629)"),
    "rectangle_and_grid": (
        lambda: make_density(0j, 1.0, [(Rectangle(*RECT), 0.4)],
                             GridLayer(-0.4, -0.4, 0.2, GRID_VALUES)),
        _bi(-0.35 + 0.05j, 0.15 - 0.25j), 1e-4, {},
        "((-0.5227004573633132-0.7648772760412038j), 4.619206348519035e-05, 30610, 829493)"),
    "grid_only": (lambda: make_density(0j, 1.0, [], GridLayer(-0.4, -0.4, 0.2, GRID_VALUES)),
                  _bi(0.1 + 0.05j, -0.2 + 0.3j), 1e-4, {},
                  "((0.43320345533253346-0.34729589520359583j), 3.154820130665284e-05, 22428, 610416)"),
    "near_diagonal": (lambda: UNIT, _bi(0.3 + 0.2j, 0.30001 + 0.2j), 1e-4, {},
                      "((71.9003228674432+7.2220891030871925e-06j), 1.3702584682278632e-05, 15159, 385162)"),
    "multiplier": (lambda: UNIT, [("recip", 0.4 + 0.1j)], 1e-5,
                   {"multiplier": make_transform(disc_density(0.3 - 0.2j, 0.5))},
                   "((-0.12566370726556306-0.09424778110618273j), 3.4872328364212307e-06, 21105, 577096)"),
}


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_engine_results_pinned(name):
    # value, estimate, cells and evaluations of the quadtree engine, pinned
    # to the last bit: the cases cover constant cells, exact-mass cells crossed
    # by one or two boundaries, grid-straddle cells, a block split one cell
    # from the diagonal, and a multiplier integrand.  The last bits depend on
    # the numpy and libm build.
    density, factors, tol, kw, want = PIN_CASES[name]
    r = integrate_singular(density(), factors, tol, **kw)
    assert repr((r.value, r.error_estimate, r.cells, r.evaluations)) == want
