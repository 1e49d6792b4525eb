import math

import numpy as np
import pytest

from expkernel.density import make_density, swiss_cheese, unit_disc_density
from expkernel.geometry import Disk
from expkernel.kernel import (DIAGONAL_DIVERGENT, DIAGONAL_FINITE,
                              OFF_DIAGONAL, MobiusDiscParams, PoleCaseError,
                              disc_imag_integral,
                              disc_imag_integral_by_quadrature,
                              disc_real_integral,
                              disc_real_integral_by_quadrature, eval_E,
                              eval_E_disc, eval_E_signed_discs,
                              eval_E_unit_disc, mobius_imag_disc,
                              mobius_real_disc, prelim_bound_check,
                              tail_bound_imag, tail_bound_real,
                              tail_imag_by_quadrature, tail_real_by_quadrature)

UNIT = unit_disc_density()


# -- unit-disc closed form, frozen values


def test_unit_disc_both_inside():
    # |lam - w|^2 / (1 - conj(w) lam)
    assert eval_E_unit_disc(0.5, 0.0) == 0.25
    np.testing.assert_allclose(eval_E_unit_disc(0.5j, 0.25),
                               abs(0.5j - 0.25) ** 2 / (1 - 0.25 * 0.5j))


def test_unit_disc_both_outside():
    # 1 - 1/(conj(w) lam)
    np.testing.assert_allclose(eval_E_unit_disc(2.0, 3.0), 5.0 / 6.0)
    np.testing.assert_allclose(eval_E_unit_disc(4.0, 6.0), 23.0 / 24.0)
    np.testing.assert_allclose(eval_E_unit_disc(1.0, -1.0), 2.0)


def test_unit_disc_mixed():
    np.testing.assert_allclose(eval_E_unit_disc(0.5, 2.0), 0.75)
    np.testing.assert_allclose(eval_E_unit_disc(2.0, 0.5), 0.75)
    lam, w = 0.3 + 0.2j, 1.5 - 0.4j
    np.testing.assert_allclose(eval_E_unit_disc(lam, w),
                               ((w - lam) / w).conjugate())
    np.testing.assert_allclose(eval_E_unit_disc(w, lam), (w - lam) / w)


def test_unit_disc_hermitian_symmetry():
    for lam, w in ((0.4 + 0.1j, -0.2 + 0.3j), (1.4 - 0.2j, 0.5j),
                   (2.0 + 1.0j, -1.5 + 0.2j)):
        np.testing.assert_allclose(eval_E_unit_disc(lam, w),
                                   eval_E_unit_disc(w, lam).conjugate())


def test_unit_disc_diagonal():
    assert eval_E_unit_disc(0.3, 0.3) == 0.0
    np.testing.assert_allclose(eval_E_unit_disc(2.0, 2.0), 0.75)
    # boundary points count as the exterior closed form
    np.testing.assert_allclose(eval_E_unit_disc(1.0, 1.0), 0.0, atol=1e-15)


def test_unit_disc_modulus_bound():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-2, 2, (120, 2)) @ np.array([[1], [1j]])
    for lam in pts.ravel():
        for w in pts.ravel()[:10]:
            assert abs(eval_E_unit_disc(lam, w)) <= 2.0 + 1e-12


def test_eval_E_matches_unit_disc_closed_form():
    for lam, w in ((0.5 + 0j, 0j), (2.0 + 0j, 3.0 + 0j), (0.5 + 0j, 2.0 + 0j)):
        kv = eval_E(UNIT, lam, w, 1e-5)
        assert kv.diagonal_case == OFF_DIAGONAL
        np.testing.assert_allclose(kv.value, eval_E_unit_disc(lam, w),
                                   rtol=0, atol=1e-4)


def test_eval_E_diagonal_cases():
    kv = eval_E(UNIT, 0.5 + 0j, 0.5 + 0j, 1e-6)
    assert kv.diagonal_case == DIAGONAL_DIVERGENT
    assert kv.value == 0.0
    kv = eval_E(UNIT, 2.0 + 0j, 2.0 + 0j, 1e-6)
    assert kv.diagonal_case == DIAGONAL_FINITE
    np.testing.assert_allclose(kv.value, 0.75, rtol=0, atol=1e-5)


def test_eval_E_error_estimate_covers_truth():
    kv = eval_E(UNIT, 0.5 + 0j, 0j, 1e-5)
    assert abs(kv.value - 0.25) <= kv.error_estimate + 1e-12


# -- scaled disc and signed products


def test_eval_E_disc_covariance():
    lam, w = 0.8 + 0.1j, -0.3 + 0.4j
    base = eval_E_unit_disc(lam, w)
    scaled = eval_E_disc(0.7 - 0.2j, 1.6, 0.7 - 0.2j + 1.6 * lam,
                         0.7 - 0.2j + 1.6 * w)
    np.testing.assert_allclose(scaled, base, rtol=1e-13)
    with pytest.raises(ValueError):
        eval_E_disc(0j, 0.0, 1.0, 2.0)


@pytest.mark.parametrize("w", [0.3 - 0.2j, 0j, 1.0 + 0j, -1.5 + 0.4j])
def test_disc_closed_forms_take_arrays_of_lam(w):
    # an array of lam, inside, on and outside the circle, gives the scalar
    # values to the rounding of numpy's complex division
    lam = np.array([[0.5, -0.2 + 0.7j, 1j], [1.0, 2.0 - 1.0j, -3.0j]])
    want = np.array([[eval_E_unit_disc(z, w) for z in row] for row in lam])
    assert type(eval_E_unit_disc(lam[0, 0], w)) is complex
    got = eval_E_unit_disc(lam, w)
    assert got.shape == lam.shape
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    c, r = 0.7 - 0.2j, 1.6
    np.testing.assert_allclose(eval_E_disc(c, r, c + r * lam, c + r * w), want, rtol=1e-13)


def test_eval_E_signed_discs_single_disc():
    g = make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), 1.0)])
    lam, w = 0.5 + 0j, 2.0 + 0j
    np.testing.assert_allclose(eval_E_signed_discs(g, lam, w),
                               eval_E_unit_disc(lam, w), rtol=1e-14)


def test_eval_E_signed_discs_hole_product():
    g = make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), 1.0),
                               (Disk(0.3, 0.0, 0.2), -1.0)])
    lam, w = 0.5j, 1.4 + 0.2j
    expected = (eval_E_unit_disc(lam, w)
                / eval_E_disc(0.3 + 0j, 0.2, lam, w))
    np.testing.assert_allclose(eval_E_signed_discs(g, lam, w), expected,
                               rtol=1e-13)


def test_eval_E_signed_discs_matches_quadrature():
    g = swiss_cheese(5, 3)
    lam, w = 0.62 + 0.1j, -0.4 - 0.35j
    closed = eval_E_signed_discs(g, lam, w)
    quad = eval_E(g, lam, w, 2e-5).value
    np.testing.assert_allclose(closed, quad, rtol=0, atol=2e-4)


# -- Moebius-parametrized discs and their closed integrals


def test_mobius_real_disc_geometry():
    lam, w = 0.8 + 0.3j, -0.4 - 0.1j
    for alpha in (-2.0, -0.5, 0.0, 0.5, 3.0):
        p = mobius_real_disc(lam, w, alpha)
        c, r = p.center, p.radius
        np.testing.assert_allclose(c, (w + lam + alpha * (lam - w)) / 2.0)
        np.testing.assert_allclose(r, abs((lam - w) * (1.0 - alpha)) / 2.0)
        # lam sits on the boundary circle
        np.testing.assert_allclose(abs(lam - c), r, rtol=1e-12)
        # w is interior exactly when alpha < 0
        assert (abs(w - c) < r) == (alpha < 0.0)


def test_mobius_imag_disc_geometry():
    lam, w = 0.8 + 0.3j, -0.4 - 0.1j
    for beta in (0.5, -0.5, 2.0, -2.0):
        p = mobius_imag_disc(lam, w, beta)
        np.testing.assert_allclose(p.center, lam + 1j * (lam - w) * beta / 2.0)
        np.testing.assert_allclose(p.radius, abs(beta * (lam - w)) / 2.0)
        np.testing.assert_allclose(abs(lam - p.center), p.radius, rtol=1e-12)


def test_mobius_params_validation():
    with pytest.raises(ValueError):
        MobiusDiscParams(1.0, 0.0, alpha=0.5, beta=0.5)
    with pytest.raises(ValueError):
        MobiusDiscParams(1.0, 0.0)
    with pytest.raises(ValueError):
        mobius_imag_disc(1.0, 0.0, 0.0)


def test_disc_real_integral_frozen_values():
    np.testing.assert_allclose(disc_real_integral(0.0), math.log(2.0))
    np.testing.assert_allclose(disc_real_integral(1.0 / 3.0),
                               math.log(3.0 / 2.0))
    np.testing.assert_allclose(disc_real_integral(-1.0), math.log(1.0))
    # alpha and -alpha give the same value
    np.testing.assert_allclose(disc_real_integral(2.0), disc_real_integral(-2.0))


def test_disc_imag_integral_frozen_values():
    np.testing.assert_allclose(disc_imag_integral(2.0), math.atan(1.0))
    np.testing.assert_allclose(disc_imag_integral(-0.5), math.atan(-0.25))
    with pytest.raises(ValueError):
        disc_imag_integral(0.0)


def test_disc_integrals_by_quadrature_match():
    lam, w = 1.1 - 0.6j, 0.25 + 0.45j
    got = disc_real_integral_by_quadrature(0.5, lam, w, 3e-5)
    np.testing.assert_allclose(got, disc_real_integral(0.5), rtol=0, atol=2e-4)
    got = disc_imag_integral_by_quadrature(-2.0, lam, w, 3e-5)
    np.testing.assert_allclose(got, disc_imag_integral(-2.0), rtol=0, atol=2e-4)


def test_disc_integral_quadrature_degenerate_radius():
    # alpha = 1 or beta -> 0 collapse the disc to a point: empty integral
    assert disc_real_integral_by_quadrature(1.0, 0.5, -0.5, 1e-5) == 0.0


# -- tail bounds


def test_tail_bounds_frozen_at_n2():
    np.testing.assert_allclose(tail_bound_real(2.0),
                               math.log(6.0 / 5.0) + math.log(3.0 / 2.0))
    np.testing.assert_allclose(tail_bound_imag(2.0), 2.0 * math.atan(0.25))


def test_tail_bounds_positive_decreasing():
    ns = [2.0 ** k for k in range(1, 11)]
    for f in (tail_bound_real, tail_bound_imag):
        vals = [f(n) for n in ns]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_tail_bounds_reject_small_order():
    with pytest.raises(ValueError):
        tail_bound_real(1.0)
    with pytest.raises(ValueError):
        tail_bound_imag(0.5)


def test_tail_quadrature_cross_check():
    lam, w = 0.8 + 0.3j, -0.4 - 0.1j
    np.testing.assert_allclose(tail_real_by_quadrature(lam, w, 2.0, 1e-5),
                               tail_bound_real(2.0), rtol=0, atol=1e-3)
    np.testing.assert_allclose(tail_imag_by_quadrature(lam, w, 2.0, 1e-5),
                               tail_bound_imag(2.0), rtol=0, atol=1e-3)


# -- preliminary modulus bound with exterior refinement


def test_prelim_bound_check_holds():
    lhs, rhs, holds = prelim_bound_check(UNIT, 0.25 + 0j, -0.25 + 0j, 1e-6)
    assert holds
    assert lhs <= rhs
    assert rhs <= 2.0 + 1e-9


def test_pole_guards_are_arithmetic_errors():
    # the guard exceptions participate in normal arithmetic error handling
    assert issubclass(PoleCaseError, ArithmeticError)
