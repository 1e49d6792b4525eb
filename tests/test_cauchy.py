import math

import numpy as np
import pytest

from expkernel.cauchy import (RegimeUnverified, _inv_conj, _kernel_section,
                              check_h0_binomial, check_power_identity,
                              check_product_identity, check_representation,
                              dbar_transform_stencil, disc_transform,
                              make_h0_context, make_transform, sample_transform)
from expkernel.density import (annulus_density, disc_density, make_density,
                               unit_disc_density)
from expkernel.geometry import Disk, Rectangle
from expkernel.kernel import eval_E
from expkernel.quadrature import cauchy_transform

from oracles import midpoint_rect

UNIT = unit_disc_density()


# -- closed disc transform


def test_disc_transform_unit_values():
    pts = np.array([0.5, 2.0, 1.0 + 1.0j, 0.0])
    got = disc_transform(0.0, 1.0, pts)
    np.testing.assert_allclose(got[0], -0.5)
    np.testing.assert_allclose(got[1], -0.5)
    np.testing.assert_allclose(got[2], -1.0 / (1.0 + 1.0j))
    np.testing.assert_allclose(got[3], 0.0)


def test_disc_transform_scaling():
    # radius * T_unit((p - c)/r): interior p=1 maps to z=0, exterior p=5 to z=2
    got = disc_transform(1.0, 2.0, np.array([1.0, 5.0]))
    np.testing.assert_allclose(got, [0.0, -1.0])


def test_disc_transform_preserves_shape():
    pts = np.zeros((3, 4), dtype=complex) + 2.0
    assert disc_transform(0.0, 1.0, pts).shape == (3, 4)


def test_make_transform_closed_vs_quadrature():
    g = annulus_density(0.2 - 0.1j, 0.4, 0.9, coeff=0.8)
    closed = make_transform(g)
    pts = [0.2 - 0.1j, 0.8 - 0.1j, 1.8 + 0.4j]
    samples = sample_transform(g, pts, tol=1e-6)
    for p, s in zip(pts, samples):
        np.testing.assert_allclose(complex(closed(np.array([p]))[0]), s.value,
                                   rtol=0, atol=1e-5)
        assert s.error_estimate < 1e-5


def test_make_transform_quadrature_path_vs_oracle():
    # a rectangle term has no closed disc decomposition, so this exercises
    # the boundary rule against a plain midpoint rule
    g = make_density(0j, 1.0, [(Rectangle(-0.5, -0.3, 0.4, 0.2), 1.0)])
    lam = 1.5 + 0.8j
    got = complex(make_transform(g, tol=1e-6)(np.array([lam]))[0])
    want = midpoint_rect(lambda u: 1.0 / (u - lam),
                         -0.5, 0.4, -0.3, 0.2) / math.pi
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


# -- boundary-rule fallbacks against the quadtree


RECT = make_density(0j, 1.0, [(Rectangle(-0.5, -0.3, 0.4, 0.2), 1.0)])
PANEL = np.array([[1.5 + 0.8j, -1.2 + 0.4j], [1.5 + 0.8j, -1.2 + 0.4j]])


def test_make_transform_fallback_matches_quadtree():
    transform = make_transform(RECT, tol=1e-5)
    first = transform(PANEL)
    again = transform(PANEL[0])
    assert first.shape == PANEL.shape
    np.testing.assert_array_equal(first[0], first[1])
    np.testing.assert_array_equal(first[0], again)
    # the boundary rule raises unless its estimate is within tol / pi
    for u, got in zip(PANEL[0], first[0]):
        q = cauchy_transform(RECT, u, 1e-5)
        assert abs(got - q.value) <= q.error_estimate + 1e-5 / math.pi


def test_h0_context_fallback_matches_quadtree():
    ctx = make_h0_context(RECT, tol=1e-4)
    c = cauchy_transform(RECT, 0.0, 1e-4)
    assert abs(ctx.C + np.conj(c.value)) <= ctx.c_error + c.error_estimate
    first = ctx.transform(PANEL)
    again = ctx.transform(PANEL[1])
    assert first.shape == PANEL.shape
    np.testing.assert_array_equal(first[0], first[1])
    np.testing.assert_array_equal(first[1], again)
    for u, got in zip(PANEL[0], first[0]):
        q = cauchy_transform(RECT, u, 1e-4, multiplier=_inv_conj, attention=(0.0,))
        assert abs(got - q.value) <= q.error_estimate + 1e-4 / math.pi


def test_kernel_section_fallback_matches_eval_E():
    g = disc_density(0.1j, 0.8, 0.5)  # coefficient 0.5: no closed section
    w = 2.0 + 0j
    section = _kernel_section(g, w, 1e-4)
    got = section(PANEL)
    assert got.shape == PANEL.shape
    np.testing.assert_array_equal(got[0], got[1])
    np.testing.assert_array_equal(got[0], section(PANEL[0]))
    # each side's exponent is within tol / pi
    for u, v in zip(PANEL[0], got[0]):
        kv = eval_E(g, u, w, 1e-4)
        assert abs(v - kv.value) <= kv.error_estimate + abs(v) * math.expm1(1e-4 / math.pi)


# -- product and power identities


def test_product_identity_disc_pair():
    h = disc_density(0.1 + 0.2j, 0.8)
    k = annulus_density(-0.15j, 0.3, 0.7, coeff=0.6)
    worst = check_product_identity(h, k, [1.6 + 0.9j, -1.2 - 0.5j])
    assert worst < 2e-3


def test_power_identity():
    h = disc_density(0.05 - 0.1j, 0.75, coeff=0.9)
    assert check_power_identity(h, 1, [1.4 + 0.3j]) == 0.0
    assert check_power_identity(h, 2, [1.4 + 0.3j, -0.9 + 1.1j]) < 2e-3


def test_power_identity_rejects_bad_order():
    h = disc_density(0j, 0.5)
    with pytest.raises(ValueError):
        check_power_identity(h, 0, [2.0])
    with pytest.raises(ValueError):
        check_power_identity(h, 5, [2.0])


# -- conjugate-weighted transform and its binomial identity


def test_h0_context_radial_annulus():
    g = annulus_density(0j, 0.5, 1.0)
    ctx = make_h0_context(g)
    # odd integrand about 0: C vanishes
    np.testing.assert_allclose(ctx.C, 0.0, atol=1e-6)
    # closed radial formula 2 log(r_hi / max(|lam|, r_lo)) on the profile
    np.testing.assert_allclose(complex(ctx.transform(np.array([0.7]))[0]),
                               2.0 * math.log(1.0 / 0.7))
    np.testing.assert_allclose(complex(ctx.transform(np.array([0.2j]))[0]),
                               2.0 * math.log(2.0))
    np.testing.assert_allclose(complex(ctx.transform(np.array([1.5]))[0]), 0.0)


def test_h0_binomial_small_orders():
    g = annulus_density(0j, 0.5, 1.0)
    ctx = make_h0_context(g)
    assert check_h0_binomial(ctx, 1, 0.7 + 0j, tol=1e-4) < 2e-3
    assert check_h0_binomial(ctx, 2, 1.5 + 0j, tol=1e-3) < 5e-3


def test_h0_binomial_rejects_bad_inputs():
    ctx = make_h0_context(annulus_density(0j, 0.5, 1.0))
    with pytest.raises(ValueError):
        check_h0_binomial(ctx, 1, 0.0)
    with pytest.raises(ValueError):
        check_h0_binomial(ctx, 4, 1.0)


# -- representation of the kernel through its own Cauchy data


def test_representation_exterior_base_point():
    worst = check_representation(UNIT, 2.0 + 0j, [2.0 + 2.0j, -0.7 + 0j])
    assert worst < 1e-3


def test_representation_regime_unverified():
    # a tiny island of density: w sits on it, but the dyadic disc-mass
    # ratios at the probe radii stay below the verification floor
    g = make_density(0j, 1.0, [(Disk(0.0, 0.0, 0.025), 1.0)])
    with pytest.raises(RegimeUnverified):
        check_representation(g, 0.0 + 0j, [2.0 + 0j])


# -- distributional derivative spot-check


def test_dbar_recovers_density():
    got = dbar_transform_stencil(UNIT, 0.2 + 0.1j)
    np.testing.assert_allclose(got, -1.0, rtol=0, atol=1e-2)


def test_dbar_vanishes_outside_support():
    got = dbar_transform_stencil(UNIT, 1.5 + 0.4j)
    np.testing.assert_allclose(got, 0.0, atol=1e-3)
