"""Cauchy-transform algebra for compactly supported planar densities.

The transform used throughout is  ĥ(lam) = (1/pi) ∫ h(u)/(u - lam) dA(u),
extended with a bounded multiplier where an identity calls for one.  The
module checks three exact identities of this algebra,

    ĥ k̂ = (ĥ k)^ + (h k̂)^                      (product)
    (ĥ)^N = N ((ĥ)^{N-1} h)^                     (power)
    ĥ0^N(lam) = C^N/lam^N
               + (N/lam^N)(1/pi) ∫ u^N ĥ0(u)^{N-1} h0(u)/(u-lam) dA   (binomial)

with h0(u) = g(u)/conj(u) and C = -(1/pi) ∫ g(u)/conj(u) dA, and the
representation of the exponential kernel through its own Cauchy data,

    E(lam, w) = 1 - (1/pi) ∫ E(u, w)/conj(u - w) * g(u)/(u - lam) dA(u).

Inner transforms appearing inside an outer integrand are evaluated through
closed forms when the density is a sum of discs/annuli (the disc transform
is r^2/(conj(lam - c)) outside and -conj(lam - c) inside, up to scaling) and
through memoized quadrature otherwise, so each check still compares two
independent numerical routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import DensitySpec, clear_radius
from .geometry import Annulus, Disk
from .kernel import eval_E, eval_E_unit_disc
from .quadrature import cauchy_transform, disc_mass, integrate_diagonal, integrate_singular

__all__ = [
    "RegimeUnverified",
    "TransformSample",
    "H0Context",
    "disc_transform",
    "make_transform",
    "sample_transform",
    "make_h0_context",
    "check_product_identity",
    "check_power_identity",
    "check_h0_binomial",
    "check_representation",
    "dbar_transform_stencil",
]


class RegimeUnverified(Exception):
    """The representation identity's hypotheses could not be confirmed at w."""


@dataclass(frozen=True)
class TransformSample:
    point: complex
    value: complex
    error_estimate: float


def sample_transform(g: DensitySpec, points, tol: float = 1e-6) -> list[TransformSample]:
    """Cauchy transform of g at each point, by adaptive quadrature."""
    out = []
    for p in points:
        res = cauchy_transform(g, complex(p), tol)
        out.append(TransformSample(complex(p), res.value, res.error_estimate))
    return out


# ---------------------------------------------------------------------------
# Closed transforms for disc-built densities


def disc_transform(center: complex, radius: float, pts) -> np.ndarray:
    """Cauchy transform of the disc indicator 1_{D(center,radius)}.

    Scaling the unit-disc values -conj(z) (inside) and -1/z (outside):
    the result is radius * T_unit((pts - center)/radius).
    """
    pts = np.asarray(pts, dtype=complex)
    z = (pts - center) / radius
    inside = np.abs(z) < 1.0
    safe = np.where(inside, 1.0 + 0.0j, z)
    return radius * np.where(inside, -np.conj(z), -1.0 / safe)


def _disc_pieces(g: DensitySpec):
    """Break disc/annulus terms into signed concentric discs; None if not possible."""
    if g.grid is not None:
        return None
    pieces = []
    for region, coeff in g.terms:
        if isinstance(region, Disk):
            pieces.append((complex(region.cx, region.cy), region.r, coeff))
        elif isinstance(region, Annulus):
            c = complex(region.cx, region.cy)
            pieces.append((c, region.r_outer, coeff))
            pieces.append((c, region.r_inner, -coeff))
        else:
            return None
    return pieces


def _memoized(value_at: Callable[[complex], complex]) -> Callable:
    """Vectorized wrapper calling value_at once per distinct point."""
    memo: dict[complex, complex] = {}

    def evaluate(pts):
        pts = np.asarray(pts, dtype=complex)
        flat = pts.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for i, u in enumerate(flat):
            key = complex(u)
            if key not in memo:
                memo[key] = value_at(key)
            out[i] = memo[key]
        return out.reshape(pts.shape)

    return evaluate


def make_transform(g: DensitySpec, tol: float = 1e-7) -> Callable:
    """Vectorized lam -> ĝ(lam); closed form for disc sums, memoized otherwise.

    The memoized fallback runs one adaptive quadrature per distinct point and
    is meant for small panels, not for use inside another fine integrand.
    """
    pieces = _disc_pieces(g)
    if pieces is not None:

        def closed(pts):
            pts = np.asarray(pts, dtype=complex)
            total = np.zeros(pts.shape, dtype=complex)
            for c, r, coeff in pieces:
                if r > 0.0:
                    total = total + coeff * disc_transform(c, r, pts)
            return total

        return closed

    return _memoized(lambda u: cauchy_transform(g, u, tol).value)


# ---------------------------------------------------------------------------
# Product and power identities


def check_product_identity(h: DensitySpec, k: DensitySpec, points,
                           tol: float = 1e-4) -> float:
    """Max residual of ĥ k̂ = (ĥ k)^ + (h k̂)^ over the points."""
    th = make_transform(h, tol / 10.0)
    tk = make_transform(k, tol / 10.0)
    worst = 0.0
    for p in points:
        p = complex(p)
        lhs = complex(th(np.array([p]))[0]) * complex(tk(np.array([p]))[0])
        hk = cauchy_transform(k, p, tol / 4.0, multiplier=th).value
        kh = cauchy_transform(h, p, tol / 4.0, multiplier=tk).value
        worst = max(worst, abs(lhs - hk - kh))
    return worst


def check_power_identity(h: DensitySpec, n: int, points, tol: float = 1e-4) -> float:
    """Max residual of (ĥ)^N = N ((ĥ)^{N-1} h)^ over the points; N <= 4."""
    if n < 1:
        raise ValueError("power identity needs N >= 1")
    if n > 4:
        raise ValueError("nested quadrature cost limits N to 4")
    th = make_transform(h, tol / 10.0)
    worst = 0.0
    for p in points:
        p = complex(p)
        tp = complex(th(np.array([p]))[0])
        if n == 1:
            continue  # both sides are ĥ(p); residual identically zero
        rhs = n * cauchy_transform(h, p, tol / 2.0,
                                   multiplier=lambda pts: th(pts) ** (n - 1)).value
        worst = max(worst, abs(tp ** n - rhs))
    return worst


# ---------------------------------------------------------------------------
# h0 binomial identity


@dataclass(frozen=True)
class H0Context:
    """g with the constants of its conjugate-weighted transform.

    h0(u) = g(u)/conj(u), C = -(1/pi) ∫ g(u)/conj(u) dA; ``transform``
    evaluates ĥ0 (vectorized), through the exact radial formula
    ĥ0(lam) = 2 ∫_{|lam|}^{inf} G(s)/s ds when g is radial about 0.
    """

    g: DensitySpec
    C: complex
    c_error: float
    transform: Callable


def _radial_profile(g: DensitySpec):
    """[(r_lo, r_hi, coeff)] for densities radial about 0; None otherwise."""
    if g.grid is not None:
        return None
    pieces = []
    for region, coeff in g.terms:
        if isinstance(region, Disk) and region.cx == 0.0 and region.cy == 0.0:
            pieces.append((0.0, region.r, coeff))
        elif isinstance(region, Annulus) and region.cx == 0.0 and region.cy == 0.0:
            pieces.append((region.r_inner, region.r_outer, coeff))
        else:
            return None
    return pieces


def _inv_conj(pts):
    pts = np.asarray(pts, dtype=complex)
    safe = np.where(pts == 0.0, 1.0 + 0.0j, pts)
    return np.where(pts == 0.0, 0.0 + 0.0j, 1.0 / np.conj(safe))


def make_h0_context(g: DensitySpec, tol: float = 1e-6) -> H0Context:
    """Compute C by quadrature and attach the ĥ0 evaluator."""
    ct0 = cauchy_transform(g, 0.0, tol)  # (1/pi) ∫ g/u dA
    c_val = -np.conj(ct0.value)
    profile = _radial_profile(g)
    if profile is not None:

        def closed(pts):
            pts = np.asarray(pts, dtype=complex)
            s = np.abs(pts)
            total = np.zeros(pts.shape, dtype=complex)
            for r_lo, r_hi, coeff in profile:
                eff = np.clip(s, max(r_lo, 1e-300), r_hi)
                total = total + (2.0 * coeff) * np.log(r_hi / eff)
            return total

        transform = closed
    else:
        transform = _memoized(lambda u: cauchy_transform(
            g, u, tol, multiplier=_inv_conj, attention=(0.0,)).value)

    return H0Context(g=g, C=complex(c_val), c_error=ct0.error_estimate,
                     transform=transform)


def check_h0_binomial(ctx: H0Context, n: int, lam: complex,
                      tol: float = 1e-4) -> float:
    """Residual of the binomial identity for ĥ0 at lam != 0; N <= 3.

    The left side is ĥ0(lam)^N with ĥ0(lam) from quadrature (not from the
    context's closed evaluator), so the two sides stay independent; inside
    the right-hand integrand u^N ĥ0(u)^{N-1}/conj(u) is bounded (u^N absorbs
    the conjugate pole) and ĥ0 comes from the context.
    """
    lam = complex(lam)
    if lam == 0.0:
        raise ValueError("binomial identity needs lam != 0")
    if not 1 <= n <= 3:
        raise ValueError("N must be between 1 and 3")
    g = ctx.g
    qh0 = cauchy_transform(g, lam, tol / (2.0 * n), multiplier=_inv_conj,
                           attention=(0.0,)).value
    lhs = qh0 ** n
    th0 = ctx.transform

    def mult(pts):
        pts = np.asarray(pts, dtype=complex)
        base = pts ** n * _inv_conj(pts)
        if n == 1:
            return base
        return base * th0(pts) ** (n - 1)

    integral = cauchy_transform(g, lam, tol / 2.0, multiplier=mult,
                                attention=(0.0,)).value
    rhs = ctx.C ** n / lam ** n + (n / lam ** n) * integral
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Representation of E through its own Cauchy data


def _unit_disc_kernel_section(w: complex):
    """Vectorized u -> E_D(u, w) for the unit-disc density."""
    w = complex(w)
    w_in = abs(w) < 1.0

    def section(pts):
        pts = np.asarray(pts, dtype=complex)
        inside = np.abs(pts) < 1.0
        if w_in:
            near = np.abs(pts - w) ** 2 / (1.0 - np.conj(w) * pts)
            safe = np.where(inside, 1.0 + 0.0j, pts)
            far = (pts - w) / safe
        else:
            near = np.conj((w - pts) / w)
            den = np.conj(w) * pts
            safe = np.where(inside, 1.0 + 0.0j, den)
            far = 1.0 - 1.0 / np.where(safe == 0.0, 1.0 + 0.0j, safe)
        return np.where(inside, near, far)

    return section


def _kernel_section(g: DensitySpec, w: complex, tol: float):
    """Vectorized u -> E_g(u, w); closed for a single full disc, memoized else."""
    if g.grid is None and len(g.terms) == 1:
        region, coeff = g.terms[0]
        if isinstance(region, Disk) and coeff == 1.0:
            c = complex(region.cx, region.cy)
            r = region.r
            base = _unit_disc_kernel_section((complex(w) - c) / r)

            def closed(pts):
                pts = np.asarray(pts, dtype=complex)
                return base((pts - c) / r)

            return closed

    return _memoized(lambda u: eval_E(g, u, complex(w), tol).value)


def check_representation(g: DensitySpec, w: complex, lam_points,
                         tol: float = 1e-4) -> float:
    """Max residual of E(lam,w) = 1 - (1/pi) ∫ E(u,w) g(u) / (conj(u-w)(u-lam)) dA.

    Verifies that w sits in a proven regime first: g vanishes near w, or the
    diagonal inverse-square mass at w is finite, or w is a positive-density
    point of g (disc-mass ratios at three dyadic radii).  Raises
    RegimeUnverified otherwise.
    """
    w = complex(w)
    if not _representation_regime_ok(g, w, tol):
        raise RegimeUnverified(f"no proven regime detected at w={w}")
    section = _kernel_section(g, w, tol / 10.0)
    worst = 0.0
    for lam in lam_points:
        lam = complex(lam)
        lhs = eval_E(g, lam, w, tol / 2.0).value
        raw = integrate_singular(g, [("recip_conj", w), ("recip", lam)],
                                 tol=tol * math.pi / 2.0, multiplier=section)
        residual = abs(lhs - 1.0 + raw.value / math.pi)
        worst = max(worst, residual)
    return worst


def _representation_regime_ok(g: DensitySpec, w: complex, tol: float) -> bool:
    if clear_radius(g, w) > 0.0:
        return True
    dm = integrate_diagonal(g, w, min(tol, 1e-6))
    if not dm.divergent:
        return True
    ratios = []
    for k in (3, 4, 5):
        r = g.support_radius * 2.0 ** -k
        mass, _ = disc_mass(g, w, r, 1e-9)
        ratios.append(mass / (math.pi * r * r))
    return min(ratios) > 0.05


# ---------------------------------------------------------------------------
# Distributional derivative spot-check


_STENCIL_SPACING = 0.05


def dbar_transform_stencil(g: DensitySpec, point: complex,
                           tol: float = 1e-5) -> complex:
    """Centered finite-difference dbar of ĝ at an interior point.

    dbar = (d/dx + i d/dy)/2 on a 5-point stencil of spacing 0.05; since
    -dbar ĝ = g in the distributional sense, the result approximates
    -g(point) to O(spacing^2) plus quadrature error wherever g is locally
    constant.
    """
    p = complex(point)
    h = _STENCIL_SPACING
    vals = {}
    for q in (h, -h, 1j * h, -1j * h):
        vals[q] = cauchy_transform(g, p + q, tol).value
    return ((vals[h] - vals[-h]) + 1j * (vals[1j * h] - vals[-1j * h])) / (4.0 * h)
