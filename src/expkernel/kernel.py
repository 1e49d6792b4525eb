"""Exponential kernel of a planar density and its closed disc forms.

For a measurable density 0 <= g <= 1 with compact support the kernel is

    E_g(lam, w) = exp( -(1/pi) ∫ g(u) / (conj(u - w) (u - lam)) dA(u) ),

defined off the diagonal by the absolutely convergent integral and on the
diagonal by the dichotomy of I(w) = (1/pi) ∫ g(u) |u - w|^{-2} dA(u):
E(w, w) = 0 when I(w) diverges and exp(-I(w)) otherwise.

For the characteristic function of the unit disc D the kernel has the exact
piecewise form

    E(lam, w) = |lam - w|^2 / (1 - conj(w) lam)   lam, w in D,
                conj((w - lam) / w)               lam in D, w outside,
                (lam - w) / lam                   w in D, lam outside,
                1 - 1 / (conj(w) lam)             both outside,

with points on the unit circle handled by the outside formulas.  General
discs reduce to this one by translation/dilation covariance of the defining
integral.  Two one-parameter families of discs through lam provide exact
values for the real and imaginary parts of the exponent and yield the
closed-form tail bounds used to truncate the singular integral.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

from .density import DensitySpec, disc_density
from .geometry import Disk
from .quadrature import (
    integrate_bi_singular,
    integrate_diagonal,
    radial_inverse_square_integral,
)

__all__ = [
    "PoleCaseError",
    "ZeroDivisorError",
    "KernelValue",
    "MobiusDiscParams",
    "mobius_real_disc",
    "mobius_imag_disc",
    "eval_E",
    "eval_E_unit_disc",
    "eval_E_disc",
    "eval_E_signed_discs",
    "disc_real_integral",
    "disc_imag_integral",
    "disc_real_integral_by_quadrature",
    "disc_imag_integral_by_quadrature",
    "tail_bound_real",
    "tail_bound_imag",
    "tail_real_by_quadrature",
    "tail_imag_by_quadrature",
    "prelim_bound_check",
]

OFF_DIAGONAL = "off_diagonal"
DIAGONAL_FINITE = "diagonal_finite"
DIAGONAL_DIVERGENT = "diagonal_divergent"


class PoleCaseError(ArithmeticError):
    """A closed-form denominator vanished; the value is reported, not inf."""


class ZeroDivisorError(ArithmeticError):
    """A signed-disc factor with negative exponent evaluated to zero."""


@dataclass(frozen=True)
class KernelValue:
    """One kernel evaluation with its diagonal classification."""

    value: complex
    diagonal_case: str  # off_diagonal | diagonal_finite | diagonal_divergent
    error_estimate: float


@dataclass(frozen=True)
class MobiusDiscParams:
    """Disc through lam from the alpha (real-part) or beta (imag-part) family.

    The alpha family D_{lam,alpha} has center (w + lam + alpha (lam - w))/2
    and radius |(lam - w)(1 - alpha)| / 2; lam always lies on its boundary
    and w is interior exactly when alpha < 0.  The beta family (beta != 0)
    has center lam + i (lam - w) beta / 2 and radius |beta (lam - w)| / 2;
    w stays strictly outside.
    """

    lam: complex
    w: complex
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if (self.alpha is None) == (self.beta is None):
            raise ValueError("exactly one of alpha/beta must be set")
        if self.beta == 0.0:
            raise ValueError("beta must be nonzero")

    @property
    def center(self) -> complex:
        if self.alpha is not None:
            return (self.w + self.lam + self.alpha * (self.lam - self.w)) / 2.0
        return self.lam + 1j * (self.lam - self.w) * self.beta / 2.0

    @property
    def radius(self) -> float:
        if self.alpha is not None:
            return abs((self.lam - self.w) * (1.0 - self.alpha)) / 2.0
        return abs(self.beta * (self.lam - self.w)) / 2.0

    def density(self, coeff: float = 1.0) -> DensitySpec:
        return disc_density(self.center, self.radius, coeff)


def mobius_real_disc(lam: complex, w: complex, alpha: float) -> MobiusDiscParams:
    return MobiusDiscParams(lam=lam, w=w, alpha=alpha)


def mobius_imag_disc(lam: complex, w: complex, beta: float) -> MobiusDiscParams:
    return MobiusDiscParams(lam=lam, w=w, beta=beta)


# ---------------------------------------------------------------------------
# Kernel evaluation


def eval_E(g: DensitySpec, lam: complex, w: complex, tol: float = 1e-6) -> KernelValue:
    """Evaluate E_g(lam, w) by adaptive quadrature of the exponent.

    Off the diagonal the exponent is integrated directly; on the diagonal the
    inverse-square mass decides between 0 (divergent) and exp(-I) (finite).
    The quadrature error err on the exponent propagates to |E| (e^err - 1).
    """
    lam = complex(lam)
    w = complex(w)
    if lam == w:
        dm = integrate_diagonal(g, w, tol)
        if dm.divergent:
            return KernelValue(0.0 + 0.0j, DIAGONAL_DIVERGENT, 0.0)
        value = math.exp(-dm.value)
        return KernelValue(complex(value), DIAGONAL_FINITE,
                           value * math.expm1(dm.error_estimate))
    res = integrate_bi_singular(g, w, lam, tol)
    value = cmath.exp(res.value)
    return KernelValue(value, OFF_DIAGONAL,
                       abs(value) * math.expm1(res.error_estimate))


def eval_E_unit_disc(lam: complex, w: complex) -> complex:
    """Exact kernel of the unit-disc characteristic function.

    Circle points use the outside formulas; the diagonal comes out right by
    itself (0 inside, 1 - 1/|w|^2 on and outside the circle).  A vanishing
    denominator is reported as PoleCaseError rather than returned as inf.
    """
    lam = complex(lam)
    w = complex(w)
    lam_in = abs(lam) < 1.0
    w_in = abs(w) < 1.0
    if lam_in and w_in:
        den = 1.0 - w.conjugate() * lam
        if den == 0.0:
            raise PoleCaseError(f"1 - conj(w) lam = 0 at lam={lam}, w={w}")
        return abs(lam - w) ** 2 / den
    if lam_in:
        if w == 0.0:
            raise PoleCaseError("w = 0 in the exterior-w case")
        return ((w - lam) / w).conjugate()
    if w_in:
        if lam == 0.0:
            raise PoleCaseError("lam = 0 in the exterior-lam case")
        return (lam - w) / lam
    den = w.conjugate() * lam
    if den == 0.0:
        raise PoleCaseError(f"conj(w) lam = 0 at lam={lam}, w={w}")
    return 1.0 - 1.0 / den


def eval_E_disc(center: complex, radius: float, lam: complex, w: complex) -> complex:
    """Kernel of a disc characteristic function, by covariance of the exponent.

    The defining integral is invariant under u -> a u + b applied to all of
    g, lam, w at once, so a general disc reduces to the unit disc.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    center = complex(center)
    return eval_E_unit_disc((complex(lam) - center) / radius,
                            (complex(w) - center) / radius)


def eval_E_signed_discs(g: DensitySpec, lam: complex, w: complex) -> complex:
    """Product of disc closed forms for a density built from +-1 disc terms.

    The exponent is linear in g, so E of a signed sum of disc indicators is
    the product of per-disc kernels raised to the (integer) coefficients.
    Restricted to lam != w: on the diagonal of a hole disc the factorization
    degenerates to 0/0 and callers must fall back to eval_E.
    """
    lam = complex(lam)
    w = complex(w)
    if lam == w:
        raise ValueError("signed-disc factorization is off-diagonal only")
    if g.grid is not None:
        raise ValueError("signed-disc evaluation supports disc terms only")
    result = 1.0 + 0.0j
    for region, coeff in g.terms:
        if not isinstance(region, Disk):
            raise ValueError("signed-disc evaluation supports disc terms only")
        n = int(round(coeff))
        if n != coeff:
            raise ValueError("signed-disc coefficients must be integers")
        if n == 0:
            continue
        base = eval_E_disc(complex(region.cx, region.cy), region.r, lam, w)
        if n < 0 and base == 0.0:
            raise ZeroDivisorError(
                f"hole factor vanished at lam={lam}, w={w}")
        result *= base ** n
    return result


# ---------------------------------------------------------------------------
# Closed disc integrals and their quadrature counterparts


def disc_real_integral(alpha: float) -> float:
    """-(1/pi) ∫_{D_{lam,alpha}} Re[(u-w)/((u-lam)|u-w|^2)] dA = ln(2/(1+|alpha|)).

    Independent of lam and w; alpha = 1 gives the empty disc and 0.
    """
    return math.log(2.0 / (1.0 + abs(alpha)))


def disc_imag_integral(beta: float) -> float:
    """-(1/pi) ∫_{Delta_{lam,beta}} Im[...] dA = arctan(beta/2), beta != 0."""
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    return math.atan(beta / 2.0)


def disc_real_integral_by_quadrature(alpha: float, lam: complex, w: complex,
                                     tol: float = 1e-5) -> float:
    """Real part of the exponent over D_{lam,alpha}, by adaptive quadrature."""
    params = mobius_real_disc(complex(lam), complex(w), alpha)
    if params.radius == 0.0:
        return 0.0
    res = integrate_bi_singular(params.density(), complex(w), complex(lam), tol)
    return res.value.real


def disc_imag_integral_by_quadrature(beta: float, lam: complex, w: complex,
                                     tol: float = 1e-5) -> float:
    """Imaginary part of the exponent over Delta_{lam,beta}, by quadrature."""
    params = mobius_imag_disc(complex(lam), complex(w), beta)
    res = integrate_bi_singular(params.density(), complex(w), complex(lam), tol)
    return res.value.imag


# ---------------------------------------------------------------------------
# Tail bounds


def tail_bound_real(n: float) -> float:
    """Worst-case (g = 1) real-part mass outside the order-n disc pair.

    The remainder region D_{lam,n/(n-1)} ∪ D_{lam,n/(n+1)} contributes at
    most ln((2n+2)/(2n+1)) + ln((2n-1)/(2n-2)), assembled from the closed
    alpha-disc integral at alpha = n/(n+1) and n/(n-1).  Decreases to 0.
    """
    if n <= 1.0:
        raise ValueError("tail order must exceed 1")
    return math.log((2.0 * n + 2.0) / (2.0 * n + 1.0)) + math.log(
        (2.0 * n - 1.0) / (2.0 * n - 2.0))


def tail_bound_imag(n: float) -> float:
    """Worst-case imaginary-part mass over Delta_{lam,1/n} ∪ Delta_{lam,-1/n}."""
    if n <= 1.0:
        raise ValueError("tail order must exceed 1")
    return 2.0 * math.atan(1.0 / (2.0 * n))


def tail_real_by_quadrature(lam: complex, w: complex, n: float,
                            tol: float = 1e-5) -> float:
    """Assemble tail_bound_real(n) from quadrature over the two alpha discs."""
    inner = disc_real_integral_by_quadrature(n / (n + 1.0), lam, w, tol)
    outer = disc_real_integral_by_quadrature(n / (n - 1.0), lam, w, tol)
    return inner - outer


def tail_imag_by_quadrature(lam: complex, w: complex, n: float,
                            tol: float = 1e-5) -> float:
    """Assemble tail_bound_imag(n) from quadrature over the two beta discs."""
    plus = disc_imag_integral_by_quadrature(1.0 / n, lam, w, tol)
    minus = disc_imag_integral_by_quadrature(-1.0 / n, lam, w, tol)
    return plus - minus


# ---------------------------------------------------------------------------
# Preliminary modulus bound


def prelim_bound_check(g: DensitySpec, lam: complex, w: complex,
                       tol: float = 1e-6) -> tuple[float, float, bool]:
    """Check |E(lam,w)| <= 2 exp(-(1/2pi) ∫_{C \\ D(w,|lam-w|)} g |u-w|^{-2} dA).

    Returns (lhs, rhs, holds) with holds allowing the combined quadrature
    tolerance.  The exterior integral is radial and runs out to the far edge
    of the support disc, beyond which g vanishes.
    """
    lam = complex(lam)
    w = complex(w)
    if lam == w:
        raise ValueError("prelim bound needs lam != w")
    kv = eval_E(g, lam, w, tol)
    lhs = abs(kv.value)
    r_in = abs(lam - w)
    reach = abs(w - g.support_center) + g.support_radius
    if reach <= r_in:
        exterior = 0.0
        ext_err = 0.0
    else:
        exterior, ext_err = radial_inverse_square_integral(g, w, r_in, reach, tol)
    rhs = 2.0 * math.exp(-0.5 * exterior)
    slack = kv.error_estimate + rhs * math.expm1(0.5 * ext_err) + tol
    return lhs, rhs, lhs <= rhs + slack
