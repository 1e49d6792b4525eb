"""Truncated Hardy-space model of the unilateral shift.

The shift U (multiplication by z on H^2) has rank-one self-commutator and
principal density 1_D.  Its local resolvents at the cyclic vector 1 have
explicit Taylor coefficients:

    |lam| < 1:   (z - lam)/(1 - conj(lam) z) = -lam + sum_{n>=1} (1-|lam|^2) conj(lam)^{n-1} z^n
    |lam| >= 1:  the constant -1/conj(lam)

(the inside form expands the geometric series 1/(1 - conj(lam) z); points on
the unit circle use the outside form).  Truncating at N terms leaves a
geometric tail, so the inner-product identity

    1 - <resolvent(w), resolvent(lam)> = E_D(lam, w)

is checkable to near machine precision, and integrating the kernel exponent
over the alpha-family disc D_{lam,alpha} transfers to the fixed pair
(s_alpha, 1) with s_alpha = (1+alpha)/(alpha-1), giving
exp(integral) = 2/(1+|alpha|) for every alpha < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import eval_E_unit_disc, mobius_real_disc
from .quadrature import boundary_log_kernel

__all__ = [
    "TailTooLarge",
    "CoeffVector",
    "ShiftResolvent",
    "resolvent_coeffs",
    "h2_inner",
    "resolvent_norm",
    "inner_tail_bound",
    "check_shift_identity",
    "check_mobius_transfer",
]

INSIDE = "inside"
OUTSIDE = "outside"


class TailTooLarge(Exception):
    """The truncation tail exceeds the requested tolerance."""


@dataclass(frozen=True)
class CoeffVector:
    """Taylor coefficients c_0..c_{N-1} of a function on the unit disc."""

    coeffs: np.ndarray
    truncation: int

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class ShiftResolvent:
    lam: complex
    regime: str  # inside | outside
    vector: CoeffVector


def resolvent_coeffs(lam: complex, n: int = 256) -> ShiftResolvent:
    """Truncated coefficients of the shift's local resolvent at 1."""
    if n < 2:
        raise ValueError("need at least 2 coefficients")
    lam = complex(lam)
    c = np.zeros(n, dtype=complex)
    if abs(lam) < 1.0:
        c[0] = -lam
        c[1:] = (1.0 - abs(lam) ** 2) * np.conj(lam) ** np.arange(n - 1)
        return ShiftResolvent(lam, INSIDE, CoeffVector(c, n))
    c[0] = -1.0 / np.conj(lam)
    return ShiftResolvent(lam, OUTSIDE, CoeffVector(c, n))


def h2_inner(a: CoeffVector, b: CoeffVector) -> complex:
    """H^2 inner product sum a_n conj(b_n), zero-padding the shorter vector."""
    m = min(a.truncation, b.truncation)
    return complex(np.sum(a.coeffs[:m] * np.conj(b.coeffs[:m])))


def resolvent_norm(res: ShiftResolvent) -> float:
    return res.vector.norm()


def inner_tail_bound(a: ShiftResolvent, b: ShiftResolvent) -> float:
    """Bound on the inner-product truncation remainder for two resolvents.

    Outside resolvents are a single coefficient, so only the inside/inside
    pairing leaves a geometric tail.
    """
    if a.regime == OUTSIDE or b.regime == OUTSIDE:
        return 0.0
    ra, rb = abs(a.lam), abs(b.lam)
    n = min(a.vector.truncation, b.vector.truncation)
    rho = ra * rb
    if rho >= 1.0:  # cannot happen for inside/inside, kept for safety
        return math.inf
    return (1.0 - ra * ra) * (1.0 - rb * rb) * rho ** (n - 1) / (1.0 - rho)


def check_shift_identity(lam: complex, w: complex, n: int = 256,
                         tol: float = 1e-10) -> float:
    """Residual of 1 - <resolvent(w), resolvent(lam)> = E_D(lam, w).

    Raises TailTooLarge when the truncation remainder alone exceeds tol.
    """
    res_w = resolvent_coeffs(complex(w), n)
    res_l = resolvent_coeffs(complex(lam), n)
    tail = inner_tail_bound(res_w, res_l)
    if tail > tol:
        raise TailTooLarge(f"truncation tail {tail:.3e} exceeds tol {tol:.3e}")
    inner = h2_inner(res_w.vector, res_l.vector)
    return abs(1.0 - inner - eval_E_unit_disc(complex(lam), complex(w)))


def check_mobius_transfer(alpha: float, lam: complex, w: complex,
                          tol: float = 1e-5) -> float:
    """Exp-level residual of the alpha-disc integral against the shift value.

    The kernel exponent over D_{lam,alpha}, by the boundary rule, should satisfy
    exp(value) = E_D(s_alpha, 1) = 2/(1+|alpha|), independent of lam, w.
    """
    if alpha >= 1.0:
        raise ValueError("alpha must be < 1")
    lam = complex(lam)
    w = complex(w)
    if lam == w:
        raise ValueError("need lam != w")
    params = mobius_real_disc(lam, w, alpha)
    f, _, _ = boundary_log_kernel(params.density(), w, [lam], tol)
    s = (1.0 + alpha) / (alpha - 1.0)
    closed = eval_E_unit_disc(complex(s), 1.0)
    return float(abs(np.exp(f[0]) - closed))
