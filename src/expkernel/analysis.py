"""Local estimators around a point of a planar density.

Three quantities tied to the local behaviour of the exponential kernel:

* the Lebesgue density  gamma = lim_{r->0} (1/ pi r^2) ∫_{D(w,r)} g dA,
* the Lipschitz exponent of lam -> |E_g(lam, w)| at a point where the
  diagonal inverse-square mass diverges (so E(w,w) = 0): the modulus decays
  like |lam - w|^{gamma - eps}, measured as the log-log slope of the maximum
  of log|E| over rays,
* the annulus growth bound: at a positive-density point (translated to 0)

      (1/2 pi) ∫_{D(0,R) \\ D(0,t)} g(u)/|u|^2 dA  >=  K - (gamma - eps) ln t

  for small t, with K calibrated once at the largest t and held fixed.

Slopes are fitted on the exponent itself (Re of the boundary-rule value of
the kernel exponent), never on exp of it, so one absolute tolerance on the
exponent serves every radius regardless of how small |E| gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensitySpec
from .quadrature import (
    boundary_log_kernel,
    disc_mass,
    integrate_diagonal,
    radial_inverse_square_integral,
)

__all__ = [
    "NonConvergent",
    "PreconditionFailed",
    "RadialSchedule",
    "FitResult",
    "default_schedule",
    "estimate_density",
    "estimate_lipschitz_exponent",
    "check_annulus_bound",
]


class NonConvergent(Exception):
    """The density ratios did not settle within the agreement window."""


class PreconditionFailed(Exception):
    """The estimator's hypothesis does not hold at the requested point."""


@dataclass(frozen=True)
class RadialSchedule:
    """Geometric radii r0 * ratio^k, k = 0..count-1."""

    r0: float
    ratio: float
    count: int

    def __post_init__(self):
        if not self.r0 > 0.0:
            raise ValueError("r0 must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")
        if self.count < 3:
            raise ValueError("need at least 3 radii")

    def radii(self) -> np.ndarray:
        return self.r0 * self.ratio ** np.arange(self.count)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    rms: float


def default_schedule(g: DensitySpec) -> RadialSchedule:
    """Eight halving radii starting at an eighth of the support radius."""
    return RadialSchedule(r0=g.support_radius / 8.0, ratio=0.5, count=8)


def estimate_density(g: DensitySpec, w: complex, schedule: RadialSchedule | None = None,
                     tol: float = 1e-6) -> float:
    """Average of the last three disc-mass ratios (1/pi r^2) ∫_{D(w,r)} g dA.

    Raises NonConvergent when the last three ratios range over more than 0.05.
    """
    w = complex(w)
    if schedule is None:
        schedule = default_schedule(g)
    ratios = []
    for r in schedule.radii():
        mass, _ = disc_mass(g, w, float(r), tol / 10.0)
        ratios.append(mass / (math.pi * r * r))
    last = ratios[-3:]
    if max(last) - min(last) > 0.05:
        raise NonConvergent(f"density ratios still moving at w={w}: {last}")
    return float(np.mean(last))


# The decay-exponent fit takes the peak over this many equally spaced rays
# per radius, each exponent to this absolute tolerance.
_FIT_DIRECTIONS = 8
_EXPONENT_TOL = 0.02


def estimate_lipschitz_exponent(g: DensitySpec, w: complex,
                                schedule: RadialSchedule | None = None) -> FitResult:
    """Log-log slope of max_theta |E(w + r e^{i theta}, w)| against r.

    Requires the diagonal to diverge at w (so E(w,w) = 0 and the decay rate
    is meaningful); raises PreconditionFailed otherwise.  Works on
    log|E| = Re of the exponent, all rays and radii in one boundary-rule
    call, with one absolute tolerance.
    """
    w = complex(w)
    if schedule is None:
        schedule = default_schedule(g)
    dm = integrate_diagonal(g, w, 1e-6)
    if not dm.divergent:
        raise PreconditionFailed(f"diagonal mass finite at w={w}")
    radii = schedule.radii()
    angles = 2.0 * math.pi * np.arange(_FIT_DIRECTIONS) / _FIT_DIRECTIONS
    f, _, _ = boundary_log_kernel(g, w, w + radii[:, None] * np.exp(1j * angles), _EXPONENT_TOL)
    x = np.log(radii)
    y = f.real.max(axis=1)
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return FitResult(slope=float(slope), intercept=float(intercept), rms=rms)


def check_annulus_bound(g: DensitySpec, R: float, t_values, eps: float,
                        gamma: float | None = None,
                        tol: float = 1e-6) -> list[tuple[float, float, float, bool]]:
    """Per-t (t, lhs, rhs, holds) for the annulus growth bound at 0.

    lhs(t) = (1/2 pi) ∫_{t <= |u| <= R} g(u)/|u|^2 dA by radial quadrature;
    rhs(t) = K - (gamma - eps) ln t with K fitted at the largest t.  The
    density gamma is estimated at 0 when not supplied.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    ts = sorted(float(t) for t in t_values)
    if not ts or ts[0] <= 0.0 or ts[-1] >= R:
        raise ValueError("need 0 < t < R for every t")
    if gamma is None:
        gamma = estimate_density(g, 0.0, tol=tol)
    rate = gamma - eps
    lhs_err = {}
    lhs = {}
    for t in ts:
        v, e = radial_inverse_square_integral(g, 0.0, t, R, tol)
        lhs[t] = 0.5 * v
        lhs_err[t] = 0.5 * e
    t_top = ts[-1]
    K = lhs[t_top] + rate * math.log(t_top)
    out = []
    for t in ts:
        rhs = K - rate * math.log(t)
        slack = lhs_err[t] + lhs_err[t_top]
        out.append((t, lhs[t], rhs, lhs[t] >= rhs - slack))
    return out
