"""Named verification suites over the library's closed forms and identities.

Each suite bundles the fixtures of one verification theme into a SuiteReport
of (check name, residual, threshold, pass) rows.  Fixtures are generated
from the fixed Mcg64 stream, so every run sees the identical panel and the
reports are reproducible byte for byte.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analysis import RadialSchedule, estimate_density, estimate_lipschitz_exponent
from .cauchy import (
    check_h0_binomial,
    check_power_identity,
    check_product_identity,
    check_representation,
    dbar_transform_stencil,
    make_h0_context,
)
from .density import (
    DensitySpec,
    GridLayer,
    Mcg64,
    annulus_density,
    disc_density,
    make_density,
    swiss_cheese,
    unit_disc_density,
)
from .geometry import Annulus, Disk
from .kernel import (
    disc_imag_integral,
    disc_imag_integral_by_quadrature,
    disc_real_integral,
    disc_real_integral_by_quadrature,
    eval_E,
    eval_E_signed_discs,
    eval_E_unit_disc,
    tail_bound_imag,
    tail_bound_real,
    tail_imag_by_quadrature,
    tail_real_by_quadrature,
)
from .quadrature import integrate_bi_singular, integrate_diagonal
from .shift import (
    check_mobius_transfer,
    check_shift_identity,
    resolvent_coeffs,
    resolvent_norm,
)

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "unit_disc_pairs",
    "bound_fixtures",
    "property_fixtures",
    "swiss_fixtures",
    "scaled_density",
    "combined_density",
    "hermitian_residual",
    "multiplicativity_residual",
    "covariance_residual",
    "swiss_factorization_residual",
    "suite_disc_closed_forms",
    "suite_lipschitz",
    "suite_representation",
    "suite_cauchy_algebra",
    "suite_shift",
    "suite_tails",
    "suite_properties",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]
    passed: bool


def _check(name: str, residual: float, threshold: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, float(threshold), residual <= threshold)


def _report(suite: str, checks: list[CheckResult]) -> SuiteReport:
    return SuiteReport(suite, tuple(checks), all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# Deterministic fixture panels


def _uniform(rng: Mcg64, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.uniform()


def _point(rng: Mcg64, half: float) -> complex:
    return complex(_uniform(rng, -half, half), _uniform(rng, -half, half))


def unit_disc_pairs(count: int = 25, seed: int = 3,
                    clearance: float = 0.05) -> list[tuple[complex, complex]]:
    """(lam, w) pairs cycling interior/mixed/exterior unit-disc regimes.

    Every point keeps `clearance` from the unit circle and every pair keeps
    it from the diagonal.
    """
    rng = Mcg64(seed)

    def sample(inside: bool) -> complex:
        while True:
            p = _point(rng, 1.8)
            r = abs(p)
            if inside and 0.0 < r <= 1.0 - clearance:
                return p
            if not inside and 1.0 + clearance <= r <= 1.8:
                return p

    pairs = []
    while len(pairs) < count:
        regime = len(pairs) % 3
        lam = sample(regime in (0, 1))
        w = sample(regime == 0)
        if abs(lam - w) >= clearance:
            pairs.append((lam, w))
    return pairs


def _random_density(rng: Mcg64) -> DensitySpec:
    kind = int(_uniform(rng, 0.0, 4.0)) % 4
    coeff = _uniform(rng, 0.2, 1.0)
    if kind == 0:
        return disc_density(_point(rng, 0.5), _uniform(rng, 0.3, 1.0), coeff)
    if kind == 1:
        r_in = _uniform(rng, 0.2, 0.5)
        return annulus_density(_point(rng, 0.3), r_in,
                               r_in + _uniform(rng, 0.2, 0.7), coeff)
    if kind == 2:
        c1, c2 = _point(rng, 0.6), _point(rng, 0.6)
        a = _uniform(rng, 0.15, 0.5)
        b = _uniform(rng, 0.15, min(0.5, 1.0 - a))
        return make_density(0j, 2.0, [
            (Disk(c1.real, c1.imag, _uniform(rng, 0.2, 0.6)), a),
            (Disk(c2.real, c2.imag, _uniform(rng, 0.2, 0.6)), b),
        ])
    values = np.array([[rng.uniform() for _ in range(4)] for _ in range(4)])
    grid = GridLayer(-0.6, -0.6, 0.3, values)
    return make_density(0j, 1.0, [], grid)


def bound_fixtures(count: int = 200, seed: int = 4):
    """Random (g, lam, w) fixtures for the global modulus bound."""
    rng = Mcg64(seed)
    out = []
    while len(out) < count:
        g = _random_density(rng)
        lam = _point(rng, 1.8)
        w = _point(rng, 1.8)
        if abs(lam - w) >= 0.08:
            out.append((g, lam, w))
    return out


def _single_region(rng: Mcg64, coeff: float):
    if rng.uniform() < 0.5:
        c = _point(rng, 0.6)
        return (Disk(c.real, c.imag, _uniform(rng, 0.2, 0.7)), coeff)
    c = _point(rng, 0.3)
    r_in = _uniform(rng, 0.2, 0.5)
    return (Annulus(c.real, c.imag, r_in, r_in + _uniform(rng, 0.2, 0.6)), coeff)


def property_fixtures(count: int = 50, seed: int = 9):
    """(g1, g2, lam, w, scale, shift) fixtures sharing one support disc."""
    rng = Mcg64(seed)
    out = []
    while len(out) < count:
        a = _uniform(rng, 0.15, 0.5)
        b = _uniform(rng, 0.15, min(0.5, 1.0 - a))
        g1 = make_density(0j, 1.6, [_single_region(rng, a)])
        g2 = make_density(0j, 1.6, [_single_region(rng, b)])
        lam = _point(rng, 2.2)
        w = _point(rng, 2.2)
        if abs(lam - w) < 0.1:
            continue
        ang = _uniform(rng, 0.0, 2.0 * math.pi)
        scale = _uniform(rng, 0.6, 1.7) * complex(math.cos(ang), math.sin(ang))
        shift = _point(rng, 0.5)
        out.append((g1, g2, lam, w, scale, shift))
    return out


def swiss_fixtures(count: int = 10, seed: int = 21):
    """(g, lam, w) with g a holed disc, for the signed-product factorization."""
    rng = Mcg64(seed)
    out = []
    i = 0
    while len(out) < count:
        g = swiss_cheese(seed + i, 2 + i % 3)
        i += 1
        lam = _point(rng, 1.8)
        w = _point(rng, 1.8)
        if abs(lam - w) >= 0.1:
            out.append((g, lam, w))
    return out


# ---------------------------------------------------------------------------
# Symmetry / multiplicativity / covariance residuals


def combined_density(g1: DensitySpec, g2: DensitySpec) -> DensitySpec:
    """Pointwise sum of two region-term densities on the same support disc."""
    if (g1.support_center != g2.support_center
            or g1.support_radius != g2.support_radius):
        raise ValueError("densities must share the support disc")
    if g1.grid is not None or g2.grid is not None:
        raise ValueError("grid layers cannot be summed")
    return make_density(g1.support_center, g1.support_radius,
                        list(g1.terms) + list(g2.terms))


def scaled_density(g: DensitySpec, scale: complex, shift: complex) -> DensitySpec:
    """Push g through u -> scale*u + shift (disc and annulus terms only)."""
    scale = complex(scale)
    shift = complex(shift)
    m = abs(scale)
    terms = []
    for region, coeff in g.terms:
        c = scale * complex(region.cx, region.cy) + shift
        if isinstance(region, Disk):
            terms.append((Disk(c.real, c.imag, m * region.r), coeff))
        elif isinstance(region, Annulus):
            terms.append((Annulus(c.real, c.imag, m * region.r_inner,
                                  m * region.r_outer), coeff))
        else:
            raise ValueError("only circular terms transform exactly")
    if g.grid is not None:
        raise ValueError("grid layers do not transform exactly")
    sc = scale * g.support_center + shift
    return make_density(sc, m * g.support_radius, terms)


def hermitian_residual(g: DensitySpec, lam: complex, w: complex,
                       tol: float = 2e-5) -> float:
    a = eval_E(g, lam, w, tol).value
    b = eval_E(g, w, lam, tol).value
    return abs(a - b.conjugate())


def multiplicativity_residual(g1: DensitySpec, g2: DensitySpec, lam: complex,
                              w: complex, tol: float = 1e-5) -> float:
    # The boundary route of eval_E is linear in g, which would make this an
    # identity: the sum takes the quadtree.
    e1 = eval_E(g1, lam, w, 2.0 * tol).value
    e2 = eval_E(g2, lam, w, 2.0 * tol).value
    e12 = cmath.exp(integrate_bi_singular(combined_density(g1, g2), w, lam, tol).value)
    return abs(e12 - e1 * e2)


def covariance_residual(g: DensitySpec, lam: complex, w: complex,
                        scale: complex, shift: complex,
                        tol: float = 2e-5) -> float:
    base = eval_E(g, lam, w, tol).value
    moved = eval_E(scaled_density(g, scale, shift),
                   scale * lam + shift, scale * w + shift, tol).value
    return abs(base - moved)


def swiss_factorization_residual(g: DensitySpec, lam: complex, w: complex,
                                 tol: float = 5e-5) -> float:
    closed = eval_E_signed_discs(g, lam, w)
    quad = eval_E(g, lam, w, tol).value
    return abs(closed - quad)


# ---------------------------------------------------------------------------
# Suites


def suite_disc_closed_forms(quad_tol: float | None = None) -> SuiteReport:
    """Unit-disc closed form, the two disc-integral families, the modulus
    bound with its sharp configuration, and the diagonal dichotomy."""
    tol = quad_tol or 1e-5
    checks = []
    g1 = unit_disc_density()

    worst = 0.0
    for lam, w in unit_disc_pairs(25):
        got = eval_E(g1, lam, w, tol).value
        worst = max(worst, abs(got - eval_E_unit_disc(lam, w)))
    checks.append(_check("unit-disc closed form vs quadrature (25 pairs)", worst, 1e-4))

    pairs = [(0.8 + 0.3j, -0.4 - 0.1j), (-1.1 + 0.7j, 0.25 + 1.3j)]
    worst = 0.0
    for lam, w in pairs:
        for alpha in (-2.0, -1.0 / 3.0, 0.0, 0.5, 3.0):
            got = disc_real_integral_by_quadrature(alpha, lam, w, tol)
            worst = max(worst, abs(got - disc_real_integral(alpha)))
    checks.append(_check("alpha-disc real integral identity", worst, 1e-4))
    worst = 0.0
    for lam, w in pairs:
        for beta in (0.5, -0.5, 2.0, -2.0):
            got = disc_imag_integral_by_quadrature(beta, lam, w, tol)
            worst = max(worst, abs(got - disc_imag_integral(beta)))
    checks.append(_check("beta-disc imaginary integral identity", worst, 1e-4))

    over = 0.0
    for g, lam, w in bound_fixtures(200):
        over = max(over, abs(eval_E(g, lam, w, quad_tol or 3e-4).value) - 2.0)
    checks.append(_check("modulus bound |E| <= 2 (200 fixtures)", over, 1e-6))
    checks.append(_check("antipodal sharpness E(1,-1) = 2",
                         abs(eval_E_unit_disc(1.0, -1.0) - 2.0), 0.0))

    bad = 0
    for r in (0.0, 0.5, 0.9):
        if not integrate_diagonal(g1, complex(r), quad_tol or 1e-6).divergent:
            bad += 1
    checks.append(_check("diagonal divergent inside the disc", bad, 0.0))
    worst = 0.0
    for r in (1.5, 2.0, 4.0):
        dm = integrate_diagonal(g1, complex(r), quad_tol or 1e-6)
        if dm.divergent:
            worst = math.inf
            break
        worst = max(worst, abs(dm.value - (-math.log(1.0 - 1.0 / r ** 2))))
    checks.append(_check("diagonal finite values outside the disc", worst, 1e-4))
    return _report("disc-closed-forms", checks)


# Gamma fixtures shared by the lipschitz suite: (g, w, expected gamma).
def _density_point_fixtures():
    return [
        (unit_disc_density(), 0.0, 1.0),
        (unit_disc_density(), 1.0, 0.5),
        (disc_density(0j, 1.0, 0.3), 0.0, 0.3),
    ]


def suite_lipschitz(quad_tol: float | None = None) -> SuiteReport:
    """Density estimation and the decay exponent of |E| at density points."""
    checks = []
    schedule = RadialSchedule(r0=2.0 ** -3, ratio=0.5, count=8)
    gammas = []
    worst = 0.0
    for g, w, want in _density_point_fixtures():
        gam = estimate_density(g, w, tol=quad_tol or 1e-6)
        gammas.append(gam)
        worst = max(worst, abs(gam - want))
    checks.append(_check("density estimate vs {1, 0.5, 0.3}", worst, 0.02))

    fit = estimate_lipschitz_exponent(unit_disc_density(), 0.0, schedule)
    checks.append(_check("unit-disc decay exponent near 2", abs(fit.slope - 2.0), 0.1))

    shortfall = 0.0
    for (g, w, _), gam in zip(_density_point_fixtures(), gammas):
        f = estimate_lipschitz_exponent(g, w, schedule)
        shortfall = max(shortfall, (gam - 0.1) - f.slope)
    checks.append(_check("decay exponent >= gamma - 0.1", shortfall, 0.0))
    return _report("lipschitz", checks)


def suite_representation(quad_tol: float | None = None) -> SuiteReport:
    """Kernel representation through its own Cauchy data, both regimes."""
    tol = quad_tol or 1e-4
    g = unit_disc_density()
    checks = []
    pts8 = [3.0, -1.5 + 0.5j, 0.5, -0.4 + 0.3j, 1.2j, 0.25 - 0.6j,
            2.0 + 2.0j, -0.7]
    checks.append(_check("representation at exterior w = 2 (8 points)",
                         check_representation(g, 2.0, pts8, tol), 1e-3))
    pts6 = [0.5, -0.3 + 0.2j, 0.8, 0.1 + 0.7j, -0.6 - 0.4j, 0.35j]
    checks.append(_check("representation at density point w = 0 (6 points)",
                         check_representation(g, 0.0, pts6, tol), 1e-3))
    return _report("representation", checks)


def suite_cauchy_algebra(quad_tol: float | None = None) -> SuiteReport:
    """Product/power/binomial transform identities and the dbar spot-check."""
    tol = quad_tol or 1e-4
    g = unit_disc_density()
    checks = []
    panel = [0.0, 2.0, 0.5 + 0.5j, -1.5j, 1.2, -0.8 + 0.1j]
    checks.append(_check("product identity on the disc panel",
                         check_product_identity(g, g, panel, tol), 1e-3))
    checks.append(_check("power identity N = 2",
                         check_power_identity(g, 2, [0.0, 2.0, 1.5j], tol), 1e-3))
    ctx = make_h0_context(annulus_density(0j, 0.5, 1.0), quad_tol or 1e-6)
    worst = max(check_h0_binomial(ctx, 1, 0.7, tol),
                check_h0_binomial(ctx, 2, 1.5, tol))
    checks.append(_check("h0 binomial identity N = 1, 2", worst, 2e-3))
    db = dbar_transform_stencil(g, 0.2 + 0.1j, quad_tol or 1e-5)
    checks.append(_check("dbar stencil reproduces -density", abs(db + 1.0), 1e-2))
    return _report("cauchy-algebra", checks)


def suite_shift(quad_tol: float | None = None) -> SuiteReport:
    """Hardy-space resolvent identities of the unilateral shift."""
    checks = []
    rng = Mcg64(17)
    worst = 0.0
    for _ in range(40):
        lam, w = _point(rng, 0.65), _point(rng, 0.65)
        worst = max(worst, check_shift_identity(lam, w, 256, 1e-10))
    checks.append(_check("interior resolvent identity (40 pairs)", worst, 1e-10))
    worst = 0.0
    done = 0
    while done < 20:
        lam, w = _point(rng, 2.5), _point(rng, 2.5)
        if abs(lam) < 1.05 or abs(w) < 1.05:
            continue
        worst = max(worst, check_shift_identity(lam, w, 256, 1e-12))
        done += 1
    checks.append(_check("exterior resolvent identity (20 pairs)", worst, 1e-12))

    worst = 0.0
    for alpha in (-1.0 / 3.0, 0.0):
        worst = max(worst, check_mobius_transfer(alpha, 0.8 + 0.3j, -0.4 - 0.1j,
                                                 quad_tol or 1e-5))
    checks.append(_check("alpha-disc transfer to the shift value", worst, 1e-4))

    worst = 0.0
    for lam in (0.3, 0.5 + 0.2j, -0.7j, 0.9):
        worst = max(worst, abs(resolvent_norm(resolvent_coeffs(lam, 256)) - 1.0))
    for lam in (1.0, 1.5, 2.0 + 1.0j, -4.0):
        worst = max(worst, abs(resolvent_norm(resolvent_coeffs(lam, 256))
                               - 1.0 / abs(lam)))
    checks.append(_check("resolvent norms by regime", worst, 1e-6))
    return _report("shift", checks)


def suite_tails(quad_tol: float | None = None) -> SuiteReport:
    """Closed tail bounds: positivity, decrease, smallness, quadrature anchor.

    The smallness check at N >= 64 is the documented known-red clause: the
    exact bounds are ~1/N and first fall below 1e-2 at N = 128 (see the
    README's "Known red" paragraph).
    """
    checks = []
    orders = [2.0 ** k for k in range(1, 11)]
    reals = [tail_bound_real(n) for n in orders]
    imags = [tail_bound_imag(n) for n in orders]
    bad = 0
    for seq in (reals, imags):
        if min(seq) <= 0.0:
            bad += 1
        if any(b >= a for a, b in zip(seq, seq[1:])):
            bad += 1
    checks.append(_check("tails positive and strictly decreasing (N = 2..1024)",
                         bad, 0.0))
    small = max(max(r for n, r in zip(orders, reals) if n >= 64),
                max(i for n, i in zip(orders, imags) if n >= 64))
    checks.append(_check("tails below 1e-2 for N >= 64", small, 1e-2))
    lam, w = 0.8 + 0.3j, -0.4 - 0.1j
    tol = quad_tol or 1e-5
    worst = max(abs(tail_real_by_quadrature(lam, w, 2.0, tol) - tail_bound_real(2.0)),
                abs(tail_imag_by_quadrature(lam, w, 2.0, tol) - tail_bound_imag(2.0)))
    checks.append(_check("quadrature cross-check at N = 2", worst, 1e-3))
    return _report("tails", checks)


def suite_properties(quad_tol: float | None = None) -> SuiteReport:
    """Hermitian symmetry, sum multiplicativity, affine covariance, and the
    signed-disc factorization, over the shared random fixture panel."""
    checks = []
    herm = mult = cov = 0.0
    for g1, g2, lam, w, scale, shift in property_fixtures(50):
        herm = max(herm, hermitian_residual(g1, lam, w, quad_tol or 2e-5))
        mult = max(mult, multiplicativity_residual(g1, g2, lam, w,
                                                   quad_tol or 1e-5))
        cov = max(cov, covariance_residual(g1, lam, w, scale, shift,
                                           quad_tol or 2e-5))
    checks.append(_check("Hermitian symmetry (50 fixtures)", herm, 1e-4))
    checks.append(_check("density-sum multiplicativity (50 fixtures)", mult, 1e-4))
    checks.append(_check("affine covariance (50 fixtures)", cov, 1e-4))
    worst = 0.0
    for g, lam, w in swiss_fixtures(10):
        worst = max(worst, swiss_factorization_residual(g, lam, w,
                                                        quad_tol or 5e-5))
    checks.append(_check("signed-disc factorization (10 holed discs)", worst, 1e-3))
    return _report("properties", checks)


# The named suites reachable from the command line.
SUITES = {
    "disc-closed-forms": suite_disc_closed_forms,
    "lipschitz": suite_lipschitz,
    "representation": suite_representation,
    "cauchy-algebra": suite_cauchy_algebra,
    "shift": suite_shift,
    "tails": suite_tails,
    "properties": suite_properties,
}
