"""Closed-form reference values of E_g(lam, w), kept apart from expkernel.

The benchmark gates every value the CLI prints against these formulas.  They
live here, not in ``expkernel.kernel``, so that a change to the library
cannot move the reference it is measured against.

* Unit disc, four cases (circle points use the outside formulas):

      |lam - w|^2 / (1 - conj(w) lam)   lam, w in D
      conj((w - lam) / w)               lam in D, w outside
      (lam - w) / lam                   w in D, lam outside
      1 - 1 / (conj(w) lam)             both outside

  On the diagonal the same expressions give 0 inside and 1 - 1/|w|^2 on
  and outside the circle, which is the diagonal dichotomy of the disc.
* A disc D(c, r) by affine covariance: E(lam, w) = E_unit((lam-c)/r, (w-c)/r).
* The exponent is linear in g, so a density that is a signed integer sum of
  disc and annulus indicators has E equal to the product of its disc
  kernels raised to the coefficients; an annulus is outer over inner disc.

Densities are the JSON config dicts the CLI reads.
"""

from __future__ import annotations


def unit_disc(lam: complex, w: complex) -> complex:
    lam = complex(lam)
    w = complex(w)
    lam_in = abs(lam) < 1.0
    w_in = abs(w) < 1.0
    if lam_in and w_in:
        return abs(lam - w) ** 2 / (1.0 - w.conjugate() * lam)
    if lam_in:
        return ((w - lam) / w).conjugate()
    if w_in:
        return (lam - w) / lam
    return 1.0 - 1.0 / (w.conjugate() * lam)


def disc(center: complex, radius: float, lam: complex, w: complex) -> complex:
    center = complex(center)
    return unit_disc((complex(lam) - center) / radius,
                     (complex(w) - center) / radius)


def _factors(config: dict):
    """(center, radius, integer power) for every disc factor of the config."""
    if "grid" in config:
        raise ValueError("no closed form for a grid layer")
    out = []
    for term in config["terms"]:
        shape = term["shape"]
        n = int(round(term["coeff"]))
        if n != term["coeff"]:
            raise ValueError("closed form needs integer coefficients")
        c = complex(*shape["center"])
        if shape["kind"] == "disk":
            out.append((c, shape["radius"], n))
        elif shape["kind"] == "annulus":
            out.append((c, shape["r_outer"], n))
            if shape["r_inner"] > 0.0:
                out.append((c, shape["r_inner"], -n))
        else:
            raise ValueError(f"no closed form for shape {shape['kind']!r}")
    return out


def kernel(config: dict, lam: complex, w: complex) -> complex:
    """E_g(lam, w) for a config of integer-weighted discs and annuli.

    On the diagonal only a single unit-weight disc is supported: a hole or
    annulus factor degenerates to 0/0 there.
    """
    lam = complex(lam)
    w = complex(w)
    factors = _factors(config)
    if lam == w:
        if len(factors) != 1 or factors[0][2] != 1:
            raise ValueError("diagonal closed form needs a single unit disc")
        c, r, _ = factors[0]
        return disc(c, r, lam, w)
    value = 1.0 + 0.0j
    for c, r, n in factors:
        value *= disc(c, r, lam, w) ** n
    return value


def gate(value: complex, ref: complex, tol: float) -> tuple[float, bool]:
    """(relative error, passed) under |E - E_ref| <= 10 tol max(1, |E_ref|)."""
    scale = max(1.0, abs(ref))
    err = abs(value - ref)
    return err / scale, err <= 10.0 * tol * scale
