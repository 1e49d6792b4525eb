"""The benchmark's closed forms agree with the library's at seeded points.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench/test_oracle.py
"""

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from expkernel import (eval_E_disc, eval_E_signed_discs, eval_E_unit_disc,
                       make_density)
from expkernel.geometry import Disk

import oracle


def _point(rng, half):
    return complex(rng.uniform(-half, half), rng.uniform(-half, half))


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("seed", range(5))
def test_unit_disc_matches_library(seed):
    rng = random.Random(seed)
    for _ in range(200):
        lam, w = _point(rng, 2.0), _point(rng, 2.0)
        assert _close(oracle.unit_disc(lam, w), eval_E_unit_disc(lam, w))
    for _ in range(50):  # the diagonal, inside and outside the circle
        w = _point(rng, 2.0)
        assert _close(oracle.unit_disc(w, w), eval_E_unit_disc(w, w))


@pytest.mark.parametrize("seed", range(5))
def test_disc_matches_library(seed):
    rng = random.Random(100 + seed)
    for _ in range(200):
        c, r = _point(rng, 1.0), rng.uniform(0.2, 2.0)
        lam, w = _point(rng, 3.0), _point(rng, 3.0)
        assert _close(oracle.disc(c, r, lam, w), eval_E_disc(c, r, lam, w))


def _disk_term(c, r, coeff):
    return {"shape": {"kind": "disk", "center": [c.real, c.imag], "radius": r},
            "coeff": coeff}


@pytest.mark.parametrize("seed", range(5))
def test_signed_discs_match_library(seed):
    rng = random.Random(200 + seed)
    for _ in range(20):
        holes = []
        while len(holes) < rng.randint(2, 4):
            c, r = _point(rng, 0.6), rng.uniform(0.05, 0.2)
            if abs(c) + r < 0.95 and all(abs(c - h[0]) > r + h[1] for h in holes):
                holes.append((c, r))
        config = {"support_center": [0.0, 0.0], "support_radius": 1.0,
                  "terms": [_disk_term(0j, 1.0, 1.0)]
                  + [_disk_term(c, r, -1.0) for c, r in holes]}
        g = make_density(0j, 1.0, [(Disk(0.0, 0.0, 1.0), 1.0)]
                         + [(Disk(c.real, c.imag, r), -1.0) for c, r in holes])
        for _ in range(10):
            lam, w = _point(rng, 1.5), _point(rng, 1.5)
            assert _close(oracle.kernel(config, lam, w),
                          eval_E_signed_discs(g, lam, w))


def test_annulus_is_outer_over_inner():
    rng = random.Random(7)
    c, r_in, r_out = 0.1 - 0.2j, 0.4, 0.9
    config = {"support_center": [c.real, c.imag], "support_radius": r_out,
              "terms": [{"shape": {"kind": "annulus", "center": [c.real, c.imag],
                                   "r_inner": r_in, "r_outer": r_out},
                         "coeff": 1.0}]}
    g = make_density(c, r_out, [(Disk(c.real, c.imag, r_out), 1.0),
                                (Disk(c.real, c.imag, r_in), -1.0)])
    for _ in range(100):
        lam, w = _point(rng, 1.5), _point(rng, 1.5)
        assert _close(oracle.kernel(config, lam, w),
                      eval_E_signed_discs(g, lam, w))


def test_diagonal_cases():
    config = {"support_center": [0.5, 0.0], "support_radius": 0.5,
              "terms": [_disk_term(0.5 + 0j, 0.5, 1.0)]}
    assert oracle.kernel(config, 0.6, 0.6) == 0.0
    w = 1.5 + 0.5j
    assert math.isclose(oracle.kernel(config, w, w).real,
                        1.0 - 0.25 / abs(w - 0.5) ** 2)
    with pytest.raises(ValueError):
        oracle.kernel({"support_center": [0.0, 0.0], "support_radius": 1.0,
                       "terms": [_disk_term(0j, 1.0, 1.0),
                                 _disk_term(0.2 + 0j, 0.1, -1.0)]}, 0.5, 0.5)


def test_gate_is_ten_tolerances_relative_above_one():
    assert oracle.gate(1.0 + 9e-5, 1.0, 1e-5)[1]
    assert not oracle.gate(1.0 + 1.1e-4, 1.0, 1e-5)[1]
    assert oracle.gate(3.0 + 2.9e-4, 3.0, 1e-5)[1]
