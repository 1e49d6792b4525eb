"""Inputs, CLI calls and output checks of the benchmark workloads.

Every input is drawn from ``random.Random`` seeded with a string built from
the workload, the ``--seed`` value, the round and the slot, so the same seed
gives the same inputs.  The continuous parameter that sets the cost of a
call (how deep inside the support a point sits, how close a pair is to the
diagonal) is stratified over each block of four rounds: the seed moves it
within its quarter of the range, the round picks the quarter.  Runs on
different seeds therefore do comparable work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle


# ---------------------------------------------------------------------------
# Calling the CLI


@dataclass
class Call:
    argv: list
    exit: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str | None = None  # an exception that escaped cli.main

    def first_stderr_line(self) -> str:
        if self.error:
            return self.error
        lines = self.stderr.strip().splitlines()
        return lines[0] if lines else ""


def run_cli(cli, argv) -> Call:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a recorded failure, never fatal here
        code = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    return Call(list(argv), code, out.getvalue(), err.getvalue(), seconds, error)


@dataclass
class Outcome:
    values: int = 0            # kernel values (or verdict rows) checked
    passed: int = 0            # of those, within the accuracy gate
    max_err: float = 0.0       # worst |E - E_ref| / max(1, |E_ref|)
    reason: str | None = None  # why the call failed, None when it did not
    payload: bytes = b""       # the bytes the determinism check compares


@dataclass
class Job:
    argv: list
    check: object  # Call -> Outcome
    label: str


def _fmt(x: float) -> str:
    return repr(float(x))


def _cpx(z: complex) -> str:
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


def _exit_reason(call: Call, expected: int = 0) -> str | None:
    if call.error is not None:
        return f"exception {call.error}"
    if call.exit != expected:
        return f"exit {call.exit}: {call.first_stderr_line()}"
    return None


# ---------------------------------------------------------------------------
# Density configs and point pairs


def _disk(c: complex, r: float, coeff: float = 1.0) -> dict:
    return {"shape": {"kind": "disk", "center": [c.real, c.imag], "radius": r},
            "coeff": coeff}


def _annulus(c: complex, r_in: float, r_out: float) -> dict:
    return {"shape": {"kind": "annulus", "center": [c.real, c.imag],
                      "r_inner": r_in, "r_outer": r_out}, "coeff": 1.0}


def _config(c: complex, r: float, terms: list) -> dict:
    return {"support_center": [c.real, c.imag], "support_radius": r, "terms": terms}


def _at(rng: random.Random, c: complex, r: float) -> complex:
    """A point at distance r from c, at a random angle."""
    t = rng.uniform(0.0, 2.0 * math.pi)
    return c + r * complex(math.cos(t), math.sin(t))


def _stratum(rng: random.Random, k: int) -> float:
    """Uniform in the quarter (k mod 4) of [0, 1)."""
    return (k % 4 + rng.random()) / 4.0


def swiss_config(rng: random.Random, holes: int, avoid: complex | None = None) -> dict:
    """Unit disc minus `holes` disjoint discs of radii 0.25, 0.125, ...,
    each kept 0.1 clear of the point `avoid` when one is given."""
    placed: list[tuple[complex, float]] = [] if avoid is None else [(avoid, 0.08)]
    for i in range(holes):
        r = 0.5 * 2.0 ** -(i + 1)
        while True:
            c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if abs(c) <= 0.98 - r and all(abs(c - h) > r + hr + 0.02 for h, hr in placed):
                placed.append((c, r))
                break
    cut = placed if avoid is None else placed[1:]
    return _config(0j, 1.0, [_disk(0j, 1.0)] + [_disk(c, r, -1.0) for c, r in cut])


def density_config(rng: random.Random, kind: str, holes: int = 3) -> dict:
    if kind == "unit-disc":
        return _config(0j, 1.0, [_disk(0j, 1.0)])
    if kind == "offset-disc":
        c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        r = rng.uniform(0.4, 1.1)
        return _config(c, r, [_disk(c, r)])
    if kind == "annulus":
        c = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        r_in = rng.uniform(0.3, 0.4)
        r_out = r_in + rng.uniform(0.4, 0.5)
        return _config(c, r_out, [_annulus(c, r_in, r_out)])
    if kind == "swiss":
        return swiss_config(rng, holes)
    raise ValueError(kind)


def _circles(config: dict) -> list[tuple[complex, float]]:
    out = []
    for term in config["terms"]:
        s = term["shape"]
        c = complex(*s["center"])
        if s["kind"] == "disk":
            out.append((c, s["radius"]))
        else:
            out += [(c, s["r_inner"]), (c, s["r_outer"])]
    return out


def pair(rng: random.Random, config: dict, regime: str, s: float,
         flip: bool) -> tuple[complex, complex]:
    """(lam, w) in one regime relative to the support disc D(c, R).

    ``s`` in [0, 1) sets the cost: how deep inside or how far outside the
    disc lam sits (w sits at the depth of s + 1/2), which side of a circle a
    near-boundary lam takes, and -log10 of the separation, on 2 .. 5.8, of a
    near-diagonal pair.  Angles are free.  Apart from the near-diagonal
    regime, lam and w stay 0.05 R apart.
    """
    c = complex(*config["support_center"])
    R = config["support_radius"]
    s2 = (s + 0.5) % 1.0

    def inner(f):
        return _at(rng, c, 0.9 * R * math.sqrt(f))

    def outer(f):
        return _at(rng, c, R * (1.1 + 0.7 * f))

    def apart(lam, draw_w):
        while True:
            w = draw_w(s2)
            if abs(lam - w) >= 0.05 * R:
                return lam, w

    if regime == "interior":
        return apart(inner(s), inner)
    if regime == "exterior":
        return apart(outer(s), outer)
    if regime == "mixed":
        lam, w = apart(inner(s), outer)
        return (w, lam) if flip else (lam, w)
    if regime == "near-boundary":
        cc, rr = rng.choice(_circles(config))
        return apart(_at(rng, cc, rr * (1.0 + (2.0 * s - 1.0) * 1e-3)),
                     outer if flip else inner)
    if regime == "near-diagonal":
        lam = _at(rng, c, R * (1.2 + 0.3 * s2) if flip else 0.7 * R * math.sqrt(s2))
        return lam, _at(rng, lam, 10.0 ** -(2.0 + 3.8 * s))
    if regime == "diagonal":
        w = inner(s)
        return w, w
    raise ValueError(regime)


# ---------------------------------------------------------------------------
# Output checks


_VALUE = re.compile(r"value: (\S+)")


def parse_eval(stdout: str) -> complex:
    m = _VALUE.match(stdout)
    if m is None:
        raise ValueError(f"no value line in {stdout[:80]!r}")
    return complex(m.group(1))


def eval_job(path: Path, config: dict, lam: complex, w: complex, tol: float,
             label: str) -> Job:
    ref = oracle.kernel(config, lam, w)

    def check(call: Call) -> Outcome:
        reason = _exit_reason(call)
        if reason:
            return Outcome(1, 0, 0.0, reason)
        try:
            value = parse_eval(call.stdout)
        except ValueError as exc:
            return Outcome(1, 0, 0.0, f"unparsed output: {exc}")
        err, ok = oracle.gate(value, ref, tol)
        return Outcome(1, int(ok), err,
                       None if ok else f"gate: err {err:.3e} > 10*tol {10 * tol:.0e}",
                       call.stdout.encode())

    argv = ["eval", str(path), "--lam", _cpx(lam), "--w", _cpx(w), "--tol", _fmt(tol)]
    return Job(argv, check, label)


def grid_job(path: Path, csv: Path, config: dict, w: complex, bounds, n: int,
             tol: float, label: str) -> Job:
    def check(call: Call) -> Outcome:
        reason = _exit_reason(call)
        if reason:
            return Outcome(n * n, 0, 0.0, reason)
        try:
            data = csv.read_bytes()
        except OSError as exc:
            return Outcome(n * n, 0, 0.0, f"no CSV: {exc}")
        rows = data.decode("ascii").splitlines()
        if rows[:1] != ["x,y,re_E,im_E,abs_E,err"] or len(rows) != n * n + 1:
            return Outcome(n * n, 0, 0.0, f"CSV shape: {len(rows)} lines", data)
        passed, worst = 0, 0.0
        for row in rows[1:]:
            try:
                x, y, re_e, im_e = (float(t) for t in row.split(",")[:4])
            except ValueError:
                return Outcome(n * n, passed, worst, f"CSV row {row!r}", data)
            err, ok = oracle.gate(complex(re_e, im_e),
                                  oracle.kernel(config, complex(x, y), w), tol)
            passed += ok
            worst = max(worst, err)
        reason = None if passed == n * n else f"gate: {n * n - passed} nodes miss"
        return Outcome(n * n, passed, worst, reason, data)

    argv = ["grid", str(path), "--w", _cpx(w), "--bounds", ",".join(map(_fmt, bounds)),
            "--n", str(n), "--tol", _fmt(tol), "--out", str(csv)]
    return Job(argv, check, label)


# Expected `verify` reports: suite -> (exit code, [(verdict, check, threshold)]).
# Every check passes except the known-red tails smallness check, which must
# read FAIL at its unchanged 1e-2 threshold.
VERDICTS = {
    "cauchy-algebra": (0, [
        ("PASS", "product identity on the disc panel", "1.0e-03"),
        ("PASS", "power identity N = 2", "1.0e-03"),
        ("PASS", "h0 binomial identity N = 1, 2", "2.0e-03"),
        ("PASS", "dbar stencil reproduces -density", "1.0e-02")]),
    "representation": (0, [
        ("PASS", "representation at exterior w = 2 (8 points)", "1.0e-03"),
        ("PASS", "representation at density point w = 0 (6 points)", "1.0e-03")]),
    "lipschitz": (0, [
        ("PASS", "density estimate vs {1, 0.5, 0.3}", "2.0e-02"),
        ("PASS", "unit-disc decay exponent near 2", "1.0e-01"),
        ("PASS", "decay exponent >= gamma - 0.1", "0.0e+00")]),
    "shift": (0, [
        ("PASS", "interior resolvent identity (40 pairs)", "1.0e-10"),
        ("PASS", "exterior resolvent identity (20 pairs)", "1.0e-12"),
        ("PASS", "alpha-disc transfer to the shift value", "1.0e-04"),
        ("PASS", "resolvent norms by regime", "1.0e-06")]),
    "tails": (1, [
        ("PASS", "tails positive and strictly decreasing (N = 2..1024)", "0.0e+00"),
        ("FAIL", "tails below 1e-2 for N >= 64", "1.0e-02"),
        ("PASS", "quadrature cross-check at N = 2", "1.0e-03")]),
}
_CHECK_LINE = re.compile(r"(PASS|FAIL)  (.*): residual \S+ \(threshold (\S+)\)$")


def verify_job(suite: str) -> Job:
    code, expected = VERDICTS[suite]

    def check(call: Call) -> Outcome:
        n = len(expected)
        reason = _exit_reason(call, code)
        if reason:
            return Outcome(n, 0, 0.0, reason)
        lines = call.stdout.splitlines()
        got = [m.groups() for m in map(_CHECK_LINE.match, lines[:-1]) if m]
        passed = sum(g == e for g, e in zip(got, expected))
        want_last = f"suite {suite}: {'PASS' if code == 0 else 'FAIL'}"
        if len(got) != n or passed != n or lines[-1:] != [want_last]:
            return Outcome(n, passed, 0.0, f"verdicts differ: {got}", call.stdout.encode())
        return Outcome(n, n, 0.0, None, call.stdout.encode())

    return Job(["verify", suite], check, suite)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    job_rounds = 1     # rounds of the fixed job: wall_s times them, traced runs run them
    repeat_index = 0   # the call of round 0 repeated for the determinism check

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.round_configs: dict[int, list] = {}

    def rng(self, *tag) -> random.Random:
        return random.Random(":".join(str(t) for t in (self.name, self.seed) + tag))

    def jobs(self, k: int) -> list[Job]:
        raise NotImplementedError

    def _write(self, k: int, name: str, config: dict) -> Path:
        self.round_configs[k].append(config)
        path = self.tmp / name
        path.write_text(json.dumps(config), encoding="utf-8")
        return path


TOLS = (1e-4, 1e-5)
REGIMES = ("interior", "mixed", "exterior", "near-boundary", "near-diagonal", "diagonal")
KINDS = ("unit-disc", "offset-disc", "annulus", "swiss")
DISCS = ("unit-disc", "offset-disc")


class PointEval(Workload):
    """One round: a call per pair regime, with the density kind rotating over
    slot and round, so four rounds put every kind in every regime once and the
    fixed job of eight rounds does so twice.

    Discs run at 1e-4 and 1e-5, annulus and swiss cheese at 1e-4, and the
    exact-diagonal pairs lie inside the disc.  Beyond that some calls fail
    today (see PROBES); they run as the traced run's known-red probes, so the
    timed stream measures speed on calls that succeed."""

    name = "point-eval"
    job_rounds = 8

    def jobs(self, k: int) -> list[Job]:
        out, self.round_configs[k] = [], []
        for j, regime in enumerate(REGIMES):
            rng = self.rng(k, j)
            kind = KINDS[k % 2] if regime == "diagonal" else KINDS[(j + k) % 4]
            tol = TOLS[(j + k) % 2] if kind in DISCS else 1e-4
            config = density_config(rng, kind, holes=2 + k % 3)
            lam, w = pair(rng, config, regime, _stratum(rng, k + j), flip=bool((j + k) % 2))
            out.append(eval_job(self._write(k, f"pe-{k}-{j}.json", config), config,
                                lam, w, tol, f"{kind}/{regime}/tol={tol:.0e}"))
        return out


GRID_N = 3
GRID_TOL = 1e-4


class Grid(Workload):
    """One round: a seeded swiss cheese and a disc-plus-annulus config, each
    over a 3 x 3 lattice of half-width 0.95-1.1 around the origin: the centre
    node is interior, the edge midpoints lie near the unit circle and the
    corners outside it.  One w off the lattice per call, at radius 0.3-0.6
    and clear of the holes.  The fixed job is two rounds."""

    name = "grid"
    job_rounds = 2

    def _disc_annulus(self, rng):
        c0 = _at(rng, 0j, rng.uniform(0.0, 0.05))
        return _config(0j, 1.0, [_disk(c0, rng.uniform(0.25, 0.3)),
                                 _annulus(0j, rng.uniform(0.45, 0.5), rng.uniform(0.85, 0.95))])

    def jobs(self, k: int) -> list[Job]:
        out, self.round_configs[k] = [], []
        for j, kind in enumerate(("swiss", "disc+annulus")):
            rng = self.rng(k, j)
            w = _at(rng, 0j, 0.3 + 0.3 * _stratum(rng, k + j))
            config = swiss_config(rng, 2 + k % 3, w) if j == 0 else self._disc_annulus(rng)
            half = 0.95 + 0.15 * _stratum(rng, k + j + 2)
            x0, y0 = rng.uniform(-0.03, 0.03) - half, rng.uniform(-0.03, 0.03) - half
            bounds = (x0, x0 + 2 * half, y0, y0 + 2 * half)
            path = self._write(k, f"grid-{k}-{j}.json", config)
            out.append(grid_job(path, self.tmp / f"grid-{k}-{j}.csv", config, w, bounds,
                                GRID_N, GRID_TOL, f"{kind}/n={GRID_N}"))
        return out


class Verify(Workload):
    """One round: the five suites in a seeded order.  The seed only orders
    them; the suites carry their own fixed fixtures."""

    name = "verify"
    suites = ("cauchy-algebra", "representation", "lipschitz", "shift", "tails")

    def jobs(self, k: int) -> list[Job]:
        order = list(self.suites)
        self.rng(k).shuffle(order)
        if k == 0:  # repeat the cheapest suite for the determinism check
            self.repeat_index = order.index("tails")
        return [verify_job(s) for s in order]


WORKLOADS = {w.name: w for w in (PointEval, Grid, Verify)}


# ---------------------------------------------------------------------------
# Known-red probes and the accuracy table (traced point-eval only)


# (density kind, regime, tolerance): calls that fail today.  A pair 1e-7 off
# the diagonal raises TolNotReached (the excised blocks of the two points
# collide).  Swiss cheese and annulus pairs raise TolNotReached now and then
# at 1e-5 and often at 1e-6.  Outside a disc the diagonal value is off by
# 1e-5 to 1e-3 whatever the tolerance, under an estimate near 1e-9.
PROBES = (("unit-disc", "diagonal-1e-7", 1e-4),
          ("swiss", "interior", 1e-6),
          ("swiss", "mixed", 1e-6),
          ("annulus", "interior", 1e-6),
          ("unit-disc", "diagonal-outside", 1e-6))


def probes(seed: int, tmp: Path) -> list[Job]:
    out = []
    for i, (kind, regime, tol) in enumerate(PROBES):
        rng = random.Random(f"probe:{seed}:{i}")
        config = density_config(rng, kind, holes=2 + i % 3)
        if regime == "diagonal-1e-7":
            lam = _at(rng, 0j, 0.8 * rng.random())
            w = _at(rng, lam, 1e-7)
        elif regime == "diagonal-outside":
            lam = w = _at(rng, 0j, rng.uniform(1.1, 1.8))
        else:
            lam, w = pair(rng, config, regime, rng.random(), flip=False)
        path = tmp / f"probe-{i}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out.append(eval_job(path, config, lam, w, tol, f"{kind}/{regime}/tol={tol:.0e}"))
    return out


ACCURACY_TOLS = (1e-4, 1e-5, 1e-6, 1e-8)
_EVALS = re.compile(r"after (\d+) evaluations")


def accuracy_table(cli, quad_log: list) -> list[dict]:
    """Unit disc at lam = 0.5, w = 0, per tolerance: exit code, true error,
    reported estimate, cells and evaluations.  ``quad_log`` is the tracer's
    list of integrate_singular results and TolNotReached exceptions."""
    ref = oracle.unit_disc(0.5, 0.0)
    rows = []
    for tol in ACCURACY_TOLS:
        mark = len(quad_log)
        call = run_cli(cli, ["eval", "unit-disc", "--lam", "0.5,0", "--w", "0,0",
                             "--tol", _fmt(tol)])
        q = quad_log[-1] if len(quad_log) > mark else None
        row = {"tol": tol, "exit": call.exit, "seconds": call.seconds,
               "stderr": call.first_stderr_line(), "true_err": None,
               "estimate": None, "cells": None, "evals": None}
        if call.exit == 0 and q is not None:
            row["true_err"] = abs(parse_eval(call.stdout) - ref)
            row["estimate"] = float(re.search(r"error_estimate: (\S+)", call.stdout).group(1))
            row["cells"], row["evals"] = q.cells, q.evaluations
        elif getattr(q, "value", None) is not None:
            # TolNotReached carries the raw integral I, and E = exp(-I / pi)
            value = complex(np.exp(-q.value / math.pi))
            row["true_err"] = abs(value - ref)
            row["estimate"] = abs(value) * math.expm1(q.error_estimate / math.pi)
            m = _EVALS.search(str(q))
            row["evals"] = int(m.group(1)) if m else None
        rows.append(row)
    return rows
