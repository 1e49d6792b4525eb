"""End-to-end benchmark of the expkernel command line.

Run from the repository root:

    python3 bench/run.py --workload point-eval --seed 1 --seconds 30 --trace 0

One client drives the program in a closed loop: it calls
``expkernel.cli.main(argv)`` in process, captures stdout and stderr, records
the exit code, and issues the next call only after the previous one returned.
No thread or process is started.  Inputs come from ``--seed`` alone; every
output is checked against closed forms carried in ``bench/oracle.py``.

Workloads (each in its own process, so peak memory is per workload):

* ``point-eval``: independent ``eval`` calls, each on a freshly generated
  density config (unit disc, offset disc, annulus, swiss cheese with 2-4
  holes) and pair regime (interior, mixed, exterior, near a circle, near the
  diagonal, exactly on it), at tolerances 1e-4 and 1e-5.  No two calls share
  g, w or lam, so it isolates the per-evaluation engine cost plus the
  density validation of each call.  Calls that fail today, among them every
  kind at the CLI default 1e-6, run in the traced run as known-red probes.
* ``grid``: ``grid`` calls over an n-by-n lattice for one density and one w
  each, so every value of a call shares g and w.
* ``verify``: the ``cauchy-algebra``, ``representation``, ``lipschitz``,
  ``shift`` and ``tails`` suites against the expected verdict table.

A round is a list of calls drawn from the seed and the round number.  The
first ``job_rounds`` rounds of a workload are its fixed job; the timed phase
runs the job, then more rounds until the next would end past ``--seconds``.
End-to-end metrics (``--trace 0``):

* ``setup_s``: median of five set-ups, each a fresh ``import expkernel``,
  the round-0 inputs and their densities built once through the library.
  Two run before the timed phase and three after it, so that, like the
  other metrics, set-up is sampled across the run's whole span;
* ``wall_s``: wall time of the fixed job;
* ``values_per_s``: kernel values (verify: verdict rows) that passed their
  check, per second of the whole timed phase;
* ``peak_rss_mb``: peak resident memory when the fixed job ends.

The three times are rescaled to a nominal machine speed by the sampler of
``bench/pace.py``, which times a fixed reference chunk five times a second
throughout the run.  On a shared host the same job's raw wall time drifts
by a fifth or more from minute to minute; the rescaled time does not.  The
raw figures and the scale factor are printed in the report.

The report also prints the median latency of one CLI call and the highest
percentile with ten calls beyond it.  They are not in the result: verify
makes five calls a run and grid four, too few for either to hold steady
across runs on a shared host.

With ``--trace 1`` the fixed job runs under the span tracer of
``bench/spans.py``, so per-layer counts compare between commits; round 0 is
then run again untraced to measure the tracing overhead, and point-eval
adds the known-red probes and the accuracy table.

Stdout carries a readable report, a provenance line, and as its last line
one JSON object with the keys correct, attempted, failed and metrics.
Exit status 2 means the program could not be imported or set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One client on one core: keep numpy's BLAS from starting worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from pace import Pace  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (WORKLOADS, Call, Job, Outcome, Verify,  # noqa: E402
                       Workload, accuracy_table, probes, run_cli)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS_BEFORE, SETUPS_AFTER = 2, 3


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    values: int = 0
    passed: int = 0
    max_err: float = 0.0
    failures: list = field(default_factory=list)

    def add(self, job: Job, call: Call, outcome: Outcome, tag: str) -> None:
        self.attempted += 1
        self.values += outcome.values
        self.passed += outcome.passed
        self.max_err = max(self.max_err, outcome.max_err)
        if outcome.reason is not None:
            self.failed += 1
            self.failures.append({"tag": tag, "label": job.label, "exit": call.exit,
                                  "stderr": call.first_stderr_line(),
                                  "reason": outcome.reason, "argv": call.argv})


def execute(cli, job: Job, pace: Pace | None = None) -> tuple[Call, Outcome]:
    stolen = pace.stolen if pace else 0.0
    call = run_cli(cli, job.argv)
    if pace:
        call.seconds -= pace.stolen - stolen
    return call, job.check(call)


def purge_expkernel() -> None:
    for name in [m for m in sys.modules if m == "expkernel" or m.startswith("expkernel.")]:
        del sys.modules[name]


def setup_once(workload: Workload):
    """Import expkernel afresh, generate round 0, and build its densities."""
    purge_expkernel()
    import expkernel
    import expkernel.cli
    if not Path(expkernel.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"expkernel imported from {expkernel.__file__}, not {SRC}")
    expkernel.unit_disc_density()
    jobs = workload.jobs(0)
    for config in workload.round_configs.get(0, []):
        expkernel.density.parse_density_config(config)
    return expkernel.cli, jobs


def percentile_tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it: (pct, value, n)."""
    n = len(samples)
    if n < 11:
        return None
    s = sorted(samples)
    k = n - 11  # ten samples lie above index k
    return 100.0 * (k + 1) / n, s[k], n


def provenance(args) -> dict:
    head = None
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            p = git / name
            if p.exists():
                head = p.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        head = line.split()[0]
        else:
            head = ref
    except OSError:
        pass
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": head, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def per_layer(tracer: Tracer, overhead: float, tally: Tally, red: int) -> dict:
    spans = tracer.summary()
    leaves = tracer.leaves
    counts = tracer.counts

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def module_self(prefix):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix + "."))

    def leaf(name, i):
        return leaves.get(name, [0, 0.0, 0])[i]

    m = {}
    m["cli.main.calls"] = (span("cli.main", "calls"), "count")
    m["cli.self_s"] = (module_self("cli"), "s")
    m["density.validate.calls"] = (span("density.validate", "calls"), "count")
    m["density.validate.s"] = (span("density.validate", "s"), "s")
    m["density.eval_density.calls"] = (leaf("density.eval_density", 0), "count")
    m["density.eval_density.points"] = (leaf("density.eval_density", 2), "count")
    m["density.eval_density.s"] = (leaf("density.eval_density", 1), "s")
    for g in ("classify_cell", "cell_area", "ray_crossings"):
        m[f"geometry.{g}.calls"] = (leaf(f"geometry.{g}", 0), "count")
        m[f"geometry.{g}.s"] = (leaf(f"geometry.{g}", 1), "s")
    calls = span("quadrature.integrate_singular", "calls")
    returns = counts.get("quadrature.returns", 0)
    cells = counts.get("quadrature.cells", 0)
    evals = counts.get("quadrature.evals", 0)
    inclusive = span("quadrature.integrate_singular", "s")
    m["quadrature.integrate_singular.calls"] = (calls, "count")
    m["quadrature.integrate_singular.self_s"] = (span("quadrature.integrate_singular", "self_s"), "s")
    m["quadrature.cells"] = (cells, "count")
    m["quadrature.evals"] = (evals, "count")
    m["quadrature.tol_not_reached"] = (counts.get("quadrature.tol_not_reached", 0), "count")
    m["quadrature.success_ratio"] = (returns / calls if calls else 1.0, "ratio")
    m["quadrature.evals_per_s"] = (evals / inclusive if inclusive else 0.0, "1/s")
    m["quadrature.evals_per_cell"] = (evals / cells if cells else 0.0, "ratio")
    for f in ("integrate_diagonal", "disc_mass", "cauchy_transform"):
        m[f"quadrature.{f}.calls"] = (span(f"quadrature.{f}", "calls"), "count")
        m[f"quadrature.{f}.s"] = (span(f"quadrature.{f}", "s"), "s")
    m["quadrature.octaves"] = (counts.get("quadrature.octaves", 0), "count")
    m["kernel.eval_E.calls"] = (span("kernel.eval_E", "calls"), "count")
    m["kernel.self_s"] = (module_self("kernel"), "s")
    m["cauchy.self_s"] = (module_self("cauchy"), "s")
    for f in ("check_product_identity", "check_power_identity", "make_h0_context",
              "check_h0_binomial", "check_representation", "dbar_transform_stencil"):
        m[f"cauchy.{f}.s"] = (span(f"cauchy.{f}", "s"), "s")
    for f in ("estimate_density", "estimate_lipschitz_exponent"):
        m[f"analysis.{f}.s"] = (span(f"analysis.{f}", "s"), "s")
    for f in ("check_shift_identity", "check_mobius_transfer"):
        m[f"shift.{f}.s"] = (span(f"shift.{f}", "s"), "s")
    for suite in Verify.suites:
        fn = "suite_" + suite.replace("-", "_")
        m[f"suites.{suite}.s"] = (span(f"suites.{fn}", "s"), "s")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["fail_frac"] = ((tally.failed + red) / tally.attempted, "ratio")
    m["max_err"] = (tally.max_err, "ratio")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path) -> int:
    workload = WORKLOADS[args.workload](args.seed, tmp)
    pace = None if args.trace else Pace()
    if pace:
        pace.start()
    try:
        return run_phases(args, tmp, workload, pace)
    finally:
        if pace:
            pace.stop()


def run_phases(args, tmp: Path, workload: Workload, pace: Pace | None) -> int:
    setups = []

    def timed_setup():
        stolen = pace.stolen if pace else 0.0
        t0 = time.perf_counter()
        out = setup_once(workload)
        setups.append(time.perf_counter() - t0 - ((pace.stolen - stolen) if pace else 0.0))
        return out

    try:
        for _ in range(SETUPS_BEFORE):
            cli, jobs0 = timed_setup()
    except Exception as exc:  # no program to measure: report and print no result
        print(f"setup failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    tally = Tally()
    rounds, latencies, labels, first = [], [], [], []
    job_wall = job_rss = None
    t_start = time.perf_counter()
    k = 0
    while True:
        jobs = jobs0 if k == 0 else workload.jobs(k)
        round_s = 0.0
        for job in jobs:
            if tracer:
                tracer.call_id = len(latencies)
            call, outcome = execute(cli, job, pace)
            round_s += call.seconds
            latencies.append(call.seconds)
            labels.append(job.label)
            tally.add(job, call, outcome, f"round {k}")
            if k == 0:
                first.append(outcome.payload)
        rounds.append(round_s)
        k += 1
        elapsed = time.perf_counter() - t_start
        if k == workload.job_rounds:
            job_wall = sum(rounds)
            job_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer:
                break
        if k >= workload.job_rounds and elapsed + elapsed / k > args.seconds:
            break
    timed_passed = tally.passed

    # Determinism: the same call again must give the same bytes.  The traced
    # run repeats all of round 0 untraced, which also times the tracing cost.
    overhead = None
    repeat = range(len(jobs0)) if tracer else [workload.repeat_index]
    if tracer:
        tracer.enabled = False
    untraced = 0.0
    for i in repeat:
        call, outcome = execute(cli, jobs0[i], pace)
        untraced += call.seconds
        if outcome.reason is None and outcome.payload != first[i]:
            outcome.reason = "output bytes differ from the first run"
        tally.add(jobs0[i], call, outcome, "repeat")
    if tracer:
        overhead = (rounds[0] - untraced) / untraced

    red, accuracy = 0, []
    if tracer and args.workload == "point-eval":
        tracer.enabled = True
        for job in probes(args.seed, tmp):
            call, outcome = execute(cli, job)
            print(f"probe {job.label}: exit {call.exit}, "
                  f"{outcome.reason or 'ok'} in {call.seconds:.2f} s")
            if outcome.reason is not None and call.error is None and call.exit in (0, 3):
                red += 1  # known red: a wrong value or TolNotReached, as today
                tally.attempted += 1
            else:
                tally.add(job, call, outcome, "probe")
        accuracy = accuracy_table(cli, tracer.quad_log)
    if tracer:
        tracer.uninstall()
    else:
        # more set-up samples, spread over the run like the timed calls
        for _ in range(SETUPS_AFTER):
            timed_setup()
        pace.stop()

    wall = sum(rounds)
    tail = percentile_tail(latencies)
    print(f"workload {args.workload} seed {args.seed}: {k} rounds, "
          f"{len(latencies)} timed calls, {tally.attempted} attempted, "
          f"{tally.failed} failed, {tally.passed}/{tally.values} values passed")
    print(f"setups (s): {' '.join(f'{t:.3f}' for t in setups)}")
    print(f"rounds (s): {' '.join(f'{r:.3f}' for r in rounds)}")
    for label, t in zip(labels, latencies):
        print(f"  call {label}: {t:.3f} s")
    print(f"op_p50_s: {statistics.median(latencies):.4f} s over {len(latencies)} calls")
    if tail:
        print(f"op_tail_s: p{tail[0]:.1f} = {tail[1]:.4f} s over {tail[2]} calls")
    else:
        print(f"op_tail_s: omitted, {len(latencies)} calls leave no ten beyond any percentile")
    print(f"fail_frac: {tally.failed + red}/{tally.attempted} ({red} known red)   "
          f"max_err: {tally.max_err:.3e}")
    for f in tally.failures:
        print(f"FAILED {f['tag']} {f['label']}: exit {f['exit']}: {f['reason']} "
              f"| stderr: {f['stderr']}")
    for row in accuracy:
        print("accuracy tol={tol:.0e} exit={exit} true_err={true_err} estimate={estimate} "
              "cells={cells} evals={evals} seconds={seconds:.2f}".format(**row))

    if tracer:
        metrics = per_layer(tracer, overhead, tally, red)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        scale = pace.scale()
        print(f"pace: {len(pace.samples)} chunks, harmonic mean {pace.slowness() * 1e3:.3f} ms, "
              f"scale {scale:.4f}; raw setup_s {statistics.median(setups):.4f}, "
              f"raw wall_s {job_wall:.4f}, raw values_per_s {timed_passed / wall:.4f}")
        metrics = {
            "setup_s": (statistics.median(setups) * scale, "s"),
            "wall_s": (job_wall * scale, "s"),
            "values_per_s": (timed_passed / (wall * scale), "1/s"),
            "peak_rss_mb": (job_rss, "MB"),
        }
    print(json.dumps({"provenance": provenance(args),
                      "accuracy": accuracy, "failures": tally.failures}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
