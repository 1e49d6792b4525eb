"""The benchmark's span tracer (bench/spans.py) still finds every layer it wraps."""

import sys
from pathlib import Path

import expkernel.cli
import expkernel.suites  # noqa: F401  (the tracer wraps every expkernel module)
from expkernel import quadrature
from expkernel.density import unit_disc_density

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import Tracer  # noqa: E402


def test_traced_eval_counts_geometry_and_quadrature(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        code = expkernel.cli.main(["eval", "unit-disc", "--lam", "0.5,0", "--w", "0,0",
                                   "--tol", "1e-4"])
        # eval integrates along the jumps of g; the quadtree and its polar
        # patch still run here
        quadrature.cauchy_transform(unit_disc_density(), 0.5, 1e-4)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.leaves["geometry.ray_crossings"][0] > 0
    assert tracer.leaves["geometry.cell_area"][0] > 0
    assert tracer.counts["quadrature.evals"] > 0
    assert "value:" in capsys.readouterr().out
