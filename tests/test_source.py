import re
from pathlib import Path

import expkernel


def test_array_code_makes_no_per_element_python_calls():
    # np.frompyfunc and np.vectorize call Python once per element; array
    # passes use numpy's own ufuncs
    hits = [f"{path.name}:{n}"
            for path in sorted(Path(expkernel.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\b(frompyfunc|vectorize)\b", line)]
    assert hits == []


def test_kernel_analysis_and_shift_call_no_quadtree():
    # the quadtree serves multiplier integrands and cross-checks; these modules
    # integrate without a multiplier and take the boundary rule
    root = Path(expkernel.__file__).parent
    hits = [f"{name}:{n}"
            for name in ("kernel.py", "analysis.py", "shift.py")
            for n, line in enumerate((root / name).read_text().splitlines(), 1)
            if re.search(r"\b(integrate_singular|integrate_bi_singular|cauchy_transform)\b", line)]
    assert hits == []


def test_only_density_decides_the_curves_of_g():
    # quadrature and cauchy read g's jump curves from DensitySpec.curves;
    # they never branch on the region kinds, and cauchy needs no geometry
    root = Path(expkernel.__file__).parent
    hits = [f"{name}:{n}"
            for name in ("quadrature.py", "cauchy.py")
            for n, line in enumerate((root / name).read_text().splitlines(), 1)
            if re.search(r"isinstance\([^)]*\b(Disk|Annulus|Rectangle)\b", line)]
    assert hits == []
    assert not re.search(r"^from \.geometry import|^import .*geometry",
                         (root / "cauchy.py").read_text(), re.M)


def test_quadrature_reads_no_private_part_of_density():
    # what g looks like at w comes from density's public readers: quadrature
    # imports no underscore name from density and never reads the jump
    # arrangement, which validation alone uses
    source = (Path(expkernel.__file__).parent / "quadrature.py").read_text()
    imports = re.findall(r"^from \.density import (\([^)]*\)|.*)$", source, re.M)
    names = [n.strip(" ()\n") for line in imports for n in line.split(",")]
    assert imports and not [n for n in names if n.startswith("_")]
    assert ".arrangement" not in source
