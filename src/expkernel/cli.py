"""Command-line front end: evaluate the kernel, export grids, run the
verification suites, and run the pointwise estimators.

Exit codes: 0 success, 1 failed verification check, 2 configuration or
argument violation, 3 tolerance violation (a tolerance that is not positive
and finite, or the quadrature budget ran out above tolerance), 4 estimator
precondition or convergence failure.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import NonConvergent, PreconditionFailed, estimate_density, \
    estimate_lipschitz_exponent
from .density import DensityConfigError, DensitySpec, PlacementError, \
    load_density_file, make_density, swiss_cheese, unit_disc_density
from .kernel import DIAGONAL_DIVERGENT, eval_E
from .quadrature import TolNotReached, ToleranceError, _check_tol
from .suites import SUITES

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_ESTIMATOR = 4


def _parse_complex(text: str) -> complex:
    """Accept '0.5', '0.5+0.3j', '(1+2j)', or '0.5,0.3'."""
    s = text.strip().replace(" ", "")
    try:
        if "," in s:
            re, im = s.split(",")
            return complex(float(re), float(im))
        return complex(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("bounds must be x0,x1,y0,y1")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric bounds: {text!r}")
    if not (x0 < x1 and y0 < y1):
        raise argparse.ArgumentTypeError("bounds must satisfy x0 < x1, y0 < y1")
    return x0, x1, y0, y1


def _load_density(arg: str, seed: int) -> DensitySpec:
    """A JSON config path, or the literals 'unit-disc' / 'swiss-cheese'."""
    if arg == "unit-disc":
        return unit_disc_density()
    if arg == "zero":
        return make_density(0j, 1.0, [])
    if arg == "swiss-cheese":
        return swiss_cheese(seed, 4)
    return load_density_file(arg)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt(abs(z.imag))}j"


def cmd_eval(args) -> int:
    g = _load_density(args.density, args.seed)
    tol = _check_tol(args.tol)
    kv = eval_E(g, args.lam, args.w, tol)
    if kv.diagonal_case == DIAGONAL_DIVERGENT:
        print("value: 0 (diagonal divergent)")
    else:
        print(f"value: {_fmt_complex(kv.value)}")
    print(f"diagonal_case: {kv.diagonal_case}")
    print(f"error_estimate: {kv.error_estimate:.3e}")
    return EXIT_OK


def cmd_grid(args) -> int:
    g = _load_density(args.density, args.seed)
    tol = _check_tol(args.tol)
    if args.n < 2:
        raise DensityConfigError(f"grid size must be >= 2, got {args.n}")
    x0, x1, y0, y1 = args.bounds
    xs = np.linspace(x0, x1, args.n)
    ys = np.linspace(y0, y1, args.n)
    lines = ["x,y,re_E,im_E,abs_E,err"]
    for y in ys:
        for x in xs:
            kv = eval_E(g, complex(x, y), args.w, tol)
            v = kv.value
            lines.append(",".join(_fmt(t) for t in
                                  (x, y, v.real, v.imag, abs(v),
                                   kv.error_estimate)))
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.n * args.n} rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    report = SUITES[args.suite](None if args.tol is None else _check_tol(args.tol))
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
              f"residual {c.residual:.3e} (threshold {c.threshold:.1e})")
    print(f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_estimate(args) -> int:
    g = _load_density(args.density, args.seed)
    tol = _check_tol(args.tol)
    if args.mode == "gamma":
        gam = estimate_density(g, args.w, tol=tol)
        print(f"gamma_hat = {gam:.6f}")
    else:
        fit = estimate_lipschitz_exponent(g, args.w)
        print(f"lipschitz_slope = {fit.slope:.6f}")
        print(f"fit_rms = {fit.rms:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="expkernel",
        description="Evaluate the exponential kernel of a planar density and "
                    "verify its closed-form identities.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, density=True):
        if density:
            sp.add_argument("density",
                            help="JSON density config path, or one of the "
                                 "literals: unit-disc, zero, swiss-cheese")
        sp.add_argument("--tol", type=float, default=1e-6 if density else None,
                        help="quadrature tolerance (default 1e-6)")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for the swiss-cheese density literal")

    sp = sub.add_parser("eval", help="evaluate E(lam, w) at one point pair")
    common(sp)
    sp.add_argument("--lam", type=_parse_complex, required=True)
    sp.add_argument("--w", type=_parse_complex, required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("grid", help="export an n-by-n CSV of E(., w)")
    common(sp)
    sp.add_argument("--w", type=_parse_complex, required=True)
    sp.add_argument("--bounds", type=_parse_bounds, required=True,
                    metavar="X0,X1,Y0,Y1")
    sp.add_argument("--n", type=int, required=True, help="nodes per side (>= 2)")
    sp.add_argument("--out", default="-", help="output path ('-' for stdout)")
    sp.set_defaults(func=cmd_grid)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    common(sp, density=False)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("estimate", help="pointwise density / decay estimators")
    common(sp)
    sp.add_argument("--w", type=_parse_complex, required=True)
    sp.add_argument("--mode", choices=("gamma", "lipschitz"), required=True)
    sp.set_defaults(func=cmd_estimate)
    return p


def _absorb_dash_values(argv, names=("--bounds", "--lam", "--w")):
    """Join option/value pairs whose value starts with '-'.

    argparse only accepts dash-leading values in the '--opt=value' spelling;
    'grid --bounds -1,1,-1,1' would otherwise die as a missing argument.
    """
    out = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in names and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            out.append(a)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_absorb_dash_values(list(argv)))
    try:
        return args.func(args)
    except (DensityConfigError, PlacementError, FileNotFoundError,
            IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ToleranceError, TolNotReached) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (NonConvergent, PreconditionFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR


if __name__ == "__main__":
    sys.exit(main())
