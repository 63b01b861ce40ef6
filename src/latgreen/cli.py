"""Batch front end: tables, verification suite, quasimomentum maps.

Exit codes: 0 success, 1 failed verification check (or a green-table
relative node-halving estimate above --tol, 1e-10 by default; the table
is still written), 2 degenerate contour or rejected configuration, 3 I/O
failure.  The node count is --nodes (512 by default).  Outputs are plain
CSV/JSON with complex values as separate re/im columns, and identical
inputs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import re
import sys
from typing import List, Optional, Tuple

import numpy as np

from .contour_quadrature import DEFAULT_NODES, integrate
from .green_function import (
    green_table,
    growth_check,
    kernel_K,
    residue_lemma_P,
    residue_lemma_Q,
    verify_delta,
)
from .lattice_core import LatticeField, apply_L, check_four_point
from .sphere_backend import (
    INFINITY,
    DegenerateContourError,
    c_contour,
    default_kernel_contour,
    dp_n_coeff,
    f,
    im_p_m,
    im_p_n,
    level,
    level_circle_contour,
    psi,
)
from .theta_engine import (
    InvalidSpectralDataError,
    ThetaConvergenceError,
    load_jacobian_data,
    monodromy_check,
    psi_theta,
    theta,
    theta_quasi_period_factor,
)

TWO_PI = 2.0 * math.pi

# options whose values may start with '-' (a negative real part or index)
_SIGNED_OPTIONS = ("--lambda", "--target")
_SIGNED_VALUE = re.compile(r"-[0-9.ij]")
# an infinity inside a point is kept; any other 'i' is the imaginary unit
_INF_OR_UNIT = re.compile(r"(inf(?:inity)?)|i")
# per-node arrays are O(nodes * window) in extended precision, and the
# Fejer weights an O(nodes**2) sum
MAX_NODES = 4096
# each arc holds two (2W+1) x nodes extended-precision power tables and a
# (2W+1)**2 product, so time and memory grow as W**2
MAX_WINDOW = 256
# the map writes grid**2 rows
MAX_GRID = 4096


def parse_point(text: str):
    """Parse 'a+bi', 're,im' or 'inf' into a sphere point; NaN or other infinities raise."""
    s = text.strip().lower()
    if s in ("inf", "infinity"):
        return INFINITY
    if "," in s:
        re_s, im_s = s.split(",", 1)
        z = complex(float(re_s), float(im_s))
    else:
        z = complex(_INF_OR_UNIT.sub(lambda m: m.group(1) or "j", s))
    if not cmath.isfinite(z):
        raise ValueError(f"{text!r} is not a finite point (use 'inf' for infinity)")
    return z


def _parse_target(text: str) -> Tuple[int, int]:
    mu_s, nu_s = text.split(",", 1)
    return int(mu_s), int(nu_s)


def _check_config(args) -> None:
    if not 16 <= args.nodes <= MAX_NODES:
        raise ValueError(f"--nodes must be in [16, {MAX_NODES}], got {args.nodes}")
    if args.nodes % 2:
        raise ValueError(f"--nodes must be even (nested half rules), got {args.nodes}")
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        raise ValueError(f"--tol must be positive, got {tol}")
    window = getattr(args, "window", 0)
    if not 0 <= window <= MAX_WINDOW:
        raise ValueError(f"--window must be in [0, {MAX_WINDOW}], got {window}")
    grid = getattr(args, "grid", 2)
    if not 2 <= grid <= MAX_GRID:
        raise ValueError(f"--grid must be in [2, {MAX_GRID}], got {grid}")


# ---------------------------------------------------------------------------
# green-table

def cmd_green_table(args) -> int:
    _check_config(args)
    lam = parse_point(args.lam) if args.lam is not None else None
    kind = "g0" if args.g0 else "green"
    if kind == "green" and lam is None:
        print("--lambda is required unless --g0 is given", file=sys.stderr)
        return 2
    table = green_table(
        args.window,
        target=_parse_target(args.target),
        lam=lam,
        kind=kind,
        nodes=args.nodes,
        error_estimate=True,
    )
    out = args.out or f"green_table.{args.format}"
    if args.format == "csv":
        table.write_csv(out)
    else:
        table.write_json(out)
    est = table.metadata.get("est_error")
    print(f"wrote {out} ({table.values.size} values, est_error={est:.3e})")
    if est > args.tol:
        print(f"warning: relative node-halving estimate {est:.3e} exceeds --tol {args.tol:.1e}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify

class _Check:
    def __init__(self, name: str, residual: float, tol: float):
        self.name = name
        self.residual = residual
        self.tol = tol

    @property
    def ok(self) -> bool:
        return self.residual < self.tol

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.name:<22s} residual={self.residual:.3e}  tol={self.tol:.1e}  {status}"


def _sphere_checks(nodes: int, flip_orientation: bool) -> List[_Check]:
    rng = np.random.default_rng(20240817)
    checks: List[_Check] = []

    # four-point and five-point identities for the sampled wave function
    z0 = 2.0 + 0.0j
    half = 6
    psi_mn = LatticeField.from_function(
        (-half - 1, half + 1), (-half - 1, half + 1), lambda m, n: psi(z0, m, n)
    )
    checks.append(_Check("four_point", check_four_point(psi_mn, f), 1e-12))
    phi = LatticeField.from_function(
        (-4, 4), (-4, 4), lambda mu, nu: psi(z0, mu - nu, mu + nu)
    )
    lphi = apply_L(phi, f)
    checks.append(_Check("five_point", float(np.max(np.abs(lphi.values))), 1e-12))

    # kernel vanishes on the diagonal sublattice
    contour = default_kernel_contour(nodes)
    worst_k = 0.0
    for _ in range(10):
        mu, nu = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        shift = int(rng.integers(-3, 4))
        worst_k = max(worst_k, abs(kernel_K(contour, mu, nu, mu + shift, nu + shift)))
    checks.append(_Check("kernel_diagonal", worst_k, 1e-10))

    # residue identities at Q+ and P+
    worst_q = max(
        abs(residue_lemma_Q(int(rng.integers(-5, 6)), int(rng.integers(-5, 6))) - 1j)
        for _ in range(6)
    )
    checks.append(_Check("residue_Q", worst_q, 1e-9))
    worst_p = 0.0
    for _ in range(6):
        mu, nu = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        shift = int(rng.integers(-3, 4))
        worst_p = max(worst_p, residue_lemma_P(mu, nu, mu + shift, nu + shift))
    checks.append(_Check("residue_P", worst_p, 1e-9))

    # orientation normalization of constructed contours
    lam_grid = [2 + 2j, 1 + 0.5j, 0.3 + 0.1j, 3.0 + 0j, -1 + 2j, 0.2 - 1.4j]
    worst_o = 0.0
    for ctr in [c_contour(lam, nodes) for lam in lam_grid] + [default_kernel_contour(nodes)]:
        if flip_orientation:
            ctr = ctr.with_orientation(-ctr.orientation_sign)
        worst_o = max(worst_o, abs(integrate(dp_n_coeff, ctr) - TWO_PI))
    checks.append(_Check("orientation", worst_o, 1e-10))

    # delta property for the bare and normalized kernels
    lam = 2 + 2j
    checks.append(_Check("delta_g0", verify_delta(lam, 4, nodes=nodes, kind="g0"), 1e-8))
    checks.append(_Check("delta_green", verify_delta(lam, 4, nodes=nodes, kind="green"), 1e-8))

    # growth-bound stabilization of the normalized kernel
    fit4 = growth_check(lam, 4, nodes=nodes)
    fit8 = growth_check(lam, 8, nodes=nodes)
    checks.append(_Check("growth_stable", fit8 / fit4 - 1.0, 0.05))
    return checks


def _theta_checks(path: str) -> List[_Check]:
    data = load_jacobian_data(path)
    rng = np.random.default_rng(20240817)
    g = data.g
    checks: List[_Check] = []

    worst_int = 0.0
    worst_b = 0.0
    for _ in range(10):
        z = rng.normal(size=g) + 1j * rng.normal(size=g) * 0.2
        th0 = theta(z, data.B)
        k = int(rng.integers(g)) + 1
        e = np.zeros(g)
        e[k - 1] = 1.0
        worst_int = max(worst_int, abs(theta(z + e, data.B) - th0))
        fac = theta_quasi_period_factor(z, data.B, k)
        th_b = theta(z + data.B[:, k - 1], data.B)
        worst_b = max(worst_b, abs(th_b - fac * th0) / max(abs(fac * th0), 1e-30))
    checks.append(_Check("theta_period_int", worst_int, 1e-10))
    checks.append(_Check("theta_period_B", worst_b, 1e-10))

    worst_m = 0.0
    worst_0 = 0.0
    for _ in range(6):
        A_pt = rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.1
        m = int(rng.integers(-2, 3))
        n = int(rng.integers(-2, 3))
        M = rng.integers(-2, 3, size=g)
        worst_m = max(worst_m, monodromy_check(data, A_pt, 1.0, m, n, M))
        worst_0 = max(worst_0, abs(psi_theta(data, A_pt, 2.5 - 1.5j, 0, 0) - (2.5 - 1.5j)))
    checks.append(_Check("monodromy", worst_m, 1e-9))
    checks.append(_Check("psi_theta_origin", worst_0, 1e-12))
    return checks


def cmd_verify(args) -> int:
    _check_config(args)
    if args.backend == "sphere":
        checks = _sphere_checks(args.nodes, args.flip_orientation)
    else:
        checks = _theta_checks(args.backend)
    if args.tol is not None:
        for c in checks:
            c.tol = args.tol
    failed = [c for c in checks if not c.ok]
    for c in checks:
        print(c.line())
    if failed:
        print(f"{len(failed)} check(s) failed: " + ", ".join(c.name for c in failed))
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# quasimomentum-map

def cmd_quasimomentum_map(args) -> int:
    _check_config(args)
    for name in ("xmin", "xmax", "ymin", "ymax"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite, got {getattr(args, name)}")
    # every level is checked before any output is opened
    levels = [(lam, level(lam, deform_critical=False)) for lam in map(parse_point, args.lam)]
    xs = [args.xmin + k * (args.xmax - args.xmin) / (args.grid - 1) for k in range(args.grid)]
    ys = [args.ymin + k * (args.ymax - args.ymin) / (args.grid - 1) for k in range(args.grid)]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "im_p_m", "im_p_n", "singular"])
        for y in ys:
            for x in xs:
                z = complex(x, y)
                pm = im_p_m(z)
                pn = im_p_n(z)
                singular = 0 if (math.isfinite(pm) and math.isfinite(pn)) else 1
                writer.writerow([repr(x), repr(y), repr(pm), repr(pn), singular])
    written = [args.out]
    if levels:
        contours_out = args.contours_out or "contours.csv"
        with open(contours_out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["lambda_re", "lambda_im", "t", "z_re", "z_im"])
            ts = (np.arange(args.nodes) + 0.5) / args.nodes
            for lam, lv in levels:
                zs = level_circle_contour(lv.r, args.nodes).components[0].point(ts)
                if lam is INFINITY:
                    lam_re, lam_im = math.inf, 0.0
                else:
                    lam_re, lam_im = complex(lam).real, complex(lam).imag
                for t, z in zip(ts, zs):
                    zc = complex(z)
                    writer.writerow(
                        [repr(lam_re), repr(lam_im), repr(float(t)), repr(zc.real), repr(zc.imag)]
                    )
        written.append(contours_out)
    print("wrote " + ", ".join(written))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgreen",
        description="Green's functions of the five-point lattice operator "
        "from spectral data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("green-table", help="tabulate g0 or the normalized green")
    p_table.add_argument("--lambda", dest="lam", default=None, help="a+bi, re,im or inf")
    p_table.add_argument("--target", default="0,0", help="mu,nu of the delta source")
    p_table.add_argument("--window", type=int, default=4, help="half-size around the target")
    p_table.add_argument("--g0", action="store_true", help="bare kernel instead of normalized")
    p_table.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    p_table.add_argument("--tol", type=float, default=1e-10,
                         help="exit 1 if the relative node-halving estimate exceeds this")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=cmd_green_table)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--backend", default="sphere", help="'sphere' or theta-data JSON path")
    p_verify.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    p_verify.add_argument("--tol", type=float, default=None, help="override all check tolerances")
    p_verify.add_argument(
        "--flip-orientation",
        action="store_true",
        help="fault injection: flip contour orientation to exercise the failure path",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_map = sub.add_parser("quasimomentum-map", help="grid of im_p_m, im_p_n plus level sets")
    p_map.add_argument("--xmin", type=float, default=-3.0)
    p_map.add_argument("--xmax", type=float, default=3.0)
    p_map.add_argument("--ymin", type=float, default=-3.0)
    p_map.add_argument("--ymax", type=float, default=3.0)
    p_map.add_argument("--grid", type=int, default=61, help="samples per axis")
    p_map.add_argument("--lambda", dest="lam", action="append", default=[],
                       help="emit the level set through this point (repeatable)")
    p_map.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    p_map.add_argument("--out", default="quasimomentum_map.csv")
    p_map.add_argument("--contours-out", dest="contours_out", default=None)
    p_map.set_defaults(func=cmd_quasimomentum_map)
    return parser


def _attach_negative_values(argv: List[str]) -> List[str]:
    """Join ``--lambda -1+2i`` into ``--lambda=-1+2i`` (likewise --target).

    argparse reads a separate value starting with '-' as an option unless
    it is a plain negative number, so "-2,-2" or "-1+2i" would be rejected.
    """
    out: List[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_negative_values(list(argv)))
        return args.func(args)
    except DegenerateContourError as exc:
        print(f"degenerate contour: {exc}", file=sys.stderr)
        return 2
    except (InvalidSpectralDataError, ThetaConvergenceError, ValueError) as exc:
        print(f"rejected configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
