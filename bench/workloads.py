"""The four benchmark workloads.

Each workload builds its inputs from the seed, makes the inputs of
operation ``i`` with ``make(i)`` (untimed), runs one operation with
``run(inputs)`` (timed; returns the number of result values and what the
checks need), and checks the recorded outputs with ``check(records)``
after the timed loop.  The program is used only through its public
functions: ``latgreen.cli.main`` and the names exported by ``latgreen``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import re

import numpy as np

import latgreen as lg
from latgreen import cli

import oracles
from oracles import G0_TOL, GREEN_TOL, GROWTH_TOL, STENCIL_TOL, THETA_TOL

WINDOW = 24
# split_at_sign_changes scans 512 points, so it misses two sign flips
# closer than 1/512 of the circle (see CHANGES.md); levels that close to
# tangency are left out
MIN_ARC_GAP = 8 / 512


def regular_lambda(rng) -> complex:
    """A spectral parameter whose level circle is regular.

    It keeps |log|w|| > 0.15 with w = (lam - i)/(lam + i), so the contour is
    not deformed, stays 0.3 away from P+-, Q+-, and keeps the two sign
    flips of the weight at least MIN_ARC_GAP apart.
    """
    while True:
        lam = complex(*rng.uniform(-2.5, 2.5, size=2))
        w = (lam - 1j) / (lam + 1j)
        if (abs(np.log(abs(w))) > 0.15
                and min(abs(lam - p) for p in (1, -1, 1j, -1j)) > 0.3
                and oracles.arc_gap(lam) >= MIN_ARC_GAP):
            return lam


def run_cli(argv):
    """Call the CLI entry point in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
    return rc, out.getvalue()


class Tables:
    """``latgreen green-table --window 24`` over a seeded cycle of levels."""

    def __init__(self, seed: int, tmp):
        rng = np.random.default_rng([seed, 1])
        self.tmp = tmp
        # four regular levels, one deformed level (real lambda) and lambda = inf
        self.lams = [regular_lambda(rng) for _ in range(4)] + [3.0 + 0j, None]
        self.targets = [tuple(int(x) for x in rng.integers(-3, 4, size=2)) for _ in range(3)]

    def make(self, i: int):
        lam = self.lams[i % len(self.lams)]
        target = self.targets[i % len(self.targets)]
        fmt = ("csv", "json")[i % 2]
        regular = i % len(self.lams) < 4
        lam_text = "inf" if lam is None else f"{lam.real!r},{lam.imag!r}"
        out = self.tmp / f"table-{i}.{fmt}"
        argv = ["green-table", "--window", str(WINDOW), f"--lambda={lam_text}",
                f"--target={target[0]},{target[1]}", "--format", fmt, "--out", str(out)]
        return argv, lam, regular, target, fmt, out

    def run(self, inputs):
        rc, _ = run_cli(inputs[0])
        return (2401 if rc == 0 else 0), rc

    def check(self, records):
        d = np.arange(-WINDOW, WINDOW + 1)
        d_mu, d_nu = np.meshgrid(d, d, indexing="ij")
        errors = []
        for (argv, lam, regular, target, fmt, out), rc in records:
            where = f"green-table {' '.join(argv[1:8])}"
            if rc != 0:
                errors.append(f"{where}: exit {rc}")
                continue
            rows = _read_table(out, fmt)
            out.unlink()
            if len(rows) != (2 * WINDOW + 1) ** 2:
                errors.append(f"{where}: {len(rows)} rows")
                continue
            grid = np.full((2 * WINDOW + 1,) * 2, np.nan, dtype=complex)
            for mu, nu, mu_t, nu_t, value in rows:
                if (mu_t, nu_t) != target:
                    errors.append(f"{where}: row with target {(mu_t, nu_t)}")
                    break
                grid[mu - mu_t + WINDOW, nu - nu_t + WINDOW] = value
            ref, scale = oracles.green_reference(lam, (d_mu - d_nu).ravel(), (d_mu + d_nu).ravel())
            err = float(np.max(np.abs(grid.ravel() - ref) / scale))
            if not err <= GREEN_TOL:
                errors.append(f"{where}: error {err:.3e} against the reference quadrature")
            res = oracles.table_stencil_residual(grid, (WINDOW, WINDOW))
            if not res <= STENCIL_TOL:
                errors.append(f"{where}: stencil residual {res:.3e}")
            if regular:
                full = oracles.growth_fit(grid, d_mu, d_nu, lam, WINDOW)
                inner = oracles.growth_fit(grid, d_mu, d_nu, lam, WINDOW // 2)
                if not abs(full / inner - 1.0) <= GROWTH_TOL:
                    errors.append(f"{where}: growth fit {full:.4g} vs inner {inner:.4g}")
        return errors


def _read_table(path, fmt):
    if fmt == "csv":
        with open(path, newline="") as fh:
            rows = [(r["mu"], r["nu"], r["mu_t"], r["nu_t"], r["re"], r["im"])
                    for r in csv.DictReader(fh)]
    else:
        with open(path) as fh:
            rows = [(r["mu"], r["nu"], r["mu_t"], r["nu_t"], r["re"], r["im"])
                    for r in json.load(fh)["values"]]
    return [(int(a), int(b), int(c), int(d), complex(float(re), float(im)))
            for a, b, c, d, re, im in rows]


# site, right, left, up, down: the argument order of oracles.stencil_residual
STENCIL = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


class Points:
    """Single-point ``green`` with its four neighbours, then five ``g0``."""

    def __init__(self, seed: int, tmp):
        self.seed = seed

    def make(self, i: int):
        rng = np.random.default_rng([self.seed, 2, i])
        lam = regular_lambda(rng)
        mu_t, nu_t = (int(x) for x in rng.integers(-3, 4, size=2))
        d_mu, d_nu = (int(x) for x in rng.integers(-8, 9, size=2))
        # g0 loses digits to cancellation at larger offsets (see README)
        g0_offsets = [tuple(int(x) for x in rng.integers(-3, 4, size=2)) for _ in range(5)]
        return lam, (mu_t, nu_t), (d_mu, d_nu), g0_offsets

    def run(self, inputs):
        lam, (mu_t, nu_t), (d_mu, d_nu), g0_offsets = inputs
        mu, nu = mu_t + d_mu, nu_t + d_nu
        greens = [lg.green(lam, mu + a, nu + b, mu_t, nu_t) for a, b in STENCIL]
        contour = lg.default_kernel_contour()
        g0s = [lg.g0(contour, mu_t + a, nu_t + b, mu_t, nu_t) for a, b in g0_offsets]
        return 10, (greens, g0s)

    def check(self, records):
        errors = []
        for (lam, _, (d_mu, d_nu), g0_offsets), (greens, g0s) in records:
            delta = 1.0 if (d_mu, d_nu) == (0, 0) else 0.0
            res = oracles.stencil_residual(*greens, delta)
            if not res <= STENCIL_TOL:
                errors.append(f"green({lam}, offset {(d_mu, d_nu)}): stencil residual {res:.3e}")
            sites = [(d_mu + a, d_nu + b) for a, b in STENCIL]
            ref, scale = oracles.green_reference(
                lam, [a - b for a, b in sites], [a + b for a, b in sites])
            err = float(np.max(np.abs(np.array(greens) - ref) / scale))
            if not err <= GREEN_TOL:
                errors.append(f"green({lam}, offset {(d_mu, d_nu)}): error {err:.3e} "
                              "against the reference quadrature")
            for (a, b), value in zip(g0_offsets, g0s):
                err = oracles.g0_relative_error(value, a - b, a + b)
                if not err <= G0_TOL:
                    errors.append(f"g0 offset {(a, b)}: error {err:.3e} against the exact residue")
        return errors


def theta_data(seed: int) -> "lg.JacobianSpectralData":
    """Seeded genus-4 spectral data with Im B = I.

    Im B is fixed because the engine sizes its ellipsoid in steps of 1.2 in
    radius, so a seeded Im B moves the cost of one theta call by up to 2x
    from seed to seed; everything else is drawn from the seed.
    """
    rng = np.random.default_rng([seed, 3])
    g = 4
    X = rng.normal(size=(g, g)) * 0.3

    def cvec(*shape, re, im):
        return rng.normal(size=shape) * re + 1j * rng.normal(size=shape) * im

    return lg.JacobianSpectralData(
        B=(X + X.T) / 2 + 1j * np.eye(g),
        A_gamma=cvec(g, g, re=0.4, im=0.05),
        K=cvec(g, re=0.4, im=0.05),
        Delta_P=cvec(g, re=0.5, im=0.03),
        Delta_Q=cvec(g, re=0.5, im=0.03),
    )


class Theta:
    """``psi_theta`` on one seeded genus-4 data set at seeded points."""

    # operations phase, phase + 10 and phase + 20 also get the monodromy and
    # m = n = 0 checks; a monodromy check costs about 1 s
    subset_every = 10
    subset_max = 3

    def __init__(self, seed: int, tmp):
        self.seed = seed
        self.data = theta_data(seed)
        self.subset_phase = seed % self.subset_every

    def make(self, i: int):
        rng = np.random.default_rng([self.seed, 4, i])
        A = rng.normal(size=4) * 0.5 + 1j * rng.normal(size=4) * 0.05
        exp_val = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.5, 2.0))
        m, n = (int(x) for x in rng.integers(-2, 3, size=2))
        M = rng.integers(-1, 2, size=4)
        return i, A, exp_val, m, n, M

    def run(self, inputs):
        _, A, exp_val, m, n, _ = inputs
        return 1, lg.psi_theta(self.data, A, exp_val, m, n)

    def check(self, records):
        d = self.data
        errors = []
        for (i, A, exp_val, m, n, M), value in records:
            ref = oracles.psi_theta_box(d.B, d.theta_shift, d.Delta_P, d.Delta_Q, A, exp_val, m, n)
            err = oracles.relative_error(value, ref)
            if not err <= THETA_TOL:
                errors.append(f"psi_theta op {i}: error {err:.3e} against the box sum")
            if i % self.subset_every != self.subset_phase or i >= self.subset_every * self.subset_max:
                continue
            mono = lg.monodromy_check(d, A, exp_val, m, n, M) / abs(value)
            if not mono <= THETA_TOL:
                errors.append(f"monodromy op {i}: relative residual {mono:.3e}")
            origin = oracles.relative_error(lg.psi_theta(d, A, exp_val, 0, 0), exp_val)
            if not origin <= 1e-12:
                errors.append(f"psi_theta(m = n = 0) op {i}: differs from exp_val by {origin:.3e}")
        return errors


_CHECK_LINE = re.compile(r"^(\S+)\s+residual=(\S+)\s+tol=(\S+)\s+(PASS|FAIL)$")


def parse_verify(text: str):
    """[(name, residual, tol)] from the lines of ``latgreen verify``."""
    return [(m.group(1), float(m.group(2)), float(m.group(3)))
            for m in map(_CHECK_LINE.match, text.splitlines()) if m]


class Verify:
    """``latgreen verify`` on the sphere backend.

    The command takes no input but its node count, which is left at its
    default, so every operation is the same; the seed changes nothing.
    """

    def __init__(self, seed: int, tmp):
        pass

    def make(self, i: int):
        return ["verify"]

    def run(self, argv):
        rc, text = run_cli(argv)
        passed = sum(1 for _, residual, tol in parse_verify(text) if residual < tol)
        return passed, (rc, text)

    def check(self, records):
        errors = []
        for _, (rc, text) in records:
            checks = parse_verify(text)
            bad = [name for name, residual, tol in checks if not residual < tol]
            if rc != 0 or bad or not checks:
                errors.append(f"verify: exit {rc}, failed {bad}, {len(checks)} checks")
                break
        # fault injection must be caught and named, with exit code 1
        rc, text = run_cli(["verify", "--flip-orientation"])
        failed = [name for name, residual, tol in parse_verify(text) if not residual < tol]
        if rc != 1 or "orientation" not in failed:
            errors.append(f"verify --flip-orientation: exit {rc}, failed {failed}")
        return errors


WORKLOADS = {"tables": Tables, "points": Points, "theta": Theta, "verify": Verify}
