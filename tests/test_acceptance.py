"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and residuals.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from latgreen import (
    LatticeField,
    apply_five_point,
    check_four_point,
    default_kernel_contour,
    dp_n_coeff,
    g0,
    green_table,
    growth_check,
    im_p_m,
    im_p_n,
    integrate,
    kernel_K,
    monodromy_check,
    psi,
    residue_lemma_P,
    residue_lemma_Q,
    theta,
    to_sublattice,
    verify_delta,
)
from latgreen.sphere_backend import c_contour, f

from conftest import brute_theta, random_jacobian_data, random_period_matrix

TWO_PI = 2.0 * math.pi


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion}] PASS: {text}")


def test_criterion_1_figure_reproduction():
    """g0(m, n, 0, 0) closed forms on the separating contour, 1e-10."""
    start = time.monotonic()
    contour = default_kernel_contour()
    worst = 0.0
    for m in range(-5, 6):
        for n in range(-2, 2):
            if (m + n) % 2:
                continue
            mu, nu = to_sublattice(m, n)
            value = g0(contour, mu, nu, 0, 0)
            if n >= 0:
                want = 0.0
            elif n == -1:
                want = -0.5 * np.sign(m) * (-1j) ** (m + 1)
            else:
                want = -np.sign(m) * m * (-1j) ** m
            worst = max(worst, abs(value - want))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    report(1, f"figure values match closed forms (worst={worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_delta_property():
    """|L G - delta| < 1e-8 on |mu|,|nu| <= 6 for g0 and green, three lambdas."""
    start = time.monotonic()
    worst = 0.0
    for lam in (2 + 2j, 3.0 + 0j, 1 + 0.5j):
        for kind in ("g0", "green"):
            residual = verify_delta(lam, 6, kind=kind)
            worst = max(worst, residual)
            assert residual < 1e-8, (lam, kind, residual)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, f"delta property for both kernels at three lambdas (worst={worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_residue_lemmas(rng):
    """Q+ residue equals i and the P+ residues cancel, 1e-9."""
    worst_q = 0.0
    for _ in range(10):
        mu, nu = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        worst_q = max(worst_q, abs(residue_lemma_Q(mu, nu) - 1j))
    assert worst_q < 1e-9
    worst_p = 0.0
    for _ in range(10):
        mu, nu = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        shift = int(rng.integers(-4, 5))
        worst_p = max(worst_p, residue_lemma_P(mu, nu, mu + shift, nu + shift))
    assert worst_p < 1e-9
    report(3, f"residue lemmas at Q+ and P+ (worst {worst_q:.2e} / {worst_p:.2e})")


def test_criterion_4_kernel_diagonal(rng):
    """|K| < 1e-10 for 20 random diagonal index pairs."""
    contour = default_kernel_contour()
    worst = 0.0
    for _ in range(20):
        mu, nu = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        shift = int(rng.integers(-4, 5))
        worst = max(worst, abs(kernel_K(contour, mu, nu, mu + shift, nu + shift)))
    assert worst < 1e-10
    report(4, f"kernel vanishes on the diagonal sublattice (worst={worst:.2e})")


def test_criterion_5_orientation():
    """Every constructed C-contour integrates dp_n to +2 pi within 1e-10."""
    lams = [2 + 2j, 1 + 0.5j, 2j, 0.3 - 0.7j, -2 + 1j, 3.0 + 0j, 5j, 0.01j + 0.3]
    worst = 0.0
    for lam in lams:
        value = integrate(dp_n_coeff, c_contour(lam))
        worst = max(worst, abs(value - TWO_PI))
    worst = max(worst, abs(integrate(dp_n_coeff, default_kernel_contour()) - TWO_PI))
    assert worst < 1e-10
    report(5, f"orientation normalization of all constructed contours (worst={worst:.2e})")


def test_criterion_6_growth_bound(rng):
    """Normalized green growth fit stabilizes; bare g0 does not; exact |psi| rates."""
    lam = 2 + 2j
    fit4, _ = growth_check(lam, 4, kind="green")
    fit8, _ = growth_check(lam, 8, kind="green")
    ratio = fit8 / fit4
    assert ratio < 1.05
    g0_4, _ = growth_check(lam, 4, kind="g0")
    g0_8, _ = growth_check(lam, 8, kind="g0")
    assert g0_8 > 2.0 * g0_4
    worst = 0.0
    for _ in range(30):
        z = complex(rng.normal(), rng.normal()) * 1.5
        if min(abs(z - 1), abs(z + 1), abs(z - 1j), abs(z + 1j), abs(z)) < 0.05:
            continue
        for m in range(-8, 9):
            for n in range(-8, 9):
                lhs = abs(psi(z, m, n))
                rhs = math.exp(m * im_p_m(z) + n * im_p_n(z))
                worst = max(worst, abs(lhs / rhs - 1.0))
    assert worst < 1e-12
    report(
        6,
        f"growth: green fit stable ({ratio:.4f}), g0 fit grows "
        f"({g0_8 / g0_4:.1f}x), |psi| rate exact (worst rel {worst:.2e})",
    )


def test_criterion_7_theta_engine(rng):
    """Quasi-periodicity, the genus-one value, and monodromy residuals."""
    worst_qp = 0.0
    for _ in range(20):
        g = int(rng.integers(1, 4))
        B = random_period_matrix(rng, g)
        z = rng.normal(size=g) + 1j * rng.normal(size=g) * 0.2
        k = int(rng.integers(g))
        e = np.zeros(g)
        e[k] = 1.0
        worst_qp = max(worst_qp, abs(theta(z + e, B) - theta(z, B)))
    assert worst_qp < 1e-10

    oracle = brute_theta([0.0], [[1j]], box=50)
    value = theta([0.0], [[1j]])
    assert abs(value - oracle) < 1e-12

    worst_m = 0.0
    for _ in range(10):
        g = int(rng.integers(1, 3))
        data = random_jacobian_data(rng, g)
        A_pt = rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.1
        m = int(rng.integers(-2, 3))
        n = int(rng.integers(-2, 3))
        M = rng.integers(-2, 3, size=g)
        worst_m = max(worst_m, monodromy_check(data, A_pt, 1.0, m, n, M))
    assert worst_m < 1e-9
    report(
        7,
        f"theta engine: quasi-periodicity {worst_qp:.2e}, genus-1 value "
        f"{abs(value - oracle):.2e}, monodromy {worst_m:.2e}",
    )


def test_criterion_8_four_five_point_consistency():
    """Sampled wave function satisfies both lattice equations to 1e-12."""
    z0 = 2.0 + 0.0j
    field = LatticeField.from_function((-6, 6), (-6, 6), lambda m, n: psi(z0, m, n))
    res4 = check_four_point(field, f)
    assert res4 < 1e-12

    phi = LatticeField.from_function(
        (-4, 4), (-4, 4), lambda mu, nu: psi(z0, mu - nu, mu + nu)
    )
    coeffs = f
    res5 = 0.0
    for mu in range(-3, 4):
        for nu in range(-3, 4):
            res5 = max(res5, abs(apply_five_point(phi, coeffs, mu, nu)))
    assert res5 < 1e-12
    report(8, f"four-point ({res4:.2e}) and five-point ({res5:.2e}) identities")
