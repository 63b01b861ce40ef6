"""Fast tests of the benchmark's reference computations.

Run from the repository root with ``python -m pytest bench``.  They need
numpy and mpmath, not latgreen.
"""
import math

import mpmath
import numpy as np
import pytest

import oracles


def psi(z, m, n):
    return ((z + 1) / (z - 1)) ** m * ((z + 1j) / (z - 1j)) ** n


@pytest.mark.parametrize("m", [-7, -5, -3, -1, 1, 3, 5, 7])
def test_g0_closed_form_n_minus_1(m):
    want = -np.sign(m) * (-1j) ** (m + 1) / 2
    assert oracles.g0_exact(m, -1) == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("m", [-6, -4, -2, 2, 4, 6])
def test_g0_closed_form_n_minus_2(m):
    want = -np.sign(m) * m * (-1j) ** m
    assert oracles.g0_exact(m, -2) == pytest.approx(want, abs=1e-15)


def test_g0_vanishes_for_nonnegative_n_and_on_the_diagonal():
    assert oracles.g0_exact(3, 0) == 0
    assert oracles.g0_exact(5, 3) == 0
    assert oracles.g0_exact(0, -4) == 0


def test_g0_check_rejects_a_perturbation():
    exact = oracles.g0_exact(3, -5)
    assert abs(exact) > 0.1
    assert oracles.g0_relative_error(exact, 3, -5) == 0
    assert oracles.g0_relative_error(exact * (1 + 1e-9), 3, -5) > oracles.G0_TOL


def _psi_field(z, half=4):
    """psi(z, mu - nu, mu + nu) on a window: L annihilates it for every z."""
    d = np.arange(-half, half + 1)
    mu, nu = np.meshgrid(d, d, indexing="ij")
    return np.vectorize(lambda a, b: psi(z, a - b, a + b))(mu, nu).astype(complex)


def test_stencil_residual_of_a_solution_is_rounding():
    grid = _psi_field(2.0 + 0.3j)
    delta = np.zeros(grid.shape)
    res = oracles.stencil_residual(
        grid[1:-1, 1:-1], grid[2:, 1:-1], grid[:-2, 1:-1], grid[1:-1, 2:], grid[1:-1, :-2], delta[1:-1, 1:-1])
    assert res.max() < 1e-14


def test_stencil_check_rejects_a_perturbation():
    grid = _psi_field(2.0 + 0.3j)
    c = grid.shape[0] // 2
    args = [grid[c, c], grid[c + 1, c], grid[c - 1, c], grid[c, c + 1], grid[c, c - 1]]
    assert oracles.stencil_residual(*args, 0.0) <= oracles.STENCIL_TOL
    args[0] *= 1 + 1e-9
    assert oracles.stencil_residual(*args, 0.0) > oracles.STENCIL_TOL


def test_table_stencil_residual_finds_a_missing_delta():
    grid = _psi_field(1.5 - 0.7j, half=1) * 1e-3  # stencil terms sum to < 1
    assert oracles.table_stencil_residual(grid, (1, 1)) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("lam", [2 + 2j, -1 + 2j, 0.3 + 0.1j, 0.2 - 1.4j, 3 + 0j, None])
def test_weight_roots_lie_on_the_level(lam):
    r, h = oracles._level(lam)
    for t in oracles.weight_roots(lam):
        z = complex(oracles._circle_point(r, t)[1])
        assert math.log(abs(z + 1)) - math.log(abs(z - 1)) == pytest.approx(h, abs=1e-12)


@pytest.mark.parametrize("lam", [2 + 2j, -1 + 2j, 0.2 - 1.4j, 3 + 0j, None])
def test_green_reference_solves_the_delta_equation(lam):
    d = np.arange(-4, 5)
    d_mu, d_nu = np.meshgrid(d, d, indexing="ij")
    values, _ = oracles.green_reference(lam, (d_mu - d_nu).ravel(), (d_mu + d_nu).ravel())
    assert oracles.table_stencil_residual(values.reshape(d_mu.shape), (4, 4)) < 1e-13


def test_green_reference_check_rejects_a_perturbation():
    values, scales = oracles.green_reference(2 + 2j, [0], [0])
    assert abs(values[0] * 1e-9) / scales[0] > oracles.GREEN_TOL


def test_growth_fit_of_an_exact_envelope():
    lam = 2 + 2j
    rate_mu, rate_nu = oracles.growth_rates(lam)
    d = np.arange(-6, 7)
    d_mu, d_nu = np.meshgrid(d, d, indexing="ij")
    grid = 0.25 * np.exp(d_mu * rate_mu + d_nu * rate_nu) * np.exp(1j * d_mu)
    assert oracles.growth_fit(grid, d_mu, d_nu, lam, 6) == pytest.approx(0.25, rel=1e-12)
    assert oracles.growth_fit(grid, d_mu, d_nu, lam, 3) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize("z, tau", [(0.12 + 0.03j, 1j), (0.4 - 0.2j, 0.3 + 0.8j), (-0.7 + 0.5j, -0.2 + 1.5j)])
def test_genus_one_box_sum_matches_jacobi_theta3(z, tau):
    mpmath.mp.dps = 30
    want = complex(mpmath.jtheta(3, mpmath.pi * z, mpmath.exp(1j * mpmath.pi * tau)))
    got = oracles.theta_box([z], [[tau]])
    assert abs(got - want) <= 1e-13 * abs(want)


def test_psi_theta_box_is_exp_val_at_the_origin_and_rejects_a_perturbation():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2, 2)) * 0.3
    B = (X + X.T) / 2 + 1j * np.array([[1.0, 0.2], [0.2, 0.9]])
    shift = rng.normal(size=2) * 0.4 + 0.05j
    dp, dq = rng.normal(size=2) * 0.5, rng.normal(size=2) * 0.5
    A = rng.normal(size=2) * 0.5
    assert oracles.psi_theta_box(B, shift, dp, dq, A, 1.5 - 0.5j, 0, 0) == pytest.approx(1.5 - 0.5j, rel=1e-14)
    ref = oracles.psi_theta_box(B, shift, dp, dq, A, 1.0, 2, -1)
    assert oracles.relative_error(ref, ref) == 0
    assert oracles.relative_error(ref * (1 + 1e-9), ref) > oracles.THETA_TOL
