from __future__ import annotations

import math

import numpy as np
import pytest

from latgreen import (
    DivisorSingularityError,
    InvalidSpectralDataError,
    JacobianSpectralData,
    ThetaConvergenceError,
    load_jacobian_data,
    monodromy_check,
    psi_theta,
    save_jacobian_data,
    theta,
    theta_quasi_period_factor,
)

from conftest import brute_theta, random_jacobian_data, random_period_matrix


# --- the series itself ------------------------------------------------------

def test_large_imaginary_part_limit():
    assert abs(theta([0.0], [[10j]]) - 1.0) < 1e-13


def test_genus_one_value_against_series_oracle():
    oracle = sum(math.exp(-math.pi * n * n) for n in range(-50, 51))
    assert theta([0.0], [[1j]]) == pytest.approx(oracle, abs=1e-12)


def test_matches_brute_oracle_genus_two(rng):
    for _ in range(5):
        B = random_period_matrix(rng, 2)
        z = rng.normal(size=2) * 0.7 + 1j * rng.normal(size=2) * 0.2
        assert theta(z, B) == pytest.approx(brute_theta(z, B), rel=1e-11, abs=1e-12)


def test_evenness(rng):
    for g in (1, 2, 3):
        B = random_period_matrix(rng, g)
        for _ in range(5):
            z = rng.normal(size=g) + 1j * rng.normal(size=g) * 0.2
            assert theta(-z, B) == pytest.approx(theta(z, B), rel=1e-12, abs=1e-14)


def test_integer_quasi_periodicity(rng):
    for _ in range(20):
        g = int(rng.integers(1, 4))
        B = random_period_matrix(rng, g)
        z = rng.normal(size=g) + 1j * rng.normal(size=g) * 0.2
        k = int(rng.integers(g))
        e = np.zeros(g)
        e[k] = 1.0
        assert abs(theta(z + e, B) - theta(z, B)) < 1e-10


def test_refinement_monotonicity(rng):
    for _ in range(5):
        B = random_period_matrix(rng, 2)
        z = rng.normal(size=2) + 1j * rng.normal(size=2) * 0.3
        for tol in (1e-6, 1e-8, 1e-10):
            a = theta(z, B, tol=tol)
            b = theta(z, B, tol=tol / 2)
            assert abs(a - b) <= tol


def test_invalid_matrices_rejected():
    with pytest.raises(ThetaConvergenceError):
        theta([0.0], [[1.0 + 0j]])  # Im B = 0
    with pytest.raises(ThetaConvergenceError):
        theta([0.0, 0.0], [[1j, 0.5], [0.0, 1j]])  # not symmetric
    with pytest.raises(ValueError):
        theta([0.0], [[1j]], tol=0.0)


def test_non_finite_matrix_rejected():
    # every comparison with NaN is False, so symmetry and Im B > 0 pass
    with pytest.raises(ThetaConvergenceError, match="period matrix B has non-finite"):
        theta([0.0, 0.0], [[1j, math.nan], [math.nan, 1j]])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_theta_tol_outside_open_interval_rejected(tol):
    with pytest.raises(ThetaConvergenceError, match="tol must be in"):
        theta([0.0], [[1j]], tol=tol)


# --- quasi-period factor ------------------------------------------------------

def test_quasi_period_factor_reference_values():
    assert theta_quasi_period_factor([0.0], [[1j]], 1) == pytest.approx(math.exp(math.pi))
    # z_k = -B_kk / 2 makes the exponent vanish
    B = [[1j]]
    assert theta_quasi_period_factor([-0.5j], B, 1) == pytest.approx(1.0)


def test_quasi_period_factor_matches_series_ratio(rng):
    B = random_period_matrix(rng, 2)
    z = rng.normal(size=2) * 0.4 + 1j * rng.normal(size=2) * 0.1
    for k in (1, 2):
        fac = theta_quasi_period_factor(z, B, k)
        lhs = theta(z + B[:, k - 1], B)
        rhs = fac * theta(z, B)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_quasi_period_factor_index_range():
    with pytest.raises(IndexError):
        theta_quasi_period_factor([0.0], [[1j]], 2)
    with pytest.raises(IndexError):
        theta_quasi_period_factor([0.0], [[1j]], 0)


# --- wave function -------------------------------------------------------------

def test_psi_theta_origin_shift_is_identity(rng):
    for g in (1, 2):
        data = random_jacobian_data(rng, g)
        for _ in range(5):
            A_pt = rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.1
            val = psi_theta(data, A_pt, 2.5 - 1.5j, 0, 0)
            assert val == pytest.approx(2.5 - 1.5j, rel=1e-14)


def test_psi_theta_at_base_point_is_exponential_factor(rng):
    for g in (1, 2):
        data = random_jacobian_data(rng, g)
        for m in range(-2, 3):
            for n in range(-2, 3):
                val = psi_theta(data, np.zeros(g), 1.0, m, n)
                assert val == pytest.approx(1.0, rel=1e-12)


def test_monodromy_zero_shift_is_exact(rng):
    data = random_jacobian_data(rng, 2)
    A_pt = rng.normal(size=2) * 0.3
    assert monodromy_check(data, A_pt, 1.3 + 0.4j, 2, -1, np.zeros(2, dtype=int)) == 0.0


def test_monodromy_residuals(rng):
    data1 = random_jacobian_data(rng, 1)
    assert monodromy_check(data1, np.array([0.2 + 0.1j]), 1.0, 1, 1, np.array([1])) < 1e-9
    data2 = random_jacobian_data(rng, 2)
    assert (
        monodromy_check(data2, rng.normal(size=2) * 0.3, 1.0, 2, -1, np.array([1, -1])) < 1e-9
    )


def test_monodromy_rejects_non_integer_shift(rng):
    data = random_jacobian_data(rng, 2)
    with pytest.raises(ValueError):
        monodromy_check(data, np.zeros(2), 1.0, 1, 1, np.array([0.5, 1.0]))


def test_divisor_singularity_detected():
    # theta(z | i) vanishes at the half-period z = (1 + i)/2
    data = JacobianSpectralData(
        B=[[1j]],
        A_gamma=[[0.0]],
        K=[(1 + 1j) / 2],
        Delta_P=[0.3],
        Delta_Q=[0.1],
    )
    with pytest.raises(DivisorSingularityError):
        psi_theta(data, [0.0], 1.0, 1, 1)


# --- data container and JSON interface ----------------------------------------

def test_data_validation():
    with pytest.raises(InvalidSpectralDataError):
        JacobianSpectralData(B=[[1j]], A_gamma=[[0.0], [0.0]], K=[0.0], Delta_P=[0.0], Delta_Q=[0.0])
    with pytest.raises(ThetaConvergenceError):
        JacobianSpectralData(B=[[1j, 0.3], [0.0, 1j]], A_gamma=np.zeros((2, 2)),
                             K=[0.0, 0.0], Delta_P=[0.0, 0.0], Delta_Q=[0.0, 0.0])


@pytest.mark.parametrize("field", ["A_gamma", "K", "Delta_P", "Delta_Q"])
def test_non_finite_data_vector_rejected(field):
    fields = dict(B=[[1j]], A_gamma=[[0.0]], K=[0.0], Delta_P=[0.3], Delta_Q=[0.1])
    fields[field] = np.full(np.shape(fields[field]), complex(math.inf, 0.0))
    with pytest.raises(InvalidSpectralDataError, match=f"{field} has non-finite"):
        JacobianSpectralData(**fields)


def test_non_finite_evaluation_point_rejected():
    data = JacobianSpectralData(B=[[1j]], A_gamma=[[0.0]], K=[0.0], Delta_P=[0.3], Delta_Q=[0.1])
    with pytest.raises(InvalidSpectralDataError, match="A_gamma_pt has non-finite"):
        psi_theta(data, [math.nan], 1.0, 1, 1)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
def test_data_tol_outside_open_interval_rejected(tol):
    with pytest.raises(InvalidSpectralDataError, match="tol must be in"):
        JacobianSpectralData(B=[[1j]], A_gamma=[[0.0]], K=[0.0], Delta_P=[0.3], Delta_Q=[0.1],
                             tol=tol)


def test_json_round_trip(tmp_path, rng):
    data = random_jacobian_data(rng, 2)
    path = tmp_path / "data.json"
    save_jacobian_data(data, path)
    back = load_jacobian_data(path)
    assert back.g == 2
    np.testing.assert_allclose(back.B, data.B, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back.A_gamma, data.A_gamma, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back.K, data.K, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back.Delta_P, data.Delta_P, rtol=0, atol=1e-15)
    np.testing.assert_allclose(back.Delta_Q, data.Delta_Q, rtol=0, atol=1e-15)
    # evaluation agrees through the round trip
    A_pt = np.array([0.2 + 0.1j, -0.3 + 0.05j])
    assert psi_theta(back, A_pt, 1.0, 2, -1) == pytest.approx(
        psi_theta(data, A_pt, 1.0, 2, -1), rel=1e-13
    )


def test_json_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"g": 1}')
    with pytest.raises(InvalidSpectralDataError):
        load_jacobian_data(bad)
    bad.write_text("not json at all")
    with pytest.raises(InvalidSpectralDataError):
        load_jacobian_data(bad)
    asym = {
        "g": 2,
        "B": [[[0.0, 1.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        "K": [[0.0, 0.0], [0.0, 0.0]],
        "Delta_P": [[0.0, 0.0], [0.0, 0.0]],
        "Delta_Q": [[0.0, 0.0], [0.0, 0.0]],
        "A_gamma": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    }
    import json

    bad.write_text(json.dumps(asym))
    with pytest.raises(InvalidSpectralDataError):
        load_jacobian_data(bad)
