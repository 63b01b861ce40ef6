from __future__ import annotations

import tempfile
from itertools import product

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# property tests draw the same examples on every run and keep no example
# database, so a run is repeatable
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from the sources while
    # collecting; that cache goes to a temporary directory, not to .hypothesis/
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


# the two sign flips of green's weight at this level lie 0.0013 of the circle apart
CLOSE_FLIPS = -0.7156347228670334 + 0.6943503066555872j


def mp_level(lam):
    """(r, h) of lambda in mpmath, with the backend's deformation of critical levels."""
    import mpmath as mp

    from latgreen import INFINITY

    if lam is INFINITY:
        r, h = mp.mpf(1), mp.mpf(0)
    else:
        z = mp.mpc(lam)
        r = abs((z - 1j) / (z + 1j))
        h = mp.log(abs(z + 1)) - mp.log(abs(z - 1))
    return (mp.mpf(0.5) if abs(mp.log(r)) < 0.05 else r), h


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def brute_theta(z, B, box: int = 12) -> complex:
    """Direct lattice-sum oracle for the theta series (no truncation logic)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    B = np.asarray(B, dtype=complex)
    g = len(z)
    total = 0.0 + 0.0j
    for N in product(range(-box, box + 1), repeat=g):
        N = np.asarray(N, dtype=float)
        total += np.exp(1j * np.pi * (B @ N) @ N + 2j * np.pi * (N @ z))
    return total


def random_period_matrix(rng: np.random.Generator, g: int) -> np.ndarray:
    """Symmetric B with comfortably positive-definite imaginary part."""
    X = rng.normal(size=(g, g)) * 0.3
    X = (X + X.T) / 2.0
    A = rng.normal(size=(g, g)) * 0.3
    Y = A @ A.T + np.eye(g)
    return X + 1j * Y


def random_jacobian_data(rng: np.random.Generator, g: int):
    from latgreen import JacobianSpectralData

    return JacobianSpectralData(
        B=random_period_matrix(rng, g),
        A_gamma=rng.normal(size=(g, g)) * 0.4 + 1j * rng.normal(size=(g, g)) * 0.1,
        K=rng.normal(size=g) * 0.4 + 1j * rng.normal(size=g) * 0.1,
        Delta_P=rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.05,
        Delta_Q=rng.normal(size=g) * 0.5 + 1j * rng.normal(size=g) * 0.05,
    )
