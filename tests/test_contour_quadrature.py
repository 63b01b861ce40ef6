from __future__ import annotations

import math

import numpy as np
import pytest

from latgreen import (
    Contour,
    NotACContourError,
    PoleOnContourError,
    WaveDifferential,
    c_contour,
    dp_m_coeff,
    dp_n_coeff,
    integrate,
    normalize_orientation,
    omega_coeff,
    residue,
    split_at_sign_changes,
)
from latgreen.contour_quadrature import circle
from latgreen.sphere_backend import P_PLUS, Q_PLUS

TWO_PI = 2.0 * math.pi


def unit_circle_contour(nodes: int = 256) -> Contour:
    return Contour(components=(circle(0.0, 1.0),), nodes_per_component=nodes)


def test_cauchy_integral():
    value = integrate(lambda z: 1.0 / z, unit_circle_contour())
    assert value == pytest.approx(2j * np.pi, abs=1e-12)


def test_dp_n_over_normalized_c_contour():
    assert integrate(dp_n_coeff, c_contour(2 + 2j)) == pytest.approx(TWO_PI, abs=1e-10)


def test_components_close_up():
    for contour in (c_contour(2 + 2j), c_contour(0.4 - 1.1j), unit_circle_contour()):
        for comp in contour.components:
            assert comp.close_up_gap() < 1e-12


def test_omega_residue_at_origin_by_loop():
    ring = Contour(components=(circle(0.0, 0.4),))
    # counterclockwise loop around R- picks up 2 pi i times the residue -1/2
    assert integrate(omega_coeff, ring) == pytest.approx(-1j * np.pi, abs=1e-12)


def test_node_doubling_stability():
    omega_tilde = WaveDifferential.from_sublattice(2, -1, 0, 0)
    contour = c_contour(2 + 2j)
    a = integrate(omega_tilde, contour, nodes=256)
    b = integrate(omega_tilde, contour, nodes=512)
    assert abs(a - b) < 1e-10


def test_pole_on_contour_detected():
    # the unit circle hits z = 1 exactly at the t = 0 node
    bad = Contour(components=(circle(0.0, 1.0),), nodes_per_component=256)
    with pytest.raises(PoleOnContourError):
        integrate(lambda z: 1.0 / (z - 1.0), bad)


# --- residues ---------------------------------------------------------------

def test_residue_reference_values():
    assert residue(omega_coeff, 0.0, radius=0.3) == pytest.approx(-0.5, abs=1e-12)
    assert residue(dp_m_coeff, P_PLUS, radius=0.3) == pytest.approx(1j, abs=1e-12)
    assert residue(dp_n_coeff, Q_PLUS, radius=0.3) == pytest.approx(1j, abs=1e-12)
    assert residue(lambda z: 1.0 / z**2, 0.0, radius=0.3) == pytest.approx(0.0, abs=1e-13)


def test_residue_at_infinity_normalization():
    from latgreen import residue_at_infinity

    # Omega has residues -1/2 at the origin and +1/2 at infinity
    assert residue_at_infinity(omega_coeff) == pytest.approx(0.5, abs=1e-12)
    omega_tilde = WaveDifferential.from_sublattice(2, -1, 0, 0)
    assert residue_at_infinity(omega_tilde) == pytest.approx(0.5, abs=1e-10)


def test_residue_default_radius_from_isolation_points():
    value = residue(omega_coeff, 0.0, isolation_points=[1.0, -1.0, 1j, -1j, 0.0])
    assert value == pytest.approx(-0.5, abs=1e-12)


def test_residue_radius_halving_invariance():
    for r in (0.6, 0.3, 0.15):
        a = residue(omega_coeff, 0.0, radius=r, check=False)
        b = residue(omega_coeff, 0.0, radius=r / 2, check=False)
        assert abs(a - b) < 1e-9


def test_residue_warns_on_misplaced_center():
    with pytest.warns(RuntimeWarning):
        residue(lambda z: 1.0 / (z - 0.3), 0.0, radius=0.5)


# --- orientation -------------------------------------------------------------

def test_normalize_orientation_flips_and_is_projection():
    raw = c_contour(2j).with_orientation(-1)
    fixed = normalize_orientation(raw, dp_n_coeff)
    assert integrate(dp_n_coeff, fixed) == pytest.approx(TWO_PI, abs=1e-10)
    again = normalize_orientation(fixed, dp_n_coeff)
    assert again.orientation_sign == fixed.orientation_sign


def test_normalize_orientation_keeps_correct_contour():
    contour = c_contour(2j)
    fixed = normalize_orientation(contour, dp_n_coeff)
    assert fixed.orientation_sign == contour.orientation_sign


def test_normalize_orientation_rejects_wrong_homology():
    # a loop around both distinguished points: the residues cancel
    both = Contour(components=(circle(0.0, 3.0),))
    with pytest.raises(NotACContourError):
        normalize_orientation(both, dp_n_coeff)


# --- splitting ---------------------------------------------------------------

# circle(0, 1) is z = exp(2 pi i t), so Re z - 0.2 changes sign at these t
RE_Z_CROSSINGS = (math.acos(0.2) / TWO_PI, 1.0 - math.acos(0.2) / TWO_PI)


def test_split_preserves_analytic_integrals():
    contour = unit_circle_contour()
    split = split_at_sign_changes(contour, RE_Z_CROSSINGS)
    assert len(split.components) == 2
    for fn in (lambda z: 1.0 / z, lambda z: np.exp(z) / z**2):
        assert integrate(fn, split, nodes=160) == pytest.approx(
            integrate(fn, contour), abs=1e-12
        )


def test_split_no_crossing_keeps_component_closed():
    contour = unit_circle_contour()
    split = split_at_sign_changes(contour, [])
    assert len(split.components) == 1
    assert split.components[0].closed


def test_split_weighted_integral_spectral_accuracy():
    # integrate sign(Re z - 0.2) / z over the unit circle: exact value from
    # the two arc primitives of 1/z
    contour = unit_circle_contour()
    crossing = math.acos(0.2)
    exact = complex(0.0, 2.0 * (2.0 * crossing - math.pi))

    def weighted(z):
        return np.sign(np.real(z) - 0.2) / z

    split = split_at_sign_changes(contour, RE_Z_CROSSINGS)
    assert integrate(weighted, split, nodes=200) == pytest.approx(exact, abs=1e-12)
