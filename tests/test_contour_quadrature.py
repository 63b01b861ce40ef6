from __future__ import annotations

import math

import numpy as np
import pytest

from latgreen import (
    Contour,
    PoleOnContourError,
    WaveDifferential,
    c_contour,
    dp_m_coeff,
    dp_n_coeff,
    green_table,
    integrate,
    omega_coeff,
    residue,
    split_at_sign_changes,
)
from latgreen.contour_quadrature import QUAD_REAL, _component_rule, circle
from latgreen.sphere_backend import P_PLUS, Q_PLUS, level_circle_contour

TWO_PI = 2.0 * math.pi


def unit_circle_contour(nodes: int = 256) -> Contour:
    return Contour(components=(circle(0.0, 1.0),), nodes_per_component=nodes)


def test_cauchy_integral():
    value = integrate(lambda z: 1.0 / z, unit_circle_contour())
    assert value == pytest.approx(2j * np.pi, abs=1e-12)


def test_dp_n_over_normalized_c_contour():
    contour = c_contour(2 + 2j)
    assert integrate(dp_n_coeff, contour) == pytest.approx(TWO_PI, abs=1e-10)
    assert integrate(dp_n_coeff, contour.with_orientation(-1)) == pytest.approx(-TWO_PI, abs=1e-10)


def test_components_close_up():
    ends = np.array([0.0, 1.0], dtype=QUAD_REAL)
    for contour in (c_contour(2 + 2j), c_contour(0.4 - 1.1j), unit_circle_contour()):
        for comp in contour.components:
            z0, z1 = comp.point(ends)
            assert abs(z1 - z0) < 1e-12


def test_omega_residue_at_origin_by_loop():
    ring = Contour(components=(circle(0.0, 0.4),))
    # counterclockwise loop around R- picks up 2 pi i times the residue -1/2
    assert integrate(omega_coeff, ring) == pytest.approx(-1j * np.pi, abs=1e-12)


def test_node_doubling_stability():
    omega_tilde = WaveDifferential.from_sublattice(2, -1, 0, 0)
    a = integrate(omega_tilde, c_contour(2 + 2j, 256))
    b = integrate(omega_tilde, c_contour(2 + 2j, 512))
    assert abs(a - b) < 1e-10


@pytest.mark.parametrize(
    "make",
    [
        lambda: circle(0.3 - 0.2j, 1.5),
        lambda: level_circle_contour(0.5).components[0],
        lambda: level_circle_contour(2.0).components[0],
        # the arc from t = 0.9 to 1.2 wraps around t = 1
        lambda: split_at_sign_changes(level_circle_contour(2.0), [0.9, 0.2]).components[1],
    ],
    ids=["circle", "level_r0.5", "level_r2", "wrapping_arc"],
)
def test_sample_derivative_matches_points(make):
    comp = make()
    # t = 1/3 is where the wrapping arc crosses t = 1 of its circle
    t = np.append(np.linspace(0.05, 0.95, 7, dtype=QUAD_REAL), QUAD_REAL(1) / 3)
    z, dz = comp.sample(t)
    # extended-precision bytes carry padding, so compare values
    assert np.array_equal(comp.point(t), z)
    h = QUAD_REAL("1e-6")
    centered = (comp.point(t + h) - comp.point(t - h)) / (2 * h)
    assert np.max(np.abs(centered - dz) / np.abs(dz)) < 1e-8


def test_rules_need_at_least_one_node():
    with pytest.raises(ValueError, match="at least 1 node"):
        integrate(lambda z: 1.0 / z, unit_circle_contour(0))
    with pytest.raises(ValueError, match="at least 1 node"):
        green_table(2, kind="g0", nodes=0)


@pytest.mark.parametrize("nodes", [1, 3, 17])
def test_rules_need_an_even_node_count(nodes):
    # the nested half rule uses every other node; the message names the
    # caller's count, not the half rule's
    with pytest.raises(ValueError, match=f"got {nodes}$"):
        integrate(lambda z: 1.0 / z, unit_circle_contour(nodes))
    with pytest.raises(ValueError, match=f"got {nodes}$"):
        green_table(1, kind="g0", nodes=nodes, error_estimate=True)


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


def test_infinity_residue_by_large_circle():
    # Omega has residues -1/2 at the origin and +1/2 at infinity; the
    # residue at infinity is minus the integral over a circle enclosing
    # every finite pole, divided by 2 pi i
    ring = Contour(components=(circle(0.0, 50.0),), nodes_per_component=512)
    assert -integrate(omega_coeff, ring) / (2j * np.pi) == pytest.approx(0.5, abs=1e-12)
    omega_tilde = WaveDifferential.from_sublattice(2, -1, 0, 0)
    assert -integrate(omega_tilde, ring) / (2j * np.pi) == pytest.approx(0.5, abs=1e-10)


def test_residue_radius_halving_invariance():
    for r in (0.6, 0.3, 0.15):
        a = residue(omega_coeff, 0.0, radius=r)
        b = residue(omega_coeff, 0.0, radius=r / 2)
        assert abs(a - b) < 1e-9


def test_residue_warns_on_misplaced_center():
    with pytest.warns(RuntimeWarning):
        residue(lambda z: 1.0 / (z - 0.3), 0.0, radius=0.5)


# --- splitting ---------------------------------------------------------------

# circle(0, 1) is z = exp(2 pi i t), so Re z - 0.2 changes sign at these t
RE_Z_CROSSINGS = (math.acos(0.2) / TWO_PI, 1.0 - math.acos(0.2) / TWO_PI)


def test_split_preserves_analytic_integrals():
    contour = unit_circle_contour()
    split = split_at_sign_changes(unit_circle_contour(160), RE_Z_CROSSINGS)
    assert len(split.components) == 2
    for fn in (lambda z: 1.0 / z, lambda z: np.exp(z) / z**2):
        assert integrate(fn, split) == pytest.approx(
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
    crossing = math.acos(0.2)
    exact = complex(0.0, 2.0 * (2.0 * crossing - math.pi))

    def weighted(z):
        return np.sign(np.real(z) - 0.2) / z

    split = split_at_sign_changes(unit_circle_contour(200), RE_Z_CROSSINGS)
    assert integrate(weighted, split) == pytest.approx(exact, abs=1e-12)


# --- nested rules ------------------------------------------------------------

def unit_circle_arc():
    return split_at_sign_changes(unit_circle_contour(), RE_Z_CROSSINGS).components[0]


@pytest.mark.parametrize("nodes", [32, 64, 512])
def test_fejer_weights(nodes):
    t, w, w_half = _component_rule(unit_circle_arc(), nodes)
    assert t.size == w.size == nodes - 1
    e_minus_1 = np.expm1(QUAD_REAL(1))
    for nodes_, weights in ((t, w), (t[1::2], w_half)):
        assert weights.dtype == QUAD_REAL
        assert np.all(weights > 0)
        assert abs(np.sum(weights) - 1) < 1e-17
        assert abs(np.sum(weights * np.exp(nodes_)) - e_minus_1) < 1e-17


@pytest.mark.parametrize("nodes", [16, 512])
def test_half_rule_is_every_other_node(nodes):
    arc = unit_circle_arc()
    t, _, w_half = _component_rule(arc, nodes)
    t_half, w_of_half, _ = _component_rule(arc, nodes // 2)
    assert np.array_equal(t[1::2], t_half)
    assert np.array_equal(w_half, w_of_half)

    # closed: the trapezoid at nodes / 2 points, rotated by 1 / nodes
    t, w, w_half = _component_rule(circle(0.0, 1.0), nodes)
    assert np.max(np.abs(t[1::2] - (np.arange(nodes // 2) + 0.5) / (nodes // 2))) < 1e-18
    assert np.all(w_half == 2 * w[0])
