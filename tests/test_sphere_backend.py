from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgreen import (
    INFINITY,
    DegenerateContourError,
    PoleError,
    c_contour,
    default_kernel_contour,
    dp_m_coeff,
    dp_n_coeff,
    im_p_m,
    im_p_n,
    integrate,
    omega_coeff,
    psi,
    psi_dual,
    sigma,
    tau,
)
from latgreen.sphere_backend import (
    CRITICAL_LEVEL_BAND,
    FALLBACK_RADIUS,
    P_MINUS,
    P_PLUS,
    Q_MINUS,
    Q_PLUS,
    R_MINUS,
    im_p_m_crossings,
    level,
    level_circle_contour,
    mobius_w,
)

from conftest import CLOSE_FLIPS, mp_level

TWO_PI = 2.0 * math.pi

finite_z = st.complex_numbers(
    min_magnitude=0.05, max_magnitude=20.0, allow_nan=False, allow_infinity=False
).filter(lambda z: min(abs(z - 1), abs(z + 1), abs(z - 1j), abs(z + 1j)) > 1e-3)


# --- wave function -------------------------------------------------------

def test_psi_normalization_points():
    for m in range(-4, 5):
        for n in range(-4, 5):
            assert psi(INFINITY, m, n) == 1
            assert psi(0, m, n) == (-1) ** (m + n)


def test_psi_empty_product():
    for z in (0.3 + 0.2j, -2j + 1, 5.0):
        assert psi(z, 0, 0) == 1
        assert psi_dual(z, 0, 0) == 1
    assert psi_dual(INFINITY, 3, -2) == 1


def test_psi_matches_definition():
    z = 0.7 - 1.3j
    want = ((z + 1) / (z - 1)) ** 3 * ((z + 1j) / (z - 1j)) ** -2
    assert psi(z, 3, -2) == pytest.approx(want, rel=1e-14)


def test_psi_pole_errors_carry_order():
    with pytest.raises(PoleError) as info:
        psi(1.0 + 0j, 2, 0)
    assert info.value.order == 2
    with pytest.raises(PoleError):
        psi(-1.0 + 0j, -3, 0)
    with pytest.raises(PoleError):
        psi(1j, 0, 1)
    with pytest.raises(PoleError):
        psi(-1j, 0, -4)
    # zeros are fine, only poles raise
    assert psi(1.0 + 0j, -2, 0) == 0


def test_psi_dual_is_psi_at_minus_z():
    z = 0.5j
    assert psi_dual(z, 1, 0) == pytest.approx(psi(-z, 1, 0), rel=1e-15)
    assert psi_dual(0.5j, 1, 0) == pytest.approx((-0.5j + 1) / (-0.5j - 1), rel=1e-15)


@given(z=finite_z, m=st.integers(-5, 5), n=st.integers(-5, 5))
@settings(max_examples=60)
def test_psi_tau_conjugation(z, m, n):
    lhs = psi(tau(z), m, n)
    rhs = (-1) ** (m + n) * np.conjugate(psi(z, m, n))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@given(z=finite_z, m=st.integers(-8, 8), n=st.integers(-8, 8))
@settings(max_examples=60)
def test_psi_growth_equality(z, m, n):
    lhs = abs(psi(z, m, n))
    rhs = math.exp(m * im_p_m(z) + n * im_p_n(z))
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_psi_dual_growth_equality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal()) + 0.1
        if min(abs(z - 1), abs(z + 1), abs(z - 1j), abs(z + 1j)) < 1e-2:
            continue
        for m in range(-5, 6):
            for n in range(-5, 6):
                lhs = abs(psi_dual(z, m, n))
                rhs = math.exp(-m * im_p_m(z) - n * im_p_n(z))
                assert lhs == pytest.approx(rhs, rel=1e-10)


# --- one formula for points and arrays -----------------------------------

# regular points, then points within 1e-7 of P+, P-, Q+, Q- and R-
_POINTS = (
    0.7 - 1.3j, -2.5 + 0.4j, 3.0, 2j, 1 + 1e-7j, -1 - 1e-7, 1e-7 + 1j, 1e-7 - 1j, 1e-9 + 1e-9j,
)


def test_points_and_arrays_share_one_formula():
    functions = {
        "psi": lambda z: psi(z, 3, -2),
        "psi_dual": lambda z: psi_dual(z, -1, 2),
        "omega_coeff": omega_coeff,
        "dp_m_coeff": dp_m_coeff,
        "dp_n_coeff": dp_n_coeff,
        "im_p_m": im_p_m,
        "im_p_n": im_p_n,
        "sigma": sigma,
    }
    for name, fn in functions.items():
        for z in _POINTS:
            array = fn(np.array([z]))
            assert isinstance(array, np.ndarray) and array.shape == (1,), name
            assert fn(z) == pytest.approx(array[0], rel=1e-15, abs=1e-15), (name, z)
    # points keep math.log bit for bit (numpy's log can differ in the last bit)
    for z in _POINTS:
        assert im_p_m(z) == math.log(abs(z + 1)) - math.log(abs(z - 1))
        assert im_p_n(z) == math.log(abs(z + 1j)) - math.log(abs(z - 1j))
    # every pole of a point still raises with its order
    poles = [
        (lambda: psi(P_PLUS, 2, 1), 2),
        (lambda: psi(P_MINUS, -3, 1), 3),
        (lambda: psi(Q_PLUS, 0, 1), 1),
        (lambda: psi(Q_MINUS, 5, -4), 4),
        (lambda: psi_dual(P_MINUS, 2, 0), 2),
        (lambda: psi_dual(Q_PLUS, 0, -3), 3),
        (lambda: omega_coeff(R_MINUS), 1),
        (lambda: omega_coeff(INFINITY), 1),
        (lambda: dp_m_coeff(P_PLUS), 1),
        (lambda: dp_m_coeff(P_MINUS), 1),
        (lambda: dp_n_coeff(Q_PLUS), 1),
        (lambda: dp_n_coeff(Q_MINUS), 1),
    ]
    for call, order in poles:
        with pytest.raises(PoleError) as info:
            call()
        assert info.value.order == order


# --- involutions and marked points ---------------------------------------

def test_involution_structure():
    assert sigma(P_PLUS) == P_MINUS
    assert sigma(Q_PLUS) == Q_MINUS
    assert sigma(INFINITY) is INFINITY
    assert tau(INFINITY) == R_MINUS
    assert tau(R_MINUS) is INFINITY
    for fixed in (P_PLUS, P_MINUS, Q_PLUS, Q_MINUS):
        assert tau(fixed) == pytest.approx(fixed, abs=1e-15)
    # tau and sigma commute
    z = 0.3 + 0.8j
    assert tau(sigma(z)) == pytest.approx(sigma(tau(z)), rel=1e-15)


# --- differentials --------------------------------------------------------

def test_omega_values():
    assert omega_coeff(1.0 + 0j) == -0.5
    assert omega_coeff(1j) == pytest.approx(0.5j)
    with pytest.raises(PoleError):
        omega_coeff(0.0 + 0j)
    with pytest.raises(PoleError):
        omega_coeff(INFINITY)


def test_dp_values():
    assert dp_m_coeff(0.0 + 0j) == pytest.approx(-2j)
    with pytest.raises(PoleError):
        dp_m_coeff(1.0 + 0j)
    with pytest.raises(PoleError):
        dp_n_coeff(1j)


def test_dp_n_sigma_pullback_antisymmetry():
    # pullback of dp_n under sigma z = -z equals -dp_n
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal()) * 2 + 0.05j
        assert dp_n_coeff(-z) * (-1) == pytest.approx(-dp_n_coeff(z), rel=1e-13)
        assert dp_m_coeff(-z) * (-1) == pytest.approx(-dp_m_coeff(z), rel=1e-13)


def test_dp_m_loop_integrals_are_real():
    from latgreen.contour_quadrature import Contour, circle

    rng = np.random.default_rng(5)
    for _ in range(8):
        center = complex(rng.normal(), rng.normal())
        radius = float(rng.uniform(0.2, 2.0))
        if min(abs(center - 1), abs(center + 1)) < radius + 0.05:
            # keep the poles strictly off the contour
            continue
        loop = Contour(components=(circle(center, radius),))
        value = integrate(dp_m_coeff, loop)
        assert abs(value.imag) < 1e-10


# --- level functions ------------------------------------------------------

def test_im_p_reference_values():
    assert im_p_n(INFINITY) == 0.0
    assert im_p_n(0.0 + 0j) == 0.0
    assert im_p_m(0.0 + 0j) == 0.0
    # growth-rate convention: +inf at the pole of the psi factor
    assert im_p_m(P_PLUS) == math.inf
    assert im_p_m(P_MINUS) == -math.inf
    assert im_p_n(Q_PLUS) == math.inf
    assert im_p_n(Q_MINUS) == -math.inf
    assert im_p_n(2j) == pytest.approx(math.log(3.0))


def test_im_p_sigma_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.normal(), rng.normal()) + 0.2
        assert im_p_m(sigma(z)) == pytest.approx(-im_p_m(z), rel=1e-13, abs=1e-13)
        assert im_p_n(sigma(z)) == pytest.approx(-im_p_n(z), rel=1e-13, abs=1e-13)


# --- contours -------------------------------------------------------------

def on_chart_circle(contour, radius):
    """The contour's points have |w| = radius in the chart w = (z - i)/(z + i)."""
    z = contour.components[0].point(np.arange(16) / 16.0)
    return np.allclose(np.abs((z - 1j) / (z + 1j)).astype(float), radius, rtol=1e-15)


def test_c_contour_radius_from_level():
    lv = level(2j)
    assert lv.r == pytest.approx(1.0 / 3.0)
    assert lv.deformed is False
    assert on_chart_circle(c_contour(2j), 1.0 / 3.0)


def test_c_contour_orientation_normalized():
    for lam in (2j, 2 + 2j, 1 + 0.5j, 0.1 + 0.2j, -3j + 0.4):
        contour = c_contour(lam)
        assert integrate(dp_n_coeff, contour) == pytest.approx(TWO_PI, abs=1e-10)
    assert integrate(dp_n_coeff, default_kernel_contour()) == pytest.approx(TWO_PI, abs=1e-10)


def test_c_contour_degenerate_at_q():
    with pytest.raises(DegenerateContourError):
        c_contour(Q_PLUS)
    with pytest.raises(DegenerateContourError):
        c_contour(Q_MINUS)
    for lam in (Q_PLUS, Q_MINUS):
        with pytest.raises(DegenerateContourError):
            level(lam, deform_critical=False)


def test_c_contour_critical_level_deforms():
    assert level(3.0 + 0j).deformed is True
    contour = c_contour(3.0 + 0j)
    assert on_chart_circle(contour, FALLBACK_RADIUS)
    assert integrate(dp_n_coeff, contour) == pytest.approx(TWO_PI, abs=1e-10)


def test_c_contour_raw_critical_level_is_real_axis():
    lv = level(3.0 + 0j, deform_critical=False)
    assert lv.deformed is False
    assert abs(np.log(lv.r)) < CRITICAL_LEVEL_BAND
    t = (np.arange(64) + 0.5) / 64
    z = level_circle_contour(lv.r).components[0].point(t)
    assert float(np.max(np.abs(np.imag(z.astype(complex))))) < 1e-12


def test_im_p_m_crossings_are_level_points():
    for r, h in [(0.5, 0.0), (0.62, 0.478), (2.0, -1.3), (0.3, 0.7), (1.6, 2.0)]:
        comp = level_circle_contour(r).components[0]
        ts = im_p_m_crossings(r, h)
        if ts.size:
            assert ts.size == 2 and 0 <= ts[0] < ts[1] < 1
            assert im_p_m(comp.point(ts)) == pytest.approx([h, h], abs=1e-15)
        else:
            # no crossing: im_p_m - h keeps one sign on the whole circle
            side = np.sign(im_p_m(comp.point(np.arange(256) / 256.0)) - h)
            assert abs(side.sum()) == 256
    assert im_p_m_crossings(0.5, math.inf).size == 0


def test_c_contour_level_matches_lambda():
    lam = 1.7 - 0.6j
    assert level(lam).r == pytest.approx(abs(mobius_w(lam)))
    contour = c_contour(lam)
    t = np.linspace(0.05, 0.95, 7)
    z = contour.components[0].point(t)
    levels = [im_p_n(complex(v)) for v in z]
    assert levels == pytest.approx([im_p_n(lam)] * len(levels), abs=1e-12)


# --- level ----------------------------------------------------------------

@pytest.mark.parametrize("lam", [2 + 2j, -1 + 2j, 0.3 + 0.1j, 1.7 - 0.6j, CLOSE_FLIPS])
def test_level_matches_mpmath(lam):
    # r and h from the exact lambda, to the extended precision's rounding;
    # float64 is off by 1e-17 to 3e-16 here
    import mpmath as mp

    lv = level(lam)
    assert lv.deformed is False
    with mp.workdps(40):
        for got, want in zip(lv[:2], mp_level(lam)):
            num, den = got.as_integer_ratio()
            assert abs(mp.mpf(num) / den - want) <= 1e-18


def test_level_exact_values():
    assert level(INFINITY).h == 0
    for lam in (3, 0, 1, -1, INFINITY):
        lv = level(lam)
        assert lv.deformed is True and lv.r == FALLBACK_RADIUS, lam
    assert level(1).h == math.inf and level(-1).h == -math.inf
    assert level(INFINITY, deform_critical=False) == (1, 0, False)
