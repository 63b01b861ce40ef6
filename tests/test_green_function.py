from __future__ import annotations

import json
import math

import numpy as np
import pytest

from latgreen import (
    DegenerateContourError,
    LatticeField,
    WaveDifferential,
    apply_L,
    c_contour,
    default_kernel_contour,
    g0,
    green,
    green_table,
    growth_check,
    im_p_m,
    kernel_K,
    residue,
    residue_lemma_P,
    residue_lemma_Q,
    split_at_sign_changes,
    to_sublattice,
    verify_delta,
)
from latgreen import green_function
from latgreen.green_function import _level_arcs
from latgreen.sphere_backend import Q_PLUS, f, im_p_m_crossings, level_circle_contour

FOUR_PI = 4.0 * math.pi


def closed_form_g0(m: int, n: int) -> complex:
    """Reference values of g0(m, n; 0, 0) on the separating contour."""
    if n >= 0:
        return 0.0
    if n == -1:
        return -0.5 * np.sign(m) * (-1j) ** (m + 1)
    if n == -2:
        return -np.sign(m) * m * (-1j) ** m
    raise ValueError("closed form known for n >= -2 only")


# --- kernel -----------------------------------------------------------------

def test_kernel_diagonal_vanishing(rng):
    contour = default_kernel_contour()
    for _ in range(8):
        mu, nu = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        shift = int(rng.integers(-3, 4))
        assert abs(kernel_K(contour, mu, nu, mu + shift, nu + shift)) < 1e-10


def test_kernel_cross_check_value():
    # 4 pi * g0(1, -1; 0, 0) = 2 pi from the closed form
    contour = default_kernel_contour()
    mu, nu = to_sublattice(1, -1)
    assert kernel_K(contour, mu, nu, 0, 0) == pytest.approx(2 * math.pi, abs=1e-10)


def test_kernel_annihilated_by_five_point():
    contour = default_kernel_contour()
    vals = {}
    for mu in range(-2, 3):
        for nu in range(-2, 3):
            vals[(mu, nu)] = kernel_K(contour, mu, nu, 5, 1)
    for mu in range(-1, 2):
        for nu in range(-1, 2):
            lk = (
                vals[(mu + 1, nu)]
                + vals[(mu - 1, nu)]
                + vals[(mu, nu + 1)]
                + vals[(mu, nu - 1)]
                - 4 * vals[(mu, nu)]
            )
            assert abs(lk) < 1e-10


def test_contour_independence_same_separation(rng):
    # both contours separate Q- alone, so the kernel integral agrees
    near = default_kernel_contour()
    far = level_circle_contour(5.0)
    for _ in range(6):
        mu, nu = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        mu_t, nu_t = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        a = g0(near, mu, nu, mu_t, nu_t)
        b = g0(far, mu, nu, mu_t, nu_t)
        assert abs(a - b) < 2e-9


# --- g0 ----------------------------------------------------------------------

def test_g0_closed_forms_on_default_contour():
    contour = default_kernel_contour()
    for m in range(-5, 6):
        for n in range(-2, 2):
            if (m + n) % 2:
                continue
            mu, nu = to_sublattice(m, n)
            assert g0(contour, mu, nu, 0, 0) == pytest.approx(
                closed_form_g0(m, n), abs=1e-10
            ), (m, n)


def test_g0_vanishes_for_nonnegative_n():
    contour = default_kernel_contour()
    for m in range(-6, 7):
        for n in range(0, 5):
            if (m + n) % 2:
                continue
            mu, nu = to_sublattice(m, n)
            assert abs(g0(contour, mu, nu, 0, 0)) < 1e-10


def test_g0_delta_property_small_window():
    assert verify_delta(2 + 2j, 3, kind="g0") < 1e-8


# --- normalized green ----------------------------------------------------------

def test_green_delta_property_small_window():
    assert verify_delta(2 + 2j, 3, kind="green") < 1e-8


def test_green_degenerate_lambda():
    with pytest.raises(DegenerateContourError):
        green(Q_PLUS, 1, 0, 0, 0)


def test_green_close_weight_flips_against_mpmath():
    # the two sign flips of the weight lie 0.0013 of the circle apart; the
    # reference finds them with mpmath from brackets of a fine float scan,
    # then integrates (sgn(m) + s_arc) psi Omega on each arc with mp.quad
    import mpmath as mp

    lam = -0.7156347228670334 + 0.6943503066555872j
    contour = c_contour(lam)
    r, h = contour.metadata["chart_radius"], im_p_m(lam)
    ts = im_p_m_crossings(r, h)
    assert len(split_at_sign_changes(contour, ts).components) == 2

    def z_of(t):
        w = r * mp.exp(-2j * mp.pi * t)
        return 1j * (1 + w) / (1 - w), w

    def level(t):
        z, _ = z_of(t)
        return mp.log(abs(z + 1)) - mp.log(abs(z - 1)) - h

    grid = np.arange(2**16) / 2**16
    w = r * np.exp(-2j * np.pi * grid)
    z = 1j * (1 + w) / (1 - w)
    above = np.log(np.abs(z + 1)) - np.log(np.abs(z - 1)) > h
    flips = np.nonzero(above != np.roll(above, -1))[0]
    with mp.workdps(30):
        roots = sorted(mp.findroot(level, (grid[k], grid[k] + 2.0**-16), solver="anderson")
                       for k in flips)
        assert len(roots) == 2
        assert [float(x) for x in roots] == pytest.approx([float(t) for t in ts], abs=1e-15)
        for mu, nu in [(0, 0), (2, -1)]:
            m, n = mu - nu, mu + nu
            want = 0
            for a, b in [(roots[0], roots[1]), (roots[1], roots[0] + 1)]:
                s = -mp.sign(level((a + b) / 2))

                def integrand(t):
                    z, w = z_of(t)
                    dz = 2j / (1 - w) ** 2 * (-2j * mp.pi * w)
                    psi_mn = ((z + 1) / (z - 1)) ** m * ((z + 1j) / (z - 1j)) ** n
                    return (mp.sign(m) + s) * psi_mn * (-0.5 / z) * dz

                want += mp.quad(integrand, [a, b]) / (4 * mp.pi)
            got = green(lam, mu, nu, 0, 0)
            assert abs(got - complex(want)) < 1e-10 * abs(complex(want)), (mu, nu)


def test_green_offset_target():
    # delta lands on a shifted target
    table = green_table(3, target=(2, -1), lam=1 + 0.5j)
    lg = apply_L(table, f)
    assert (lg.i_range, lg.j_range) == ((0, 4), (-3, 1))
    lg[(2, -1)] -= 1
    assert np.max(np.abs(lg.values)) < 1e-8


def test_correction_annihilated_by_five_point():
    # green - g0 on the same contour carries the weight sgn(im_p_m(lam) -
    # im_p_m(z)) only, which does not depend on the lattice indices, so L
    # kills it everywhere, including at the target
    lam = 2 + 2j
    diff = green_table(3, lam=lam).values - green_table(3, lam=lam, kind="g0").values
    lz = apply_L(LatticeField((-3, 3), (-3, 3), diff), f)
    assert np.max(np.abs(lz.values)) < 1e-10


def test_wave_differential_evaluates_pointwise():
    from latgreen import omega_coeff, psi, psi_dual

    ev = WaveDifferential(3, -1, 1, 1)
    for z in (0.4 + 0.2j, 2.0 - 1.0j, -0.7j + 0.1):
        want = psi(z, 3, -1) * psi_dual(z, 1, 1) * omega_coeff(z)
        assert ev(z) == pytest.approx(want, rel=1e-14)
    by_site = WaveDifferential.from_sublattice(1, -2, 1, 0)
    assert (by_site.m, by_site.n, by_site.m_t, by_site.n_t) == (3, -1, 1, 1)


def test_green_sigma_lambda_only_flips_weight_level():
    from latgreen import im_p_m, im_p_n, sigma

    lam = 2 + 2j
    assert im_p_m(sigma(lam)) == pytest.approx(-im_p_m(lam), rel=1e-14)
    assert im_p_n(sigma(lam)) == pytest.approx(-im_p_n(lam), rel=1e-14)
    # the sigma image sits on the mirrored level set, and the delta
    # property holds there as well
    assert verify_delta(sigma(lam), 2, kind="green") < 1e-8


# --- growth ---------------------------------------------------------------------

def test_growth_ratio_trivial_at_target():
    lam = 2 + 2j
    fitted = growth_check(lam, 0)
    assert fitted == pytest.approx(abs(green(lam, 0, 0, 0, 0)), rel=1e-12)


# --- residue lemmas --------------------------------------------------------------

def test_residue_lemma_Q_reference_and_random(rng):
    assert residue_lemma_Q(0, 0) == pytest.approx(1j, abs=1e-9)
    assert residue_lemma_Q(2, -1) == pytest.approx(1j, abs=1e-9)
    for _ in range(4):
        mu, nu = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        assert residue_lemma_Q(mu, nu) == pytest.approx(1j, abs=1e-9)


def test_residue_lemma_Q_proof_step():
    # res at Q+ of psi(m, n+1) psi_dual(m, n) Omega is -1
    ev = WaveDifferential(0, 1, 0, 0)
    assert residue(ev, Q_PLUS, radius=0.3) == pytest.approx(-1.0, abs=1e-9)


def test_residue_lemma_P_reference_and_random(rng):
    assert residue_lemma_P(0, 0, 0, 0) < 1e-9
    assert residue_lemma_P(1, 1, 2, 2) < 1e-9
    for _ in range(4):
        mu, nu = int(rng.integers(-4, 5)), int(rng.integers(-4, 5))
        shift = int(rng.integers(-3, 4))
        assert residue_lemma_P(mu, nu, mu + shift, nu + shift) < 1e-9


def test_residue_lemma_P_hypothesis_enforced():
    with pytest.raises(ValueError):
        residue_lemma_P(1, 0, 0, 0)


# --- tables ----------------------------------------------------------------------

@pytest.mark.parametrize("kind, lam", [("green", 2 + 2j), ("g0", 2 + 2j), ("g0", None)])
def test_table_is_translation_invariant(kind, lam):
    # the integrand is psi(z, m - mt, n - nt) Omega, so a target only shifts
    # the index and the values over the same offsets agree bit for bit
    at_origin = green_table(24, target=(0, 0), lam=lam, kind=kind).values
    shifted = green_table(24, target=(2, -1), lam=lam, kind=kind).values
    assert at_origin.tobytes() == shifted.tobytes()


def test_table_shape_and_metadata(tmp_path):
    table = green_table(2, target=(1, -1), lam=2 + 2j, kind="green", error_estimate=True)
    assert table.values.shape == (5, 5)
    assert table[(3, -3)] == table.values[4, 0]
    assert table.mu_range == (-1, 3)
    assert table.nu_range == (-3, 1)
    assert table.metadata["kind"] == "green"
    assert table.metadata["lambda_re"] == 2.0
    assert table.metadata["est_error"] < 1e-9
    assert table.metadata["contour"]["deformed"] is False
    assert table.metadata["contour"]["chart_radius"] == pytest.approx(math.sqrt(5 / 13))
    assert np.all(np.isfinite(table.values))

    csv_path = tmp_path / "t.csv"
    table.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "mu,nu,mu_t,nu_t,re,im"
    assert len(lines) == 26

    json_path = tmp_path / "t.json"
    table.write_json(json_path)
    payload = json.loads(json_path.read_text())
    assert payload["target"] == [1, -1]
    assert len(payload["values"]) == 25


def test_est_error_from_nested_rules(monkeypatch):
    # at 2 + 2i the contour splits into two arcs, so both rules are Fejer's
    # and the half rule is the 16-node rule on the same nodes; at 32 nodes
    # the difference is far above rounding
    lam = 2 + 2j
    assert len(_level_arcs(lam, c_contour(lam, 32))[0].components) == 2
    fine = green_table(4, lam=lam, nodes=32).values
    coarse = green_table(4, lam=lam, nodes=16).values
    expected = np.max(np.abs(fine - coarse)) / np.max(np.abs(fine))
    assert expected > 1e-3

    splits = []
    split = green_function.split_at_sign_changes
    monkeypatch.setattr(green_function, "split_at_sign_changes",
                        lambda *args: splits.append(args) or split(*args))
    table = green_table(4, lam=lam, nodes=32, error_estimate=True)
    assert len(splits) == 1
    assert np.array_equal(table.values, fine)
    assert table.metadata["est_error"] == pytest.approx(expected, rel=1e-9)


def test_single_point_window_delta():
    # window holding only the target reduces to |LG - 1|
    residual = verify_delta(2 + 2j, 0, kind="green")
    assert residual < 1e-8
