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
    dp_n_coeff,
    g0,
    green,
    green_table,
    growth_check,
    im_p_m,
    integrate,
    kernel_K,
    residue,
    residue_lemma_P,
    residue_lemma_Q,
    split_at_sign_changes,
    to_sublattice,
    verify_delta,
)
from latgreen import INFINITY, green_function
from latgreen.contour_quadrature import sample_rule
from latgreen.sphere_backend import (
    Q_PLUS,
    f,
    im_p_m_crossings,
    level,
    level_circle_contour,
    omega_coeff,
    psi_power_tables,
)

from conftest import CLOSE_FLIPS, mp_level

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


@pytest.mark.parametrize("make", [lambda: c_contour(2 + 2j), default_kernel_contour],
                         ids=["c_contour", "default"])
def test_orientation_negates_every_integral_exactly(make):
    # the sign is applied once, to dz/dt, and multiplying by -1 is exact, so
    # every integral on the reversed contour is the exact negation
    contour = make()
    flipped = contour.with_orientation(-1)
    assert integrate(dp_n_coeff, flipped) == -integrate(dp_n_coeff, contour)
    for dmu, dnu in [(0, 1), (2, -1), (-3, 4)]:
        assert kernel_K(flipped, dmu, dnu, 0, 0) == -kernel_K(contour, dmu, dnu, 0, 0)
        assert g0(flipped, dmu, dnu, 0, 0) == -g0(contour, dmu, dnu, 0, 0)
    window = ((-3, 3), (-3, 3))
    table = green_function._g0_values(contour, window, nested=True)
    assert np.array_equal(green_function._g0_values(flipped, window, nested=True), -table)


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


@pytest.mark.parametrize("lam", [2 + 2j, -1 + 2j, 0.3 + 0.1j, 1.7 - 0.6j, CLOSE_FLIPS,
                                 -1.2337 - 0.4640j, 0.2 - 1.4j, 5j])
def test_green_target_value_is_exact(lam):
    # at offset 0 psi = 1, and each arc integrates Omega = -dz/(2z) between
    # lambda and 1/conj(lambda), which share their argument, so
    # G(0, 0) = -|ln|lambda|| / (2 pi) exactly on every regular level
    import mpmath as mp

    with mp.workdps(30):
        want = float(-abs(mp.log(abs(mp.mpc(lam)))) / (2 * mp.pi))
    assert abs(green(lam, 0, 0, 0, 0) - want) < 1e-16


def mp_crossings(r, h):
    """Where im_p_m = h on w = r exp(-2 pi i t): sin(arg w) = -(1 + r**2) tanh(h) / (2 r)."""
    import mpmath as mp

    s = -(1 + r**2) * mp.tanh(h) / (2 * r)
    if abs(s) >= 1:
        return []
    phi = mp.asin(s)
    return sorted(mp.frac(-x / (2 * mp.pi) + 1) for x in (phi, mp.pi - phi))


def mp_green(lam, mu, nu):
    """green(lam, mu, nu, 0, 0) from lambda alone, one mp.quad per weighted arc.

    On w = r exp(-2 pi i t), z = i (1 + w)/(1 - w) gives (z+1)/(z-1) =
    (1 + i w)/(w + i), (z+i)/(z-i) = 1/w and Omega = -dw / (1 - w**2), so
    psi(z, m, n) Omega = 2 pi i ((1 + i w)/(w + i))**m w**(1 - n) / (1 - w**2) dt.
    The working precision must cover the entry's cancellation: at 30 digits
    an entry far below its terms (e.g. a W=24 corner) can be wrong here too.
    """
    import mpmath as mp

    r, h = mp_level(lam)
    m, n = mu - nu, mu + nu
    i = mp.mpc(0, 1)

    def integrand(t):
        w = r * mp.expjpi(-2 * t)
        return ((i * w + 1) / (w + i)) ** m * w ** (1 - n) / (1 - w * w)

    ts = mp_crossings(r, h) or [mp.mpf(0)]
    total = 0
    for a, b in zip(ts, ts[1:] + [ts[0] + 1]):
        w = r * mp.expjpi(-(a + b))
        weight = mp.sign(m) + mp.sign(h - mp.log(abs(i * w + 1)) + mp.log(abs(w + i)))
        if weight:
            total += weight * mp.quad(integrand, [a, b])
    return complex(total * i / 2)


def test_green_close_weight_flips_against_mpmath():
    # per entry against a reference that takes only lambda: r, h, the arc
    # ends and the arc integrals in mpmath at 30 digits; levels include a
    # deformed one (3), infinity and flips 0.0013 of the circle apart
    import mpmath as mp

    levels = [2 + 2j, -1 + 2j, 0.3 + 0.1j, -1.2337 - 0.4640j, 3, INFINITY, CLOSE_FLIPS]
    with mp.workdps(30):
        for lam in levels:
            for mu, nu in [(0, 0), (2, -1), (5, -8)]:
                want = mp_green(lam, mu, nu)
                got = green(lam, mu, nu, 0, 0)
                assert abs(got - want) < 1e-14 * abs(want), (lam, mu, nu)

        # the closed-form arc ends are the roots of im_p_m - h, found by
        # findroot from brackets of a fine float scan
        r, h = mp_level(CLOSE_FLIPS)

        def level_gap(t):
            w = r * mp.expjpi(-2 * t)
            return mp.log(abs(1 + 1j * w)) - mp.log(abs(w + 1j)) - h

        grid = np.arange(2**16) / 2**16
        w = float(r) * np.exp(-2j * np.pi * grid)
        z = 1j * (1 + w) / (1 - w)
        above = np.log(np.abs(z + 1)) - np.log(np.abs(z - 1)) > float(h)
        flips = np.nonzero(above != np.roll(above, -1))[0]
        roots = sorted(mp.findroot(level_gap, (grid[k], grid[k] + 2.0**-16), solver="anderson")
                       for k in flips)
        assert len(roots) == 2
        assert max(abs(x - y) for x, y in zip(roots, mp_crossings(r, h))) < 1e-25
        lv = level(CLOSE_FLIPS)
        ts = im_p_m_crossings(lv.r, lv.h)
        assert [float(x) for x in roots] == pytest.approx([float(t) for t in ts], abs=1e-17)


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

@pytest.mark.parametrize("make, window", [
    (lambda: split_at_sign_changes(c_contour(2 + 2j), im_p_m_crossings(*level(2 + 2j)[:2])), 24),
    (default_kernel_contour, 8),
], ids=["split_2+2i", "default"])
def test_arc_products_are_the_sequential_sum(make, window):
    # the per-arc products are the node-by-node extended-precision sums of
    # matmul's loop, bit for bit, by the full rule and by its half rule
    contour = make()
    offsets = ((-window, window), (-window, window))
    got = green_function._arc_products(contour, offsets, nested=True)
    assert len(got) == len(contour.components)
    for p, (z, dz, w, w_half) in zip(got, sample_rule(contour)):
        base = omega_coeff(z) * dz
        up, vp = psi_power_tables(z, *offsets)
        half = (up[:, 1::2] * (base[1::2] * w_half)) @ vp[:, 1::2].T
        assert np.array_equal(p, np.stack([(up * (base * w)) @ vp.T, half]))


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


@pytest.mark.parametrize("kind, lam, contour", [
    ("green", 2 + 2j, {"chart_radius": math.sqrt(5 / 13), "deformed": False}),
    ("green", 3, {"chart_radius": 0.5, "deformed": True}),
    ("green", INFINITY, {"chart_radius": 0.5, "deformed": True}),
    ("g0", 2 + 2j, {"chart_radius": math.sqrt(5 / 13), "deformed": False}),
    ("g0", None, {"chart_radius": 2.0, "default_kernel": True}),
])
def test_table_metadata_is_plain_json(kind, lam, contour):
    # the level data are QUAD_REAL; the metadata holds them as plain floats
    meta = green_table(1, lam=lam, kind=kind, nodes=32).metadata
    assert json.loads(json.dumps(meta))["contour"] == pytest.approx(contour, rel=1e-15)
    assert meta["contour"].keys() == contour.keys()


def test_est_error_from_nested_rules(monkeypatch):
    # at 2 + 2i the contour splits into two arcs, so both rules are Fejer's
    # and the half rule is the 16-node rule on the same nodes; at 32 nodes
    # the difference is far above rounding
    lam = 2 + 2j
    assert im_p_m_crossings(*level(lam)[:2]).size == 2
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
