from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgreen import (
    GreenTable,
    LatticeField,
    ParityError,
    SingularCoefficientError,
    WindowError,
    apply_L,
    check_four_point,
    coefficients_from_f,
    from_sublattice,
    psi,
    to_sublattice,
)

ints = st.integers(min_value=-50, max_value=50)


def test_to_sublattice_reference_points():
    assert to_sublattice(0, 0) == (0, 0)
    assert to_sublattice(1, 1) == (1, 0)
    assert to_sublattice(-1, 1) == (0, 1)


def test_parity_violation_rejected():
    with pytest.raises(ParityError):
        to_sublattice(1, 0)
    with pytest.raises(ParityError):
        to_sublattice(2, 3)


@given(mu=ints, nu=ints)
def test_sublattice_round_trip(mu, nu):
    m, n = from_sublattice(mu, nu)
    assert (m + n) % 2 == 0
    assert to_sublattice(m, n) == (mu, nu)
    assert from_sublattice(*to_sublattice(m, n)) == (m, n)


def test_coefficients_constant_f():
    co = coefficients_from_f(lambda m, n: 1.0, 3, -2)
    assert (co.a_right, co.a_left, co.b_up, co.b_down, co.c) == (1, 1, 1, 1, 4)
    co = coefficients_from_f(lambda m, n: 2.0, 0, 0)
    assert (co.a_right, co.a_left, co.b_up, co.b_down, co.c) == (0.5, 0.5, 2, 2, 5)
    co = coefficients_from_f(lambda m, n: -1.0, -1, 4)
    assert (co.a_right, co.a_left, co.b_up, co.b_down, co.c) == (-1, -1, -1, -1, -4)


def test_singular_f_rejected():
    f = {(m, n): 1.0 for m in range(-3, 3) for n in range(-3, 3)}
    f[(0, 0)] = 0.0
    with pytest.raises(SingularCoefficientError):
        coefficients_from_f(f, 0, 0)


@given(
    mu=st.integers(min_value=-10, max_value=10),
    nu=st.integers(min_value=-10, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40)
def test_coefficient_sum_identity(mu, nu, seed):
    import numpy as np

    def f(m, n):
        local = np.random.default_rng((seed, m & 0xFFFF, n & 0xFFFF))
        return float(local.uniform(0.2, 3.0))

    co = coefficients_from_f(f, mu, nu)
    assert co.c == pytest.approx(co.neighbour_sum(), abs=1e-15)


def _unit_f(m, n):
    return 1.0


def test_five_point_constant_field_annihilated():
    phi = LatticeField.from_function((-3, 3), (-3, 3), lambda i, j: 1.0)
    lphi = apply_L(phi, _unit_f)
    assert (lphi.i_range, lphi.j_range) == ((-2, 2), (-2, 2))
    assert np.all(lphi.values == 0)


def test_five_point_kronecker_delta():
    phi = LatticeField.from_function((-2, 2), (-2, 2), lambda i, j: 1.0 if (i, j) == (0, 0) else 0.0)
    assert apply_L(phi, _unit_f)[(0, 0)] == -4


def test_five_point_out_of_window():
    # the stencil at (1, 0) needs (2, 0); only (0, 0) is interior
    phi = LatticeField.from_function((-1, 1), (-1, 1), lambda i, j: 1.0)
    with pytest.raises(WindowError):
        apply_L(phi, _unit_f)[(1, 0)]
    with pytest.raises(WindowError):
        apply_L(LatticeField((-1, 1), (0, 1)), _unit_f)


@given(
    alpha_re=st.floats(-2, 2), alpha_im=st.floats(-2, 2),
    beta_re=st.floats(-2, 2), beta_im=st.floats(-2, 2),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25)
def test_five_point_linearity(alpha_re, alpha_im, beta_re, beta_im, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    alpha = complex(alpha_re, alpha_im)
    beta = complex(beta_re, beta_im)
    w = ((-2, 2), (-2, 2))
    phi1 = LatticeField.from_function(*w, lambda i, j: complex(*rng.normal(size=2)))
    phi2 = LatticeField.from_function(*w, lambda i, j: complex(*rng.normal(size=2)))
    combo = LatticeField.from_function(*w, lambda i, j: alpha * phi1[(i, j)] + beta * phi2[(i, j)])
    got = apply_L(combo, _unit_f)[(0, 0)]
    want = alpha * apply_L(phi1, _unit_f)[(0, 0)] + beta * apply_L(phi2, _unit_f)[(0, 0)]
    assert got == pytest.approx(want, abs=1e-12)


def test_four_point_constant_and_alternating_fields():
    const = LatticeField.from_function((-4, 4), (-4, 4), lambda m, n: 3.7 - 0.2j)
    assert check_four_point(const, lambda m, n: 5.0) == 0.0
    alt = LatticeField.from_function((-4, 4), (-4, 4), lambda m, n: (-1.0) ** (m + n))
    assert check_four_point(alt, lambda m, n: -2.3) == 0.0


def test_four_point_sphere_wave_function():
    z0 = 2.0 + 0.0j
    field = LatticeField.from_function((-6, 6), (-6, 6), lambda m, n: psi(z0, m, n))
    assert check_four_point(field, lambda m, n: 1.0) < 1e-12


def test_five_point_annihilates_sphere_wave_function():
    z0 = 2.0 + 0.0j
    phi = LatticeField.from_function((-4, 4), (-4, 4), lambda mu, nu: psi(z0, mu - nu, mu + nu))
    assert np.max(np.abs(apply_L(phi, _unit_f).values)) < 1e-10


# --- window-wide stencil against explicit loops ------------------------------------

def _random_f(seed):
    """A non-constant real lattice function with values in [0.2, 3]."""
    rng = np.random.default_rng(seed)
    table = {(m, n): float(rng.uniform(0.2, 3.0)) for m in range(-20, 21) for n in range(-20, 21)}
    return lambda m, n: table[(m, n)]


def _random_field(seed, i_range, j_range):
    rng = np.random.default_rng(seed)
    return LatticeField.from_function(i_range, j_range, lambda i, j: complex(*rng.normal(size=2)))


def test_field_values_are_an_offset_ndarray():
    field = _random_field(1, (-3, 3), (2, 10))
    assert isinstance(field.values, np.ndarray)
    assert field.values.shape == (7, 9)
    for i in range(-3, 4):
        for j in range(2, 11):
            assert field[(i, j)] == field.values[i + 3, j - 2]
    field[(0, 5)] = 2.5j
    assert field.values[3, 3] == 2.5j
    with pytest.raises(WindowError):
        field[(0, 1)] = 1.0


def test_apply_L_matches_docstring_loop():
    f = _random_f(2)
    phi = _random_field(3, (-3, 3), (2, 10))
    got = apply_L(phi, f)
    assert (got.i_range, got.j_range) == ((-2, 2), (3, 9))
    for mu in range(-2, 3):
        for nu in range(3, 10):
            m, n = mu - nu, mu + nu
            a_right, a_left = 1.0 / f(m, n), 1.0 / f(m - 1, n - 1)
            b_up, b_down = f(m - 1, n), f(m, n - 1)
            c = a_right + a_left + b_up + b_down
            terms = [
                a_right * phi[(mu + 1, nu)],
                a_left * phi[(mu - 1, nu)],
                b_up * phi[(mu, nu + 1)],
                b_down * phi[(mu, nu - 1)],
                -c * phi[(mu, nu)],
            ]
            scale = sum(abs(t) for t in terms)
            assert abs(got[(mu, nu)] - sum(terms)) <= 1e-15 * scale
    # a mapping f gives the same field as the callable f
    table = {(m, n): f(m, n) for m in range(-14, 3) for n in range(-2, 14)}
    assert np.array_equal(apply_L(phi, table).values, got.values)


def test_check_four_point_matches_loop():
    f = _random_f(4)
    psi_mn = _random_field(5, (-3, 3), (2, 10))
    (m_lo, m_hi), (n_lo, n_hi) = psi_mn.i_range, psi_mn.j_range
    v = psi_mn.values
    worst = 0.0
    for m in range(m_lo, m_hi):
        for n in range(n_lo, n_hi):
            i, j = m - m_lo, n - n_lo
            lhs = v[i + 1, j + 1] - v[i, j]
            rhs = 1j * f(m, n) * (v[i + 1, j] - v[i, j + 1])
            worst = max(worst, abs(lhs - rhs))
    assert worst > 0
    assert abs(check_four_point(psi_mn, f) - worst) <= 1e-15 * worst


def test_green_table_is_a_lattice_field():
    table = GreenTable((-1, 1), (2, 4), np.arange(9).reshape(3, 3), target=(0, 3))
    assert isinstance(table, LatticeField)
    assert (table.mu_range, table.nu_range) == (table.i_range, table.j_range) == ((-1, 1), (2, 4))
    assert table[(1, 2)] == 6
    for outside in ((2, 3), (0, 1)):
        with pytest.raises(WindowError) as exc:
            table[outside]
        assert isinstance(exc.value, KeyError)
