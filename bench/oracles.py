"""Reference computations that the benchmark checks the program against.

None of these call into ``latgreen``: each is either an exact computation
(the Q- residue behind ``g0``, in Gaussian rationals), a plain lattice sum
(the Riemann theta series over a box), an independent quadrature (``green``
on arcs whose ends are known in closed form), or a property every correct
Green's function must have (the five-point stencil, the growth bound).

The sphere backend has f == 1, so the five-point operator is

    (L G)(mu, nu) = G(mu+1, nu) + G(mu-1, nu) + G(mu, nu+1) + G(mu, nu-1)
                    - 4 G(mu, nu).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

# Gates, each well above the rounding level measured on correct outputs and
# below the error that a relative change of 1e-9 in one value makes
STENCIL_TOL = 1e-12  # |L G - delta| over the stencil terms; measured <= 1.2e-14
G0_TOL = 1e-12  # against the exact residue; measured <= 1.3e-15
GREEN_TOL = 1e-11  # against green_reference, over its scale; measured <= 5.2e-13
THETA_TOL = 1e-10  # against the box sums; measured <= 1.2e-15
GROWTH_TOL = 0.05  # full-window growth fit against the half-window fit

# -- exact g0 -----------------------------------------------------------------
# Gaussian rationals are (re, im) pairs of Fractions; power series are lists
# of them, lowest order first, truncated to a fixed length.

_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(0))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _inv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


def _series_mul(p, q, order):
    out = [_ZERO] * order
    for i, pi in enumerate(p[:order]):
        for j, qj in enumerate(q[: order - i]):
            out[i + j] = _add(out[i + j], _mul(pi, qj))
    return out


def _inv_linear(c, order):
    """Series of 1 / (c + u) in u."""
    ic = _inv(c)
    out, term = [], ic
    for _ in range(order):
        out.append(term)
        term = _mul(term, (-ic[0], -ic[1]))
    return out


def _series_pow(p, k, order):
    out = [_ONE] + [_ZERO] * (order - 1)
    for _ in range(k):
        out = _series_mul(out, p, order)
    return out


@lru_cache(maxsize=None)
def g0_exact(dm: int, dn: int) -> complex:
    """Exact ``g0`` on the contour that separates Q- alone.

    ``dm = m - m_t`` and ``dn = n - n_t`` in diagonal coordinates.  The
    integrand psi(z, dm, dn) * Omega has its only pole inside that contour
    at Q- = -i, so

        g0 = sgn(dm) * 2 pi i * Res_{z=-i}[psi(z, dm, dn) * (-1 / (2 z))] / (4 pi)
           = sgn(dm) * (i / 2) * Res,

    which vanishes for dn >= 0.  With u = z + i the residue is the u**(k-1)
    coefficient of (u - 2i)**k * h(u), k = -dn, where
    h(u) = ((u + 1 - i) / (u - 1 - i))**dm * (-1 / (2 (u - i))).
    """
    if dm == 0 or dn >= 0:
        return 0j
    k = -dn
    plus = [(Fraction(1), Fraction(-1)), _ONE]  # u + 1 - i
    minus = [(Fraction(-1), Fraction(-1)), _ONE]  # u - 1 - i
    num, den = (plus, minus) if dm > 0 else (minus, plus)
    ratio = _series_mul(num, _inv_linear(den[0], k), k)
    h = _series_pow(ratio, abs(dm), k)
    omega = [(-c[0] / 2, -c[1] / 2) for c in _inv_linear((Fraction(0), Fraction(-1)), k)]
    h = _series_mul(h, omega, k)
    # (u - 2i)**k = sum_j binom(k, j) u**j (-2i)**(k - j)
    res = _ZERO
    for j in range(k):
        coeff = (Fraction(math.comb(k, j)), Fraction(0))
        for _ in range(k - j):
            coeff = _mul(coeff, (Fraction(0), Fraction(-2)))
        res = _add(res, _mul(coeff, h[k - 1 - j]))
    value = _mul((Fraction(0), Fraction(1, 2)), res)
    sign = 1 if dm > 0 else -1
    return complex(sign * float(value[0]), sign * float(value[1]))


def g0_relative_error(value: complex, dm: int, dn: int) -> float:
    """|value - exact| / max(|exact|, 1e-3); exact zeros are judged absolutely."""
    exact = g0_exact(dm, dn)
    return abs(value - exact) / max(abs(exact), 1e-3)


# -- five-point stencil --------------------------------------------------------

def stencil_residual(center, right, left, up, down, delta) -> np.ndarray:
    """Scale-aware residual |L G - delta| / max(1, sum of |stencil terms|).

    Accepts scalars or equally shaped arrays.  The denominator is the size
    of the terms that cancel, so a table whose entries reach 1e14 is judged
    by its rounding level, not by an absolute gate.
    """
    terms = (right, left, up, down, -4.0 * np.asarray(center))
    lg = sum(terms)
    scale = sum(np.abs(t) for t in terms)
    return np.abs(lg - delta) / np.maximum(1.0, scale)


def table_stencil_residual(grid: np.ndarray, target_index) -> float:
    """Max stencil residual over the interior of a 2-D table G[mu, nu]."""
    delta = np.zeros(grid.shape, dtype=float)
    delta[target_index] = 1.0
    res = stencil_residual(
        grid[1:-1, 1:-1], grid[2:, 1:-1], grid[:-2, 1:-1], grid[1:-1, 2:], grid[1:-1, :-2],
        delta[1:-1, 1:-1],
    )
    return float(res.max())


# -- growth bound --------------------------------------------------------------

def growth_rates(lam: complex):
    """(rate_mu, rate_nu) = (im_p_n + im_p_m, im_p_n - im_p_m) at lambda."""
    pm = math.log(abs(lam + 1)) - math.log(abs(lam - 1))
    pn = math.log(abs(lam + 1j)) - math.log(abs(lam - 1j))
    return pn + pm, pn - pm


def growth_fit(grid: np.ndarray, d_mu: np.ndarray, d_nu: np.ndarray, lam: complex, half: int) -> float:
    """max |G| / exp(d_mu rate_mu + d_nu rate_nu) over |d_mu|, |d_nu| <= half."""
    rate_mu, rate_nu = growth_rates(lam)
    inside = (np.abs(d_mu) <= half) & (np.abs(d_nu) <= half)
    log_ratio = np.log(np.abs(grid[inside])) - (d_mu[inside] * rate_mu + d_nu[inside] * rate_nu)
    return float(np.exp(log_ratio.max()))


# -- green by independent quadrature ---------------------------------------------
# The level circle of lambda is |w| = r in w = (z - i)/(z + i), traversed as
# w = r exp(-2 pi i t), t in [0, 1).  On it |z + 1|/|z - 1| = |1 + i w|/|w + i|,
# so im_p_m(z) = h exactly where sin(arg w) = -(1 + r**2) tanh(h) / (2 r): the
# sign weight of green changes at two parameters known in closed form.

def _level(lam):
    """(r, h) of the contour green integrates for lambda (None is infinity)."""
    if lam is None:
        return 0.5, 0.0
    r = abs((lam - 1j) / (lam + 1j))
    if abs(math.log(r)) < 0.05:
        r = 0.5  # the documented deformation of levels near the critical one
    return r, math.log(abs(lam + 1)) - math.log(abs(lam - 1))


def _circle_point(r, t):
    """(w, z) at parameter t of the level circle |w| = r."""
    w = r * np.exp(-2j * math.pi * np.asarray(t))
    return w, 1j * (1 + w) / (1 - w)


def weight_roots(lam):
    """Parameters t in [0, 1) where the sign weight of green flips, sorted."""
    r, h = _level(lam)
    s = -(1 + r * r) * math.tanh(h) / (2 * r)
    if abs(s) >= 1.0:
        return []
    phis = (math.asin(s), math.pi - math.asin(s))
    return sorted((-phi / (2 * math.pi)) % 1.0 for phi in phis)


def arc_gap(lam) -> float:
    """Length in t of the shorter arc between the two sign flips."""
    roots = weight_roots(lam)
    if not roots:
        return 1.0
    d = roots[1] - roots[0]
    return min(d, 1.0 - d)


_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def green_reference(lam, dm, dn, nodes: int = 512):
    """(values, scales) of green for offsets dm = m - m_t, dn = n - n_t.

    Gauss-Legendre on each arc between the exact sign flips, with
    psi(z, dm, dn) psi_dual(z, 0, 0) = exp(dm log A + dn log B),
    A = (z + 1)/(z - 1), B = (z + i)/(z - i).  ``scales`` is
    (1/4 pi) times the integral of |weighted integrand|, the size of the
    terms that cancel in each value.
    """
    dm = np.atleast_1d(np.asarray(dm, dtype=float))
    dn = np.atleast_1d(np.asarray(dn, dtype=float))
    r, h = _level(lam)
    roots = weight_roots(lam) or [0.0]
    x, wx = _leggauss(nodes)
    values = np.zeros(dm.shape, dtype=complex)
    scales = np.zeros(dm.shape)
    for k, a in enumerate(roots):
        b = roots[(k + 1) % len(roots)] + (1.0 if k == len(roots) - 1 else 0.0)
        w, z = _circle_point(r, a + (b - a) * (x + 1) / 2)
        dz_dt = 2j / (1 - w) ** 2 * (-2j * math.pi * w)
        base = -0.5 / z * dz_dt * wx * (b - a) / 2
        _, zm = _circle_point(r, (a + b) / 2)
        level = np.sign(h - (math.log(abs(zm + 1)) - math.log(abs(zm - 1))))
        log_a, log_b = np.log((z + 1) / (z - 1)), np.log((z + 1j) / (z - 1j))
        terms = np.exp(np.outer(dm, log_a) + np.outer(dn, log_b)) * base
        weighted = (np.sign(dm) + level)[:, None] * terms
        values += weighted.sum(axis=1)
        scales += np.abs(weighted).sum(axis=1)
    return values / (4 * math.pi), scales / (4 * math.pi)


# -- Riemann theta --------------------------------------------------------------

def theta_box(z, B, tail: float = 45.0) -> complex:
    """Riemann theta by a plain sum over a box of integer points.

    Term moduli are exp(-pi <Y (N - c), N - c>) up to a constant, with
    Y = Im B and c = -Y^-1 Im z.  The box around round(c) has half-width
    sqrt(tail / (pi * lambda_min(Y))) + 1, so every omitted term is below
    exp(-tail) times the Gaussian's peak.
    """
    z = np.asarray(z, dtype=complex)
    B = np.asarray(B, dtype=complex)
    Y = B.imag
    c = -np.linalg.solve(Y, z.imag)
    half = int(math.ceil(math.sqrt(tail / (math.pi * np.linalg.eigvalsh(Y).min())))) + 1
    axes = [range(int(round(ck)) - half, int(round(ck)) + half + 1) for ck in c]
    N = np.array(list(product(*axes)), dtype=float)
    phase = 1j * math.pi * np.einsum("pi,ij,pj->p", N, B, N) + 2j * math.pi * (N @ z)
    return complex(np.exp(phase).sum())


def psi_theta_box(B, theta_shift, delta_p, delta_q, A, exp_val: complex, m: int, n: int) -> complex:
    """The theta-quotient wave function from four box-sum theta values."""
    e = np.asarray(theta_shift)
    s = m * np.asarray(delta_p) + n * np.asarray(delta_q)
    A = np.asarray(A)
    return (
        complex(exp_val)
        * theta_box(A + s + e, B) / theta_box(A + e, B)
        * theta_box(e, B) / theta_box(s + e, B)
    )


def relative_error(value: complex, reference: complex) -> float:
    return abs(value - reference) / abs(reference)
