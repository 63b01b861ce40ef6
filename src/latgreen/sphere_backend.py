"""Exactly solvable genus-zero spectral backend on the Riemann sphere.

Marked points are fixed at

    P+ = 1,  P- = -1,  Q+ = i,  Q- = -i,  R+ = infinity,  R- = 0,

with the holomorphic involution ``sigma z = -z``, the antiholomorphic
involution ``tau z = 1 / conj(z)`` and the third-kind differential
``Omega = -dz / (2 z)`` (residues +1/2 at R+, -1/2 at R-).  The wave
function is the elementary product

    psi(z, m, n) = ((z + 1) / (z - 1))**m * ((z + i) / (z - i))**n

normalized to 1 at R+, taking the value (-1)**(m+n) at R-, and its dual is
``psi_dual(z, m, n) = psi(-z, m, n)``.  The lattice function is f == 1, so
the five-point operator has coefficients a = b = 1, c = 4.

Quasimomentum differentials carry residues i at P+ / Q+ and -i at P- / Q-:

    dp_m = i dz / (z - 1) - i dz / (z + 1)
    dp_n = i dz / (z - i) - i dz / (z + i)

The exported single-valued level functions are the exact growth rates

    im_p_m(z) = log |(z + 1) / (z - 1)|,   im_p_n(z) = log |(z + i) / (z - i)|,

so that |psi(z, m, n)| = exp(m im_p_m(z) + n im_p_n(z)) identically.  Level
sets of im_p_n are circles in the Moebius coordinate w = (z - i) / (z + i)
(which sends Q+ to 0, Q- to infinity, and the level through P+-, R+- to
|w| = 1); C-contours are those circles traversed clockwise in w, which is
exactly the orientation giving the quasimomentum integral +2 pi.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from .contour_quadrature import (
    DEFAULT_NODES,
    QUAD_DTYPE,
    QUAD_REAL,
    TWO_PI_Q,
    Contour,
    CurveComponent,
)

__all__ = [
    "INFINITY",
    "SpherePoint",
    "PoleError",
    "DegenerateContourError",
    "P_PLUS",
    "P_MINUS",
    "Q_PLUS",
    "Q_MINUS",
    "R_PLUS",
    "R_MINUS",
    "MARKED_POINTS",
    "psi",
    "psi_dual",
    "omega_coeff",
    "dp_m_coeff",
    "dp_n_coeff",
    "im_p_m",
    "im_p_n",
    "sigma",
    "tau",
    "mobius_w",
    "mobius_z",
    "c_contour",
    "level_circle_contour",
    "default_kernel_contour",
    "f",
    "psi_power_tables",
    "im_p_m_crossings",
    "DEFAULT_KERNEL_RADIUS",
    "CRITICAL_LEVEL_BAND",
    "FALLBACK_RADIUS",
]


class _Infinity:
    """The distinguished point at infinity, handled exactly."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

SpherePoint = Union[complex, float, int, _Infinity]

P_PLUS = 1.0 + 0.0j
P_MINUS = -1.0 + 0.0j
Q_PLUS = 1.0j
Q_MINUS = -1.0j
R_PLUS = INFINITY
R_MINUS = 0.0 + 0.0j

MARKED_POINTS: Tuple[SpherePoint, ...] = (P_PLUS, P_MINUS, Q_PLUS, Q_MINUS, R_PLUS, R_MINUS)

# level circles |w| within this band of the critical level |w| = 1 (which
# passes through P+-, R+-) are replaced by a regular fallback circle
CRITICAL_LEVEL_BAND = 0.05
FALLBACK_RADIUS = 0.5
DEFAULT_KERNEL_RADIUS = 2.0


class PoleError(ZeroDivisionError):
    """Evaluation at a pole; carries the pole order."""

    def __init__(self, point: SpherePoint, order: int, what: str):
        self.point = point
        self.order = order
        super().__init__(f"{what} has a pole of order {order} at {point}")


class DegenerateContourError(ValueError):
    """The level set degenerates to a point (lambda at Q+-)."""


def _is_inf(z: SpherePoint) -> bool:
    return isinstance(z, _Infinity)


def sigma(z: SpherePoint) -> SpherePoint:
    """Holomorphic involution z -> -z (fixing R+ and R-)."""
    if _is_inf(z):
        return INFINITY
    return -complex(z)


def tau(z: SpherePoint) -> SpherePoint:
    """Antiholomorphic involution z -> 1 / conj(z) (swaps R+ and R-)."""
    if _is_inf(z):
        return 0.0 + 0.0j
    zc = complex(z)
    if zc == 0:
        return INFINITY
    return 1.0 / zc.conjugate()


def f(m: int, n: int) -> float:
    """The lattice function: f == 1, so the five-point coefficients are a = b = 1, c = 4."""
    return 1.0


def _ipow(base, k: int):
    """base**k for integer k >= 0 by binary exponentiation (no logs, no cuts)."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        base = base * base
        k >>= 1
    if result is None:
        return np.ones_like(base) if isinstance(base, np.ndarray) else 1.0 + 0.0j
    return result


def _ratio_pow(num, den, k: int):
    """(num/den)**k with the quotient oriented so zeros never divide."""
    if k == 0:
        return np.ones_like(num) if isinstance(num, np.ndarray) else 1.0 + 0.0j
    if k < 0:
        num, den = den, num
        k = -k
    return _ipow(num / den, k)


def _check_psi_poles(z: complex, m: int, n: int) -> None:
    if z == P_PLUS and m > 0:
        raise PoleError(P_PLUS, m, "psi")
    if z == P_MINUS and m < 0:
        raise PoleError(P_MINUS, -m, "psi")
    if z == Q_PLUS and n > 0:
        raise PoleError(Q_PLUS, n, "psi")
    if z == Q_MINUS and n < 0:
        raise PoleError(Q_MINUS, -n, "psi")


def psi(z: SpherePoint, m: int, n: int):
    """Wave function ((z+1)/(z-1))**m ((z+i)/(z-i))**n, psi(R+) = 1.

    Accepts a scalar point (with exact pole checks) or an ndarray of
    points already known to avoid the poles.
    """
    if _is_inf(z):
        return 1.0 + 0.0j
    if isinstance(z, np.ndarray):
        return _ratio_pow(z + 1.0, z - 1.0, m) * _ratio_pow(z + 1j, z - 1j, n)
    zc = complex(z)
    _check_psi_poles(zc, m, n)
    return complex(_ratio_pow(zc + 1.0, zc - 1.0, m) * _ratio_pow(zc + 1j, zc - 1j, n))


def psi_dual(z: SpherePoint, m: int, n: int):
    """Dual wave function psi(sigma z, m, n)."""
    if _is_inf(z):
        return 1.0 + 0.0j
    if isinstance(z, np.ndarray):
        return psi(-z, m, n)
    return psi(sigma(z), m, n)


def _power_table(num: np.ndarray, den: np.ndarray, lo: int, hi: int) -> np.ndarray:
    rows = np.empty((hi - lo + 1,) + num.shape, dtype=num.dtype)
    rows[0] = _ratio_pow(num, den, lo)
    ratio = num / den
    for i in range(1, hi - lo + 1):
        rows[i] = rows[i - 1] * ratio
    return rows


def psi_power_tables(
    z: np.ndarray, mu_range: Tuple[int, int], nu_range: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Factor psi over a sublattice window into two power tables.

    With A = (z+1)/(z-1) and B = (z+i)/(z-i), psi(z, mu - nu, mu + nu) =
    U**mu * V**nu for U = A B and V = B / A.  Returns ``(Up, Vp)`` with
    ``Up[i] = U**(mu_lo + i)`` and ``Vp[j] = V**(nu_lo + j)`` at every point
    of ``z`` (rows are exponents, columns are points): one binary power for
    the lowest exponent, then one product per further row.
    """
    return (
        _power_table((z + 1.0) * (z + 1j), (z - 1.0) * (z - 1j), *mu_range),
        _power_table((z - 1.0) * (z + 1j), (z + 1.0) * (z - 1j), *nu_range),
    )


def omega_coeff(z: SpherePoint):
    """dz-coefficient of Omega = -dz/(2z); poles at R+ and R-."""
    if _is_inf(z):
        raise PoleError(INFINITY, 1, "Omega")
    if isinstance(z, np.ndarray):
        return -0.5 / z
    zc = complex(z)
    if zc == 0:
        raise PoleError(0.0 + 0.0j, 1, "Omega")
    return -0.5 / zc


def dp_m_coeff(z: SpherePoint):
    """dz-coefficient of dp_m = i dz/(z-1) - i dz/(z+1)."""
    if _is_inf(z):
        return 0.0 + 0.0j
    if isinstance(z, np.ndarray):
        return 1j / (z - 1.0) - 1j / (z + 1.0)
    zc = complex(z)
    if zc == P_PLUS or zc == P_MINUS:
        raise PoleError(zc, 1, "dp_m")
    return complex(1j / (zc - 1.0) - 1j / (zc + 1.0))


def dp_n_coeff(z: SpherePoint):
    """dz-coefficient of dp_n = i dz/(z-i) - i dz/(z+i)."""
    if _is_inf(z):
        return 0.0 + 0.0j
    if isinstance(z, np.ndarray):
        return 1j / (z - 1j) - 1j / (z + 1j)
    zc = complex(z)
    if zc == Q_PLUS or zc == Q_MINUS:
        raise PoleError(zc, 1, "dp_n")
    return complex(1j / (zc - 1j) - 1j / (zc + 1j))


def im_p_m(z: SpherePoint):
    """Growth rate log |(z+1)/(z-1)|; +inf at P+, -inf at P-.

    Normalized so |psi(z, m, n)| = exp(m im_p_m + n im_p_n) exactly.
    """
    if _is_inf(z):
        return 0.0
    if isinstance(z, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(z + 1.0)) - np.log(np.abs(z - 1.0))
    zc = complex(z)
    if zc == P_PLUS:
        return math.inf
    if zc == P_MINUS:
        return -math.inf
    return math.log(abs(zc + 1.0)) - math.log(abs(zc - 1.0))


def im_p_n(z: SpherePoint):
    """Growth rate log |(z+i)/(z-i)|; +inf at Q+, -inf at Q-."""
    if _is_inf(z):
        return 0.0
    if isinstance(z, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(z + 1j)) - np.log(np.abs(z - 1j))
    zc = complex(z)
    if zc == Q_PLUS:
        return math.inf
    if zc == Q_MINUS:
        return -math.inf
    return math.log(abs(zc + 1j)) - math.log(abs(zc - 1j))


def im_p_m_crossings(radius: float, h: float) -> np.ndarray:
    """Parameters t in [0, 1) where im_p_m = h on the level circle |w| = radius.

    On w = r exp(-2 pi i t) (see :func:`level_circle_contour`),
    |z + 1| / |z - 1| = |1 + i w| / |w + i|, so im_p_m(z) = h exactly where
    sin(arg w) = -(1 + r**2) tanh(h) / (2 r).  Returns the two crossings,
    sorted, in ``QUAD_REAL``; none when that right-hand side has modulus
    >= 1, where im_p_m - h keeps one sign on the whole circle.
    """
    r = QUAD_REAL(radius)
    s = -(1 + r * r) * np.tanh(QUAD_REAL(h)) / (2 * r)
    if not abs(s) < 1:
        return np.empty(0, dtype=QUAD_REAL)
    phi = np.arcsin(s)
    phis = np.array([phi, TWO_PI_Q / 2 - phi], dtype=QUAD_REAL)
    return np.sort(np.mod(-phis / TWO_PI_Q, QUAD_REAL(1)))


def mobius_w(z: SpherePoint):
    """Moebius chart w = (z - i)/(z + i): Q+ -> 0, Q- -> infinity, R+ -> 1."""
    if _is_inf(z):
        return 1.0 + 0.0j
    zc = complex(z)
    if zc == Q_MINUS:
        return INFINITY
    return (zc - 1j) / (zc + 1j)


def mobius_z(w):
    """Inverse chart z = i (1 + w)/(1 - w)."""
    return 1j * (1.0 + w) / (1.0 - w)


def level_circle_contour(radius: float, nodes: int = DEFAULT_NODES) -> Contour:
    """The level circle |w| = radius traversed clockwise in w.

    Clockwise in the chart is the orientation with quasimomentum integral
    +2 pi, for every radius.  ``radius`` must differ from 1 (the critical
    level through P+- and R+-) for the curve to avoid the marked points.
    """
    r = QUAD_REAL(radius)

    def sample(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        w = r * np.exp(-1j * TWO_PI_Q * t.astype(QUAD_REAL)).astype(QUAD_DTYPE)
        return mobius_z(w), 2j / (1.0 - w) ** 2 * (-1j * TWO_PI_Q * w)

    return Contour(
        components=(CurveComponent(sample, closed=True),),
        nodes_per_component=nodes,
        orientation_sign=1,
        metadata={"chart_radius": float(radius)},
    )


def c_contour(lam: SpherePoint, nodes: int = DEFAULT_NODES, deform_critical: bool = True) -> Contour:
    """C-contour through lambda: the level set of im_p_n in the w-chart.

    The level set is the circle |w| = |w(lambda)|, oriented clockwise in w.
    At lambda = Q+- the level set degenerates to a point and
    :class:`DegenerateContourError` is raised.  Radii within
    ``CRITICAL_LEVEL_BAND`` of the critical level |w| = 1 put the curve on
    (or numerically too close to) the marked points P+-, R+-; with
    ``deform_critical`` the contour is replaced by the regular circle
    |w| = ``FALLBACK_RADIUS``, recorded in the metadata.
    """
    w = mobius_w(lam)
    if _is_inf(w):
        raise DegenerateContourError("lambda = Q-: the level set degenerates to a point")
    r = abs(w)
    if r == 0.0:
        raise DegenerateContourError("lambda = Q+: the level set degenerates to a point")
    deformed = False
    if abs(math.log(r)) < CRITICAL_LEVEL_BAND:
        if not deform_critical:
            contour = level_circle_contour(r, nodes)
            contour.metadata.update({"lambda": lam, "critical_level": True})
            return contour
        r = FALLBACK_RADIUS
        deformed = True
    contour = level_circle_contour(r, nodes)
    contour.metadata.update({"lambda": lam, "deformed": deformed})
    return contour


def default_kernel_contour(nodes: int = DEFAULT_NODES) -> Contour:
    """The canonical C-contour separating Q- from everything else.

    This is the contour on which the kernel integral reduces to the Q-
    residue alone, producing the reference tables
    ``g0(m, -1, 0, 0) = -sgn(m) (-i)**(m+1) / 2`` and
    ``g0(m, -2, 0, 0) = -sgn(m) m (-i)**m``.
    """
    contour = level_circle_contour(DEFAULT_KERNEL_RADIUS, nodes)
    contour.metadata.update({"default_kernel": True})
    return contour
