"""Oriented contours and quadrature of differentials.

Contours are unions of parameterized curves ``t in [0, 1] -> z(t)``.
Closed components are integrated with the trapezoidal rule on the periodic
parameterization, which converges geometrically for integrands analytic in
a neighbourhood of the curve.  Open arcs (produced e.g. by splitting a
closed curve at sign changes of a weight) use Gauss-Legendre nodes instead,
with the same geometric convergence for analytic integrands.

All quadrature runs in extended precision (``numpy.clongdouble``) so that
integrands with a large dynamic range along the contour still deliver
absolute accuracy far below the verification tolerances.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PoleOnContourError",
    "NotACContourError",
    "CurveComponent",
    "Contour",
    "circle",
    "integrate",
    "residue",
    "residue_at_infinity",
    "normalize_orientation",
    "split_at_sign_changes",
    "DEFAULT_NODES",
]

DEFAULT_NODES = 512

# quadrature dtype: 80-bit extended on x86-64, falls back to double elsewhere
QUAD_DTYPE = np.clongdouble
QUAD_REAL = np.longdouble

TWO_PI = 2.0 * np.pi
# extended-precision turn for curve parameterizations: a float64 2*pi leaves
# a ~1e-16 closure gap that caps absolute quadrature accuracy on large
# integrands
TWO_PI_Q = 2 * QUAD_REAL("3.14159265358979323846264338327950288")

DifferentialEvaluator = Callable[[np.ndarray], np.ndarray]


class PoleOnContourError(ArithmeticError):
    """An integrand sample on the contour was not finite."""


class NotACContourError(ValueError):
    """The curve does not have the homology of a valid C-contour."""


@dataclass(frozen=True)
class CurveComponent:
    """One parameterized curve t in [0, 1] -> point, with derivative.

    ``point`` and ``velocity`` must accept an ndarray of parameters and
    return complex ndarrays.  ``closed`` selects the quadrature rule.
    """

    point: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    closed: bool = True

    def close_up_gap(self) -> float:
        """Distance between the two parameterization endpoints."""
        ends = self.point(np.array([0.0, 1.0], dtype=QUAD_REAL))
        return float(abs(ends[1] - ends[0]))


@dataclass
class Contour:
    """Oriented union of curves with an attached node budget."""

    components: Tuple[CurveComponent, ...]
    nodes_per_component: int = DEFAULT_NODES
    orientation_sign: int = 1
    metadata: Dict = field(default_factory=dict)

    def with_orientation(self, sign: int) -> "Contour":
        return replace(self, orientation_sign=sign)


def circle(center: complex, radius: float, counterclockwise: bool = True) -> CurveComponent:
    """Closed circular component around ``center``."""
    turn = TWO_PI_Q if counterclockwise else -TWO_PI_Q

    def point(t: np.ndarray) -> np.ndarray:
        return center + radius * np.exp(1j * turn * t.astype(QUAD_REAL)).astype(QUAD_DTYPE)

    def velocity(t: np.ndarray) -> np.ndarray:
        return 1j * turn * radius * np.exp(1j * turn * t.astype(QUAD_REAL)).astype(QUAD_DTYPE)

    return CurveComponent(point=point, velocity=velocity, closed=True)


def _legendre_with_derivative(x: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    # nodes/weights on [0, 1]; the double-precision seeds are polished to
    # extended precision (Newton on P_n), otherwise node roundoff caps the
    # attainable absolute accuracy at ~1e-14 times the sample scale
    x = np.polynomial.legendre.leggauss(n)[0].astype(QUAD_REAL)
    for _ in range(3):
        p, dp = _legendre_with_derivative(x, n)
        x = x - p / dp
    _, dp = _legendre_with_derivative(x, n)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return (x + 1.0) / 2.0, w / 2.0


def _component_rule(comp: CurveComponent, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    if comp.closed:
        t = (np.arange(nodes, dtype=QUAD_REAL)) / nodes
        w = np.full(nodes, QUAD_REAL(1.0) / nodes)
        return t, w
    return _gauss_legendre(nodes)


def integrate(
    omega: DifferentialEvaluator,
    contour: Contour,
    nodes: Optional[int] = None,
) -> complex:
    """Integrate the differential ``omega(z) dz`` along the contour.

    ``omega`` returns the coefficient against dz; the parameterization
    velocity and the orientation sign are applied here.  A non-finite
    sample raises :class:`PoleOnContourError`.
    """
    n = int(nodes) if nodes is not None else contour.nodes_per_component
    total = QUAD_DTYPE(0)
    for comp in contour.components:
        t, w = _component_rule(comp, n)
        z = comp.point(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            samples = np.asarray(omega(z), dtype=QUAD_DTYPE) * comp.velocity(t)
        if not np.all(np.isfinite(samples.astype(complex))):
            raise PoleOnContourError("non-finite integrand sample on the contour")
        total = total + np.sum(samples * w)
    return complex(contour.orientation_sign * total)


def residue(
    omega: DifferentialEvaluator,
    center: complex,
    radius: Optional[float] = None,
    nodes: int = 256,
    isolation_points: Optional[Sequence[complex]] = None,
    check: bool = True,
) -> complex:
    """Residue of ``omega(z) dz`` at an isolated singularity.

    Computed as ``(1 / 2 pi i)`` times the integral over a small
    counterclockwise circle.  If ``radius`` is omitted it defaults to half
    the distance from ``center`` to the nearest point of
    ``isolation_points``.  With ``check=True`` the value is recomputed at
    half the radius; disagreement beyond 1e-9 emits a warning (higher-order
    pole or misplaced center).
    """
    if radius is None:
        if not isolation_points:
            raise ValueError("radius or isolation_points required")
        dists = [abs(complex(p) - complex(center)) for p in isolation_points
                 if abs(complex(p) - complex(center)) > 0]
        if not dists:
            raise ValueError("no other isolation points to set a default radius")
        radius = min(dists) / 2.0

    def one(r: float) -> complex:
        ring = Contour(components=(circle(center, r, counterclockwise=True),),
                       nodes_per_component=nodes)
        return integrate(omega, ring) / (2j * np.pi)

    value = one(radius)
    if check:
        again = one(radius / 2.0)
        if abs(value - again) > 1e-9 * max(1.0, abs(value)):
            warnings.warn(
                "residue not stable under radius halving: higher-order pole "
                "or misplaced center?",
                RuntimeWarning,
                stacklevel=2,
            )
    return value


def residue_at_infinity(
    omega: DifferentialEvaluator,
    radius: float = 50.0,
    nodes: int = 512,
) -> complex:
    """Residue of ``omega(z) dz`` at the point at infinity.

    Equal to minus the residue sum of the finite poles; computed as
    ``-(1 / 2 pi i)`` times the integral over the counterclockwise circle
    |z| = radius, which must enclose every finite singularity.
    """
    ring = Contour(components=(circle(0.0, radius, counterclockwise=True),),
                   nodes_per_component=nodes)
    return -integrate(omega, ring) / (2j * np.pi)


def normalize_orientation(contour: Contour, dp_n: DifferentialEvaluator) -> Contour:
    """Fix the orientation so the quasimomentum integral is +2 pi.

    The integral of ``dp_n`` over a valid C-contour is +-2 pi; anything
    else means the curve has the wrong homology (both distinguished points
    on one side, or extra windings) and raises :class:`NotACContourError`.
    """
    value = integrate(dp_n, contour)
    if abs(abs(value) - TWO_PI) > 0.1 * TWO_PI:
        raise NotACContourError(
            f"integral of dp_n is {value:.6g}, not within 10% of 2 pi in "
            "modulus; not a C-contour"
        )
    if value.real < 0:
        return contour.with_orientation(-contour.orientation_sign)
    return contour


def _subarc(comp: CurveComponent, a, b) -> CurveComponent:
    """Open arc of ``comp`` over the parameter interval [a, b] (mod 1)."""
    a = QUAD_REAL(a)
    span = QUAD_REAL(b) - a

    def point(s: np.ndarray) -> np.ndarray:
        return comp.point(np.mod(a + span * s.astype(QUAD_REAL), QUAD_REAL(1.0)))

    def velocity(s: np.ndarray) -> np.ndarray:
        return comp.velocity(np.mod(a + span * s.astype(QUAD_REAL), QUAD_REAL(1.0))) * span

    return CurveComponent(point=point, velocity=velocity, closed=False)


def split_at_sign_changes(contour: Contour, ts: Sequence) -> Contour:
    """Cut every closed component at the parameters ``ts`` (in [0, 1)).

    ``ts`` are the points where a weight changes sign, known in closed form
    by the caller.  Piecewise-sign-definite integrands (e.g. sgn-weighted
    differentials) lose the trapezoidal rule's spectral accuracy at the
    sign jumps; after splitting, each arc is integrated with Gauss-Legendre
    nodes and the geometric convergence is restored.  With no parameters
    the components are left closed.  The arc ends stay in ``QUAD_REAL``.
    """
    roots = np.sort(np.asarray(ts, dtype=QUAD_REAL))
    if roots.size == 0:
        return contour
    ends = np.append(roots, roots[0] + 1)
    new_components: List[CurveComponent] = []
    for comp in contour.components:
        if not comp.closed:
            new_components.append(comp)
            continue
        new_components.extend(_subarc(comp, a, b) for a, b in zip(ends[:-1], ends[1:]))
    return replace(contour, components=tuple(new_components))
