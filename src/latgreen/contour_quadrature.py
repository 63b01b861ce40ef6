"""Oriented contours and quadrature of differentials.

Contours are unions of parameterized curves ``t in [0, 1] -> z(t)``.
Closed components are integrated with the trapezoidal rule on the periodic
parameterization, which converges geometrically for integrands analytic in
a neighbourhood of the curve.  Open arcs (produced e.g. by splitting a
closed curve at sign changes of a weight) use Fejer's second rule instead
(interior Chebyshev points, none on the arc ends), with the same geometric
convergence for analytic integrands.  Each rule has a nested half rule on
its nodes ``t[1::2]``, so one set of samples also gives the node-halving
error estimate; node counts are even.

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
    "CurveComponent",
    "Contour",
    "circle",
    "integrate",
    "residue",
    "split_at_sign_changes",
    "DEFAULT_NODES",
]

DEFAULT_NODES = 512

# quadrature dtype: 80-bit extended on x86-64, falls back to double elsewhere
QUAD_DTYPE = np.clongdouble
QUAD_REAL = np.longdouble

# extended-precision turn for curve parameterizations: a float64 2*pi leaves
# a ~1e-16 closure gap that caps absolute quadrature accuracy on large
# integrands
TWO_PI_Q = 2 * QUAD_REAL("3.14159265358979323846264338327950288")

DifferentialEvaluator = Callable[[np.ndarray], np.ndarray]


class PoleOnContourError(ArithmeticError):
    """An integrand sample on the contour was not finite."""


@dataclass(frozen=True)
class CurveComponent:
    """One parameterized curve t in [0, 1] -> z(t), with derivative.

    ``sample`` accepts an ndarray of parameters and returns the complex
    ndarrays ``(z, dz/dt)``.  ``closed`` selects the quadrature rule.
    """

    sample: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    closed: bool = True

    def point(self, t: np.ndarray) -> np.ndarray:
        return self.sample(t)[0]


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

    def sample(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        e = np.exp(1j * turn * t.astype(QUAD_REAL)).astype(QUAD_DTYPE)
        return center + radius * e, 1j * turn * radius * e

    return CurveComponent(sample, closed=True)


@lru_cache(maxsize=64)
def _fejer2(n: int) -> Tuple[np.ndarray, np.ndarray]:
    # Fejer's second rule on [0, 1] at t_k = sin^2(k pi / 2n), k = 1..n-1;
    # the angles (2j - 1) k pi / n are reduced mod 2 pi in integers and read
    # from one table of sines, so the weights keep extended precision
    k = np.arange(1, n)
    sines = np.sin(np.arange(2 * n) * TWO_PI_Q / (2 * n))
    acc = np.zeros(n - 1, dtype=QUAD_REAL)
    for j in range(1, n // 2 + 1):
        acc += sines[(2 * j - 1) * k % (2 * n)] / (2 * j - 1)
    t, w = np.sin(k * TWO_PI_Q / (4 * n)) ** 2, 2 * sines[k] * acc / n
    # every caller shares the cached arrays
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _component_rule(comp: CurveComponent, nodes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (t, w, w_half): w_half weights the half rule on t[1::2], the trapezoid
    # rotated by 1 / nodes or Fejer's second rule of order nodes / 2
    if nodes < 2 or nodes % 2:
        raise ValueError(f"nested rules need an even count, at least 1 node per half; got {nodes}")
    if comp.closed:
        t = (np.arange(nodes, dtype=QUAD_REAL)) / nodes
        w = np.full(nodes, QUAD_REAL(1.0) / nodes)
        return t, w, 2 * w[1::2]
    t, w = _fejer2(nodes)
    return t, w, _fejer2(nodes // 2)[1]


def integrate(omega: DifferentialEvaluator, contour: Contour) -> complex:
    """Integrate the differential ``omega(z) dz`` along the contour.

    Each component takes ``contour.nodes_per_component`` nodes.  ``omega``
    returns the coefficient against dz; dz/dt from each component's
    ``sample`` and the orientation sign are applied here.  A non-finite
    sample raises :class:`PoleOnContourError`.
    """
    total = QUAD_DTYPE(0)
    for comp in contour.components:
        t, w, _ = _component_rule(comp, contour.nodes_per_component)
        z, dz = comp.sample(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            samples = np.asarray(omega(z), dtype=QUAD_DTYPE) * dz
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
) -> complex:
    """Residue of ``omega(z) dz`` at an isolated singularity.

    Computed as ``(1 / 2 pi i)`` times the integral over a small
    counterclockwise circle.  If ``radius`` is omitted it defaults to half
    the distance from ``center`` to the nearest point of
    ``isolation_points``.  The value is recomputed at half the radius;
    disagreement beyond 1e-9 emits a warning (higher-order pole or
    misplaced center).
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
    if abs(value - one(radius / 2.0)) > 1e-9 * max(1.0, abs(value)):
        warnings.warn(
            "residue not stable under radius halving: higher-order pole "
            "or misplaced center?",
            RuntimeWarning,
            stacklevel=2,
        )
    return value


def _subarc(comp: CurveComponent, a, b) -> CurveComponent:
    """Open arc of ``comp`` over the parameter interval [a, b] (mod 1)."""
    a = QUAD_REAL(a)
    span = QUAD_REAL(b) - a

    def sample(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        z, dz = comp.sample(np.mod(a + span * s.astype(QUAD_REAL), QUAD_REAL(1.0)))
        return z, dz * span

    return CurveComponent(sample, closed=False)


def split_at_sign_changes(contour: Contour, ts: Sequence) -> Contour:
    """Cut every closed component at the parameters ``ts`` (in [0, 1)).

    ``ts`` are the points where a weight changes sign, known in closed form
    by the caller.  Piecewise-sign-definite integrands (e.g. sgn-weighted
    differentials) lose the trapezoidal rule's spectral accuracy at the
    sign jumps; after splitting, each arc is integrated with Fejer's second
    rule, whose nodes avoid the arc ends, and the geometric convergence is
    restored.  With no parameters the components are left closed.  The arc
    ends stay in ``QUAD_REAL``.
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
