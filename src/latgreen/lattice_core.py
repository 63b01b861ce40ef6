"""Lattice geometry and the five-point operator.

The library works on two coordinate systems for the square lattice:

* diagonal coordinates ``(m, n)``, on which the four-point relation
  ``psi(m+1, n+1) - psi(m, n) = i f(m, n) (psi(m+1, n) - psi(m, n+1))``
  lives, and
* sublattice coordinates ``(mu, nu)`` with ``m = mu - nu``, ``n = mu + nu``,
  which parameterize the even sublattice ``m + n = 0 (mod 2)``.

On the even sublattice the second-order operator reads

    (L phi)[mu, nu] = a[mu, nu] phi[mu+1, nu] + a[mu-1, nu] phi[mu-1, nu]
                    + b[mu, nu] phi[mu, nu+1] + b[mu, nu-1] phi[mu, nu-1]
                    - c[mu, nu] phi[mu, nu]

with coefficients built from a real, nonvanishing lattice function ``f``:

    a[mu, nu]   = 1 / f(m, n)        a[mu-1, nu] = 1 / f(m-1, n-1)
    b[mu, nu]   = f(m-1, n)          b[mu, nu-1] = f(m, n-1)
    c[mu, nu]   = a[mu, nu] + a[mu-1, nu] + b[mu, nu] + b[mu, nu-1]

The diagonal neighbours of ``(m, n)`` are exactly the ``(mu, nu)``-nearest
neighbours, so ``L`` is a five-point stencil on the even sublattice.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ParityError",
    "SingularCoefficientError",
    "WindowError",
    "FiveptCoefficients",
    "LatticeField",
    "to_sublattice",
    "from_sublattice",
    "coefficients_from_f",
    "apply_L",
    "check_four_point",
]

FValues = Union[Callable[[int, int], float], Mapping[Tuple[int, int], float]]


class ParityError(ValueError):
    """Raised for (m, n) with m + n odd: no sublattice image exists."""


class SingularCoefficientError(ZeroDivisionError):
    """Raised when f vanishes at a point required by the coefficients."""


class WindowError(KeyError):
    """Raised on access outside a field's index window."""


def to_sublattice(m: int, n: int) -> Tuple[int, int]:
    """Map even-sublattice diagonal coordinates to (mu, nu).

    Inverse of :func:`from_sublattice`; requires m + n even.
    """
    if (m + n) % 2 != 0:
        raise ParityError(f"(m, n) = ({m}, {n}) is not on the even sublattice")
    return (m + n) // 2, (n - m) // 2


def from_sublattice(mu: int, nu: int) -> Tuple[int, int]:
    """Map sublattice coordinates (mu, nu) to diagonal coordinates (m, n)."""
    return mu - nu, mu + nu


def _lookup(f: FValues, m: int, n: int) -> float:
    return f(m, n) if callable(f) else f[(m, n)]


def _f_at(f: FValues, m: int, n: int) -> float:
    value = _lookup(f, m, n)
    if value == 0:
        raise SingularCoefficientError(f"f({m}, {n}) = 0 gives a singular coefficient")
    return float(value)


@dataclass(frozen=True)
class FiveptCoefficients:
    """Stencil coefficients of L at one site.

    ``c`` is redundant (it equals the sum of the four neighbour
    coefficients) but is stored so the invariant can be asserted.
    """

    a_right: float
    a_left: float
    b_up: float
    b_down: float
    c: float

    def neighbour_sum(self) -> float:
        return self.a_right + self.a_left + self.b_up + self.b_down


def coefficients_from_f(f: FValues, mu: int, nu: int) -> FiveptCoefficients:
    """Build the five-point coefficients at (mu, nu) from the lattice function f.

    f may be a callable ``f(m, n)`` or a mapping keyed by ``(m, n)``.
    Raises :class:`SingularCoefficientError` if f vanishes at any of the
    four required arguments.
    """
    m, n = from_sublattice(mu, nu)
    a_right = 1.0 / _f_at(f, m, n)
    a_left = 1.0 / _f_at(f, m - 1, n - 1)
    b_up = _f_at(f, m - 1, n)
    b_down = _f_at(f, m, n - 1)
    return FiveptCoefficients(
        a_right=a_right,
        a_left=a_left,
        b_up=b_up,
        b_down=b_down,
        c=a_right + a_left + b_up + b_down,
    )


@dataclass(eq=False)
class LatticeField:
    """Complex scalars on a rectangular window of an integer lattice.

    The window is ``i_range = (i_lo, i_hi)`` by ``j_range = (j_lo, j_hi)``,
    both inclusive, and ``values`` is a 2-D complex ndarray indexed
    ``values[i - i_lo, j - j_lo]`` (zeros when not given).  Index names are
    deliberately neutral: the same container holds fields over (m, n) and
    over (mu, nu).  ``field[(i, j)]`` reads and writes one entry and raises
    :class:`WindowError` outside the window.
    """

    i_range: Tuple[int, int]
    j_range: Tuple[int, int]
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        shape = (self.i_range[1] - self.i_range[0] + 1, self.j_range[1] - self.j_range[0] + 1)
        if self.values is None:
            self.values = np.zeros(shape, dtype=complex)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != shape:
            raise ValueError(f"values of shape {self.values.shape} on a {shape} window")

    @classmethod
    def from_function(
        cls,
        i_range: Tuple[int, int],
        j_range: Tuple[int, int],
        fn: Callable[[int, int], complex],
    ) -> "LatticeField":
        return cls(i_range, j_range, np.array(
            [[complex(fn(i, j)) for j in range(j_range[0], j_range[1] + 1)]
             for i in range(i_range[0], i_range[1] + 1)],
            dtype=complex,
        ))

    def contains(self, i: int, j: int) -> bool:
        return (
            self.i_range[0] <= i <= self.i_range[1]
            and self.j_range[0] <= j <= self.j_range[1]
        )

    def _offset(self, key: Tuple[int, int]) -> Tuple[int, int]:
        if not self.contains(*key):
            raise WindowError(f"index {key} outside window {self.i_range} x {self.j_range}")
        return key[0] - self.i_range[0], key[1] - self.j_range[0]

    def __getitem__(self, key: Tuple[int, int]) -> complex:
        return complex(self.values[self._offset(key)])

    def __setitem__(self, key: Tuple[int, int], value: complex) -> None:
        self.values[self._offset(key)] = value


def apply_L(phi: LatticeField, f: FValues) -> LatticeField:
    """L phi on the interior of phi's window (one site in from each edge).

    The stencil at each interior site comes from the lattice function f
    (see :func:`coefficients_from_f`).  The window must be at least 3 x 3.
    """
    (i_lo, i_hi), (j_lo, j_hi) = phi.i_range, phi.j_range
    if i_hi - i_lo < 2 or j_hi - j_lo < 2:
        raise WindowError(f"window {phi.i_range} x {phi.j_range} has no interior")
    co = [[coefficients_from_f(f, mu, nu) for nu in range(j_lo + 1, j_hi)]
          for mu in range(i_lo + 1, i_hi)]

    def coeff_array(name: str) -> np.ndarray:
        return np.array([[getattr(c, name) for c in row] for row in co], dtype=float)

    v = phi.values
    lv = (
        coeff_array("a_right") * v[2:, 1:-1]
        + coeff_array("a_left") * v[:-2, 1:-1]
        + coeff_array("b_up") * v[1:-1, 2:]
        + coeff_array("b_down") * v[1:-1, :-2]
        - coeff_array("c") * v[1:-1, 1:-1]
    )
    return LatticeField((i_lo + 1, i_hi - 1), (j_lo + 1, j_hi - 1), lv)


def check_four_point(psi: LatticeField, f: FValues) -> float:
    """Max residual of the four-point relation over a field on (m, n).

    The residual at (m, n) is
    ``|psi(m+1, n+1) - psi(m, n) - i f(m, n) (psi(m+1, n) - psi(m, n+1))|``,
    taken over all points whose stencil fits inside the window.
    """
    (m_lo, m_hi), (n_lo, n_hi) = psi.i_range, psi.j_range
    fv = np.array(
        [[_lookup(f, m, n) for n in range(n_lo, n_hi)]
         for m in range(m_lo, m_hi)],
        dtype=float,
    ).reshape(m_hi - m_lo, n_hi - n_lo)
    v = psi.values
    lhs = v[1:, 1:] - v[:-1, :-1]
    rhs = 1j * fv * (v[1:, :-1] - v[:-1, 1:])
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
