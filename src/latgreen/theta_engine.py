"""Truncated Riemann theta series and theta-quotient wave functions.

The theta function of a symmetric g x g matrix ``B`` with positive-definite
imaginary part is the lattice sum

    theta(z | B) = sum over N in Z**g of
                   exp(pi i <B N, N> + 2 pi i <N, z>),

with the Euclidean pairing ``<x, y> = sum x_k y_k`` (no conjugation).  Term
moduli are ``exp(-pi <Y N, N> - 2 pi <N, Im z>)`` with ``Y = Im B``, a
Gaussian in N centered at ``c = -Y^{-1} Im z``, so the sum is truncated to
the integer points of the ellipsoid ``<Y (N - c), N - c> <= rho**2`` with
rho chosen from the Gaussian tail so the discarded part is below ``tol``
relative to the largest term.  The tail around c does not depend on c, so
neither does rho.  Terms are accumulated smallest-first, which fixes the
summation order and keeps the evaluation deterministic.  Arguments whose
largest term ``exp(pi <Y^-1 Im z, Im z>)`` overflows a float are rejected.

The wave function attached to genus-g spectral data is evaluated from
caller-supplied Jacobian-level quantities (the period matrix, the theta
shift of the pole divisor, the lattice increments Delta_P / Delta_Q, the
Abel image of the evaluation point and the exponential factor along the
same path); no curve geometry is computed here.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Union

import numpy as np

__all__ = [
    "ThetaConvergenceError",
    "DivisorSingularityError",
    "InvalidSpectralDataError",
    "DEFAULT_TOL",
    "validate_riemann_matrix",
    "theta",
    "theta_quasi_period_factor",
    "JacobianSpectralData",
    "psi_theta",
    "monodromy_check",
    "load_jacobian_data",
    "save_jacobian_data",
]

DEFAULT_TOL = 1e-12

# symmetry is structural, not a numerical accident: reject anything beyond
# roundoff-scale asymmetry
_SYMMETRY_TOL = 1e-10
# the log of the largest float: a larger series scale overflows
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class ThetaConvergenceError(ValueError):
    """Im B is not positive definite, B is malformed, tol is outside (0, inf)
    or the series overflows a float."""


class DivisorSingularityError(ZeroDivisionError):
    """A denominator theta vanished: the point hits the theta divisor."""


class InvalidSpectralDataError(ValueError):
    """Spectral data file or fields violate the documented schema."""


def validate_riemann_matrix(B) -> np.ndarray:
    """Return B as a complex g x g array, checking symmetry and Im B > 0."""
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ThetaConvergenceError(f"period matrix must be square, got shape {B.shape}")
    if not np.all(np.isfinite(B)):
        raise ThetaConvergenceError("period matrix B has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(B))))
    if float(np.max(np.abs(B - B.T))) > _SYMMETRY_TOL * scale:
        raise ThetaConvergenceError("period matrix is not symmetric")
    eigs = np.linalg.eigvalsh(B.imag)
    if eigs.min() <= 0:
        raise ThetaConvergenceError(
            f"Im B is not positive definite (min eigenvalue {eigs.min():.3g})"
        )
    return B


def _truncation_lattice(Y: np.ndarray, y: np.ndarray, tol: float):
    """Integer points covering the Gaussian mass up to relative ``tol``.

    Term moduli are exp(pi <Y c, c> - pi |N - c|_Y**2), so the tail beyond
    the Y-radius rho around c is independent of c: each term there is below
    exp(-pi rho**2) in units of exp(pi <Y c, c>), and a ball of Y-radius r
    holds at most (2 r / sqrt(lam_min) + 1)**g integer points.  Some
    integer point lies within |N - c|_Y**2 <= lam_max g / 4 of c, which
    bounds the largest retained term from below.
    """
    g = Y.shape[0]
    eigs = np.linalg.eigvalsh(Y)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    c = -np.linalg.solve(Y, y)
    rho = 1.0
    target = math.log(1.0 / tol) + math.log(100.0) + math.pi * lam_max * g / 4.0
    while True:
        margin = (
            math.pi * rho ** 2
            - g * math.log(2.0 * (rho + 1.0) / math.sqrt(lam_min) + 1.0)
            - g * math.log(3.0)
        )
        if margin >= target:
            break
        rho *= 1.2
    half = np.sqrt(np.diag(np.linalg.inv(Y))) * rho
    lo = np.floor(c - half).astype(int)
    hi = np.ceil(c + half).astype(int)
    points = []
    for N in product(*[range(lo[k], hi[k] + 1) for k in range(g)]):
        Na = np.array(N, dtype=float)
        d = Na - c
        if float(d @ (Y @ d)) <= rho * rho:
            points.append(Na)
    return points


def _theta_scaled(z, B, tol: float):
    """Theta value together with the log of its largest-term bound.

    The bound ``exp(pi <Y^-1 y, y>)`` with y = Im z is the natural scale of
    the series; values far below it sit near the theta divisor.
    """
    if not 0 < tol < math.inf:
        raise ThetaConvergenceError(f"tol must be in (0, inf), got {tol}")
    B = validate_riemann_matrix(B)
    z = np.asarray(z, dtype=complex).reshape(-1)
    g = B.shape[0]
    if z.shape != (g,):
        raise ValueError(f"argument must be a {g}-vector, got shape {z.shape}")
    Y = B.imag
    y = z.imag
    # an overflow is not warned of but rejected: first a largest term
    # exp(log_scale) beyond the floats, then a sum that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        log_scale = math.pi * float(y @ np.linalg.solve(Y, y))
        if not log_scale <= _LOG_FLOAT_MAX:
            raise ThetaConvergenceError(
                f"theta overflows: pi <Y^-1 Im z, Im z> = {log_scale:.4g} > {_LOG_FLOAT_MAX:.4g}"
            )
        terms = [
            np.exp(1j * np.pi * (B @ N) @ N + 2j * np.pi * (N @ z))
            for N in _truncation_lattice(Y, y, tol)
        ]
        terms.sort(key=abs)
        total = 0.0 + 0.0j
        for t in terms:
            total += t
    if not np.isfinite(total):
        raise ThetaConvergenceError("theta overflows: the truncated sum is not finite")
    return total, log_scale


def theta(z, B, tol: float = DEFAULT_TOL) -> complex:
    """Riemann theta value theta(z | B) by truncated ellipsoid summation.

    ``tol`` bounds the discarded tail relative to the largest retained
    term; halving it can change the result by at most the larger bound.
    Deterministic for fixed inputs.
    """
    value, _ = _theta_scaled(z, B, tol)
    return value


def theta_quasi_period_factor(z, B, k: int) -> complex:
    """Factor relating theta(z + B e_k) to theta(z).

    Contract: ``theta(z + B[:, k]) = factor * theta(z)`` with
    ``factor = exp(-pi i B_kk - 2 pi i z_k)``; ``k`` is 1-based, matching
    the cycle index.
    """
    B = validate_riemann_matrix(B)
    z = np.asarray(z, dtype=complex).reshape(-1)
    g = B.shape[0]
    if not 1 <= k <= g:
        raise IndexError(f"cycle index {k} out of range 1..{g}")
    j = k - 1
    return complex(np.exp(-1j * np.pi * B[j, j] - 2j * np.pi * z[j]))


def _as_vector(v, g: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (g,):
        raise InvalidSpectralDataError(f"{name} must be a {g}-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidSpectralDataError(f"{name} has non-finite entries")
    return v


@dataclass(frozen=True)
class JacobianSpectralData:
    """Jacobian-level spectral data for the theta wave function.

    Fields
    ------
    B : (g, g) complex
        Period matrix, symmetric with positive-definite imaginary part.
    A_gamma : (g, g) complex
        Abel images of the g pole-divisor points, one per row.
    K : (g,) complex
        Shift vector aligning the theta divisor with the pole divisor.
    Delta_P, Delta_Q : (g,) complex
        Abel-map increments of the two marked-point pairs; these shift the
        theta arguments by m Delta_P + n Delta_Q.

    The Abel map is based at the normalization point, whose image is the
    zero vector.  Exponential factors along integration paths are supplied
    by the caller per evaluation point (``exp_val`` of :func:`psi_theta`);
    consistency of that path with the Abel image is the caller's contract.
    """

    B: np.ndarray
    A_gamma: np.ndarray
    K: np.ndarray
    Delta_P: np.ndarray
    Delta_Q: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise InvalidSpectralDataError(f"tol must be in (0, inf), got {self.tol}")
        B = validate_riemann_matrix(self.B)
        g = B.shape[0]
        A_gamma = np.asarray(self.A_gamma, dtype=complex)
        if A_gamma.shape != (g, g):
            raise InvalidSpectralDataError(
                f"A_gamma must hold g = {g} vectors of length {g}, got shape {A_gamma.shape}"
            )
        if not np.all(np.isfinite(A_gamma)):
            raise InvalidSpectralDataError("A_gamma has non-finite entries")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "A_gamma", A_gamma)
        object.__setattr__(self, "K", _as_vector(self.K, g, "K"))
        object.__setattr__(self, "Delta_P", _as_vector(self.Delta_P, g, "Delta_P"))
        object.__setattr__(self, "Delta_Q", _as_vector(self.Delta_Q, g, "Delta_Q"))

    @property
    def g(self) -> int:
        return self.B.shape[0]

    @property
    def theta_shift(self) -> np.ndarray:
        """The common argument shift K - sum_k A(gamma_k)."""
        return self.K - self.A_gamma.sum(axis=0)


def psi_theta(
    data: JacobianSpectralData,
    A_gamma_pt,
    exp_val: complex,
    m: int,
    n: int,
) -> complex:
    """Theta-quotient wave function at a point with Abel image ``A_gamma_pt``.

    Evaluates

        exp_val * theta(A + m DP + n DQ + e) / theta(A + e)
                * theta(e) / theta(m DP + n DQ + e)

    with ``e`` the data's theta shift.  ``exp_val`` is the caller-computed
    exponential factor along a path consistent with ``A_gamma_pt``.  For
    m = n = 0 the quotients cancel pairwise and the value is ``exp_val``
    independently of everything else.
    """
    g = data.g
    A = _as_vector(A_gamma_pt, g, "A_gamma_pt")
    e = data.theta_shift
    shift = m * data.Delta_P + n * data.Delta_Q
    den1, log_scale1 = _theta_scaled(A + e, data.B, data.tol)
    den2, log_scale2 = _theta_scaled(shift + e, data.B, data.tol)
    for den, log_scale in ((den1, log_scale1), (den2, log_scale2)):
        # a value this far below the series scale is a divisor hit, not a
        # small number
        if not np.isfinite(den) or abs(den) <= 10.0 * data.tol * math.exp(log_scale):
            raise DivisorSingularityError("denominator theta vanishes on the divisor")
    num1 = theta(A + shift + e, data.B, data.tol)
    num2 = theta(e, data.B, data.tol)
    return complex(exp_val) * (num1 / den1) * (num2 / den2)


def monodromy_check(
    data: JacobianSpectralData,
    A_gamma_pt,
    exp_val: complex,
    m: int,
    n: int,
    M,
) -> float:
    """Residual of single-valuedness under a lattice change of path.

    Changing the path by b-cycles M multiplies the theta quotient by
    ``t = exp(-2 pi i <M, m Delta_P + n Delta_Q>)`` and the exponential
    factor by ``t**-1``; the product is unchanged.  Returns
    ``|psi(A + B M, exp_val / t) - psi(A, exp_val)|``.
    """
    g = data.g
    A = _as_vector(A_gamma_pt, g, "A_gamma_pt")
    M = np.asarray(M)
    if M.shape != (g,) or not np.issubdtype(M.dtype, np.integer):
        raise ValueError(f"M must be an integer {g}-vector")
    base = psi_theta(data, A, exp_val, m, n)
    t = complex(np.exp(-2j * np.pi * (M @ (m * data.Delta_P + n * data.Delta_Q))))
    moved = psi_theta(data, A + data.B @ M, complex(exp_val) / t, m, n)
    return abs(moved - base)


# ---------------------------------------------------------------------------
# JSON interchange.  Complex scalars are [re, im] pairs throughout.

def _cx_out(v: complex):
    return [float(np.real(v)), float(np.imag(v))]


def _cx_in(pair, name: str) -> complex:
    try:
        re, im = pair
        return complex(float(re), float(im))
    except (TypeError, ValueError) as exc:
        raise InvalidSpectralDataError(f"{name} entries must be [re, im] pairs") from exc


def save_jacobian_data(data: JacobianSpectralData, path: Union[str, Path]) -> None:
    """Write spectral data as the documented JSON object."""
    payload = {
        "g": data.g,
        "B": [[_cx_out(v) for v in row] for row in data.B],
        "K": [_cx_out(v) for v in data.K],
        "Delta_P": [_cx_out(v) for v in data.Delta_P],
        "Delta_Q": [_cx_out(v) for v in data.Delta_Q],
        "A_gamma": [[_cx_out(v) for v in row] for row in data.A_gamma],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_jacobian_data(path: Union[str, Path]) -> JacobianSpectralData:
    """Read spectral data from JSON, validating shape and matrix conditions.

    A file that cannot be read raises its ``OSError``; one that is not a
    JSON object raises :class:`InvalidSpectralDataError`.
    """
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpectralDataError(f"spectral data is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidSpectralDataError("spectral data is not a JSON object")
    required = {"g", "B", "K", "Delta_P", "Delta_Q", "A_gamma"}
    missing = required - payload.keys()
    if missing:
        raise InvalidSpectralDataError(f"missing fields: {sorted(missing)}")
    g = payload["g"]
    # bool is an int subclass, so "g": true would read as genus 1
    if isinstance(g, bool) or not isinstance(g, int) or g < 1:
        raise InvalidSpectralDataError("g must be a positive integer")
    try:
        B = np.array([[_cx_in(v, "B") for v in row] for row in payload["B"]])
        K = np.array([_cx_in(v, "K") for v in payload["K"]])
        dP = np.array([_cx_in(v, "Delta_P") for v in payload["Delta_P"]])
        dQ = np.array([_cx_in(v, "Delta_Q") for v in payload["Delta_Q"]])
        A_gamma = np.array([[_cx_in(v, "A_gamma") for v in row] for row in payload["A_gamma"]])
    except ValueError as exc:
        raise InvalidSpectralDataError(f"malformed arrays: {exc}") from exc
    if B.shape != (g, g):
        raise InvalidSpectralDataError(f"B must be {g} x {g}, got {B.shape}")
    try:
        return JacobianSpectralData(B=B, A_gamma=A_gamma, K=K, Delta_P=dP, Delta_Q=dQ)
    except ThetaConvergenceError as exc:
        raise InvalidSpectralDataError(str(exc)) from exc
