"""Lattice Green's functions from contour integrals of wave differentials.

Everything is built from the differential

    omega_tilde(z; m, n, mt, nt) = psi(z, m, n) * psi_dual(z, mt, nt) * Omega
                                 = psi(z, m - mt, n - nt) * Omega

integrated over C-contours; it depends only on the offset from the target,
so values are computed over offsets.  The kernel ``K = contour integral of
omega_tilde`` is annihilated by the five-point operator L in (mu, nu) and
vanishes whenever mu - nu = mt - nt.  From it,

    g0 = sgn((mu - nu) - (mt - nt)) * K / (4 pi)

solves L g0 = delta for any C-contour, and the normalized function

    green(lam) = 1/(4 pi) * integral over C_lam of
                 [sgn(m - mt) + sgn(im_p_m(lam) - im_p_m(z))] * omega_tilde

keeps the delta property while growing no faster than
``exp((mu - mt) im_p_mu(lam) + (nu - nt) im_p_nu(lam))`` with
im_p_mu = im_p_n + im_p_m and im_p_nu = im_p_n - im_p_m (for almost every
lam; levels through the marked points are deformed, see the backend).

The sign convention is sgn(0) = 0 throughout: sign changes happen on a
measure-zero subset of the contour and the weighted integrand is taken
pointwise.  Numerically the contour is split where the weight changes sign
(two points known in closed form), so each arc carries an analytic
integrand and a constant sign s_arc.  Per arc a whole window is one matrix
product of power tables of psi (see :func:`_arc_products`); the weight is
applied per arc and per entry, never as sgn * K + Z from arc sums, since
the weight is exactly 0 on one arc and the K + Z form cancels digits there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .contour_quadrature import (
    DEFAULT_NODES,
    QUAD_REAL,
    Contour,
    PoleOnContourError,
    residue,
    sample_rule,
    split_at_sign_changes,
)
from .lattice_core import LatticeField, apply_L, coefficients_from_f, from_sublattice
from .sphere_backend import (
    DEFAULT_KERNEL_RADIUS,
    P_PLUS,
    Q_PLUS,
    Level,
    SpherePoint,
    default_kernel_contour,
    f,
    im_p_m,
    im_p_m_crossings,
    im_p_n,
    level,
    level_circle_contour,
    omega_coeff,
    psi,
    psi_power_tables,
)

__all__ = [
    "WaveDifferential",
    "GreenTable",
    "kernel_K",
    "g0",
    "green",
    "green_table",
    "verify_delta",
    "growth_check",
    "residue_lemma_Q",
    "residue_lemma_P",
]

FOUR_PI = 4.0 * math.pi
# half the distance from Q+ = i and from P+ = 1 to their nearest marked point, R- = 0
_RESIDUE_RADIUS = 0.5

Bounds = Tuple[Tuple[int, int], Tuple[int, int]]
Window = Union[int, Bounds]


@dataclass(frozen=True)
class WaveDifferential:
    """The differential psi(z, m, n) psi_dual(z, mt, nt) Omega = psi(z, m - mt, n - nt) Omega."""

    m: int
    n: int
    m_t: int
    n_t: int

    @classmethod
    def from_sublattice(cls, mu: int, nu: int, mu_t: int, nu_t: int):
        m, n = from_sublattice(mu, nu)
        mt, nt = from_sublattice(mu_t, nu_t)
        return cls(m, n, mt, nt)

    def __call__(self, z):
        return psi(z, self.m - self.m_t, self.n - self.n_t) * omega_coeff(z)


def _window_bounds(window: Window, target: Tuple[int, int]) -> Bounds:
    if isinstance(window, int):
        if window < 0:
            raise ValueError("window half-size must be nonnegative")
        mu_t, nu_t = target
        return (mu_t - window, mu_t + window), (nu_t - window, nu_t + window)
    (mu_lo, mu_hi), (nu_lo, nu_hi) = window
    if mu_lo > mu_hi or nu_lo > nu_hi:
        raise ValueError("empty window")
    return (int(mu_lo), int(mu_hi)), (int(nu_lo), int(nu_hi))


def _offsets(bounds: Bounds, target: Tuple[int, int]) -> Bounds:
    """A window relative to its target: (mu - mu_t, nu - nu_t) ranges."""
    (mu_lo, mu_hi), (nu_lo, nu_hi) = bounds
    mu_t, nu_t = target
    return (mu_lo - mu_t, mu_hi - mu_t), (nu_lo - nu_t, nu_hi - nu_t)


def _point(dmu: int, dnu: int) -> Bounds:
    return (dmu, dmu), (dnu, dnu)


def _arc_products(contour: Contour, offsets: Bounds, nested: bool = False) -> List[np.ndarray]:
    """Per component, the integrals of the wave differential over offsets.

    ``P[r, i, j]`` is the integral along the component (orientation included) of psi(z, dm, dn)
    Omega at the offset (dmu_lo + i, dnu_lo + j), dm = dmu - dnu, dn = dmu + dnu, in extended
    precision: by the rule (r = 0) and, if ``nested``, by its half rule on the nodes [1::2] (r = 1).
    ``base`` = Omega * dz/dt is sampled once per component; with psi = U**dmu V**dnu, ``P[0] =
    np.inner(Up * base * w, Vp)``.  A point is 1 x 1.  numpy has no BLAS for clongdouble; its dot
    kernel (np.inner) adds the same sum in the same order as matmul's fallback loop, at half the cost.
    """
    products = []
    for z, dz, w, w_half in sample_rule(contour):
        base = omega_coeff(z) * dz
        up, vp = psi_power_tables(z, *offsets)
        halves = [np.inner(up[:, 1::2] * (base[1::2] * w_half), vp[:, 1::2])] if nested else []
        up *= base * w
        products.append(np.stack([np.inner(up, vp), *halves]))
        # free this component's tables before the next one builds its own
        del up, vp
        if not np.all(np.isfinite(products[-1])):
            raise PoleOnContourError("non-finite integrand sample on the contour")
    return products


def _sign_m(offsets: Bounds) -> np.ndarray:
    """sgn(m - m_t) over the offsets, m - m_t = (mu - mu_t) - (nu - nu_t)."""
    (dmu_lo, dmu_hi), (dnu_lo, dnu_hi) = offsets
    dmu = np.arange(dmu_lo, dmu_hi + 1)[:, None]
    dnu = np.arange(dnu_lo, dnu_hi + 1)[None, :]
    return np.sign(dmu - dnu)


def _green_values(lv: Level, offsets: Bounds, nodes: int, nested: bool = False) -> np.ndarray:
    # the level circle cut where sgn(h - im_p_m(z)) flips, and that sign on each arc
    split = split_at_sign_changes(level_circle_contour(lv.r, nodes), im_p_m_crossings(lv.r, lv.h))
    mid = np.array([0.5], dtype=QUAD_REAL)
    signs = [float(np.sign(lv.h - im_p_m(comp.point(mid))[0])) for comp in split.components]
    dm = _sign_m(offsets)
    products = _arc_products(split, offsets, nested)
    total = sum((dm + s) * p for s, p in zip(signs, products))
    return (total / FOUR_PI).astype(complex)


def _g0_values(contour: Contour, offsets: Bounds, nested: bool = False) -> np.ndarray:
    total = _sign_m(offsets) * sum(_arc_products(contour, offsets, nested))
    return (total / FOUR_PI).astype(complex)


def kernel_K(contour: Contour, mu: int, nu: int, mu_t: int, nu_t: int) -> complex:
    """Kernel K: the contour integral of the wave differential.

    Vanishes on the diagonal sublattice mu - nu = mu_t - nu_t and is
    annihilated by the five-point operator in (mu, nu).
    """
    return complex(sum(_arc_products(contour, _point(mu - mu_t, nu - nu_t)))[0, 0, 0])


def g0(contour: Contour, mu: int, nu: int, mu_t: int, nu_t: int) -> complex:
    """Unnormalized Green's function sgn(m - mt) K / (4 pi) on the contour."""
    return complex(_g0_values(contour, _point(mu - mu_t, nu - nu_t))[0, 0, 0])


def green(
    lam: SpherePoint,
    mu: int,
    nu: int,
    mu_t: int,
    nu_t: int,
    nodes: int = DEFAULT_NODES,
) -> complex:
    """Normalized Green's function at lambda by direct weighted quadrature."""
    values = _green_values(level(lam), _point(mu - mu_t, nu - nu_t), nodes)
    return complex(values[0, 0, 0])


@dataclass(eq=False, kw_only=True)
class GreenTable(LatticeField):
    """Computed Green's-function values over a lattice window.

    A :class:`LatticeField` over (mu, nu) for the fixed target
    (mu_t, nu_t): ``values[mu - mu_lo, nu - nu_lo]`` with ``mu_range =
    (mu_lo, mu_hi)`` and ``nu_range = (nu_lo, nu_hi)``.  ``metadata``
    records lambda, node counts, the contour and, when requested, the
    relative node-halving error estimate ``est_error`` (see green_table).
    """

    target: Tuple[int, int]
    metadata: Dict = field(default_factory=dict)

    @property
    def mu_range(self) -> Tuple[int, int]:
        return self.i_range

    @property
    def nu_range(self) -> Tuple[int, int]:
        return self.j_range

    def rows(self) -> List[Tuple[int, int, int, int, float, float]]:
        mu_t, nu_t = self.target
        mu_lo, nu_lo = self.mu_range[0], self.nu_range[0]
        out = []
        for i, (re_row, im_row) in enumerate(zip(self.values.real.tolist(), self.values.imag.tolist())):
            for j, (re, im) in enumerate(zip(re_row, im_row)):
                out.append((mu_lo + i, nu_lo + j, mu_t, nu_t, re, im))
        return out

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["mu", "nu", "mu_t", "nu_t", "re", "im"])
            for row in self.rows():
                writer.writerow([row[0], row[1], row[2], row[3], repr(row[4]), repr(row[5])])

    def write_json(self, path) -> None:
        import json

        payload = {
            "metadata": self.metadata,
            "target": list(self.target),
            "mu_range": list(self.mu_range),
            "nu_range": list(self.nu_range),
            "values": [
                {"mu": r[0], "nu": r[1], "mu_t": r[2], "nu_t": r[3], "re": r[4], "im": r[5]}
                for r in self.rows()
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _lambda_meta(lam: Optional[SpherePoint]) -> Dict:
    if lam is None:
        return {"lambda": None}
    try:
        z = complex(lam)
    except TypeError:
        return {"lambda": "inf"}
    return {"lambda_re": z.real, "lambda_im": z.imag}


def green_table(
    window: Window,
    target: Tuple[int, int] = (0, 0),
    lam: Optional[SpherePoint] = None,
    kind: str = "green",
    nodes: int = DEFAULT_NODES,
    error_estimate: bool = False,
) -> GreenTable:
    """Tabulate g0 or the normalized green over a rectangular window.

    ``window`` is either a half-size (centered at the target) or explicit
    ((mu_lo, mu_hi), (nu_lo, nu_hi)) bounds.  For kind="g0", C_lambda is
    used when lam is given and the default separating contour otherwise.
    Tables for two targets agree bit for bit over the same offsets.
    ``error_estimate`` stores ``est_error`` = max|G_N - G_{N/2}| / max|G_N|
    (0 for an all-zero table), with G_{N/2} from the nested half rules on
    the same samples.  ``nodes`` must be even.
    """
    if kind not in ("green", "g0"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "green" and lam is None:
        raise ValueError("normalized green needs lambda")
    bounds = _window_bounds(window, target)
    offsets = _offsets(bounds, target)
    if lam is None:
        values, *coarse = _g0_values(default_kernel_contour(nodes), offsets, error_estimate)
        contour_info = {"chart_radius": DEFAULT_KERNEL_RADIUS, "default_kernel": True}
    else:
        lv = level(lam)
        if kind == "green":
            values, *coarse = _green_values(lv, offsets, nodes, error_estimate)
        else:
            values, *coarse = _g0_values(level_circle_contour(lv.r, nodes), offsets, error_estimate)
        contour_info = {"chart_radius": float(lv.r), "deformed": lv.deformed}
    meta: Dict = {"kind": kind, "nodes": nodes, "contour": contour_info}
    meta.update(_lambda_meta(lam))
    if error_estimate:
        scale = np.max(np.abs(values))
        meta["est_error"] = float(np.max(np.abs(values - coarse[0])) / scale) if scale > 0 else 0.0
    return GreenTable(bounds[0], bounds[1], values, target=tuple(target), metadata=meta)


def verify_delta(
    lam: SpherePoint,
    window: Window,
    nodes: int = DEFAULT_NODES,
    kind: str = "green",
) -> float:
    """Max over the window of |L G - delta| for G at lambda, target (0, 0).

    The table is computed on a window enlarged by one so the stencil stays
    inside; L is applied at every point of the requested window.  Tables
    are translation-invariant, so the target is fixed at the origin.
    """
    (mu_lo, mu_hi), (nu_lo, nu_hi) = _window_bounds(window, (0, 0))
    table = green_table(
        ((mu_lo - 1, mu_hi + 1), (nu_lo - 1, nu_hi + 1)), lam=lam, kind=kind, nodes=nodes
    )
    lg = apply_L(table, f)
    if lg.contains(0, 0):
        lg[(0, 0)] -= 1
    return float(np.max(np.abs(lg.values)))


def growth_check(
    lam: SpherePoint,
    window: Window,
    nodes: int = DEFAULT_NODES,
    kind: str = "green",
) -> float:
    """Fit the growth-bound constant over a window, target (0, 0).

    Returns the max over the window of |G| / exp(mu rate_mu + nu rate_nu)
    with rate_mu = im_p_n(lam) + im_p_m(lam) and rate_nu = im_p_n(lam) -
    im_p_m(lam).  For the normalized green the fit stabilizes as the
    window grows; the bare g0 has no such bound and the fit diverges with
    the window size.
    """
    rate_mu = im_p_n(lam) + im_p_m(lam)
    rate_nu = im_p_n(lam) - im_p_m(lam)
    table = green_table(window, lam=lam, kind=kind, nodes=nodes)
    (mu_lo, mu_hi), (nu_lo, nu_hi) = table.mu_range, table.nu_range
    d_mu = np.arange(mu_lo, mu_hi + 1)[:, None]
    d_nu = np.arange(nu_lo, nu_hi + 1)[None, :]
    ratio = np.abs(table.values) / np.exp(d_mu * rate_mu + d_nu * rate_nu)
    return float(ratio.max())


def residue_lemma_Q(mu: int, nu: int) -> complex:
    """Residue at Q+ of a[mu, nu] * omega_tilde(mu+1, nu; mu, nu); expected i."""
    a = coefficients_from_f(f, mu, nu).a_right
    ev = WaveDifferential.from_sublattice(mu + 1, nu, mu, nu)
    return residue(lambda z: a * ev(z), Q_PLUS, _RESIDUE_RADIUS)


def residue_lemma_P(mu: int, nu: int, mu_t: int, nu_t: int) -> float:
    """Residual of the P+ cancellation on the diagonal sublattice.

    For mu - nu = mu_t - nu_t the residues at P+ of
    a[mu, nu] omega_tilde(mu+1, nu; mu_t, nu_t) and
    b[mu, nu-1] omega_tilde(mu, nu-1; mu_t, nu_t) cancel; returns the
    modulus of their sum.  Violating the hypothesis is a contract error.
    """
    if mu - nu != mu_t - nu_t:
        raise ValueError(
            f"diagonal hypothesis violated: mu - nu = {mu - nu} but "
            f"mu_t - nu_t = {mu_t - nu_t}"
        )
    co = coefficients_from_f(f, mu, nu)
    ev1 = WaveDifferential.from_sublattice(mu + 1, nu, mu_t, nu_t)
    ev2 = WaveDifferential.from_sublattice(mu, nu - 1, mu_t, nu_t)
    total = residue(lambda z: co.a_right * ev1(z) + co.b_down * ev2(z), P_PLUS, _RESIDUE_RADIUS)
    return abs(total)
