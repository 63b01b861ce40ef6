"""Green's functions of the five-point lattice Schroedinger operator.

The package evaluates lattice Green's functions as contour integrals of
wave-function differentials on a spectral surface: an exactly solvable
genus-zero backend on the Riemann sphere, quadrature and residue tooling
for oriented contours, a truncated Riemann theta engine for genus-g
spectral data supplied at Jacobian level, and a CLI for batch tables and
verification runs.
"""
from .lattice_core import (
    FiveptCoefficients,
    LatticeField,
    ParityError,
    SingularCoefficientError,
    WindowError,
    apply_L,
    check_four_point,
    coefficients_from_f,
    from_sublattice,
    to_sublattice,
)
from .contour_quadrature import (
    Contour,
    CurveComponent,
    PoleOnContourError,
    integrate,
    residue,
    split_at_sign_changes,
)
from .sphere_backend import (
    INFINITY,
    DegenerateContourError,
    PoleError,
    c_contour,
    default_kernel_contour,
    dp_m_coeff,
    dp_n_coeff,
    im_p_m,
    im_p_n,
    omega_coeff,
    psi,
    psi_dual,
    sigma,
    tau,
)
from .theta_engine import (
    DivisorSingularityError,
    InvalidSpectralDataError,
    JacobianSpectralData,
    ThetaConvergenceError,
    load_jacobian_data,
    monodromy_check,
    psi_theta,
    save_jacobian_data,
    theta,
    theta_quasi_period_factor,
)
from .green_function import (
    GreenTable,
    WaveDifferential,
    g0,
    green,
    green_table,
    growth_check,
    kernel_K,
    residue_lemma_P,
    residue_lemma_Q,
    verify_delta,
)

__version__ = "0.1.0"
