"""Bound states of the exponential potential well, solved two ways.

The analytic route turns the radial equation into a first-order difference
equation via the Mellin transform, solves it with Gamma functions, and
matches the result to the Mellin pair of a Bessel function; bound states
are the orders nu > 0 with J_nu(2 gamma / beta) = 0.  Independent Numerov
and finite-difference oracles cross-check every spectrum.
"""

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    ExpwellError,
    GammaOverflowError,
    GridTooCoarseError,
    ParameterMismatchError,
    PoleError,
    QuadratureError,
)
from .mellin import (
    MatchedParameters,
    MellinEstimate,
    MellinPoint,
    QuadratureConfig,
    g_closed,
    g_iterate,
    match_parameters,
    matching_table,
    mellin_bessel_closed,
    mellin_bessel_sqrt,
    mellin_numeric,
)
from .oracle import (
    OracleSpectrum,
    RadialGrid,
    default_grid,
    fd_spectrum,
    numerov_mismatch,
    numerov_spectrum,
    ode_residual,
)
from .solver import (
    BoundState,
    PotentialParams,
    SpectrumResult,
    WavefunctionTable,
    compute_spectrum,
    make_params,
    normalize,
    r_of_x,
    spectrum,
    wavefunction,
    wavefunction_table,
    x_of_r,
)
from .specfun import (
    BESSEL_NU_MAX,
    BESSEL_Z_MAX,
    GAMMA_OVERFLOW,
    OrderZeroList,
    bessel_j,
    bessel_j_dnu,
    digamma,
    find_nu_zeros,
    gamma,
    rgamma,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_CONFIG",
    "SolverConfig",
    "QuadratureConfig",
    "ExpwellError",
    "DomainError",
    "PoleError",
    "GammaOverflowError",
    "QuadratureError",
    "DivergenceError",
    "ParameterMismatchError",
    "GridTooCoarseError",
    "ConvergenceError",
    "gamma",
    "rgamma",
    "digamma",
    "bessel_j",
    "bessel_j_dnu",
    "find_nu_zeros",
    "OrderZeroList",
    "GAMMA_OVERFLOW",
    "BESSEL_NU_MAX",
    "BESSEL_Z_MAX",
    "MellinPoint",
    "MellinEstimate",
    "MatchedParameters",
    "mellin_numeric",
    "g_iterate",
    "g_closed",
    "mellin_bessel_closed",
    "mellin_bessel_sqrt",
    "match_parameters",
    "matching_table",
    "PotentialParams",
    "BoundState",
    "WavefunctionTable",
    "SpectrumResult",
    "make_params",
    "x_of_r",
    "r_of_x",
    "spectrum",
    "compute_spectrum",
    "wavefunction",
    "wavefunction_table",
    "normalize",
    "RadialGrid",
    "OracleSpectrum",
    "default_grid",
    "numerov_mismatch",
    "numerov_spectrum",
    "fd_spectrum",
    "ode_residual",
]
