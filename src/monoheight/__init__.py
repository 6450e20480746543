"""Exact arithmetic dynamics of monomial maps on the multiplicative torus.

An integer matrix A with nonzero determinant acts on (Q*)^N by sending a
point to the tuple of monomials with exponent rows of A.  This package
computes, in exact or certified arithmetic: spectral data of A (dynamical
degree, Jordan block structure), Weil and canonical heights of orbits,
orbit finiteness verdicts, dynamical-degree enclosures for several commuting
or free generators, and explicit Baker-type lower bounds for the canonical
height of points with infinite orbit.
"""

from .errors import (
    BudgetError,
    IndistinguishableModuliError,
    InputError,
    MonoheightError,
    UnsupportedError,
)
from .precision import default_precision, mp, real_str
from .rationals import NegLogScalar, factor_rational
from .quadratic import Quad
from .logforms import LogLinear
from .polys import IntPoly, poly_str
from .matrices import (
    CertifiedReal,
    IntMatrix,
    charpoly,
    charpoly_factors,
    factor_over_q,
    modulus_profile,
    spectral_radius,
)
from .jordan import (
    JordanBasisData,
    JordanProfile,
    LimitMatrixB,
    jordan_basis,
    jordan_profile,
    limit_matrix_B,
)
from .points import (
    HeightValue,
    LogProfile,
    PointGm,
    eval_monomial,
    log_profile,
    weil_height,
    weil_height_of_point,
)
from .heights import (
    OrbitVerdict,
    TruncatedEstimate,
    canonical_height_closed,
    canonical_height_truncated,
    classify_orbit,
)
from .systems import (
    DynamicalDegree,
    GrowthTable,
    StarCertificate,
    SystemF,
    SystemReport,
    check_reduction,
    correction_exponent,
    dynamical_degree,
    growth_table,
    system_report,
)
from .scalars import h_mult_log_enclosure
from .baker import (
    BakerConstants,
    BakerInputs,
    baker_c11,
    effective_constants,
)

__version__ = "0.1.0"

__all__ = [
    "BakerConstants",
    "BakerInputs",
    "BudgetError",
    "CertifiedReal",
    "DynamicalDegree",
    "GrowthTable",
    "HeightValue",
    "IndistinguishableModuliError",
    "InputError",
    "IntMatrix",
    "IntPoly",
    "JordanBasisData",
    "JordanProfile",
    "LimitMatrixB",
    "LogLinear",
    "LogProfile",
    "MonoheightError",
    "NegLogScalar",
    "OrbitVerdict",
    "PointGm",
    "Quad",
    "StarCertificate",
    "SystemF",
    "SystemReport",
    "TruncatedEstimate",
    "UnsupportedError",
    "baker_c11",
    "canonical_height_closed",
    "canonical_height_truncated",
    "charpoly",
    "charpoly_factors",
    "check_reduction",
    "classify_orbit",
    "correction_exponent",
    "default_precision",
    "dynamical_degree",
    "effective_constants",
    "eval_monomial",
    "factor_over_q",
    "factor_rational",
    "growth_table",
    "h_mult_log_enclosure",
    "jordan_basis",
    "jordan_profile",
    "limit_matrix_B",
    "log_profile",
    "modulus_profile",
    "mp",
    "poly_str",
    "real_str",
    "spectral_radius",
    "system_report",
    "weil_height",
    "weil_height_of_point",
    "__version__",
]
