"""Exact-arithmetic toolkit for line configurations on smooth hypersurfaces in P^3.

Constructs the classical line arrangements (explicit cyclotomic
coordinates for Fermat hypersurfaces, abstract incidence profiles for the
rest), computes singular-locus statistics by exact pairwise intersection,
and evaluates linear Harbourne constants together with Miyaoka-type
negativity bounds, everything as exact rational numbers.
"""

__version__ = "0.1.0"

from .catalog import (
    Arrangement,
    IncidenceProfile,
    ProfileError,
    cubic_profile,
    fermat_lines,
    fermat_profile,
    max_lines_bound,
    on_surface,
    rams_profile,
    schur_profile,
)
from .exactnum import (
    ConductorMismatch,
    CycloNum,
    cyclotomic_polynomial,
    nth_roots_of_minus_one,
    zeta,
)
from .harbourne import (
    HarbourneReport,
    InapplicableDegree,
    UndefinedConstant,
    analyze_profile,
    bauer_search,
    extremal_profile_search,
    harbourne_linear,
    harbourne_lower_bound,
    miyaoka_check,
    strict_transform_sq,
    strict_transform_sq_lower,
)
from .incidence import (
    ScanResult,
    ScanStats,
    SingularPoint,
    incidence_count,
    profile_from_arrangement,
    scan_arrangement,
    valency_consistent,
)
from .projgeom import (
    ProjLine,
    ProjPoint,
    line_intersection,
    plucker_pairing,
    point_on_line,
)
from .serialize import SchemaError, load_custom_lines, load_custom_profile

__all__ = [
    "Arrangement",
    "ConductorMismatch",
    "CycloNum",
    "HarbourneReport",
    "InapplicableDegree",
    "IncidenceProfile",
    "ProfileError",
    "ProjLine",
    "ProjPoint",
    "ScanResult",
    "ScanStats",
    "SchemaError",
    "SingularPoint",
    "UndefinedConstant",
    "analyze_profile",
    "bauer_search",
    "cubic_profile",
    "cyclotomic_polynomial",
    "extremal_profile_search",
    "fermat_lines",
    "fermat_profile",
    "harbourne_linear",
    "harbourne_lower_bound",
    "incidence_count",
    "line_intersection",
    "load_custom_lines",
    "load_custom_profile",
    "max_lines_bound",
    "miyaoka_check",
    "nth_roots_of_minus_one",
    "on_surface",
    "plucker_pairing",
    "point_on_line",
    "profile_from_arrangement",
    "rams_profile",
    "scan_arrangement",
    "schur_profile",
    "strict_transform_sq",
    "strict_transform_sq_lower",
    "valency_consistent",
    "zeta",
]
