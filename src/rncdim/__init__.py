"""Exact dimensions of linear systems through points on a rational normal
curve.

The package computes h0 of the system of degree-d hypersurfaces in P^n
with assigned multiplicities m_1..m_s at s general points of a rational
normal curve, four independent ways:

  * formula.dimension: closed formula over special-effect join classes,
    with a full contribution report;
  * castelnuovo.recursive_h0: projection recursion down to planar and
    few-point base cases;
  * formula.planar_h0 / formula.ldim: closed forms on their own domains
    (n = 2, and s <= n+2 points);
  * oracle.h0: rank of the interpolation matrix, exact or modular; the
    ground truth the others are checked against.

consistency_sweep runs all of them over a parameter grid and reports
agreement per instance.
"""

from .binomials import binom, f, identity_suite
from .castelnuovo import (
    RecState,
    RecStats,
    RecursionGuardError,
    l_map,
    recursive_h0,
)
from .formula import (
    ContributionRecord,
    DimensionReport,
    JoinClass,
    dimension,
    double_points_h1,
    double_points_h1_f1,
    enumerate_join_classes,
    ldim,
    ldim_sum,
    planar_g,
    planar_h0,
    planar_nef,
    planar_reduction_steps,
    regularity_index,
)
from .oracle import (
    OracleResult,
    OracleSizeError,
    SweepGrid,
    conditions_matrix,
    consistency_sweep,
    h0,
    rank_exact,
    rank_modular,
)
from .systems import (
    LinearSystemSpec,
    NormalizedSystem,
    TraceStep,
    epsilon_value,
    expected_dim,
    kc_value,
    normalize,
    system,
    vdim,
)

__version__ = "0.1.0"

__all__ = [
    "binom",
    "f",
    "identity_suite",
    "LinearSystemSpec",
    "NormalizedSystem",
    "TraceStep",
    "system",
    "normalize",
    "vdim",
    "expected_dim",
    "kc_value",
    "epsilon_value",
    "JoinClass",
    "ContributionRecord",
    "DimensionReport",
    "enumerate_join_classes",
    "dimension",
    "ldim",
    "ldim_sum",
    "planar_g",
    "planar_h0",
    "planar_nef",
    "planar_reduction_steps",
    "regularity_index",
    "double_points_h1",
    "double_points_h1_f1",
    "l_map",
    "recursive_h0",
    "RecState",
    "RecStats",
    "RecursionGuardError",
    "h0",
    "OracleResult",
    "OracleSizeError",
    "conditions_matrix",
    "rank_exact",
    "rank_modular",
    "SweepGrid",
    "consistency_sweep",
    "__version__",
]
