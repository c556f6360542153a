"""Exact dimensions of linear systems through points on a rational normal
curve.

The package computes h0 of the system of degree-d hypersurfaces in P^n
with assigned multiplicities m_1..m_s at s general points of a rational
normal curve, four ways:

  * formula.dimension: closed formula over special-effect join classes,
    with a full contribution report;
  * castelnuovo.recursive_h0: projection recursion down to few-point
    (s <= n+2) and n = 1 base cases;
  * formula.planar_h0 / formula.ldim: closed forms on their own domains
    (n = 2, and s <= n+2 points).  ldim repeats the recursion's few-point
    leaf, so there the two are not independent checks; planar_h0 is
    independent of the recursion, which projects plane systems to P^1;
  * oracle.h0: rank of the interpolation matrix, exact or modular; the
    ground truth the others are checked against.

The top level holds system, dimension, recursive_h0 and h0; everything
else is imported from its module (oracle.consistency_sweep runs every
evaluator over a parameter grid and reports agreement per instance).
"""

from .castelnuovo import recursive_h0
from .formula import dimension
from .oracle import h0
from .systems import system

__version__ = "0.1.0"

__all__ = ["dimension", "h0", "recursive_h0", "system", "__version__"]
