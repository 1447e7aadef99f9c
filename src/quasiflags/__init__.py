"""Coroot partition combinatorics and finite-field fiber counting for SL(n).

The library has two independent halves. The combinatorial half enumerates
partitions of degree vectors into positive coroots, transforms them through
the mu/nu triangle calculus, assembles Kostant q-analogue polynomials and
the stratification atlas with its smallness and IC stalk reports. The
oracle half rebuilds the same numbers from scratch by enumerating actual
chains of F_q[z] lattices and counting points; verify_against_kostant
confronts the two.
"""

from .kostant import IntPolynomial, fiber_poincare, kostant_poly
from .limits import Caps, CapExceededError, DEFAULT_CAPS
from .oracle import (
    FiberCount,
    FlagChain,
    Lattice,
    OracleReport,
    contains,
    coordinate_intersection,
    enumerate_fiber_chains,
    enumerate_lattices,
    fiber_point_count,
    mu_invariants,
    verify_against_kostant,
)
from .partitions import (
    GammaPartition,
    KappaPartition,
    NotInMError,
    Triangle,
    gamma_partitions,
    kappa_partitions,
    kappa_to_nu,
    mu_to_kappa,
    mu_triangles,
    nu_to_mu,
    stratum_dim,
)
from .roots import (
    GammaVec,
    Interval,
    flag_dim,
    gamma_as_coroot,
    interval_to_gamma,
    pairing,
    positive_coroots,
)
from .strata import (
    ICStalkTable,
    SmallnessReport,
    StalkEntry,
    StratumRecord,
    enumerate_strata,
    ic_stalk_table,
    moduli_dim,
    parity_check,
    smallness_report,
)

__version__ = "0.1.0"

__all__ = [
    "Caps",
    "CapExceededError",
    "DEFAULT_CAPS",
    "FiberCount",
    "FlagChain",
    "GammaPartition",
    "GammaVec",
    "ICStalkTable",
    "IntPolynomial",
    "Interval",
    "KappaPartition",
    "Lattice",
    "NotInMError",
    "OracleReport",
    "SmallnessReport",
    "StalkEntry",
    "StratumRecord",
    "Triangle",
    "contains",
    "coordinate_intersection",
    "enumerate_fiber_chains",
    "enumerate_lattices",
    "enumerate_strata",
    "fiber_point_count",
    "fiber_poincare",
    "flag_dim",
    "gamma_as_coroot",
    "gamma_partitions",
    "ic_stalk_table",
    "interval_to_gamma",
    "kappa_partitions",
    "kappa_to_nu",
    "kostant_poly",
    "moduli_dim",
    "mu_invariants",
    "mu_to_kappa",
    "mu_triangles",
    "nu_to_mu",
    "pairing",
    "parity_check",
    "positive_coroots",
    "smallness_report",
    "stratum_dim",
    "verify_against_kostant",
]
