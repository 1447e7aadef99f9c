"""Coroot partition combinatorics and finite-field fiber counting for SL(n).

The library has two independent halves. The combinatorial half enumerates
partitions of degree vectors into positive coroots, transforms them through
the mu/nu triangle calculus, assembles Kostant q-analogue polynomials and
the stratification atlas with its smallness and IC stalk reports. The
oracle half rebuilds the same numbers from scratch by enumerating actual
chains of F_q[z] lattices and counting points; verify_against_kostant
confronts the two.

`import quasiflags` imports no submodule. A public name or a submodule name
is looked up in _EXPORTS each time it is read, and its module is imported
on first use.
"""

import sys

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "kostant": ("IntPolynomial", "fiber_poincare", "kostant_poly"),
    "limits": ("Caps", "CapExceededError", "DEFAULT_CAPS"),
    "oracle": (
        "FiberCount", "FlagChain", "Lattice", "OracleReport", "contains", "coordinate_intersection",
        "enumerate_fiber_chains", "enumerate_lattices", "fiber_point_count", "mu_invariants",
        "verify_against_kostant",
    ),
    "partitions": (
        "GammaPartition", "KappaPartition", "NotInMError", "Triangle", "gamma_partitions",
        "kappa_partitions", "kappa_to_nu", "mu_to_kappa", "mu_triangles", "nu_to_mu", "stratum_dim",
    ),
    "roots": (
        "GammaVec", "Interval", "flag_dim", "gamma_as_coroot", "interval_to_gamma", "pairing",
        "positive_coroots",
    ),
    "strata": (
        "ICStalkTable", "SmallnessReport", "StalkEntry", "StratumRecord", "enumerate_strata",
        "ic_stalk_table", "moduli_dim", "parity_check", "smallness_report",
    ),
    "gfpoly": (),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    # not cached in the package namespace, so a patched module attribute is what callers see
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime logs (importlib.import_module's is not)
    __import__(f"{__name__}.{module}")
    owner = sys.modules[f"{__name__}.{module}"]
    return owner if module == name else getattr(owner, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_OWNER})
