"""Exact counting of multiplicative sublattices of Z^n.

A multiplicative sublattice is a subgroup of Z^n closed under the
coordinatewise product. The package enumerates them exhaustively (full rank
by index, arbitrary co-rank by torsion), counts the unital subrings among
them, and machine-checks, in exact arithmetic against a brute-force census,
that the co-rank census factors as a Stirling number of the second kind
times the full-rank count.

Importing the package loads none of its modules: every exported name but
ENGINE_VERSION is imported from its defining module on first use (PEP 562).
"""

from importlib import import_module

ENGINE_VERSION = "0.3.0"

__version__ = ENGINE_VERSION

# defining module -> the names the package root exports from it
_EXPORTS = {
    "cache": ("CountRecord",),
    "enumeration": (
        "VerificationReport",
        "count_corank_formula",
        "count_full_rank",
        "count_unital",
        "decompose",
        "enumerate_corank_oracle",
        "enumerate_full_rank_multiplicative",
        "verify_corank_factorization",
    ),
    "intlinalg": ("hermite_normal_form",),
    "lattice": (
        "Lattice",
        "banded_basis",
        "is_multiplicative",
        "lattice_from_rows",
        "torsion_size",
    ),
    "partitions": (
        "AcceptableMap",
        "apply_map",
        "enumerate_ordered_maps",
        "map_to_partition",
        "map_to_string",
        "stirling2",
    ),
    "scan": ("DEFAULT_BUDGET", "SearchBudgetExceeded"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(["ENGINE_VERSION", *_MODULE_OF])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
