"""Exact counting of multiplicative sublattices of Z^n.

A multiplicative sublattice is a subgroup of Z^n closed under the
coordinatewise product. The package enumerates them exhaustively (full rank
by index, arbitrary co-rank by torsion), counts the unital subrings among
them, and machine-checks that the co-rank census factors as a Stirling
number of the second kind times the full-rank count. All arithmetic is
exact; every closed-form count can be pitted against an independent
brute-force census.

Importing the package loads none of its modules. ENGINE_VERSION is defined
here; every other exported name is imported from its defining module on
first use (PEP 562), so a command line run whose counts all come from the
cache never loads the engines.
"""

from importlib import import_module

ENGINE_VERSION = "0.3.0"

__version__ = ENGINE_VERSION

# defining module -> the names the package root exports from it
_EXPORTS = {
    "cache": ("CountRecord",),
    "enumeration": (
        "DEFAULT_BUDGET",
        "SearchBudgetExceeded",
        "VerificationReport",
        "count_corank_formula",
        "count_full_rank",
        "count_unital",
        "decompose",
        "enumerate_corank_oracle",
        "enumerate_full_rank_multiplicative",
        "find_counterexample",
        "reconstruct_from_factorization",
        "verify_corank_factorization",
    ),
    "intlinalg": ("hermite_normal_form",),
    "lattice": (
        "Lattice",
        "banded_basis",
        "distinct_nonzero_columns",
        "is_multiplicative",
        "lattice_from_rows",
        "torsion_size",
    ),
    "partitions": (
        "AcceptableMap",
        "SetPartition",
        "apply_map",
        "enumerate_ordered_maps",
        "enumerate_partitions",
        "is_ordered",
        "map_from_string",
        "map_to_partition",
        "map_to_string",
        "order_map",
        "partition_to_map",
        "stirling2",
    ),
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
