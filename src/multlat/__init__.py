"""Exact counting of multiplicative sublattices of Z^n.

A multiplicative sublattice is a subgroup of Z^n closed under the
coordinatewise product. The package enumerates them exhaustively (full rank
by index, arbitrary co-rank by torsion), counts the unital subrings among
them, and machine-checks that the co-rank census factors as a Stirling
number of the second kind times the full-rank count. All arithmetic is
exact; every closed-form count can be pitted against an independent
brute-force census.
"""

from .enumeration import (
    DEFAULT_BUDGET,
    ENGINE_VERSION,
    CountRecord,
    SearchBudgetExceeded,
    VerificationReport,
    count_corank_formula,
    count_full_rank,
    count_unital,
    decompose,
    enumerate_corank_oracle,
    enumerate_full_rank_multiplicative,
    find_counterexample,
    reconstruct_from_factorization,
    verify_corank_factorization,
)
from .intlinalg import hermite_normal_form
from .lattice import (
    Lattice,
    banded_basis,
    distinct_nonzero_columns,
    is_multiplicative,
    lattice_from_rows,
    torsion_size,
)
from .partitions import (
    AcceptableMap,
    SetPartition,
    apply_map,
    enumerate_ordered_maps,
    enumerate_partitions,
    is_ordered,
    map_from_string,
    map_to_partition,
    map_to_string,
    order_map,
    partition_to_map,
    stirling2,
)

__version__ = ENGINE_VERSION

__all__ = [
    "AcceptableMap",
    "CountRecord",
    "DEFAULT_BUDGET",
    "ENGINE_VERSION",
    "Lattice",
    "SearchBudgetExceeded",
    "SetPartition",
    "VerificationReport",
    "apply_map",
    "banded_basis",
    "count_corank_formula",
    "count_full_rank",
    "count_unital",
    "decompose",
    "distinct_nonzero_columns",
    "enumerate_corank_oracle",
    "enumerate_full_rank_multiplicative",
    "enumerate_ordered_maps",
    "enumerate_partitions",
    "find_counterexample",
    "hermite_normal_form",
    "is_multiplicative",
    "is_ordered",
    "lattice_from_rows",
    "map_from_string",
    "map_to_partition",
    "map_to_string",
    "order_map",
    "partition_to_map",
    "reconstruct_from_factorization",
    "stirling2",
    "torsion_size",
    "verify_corank_factorization",
]
