"""A catalogue of text mutants of the package, and a runner that checks the
suite kills each one.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants only

A mutant replaces one piece of text, which occurs exactly once in src/, by
a faulty version. The runner copies the checkout to a temporary directory
once, runs the union of the mutants' tests there on the clean copy (they
must pass, or no kill means anything), then applies one mutant at a time
and runs each of its tests in a pytest process of its own, one process at
a time, restoring the file afterwards. The mutant is killed when one of
them fails, and each that still passes against it is printed, so a named
test that no longer kills its mutant shows. A mutant whose tests all pass
gets the whole suite; if that passes too, the mutant survived. Each line
is flushed as it is printed, so a run redirected to a file and cut short
keeps every verdict it reached. The last line is `killed K of N`; the
exit status is 0 when every mutant was killed by its own tests, 1
otherwise. Standard library only; the suite's own
`tests/test_mutant_catalogue.py` checks the catalogue's texts and test
names without running any mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# one pytest run, named tests or the whole suite, ends well inside this
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = (
    Mutant(
        "order-check-always-trusts", "src/multlat/partitions.py",
        "    if _is_ordered(assignment):\n",
        "    if True:\n",
        ("tests/test_partitions.py::"
         "test_apply_map_unordered_equals_hermite_form_of_image",)),
    Mutant(
        "order-check-stops-after-three-labels", "src/multlat/partitions.py",
        "    for a in assignment:\n        if a > top:\n",
        "    for a in assignment:\n"
        "        if top == 3 and len(assignment) > 4:\n"
        "            return True\n"
        "        if a > top:\n",
        ("tests/test_partitions.py::"
         "test_apply_map_reads_the_order_of_every_label",)),
    Mutant(
        "scan-skips-x1-at-pivot-2-from-ambient-7", "src/multlat/scan.py",
        "        for x in range(p):\n",
        "        for x in range(p):\n"
        "            if p == 2 and x == 1 and ambient >= 7:\n"
        "                continue\n",
        ("tests/test_frontier.py", "tests/test_irreducible_blocks.py")),
    Mutant(
        "scan-skips-x1-at-pivot-2-from-ambient-10",
        "src/multlat/scan.py",
        "        for x in range(p):\n",
        "        for x in range(p):\n"
        "            if p == 2 and x == 1 and ambient >= 10:\n"
        "                continue\n",
        ("tests/test_ambient_axis.py::"
         "test_every_cell_of_the_ambient_axis_block_passes",)),
    Mutant(
        "scan-takes-one-off-pivot-root", "src/multlat/scan.py",
        "for x in ((d - s) // 2, (d + s) // 2) if s else (d // 2,):",
        "for x in ((d + s) // 2,):",
        ("tests/test_enumeration.py::"
         "test_corank_scan_matches_unpruned_reference",)),
    Mutant(
        "scan-drops-the-pivot-multiple", "src/multlat/scan.py",
        "fill(j + 1, d, [a + m * b for a, b in zip(acc, row)]\n"
        "                     if m else acc, moved)",
        "fill(j + 1, d, acc, moved)",
        ("tests/test_enumeration.py::"
         "test_full_rank_engine_matches_unpruned_reference",
         "tests/test_full_rank_census.py")),
    Mutant(
        "scan-skips-a-product-test-at-a-pivot", "src/multlat/scan.py",
        "                    if m % p:\n",
        "                    if m % p and u is not tested[0]:\n",
        ("tests/test_enumeration.py::"
         "test_corank_scan_matches_unpruned_reference",
         "tests/test_enumeration.py::"
         "test_full_rank_engine_matches_unpruned_reference")),
    Mutant(
        "scan-skips-a-product-test-off-a-pivot", "src/multlat/scan.py",
        "                        if u[j] * x != a[j]:\n",
        "                        if u[j] * x != a[j]"
        " and u is not tested[0]:\n",
        ("tests/test_enumeration.py::"
         "test_corank_scan_matches_unpruned_reference",
         "tests/test_enumeration.py::"
         "test_corank_scan_matches_unpruned_reference_at_wider_bound")),
    Mutant(
        "in-span-ignores-the-last-column", "src/multlat/intlinalg.py",
        "    return None if any(w) else tuple(coeffs)\n",
        "    return None if any(w[:-1]) else tuple(coeffs)\n",
        ("tests/test_intlinalg.py",)),
    Mutant(
        "solve-stores-no-coefficient", "src/multlat/intlinalg.py",
        "            q = coeffs[i] = x // d\n",
        "            q = x // d\n",
        ("tests/test_intlinalg.py::"
         "test_solve_agrees_with_reference_membership",)),
    Mutant(
        "place-drops-reapplication-check", "src/multlat/enumeration.py",
        "and {*map(len, basis)} <= {ambient} else None)",
        "and True else None)",
        ("tests/test_cli.py::test_a_bad_census_basis_exits_three",)),
    Mutant(
        "place-skips-the-row-count", "src/multlat/enumeration.py",
        "(cores.get(key) if len(basis) == rank\n",
        "(cores.get(key) if True\n",
        ("tests/test_enumeration.py::"
         "test_the_bulk_verdict_falls_back_on_every_fault",)),
    Mutant(
        "verdict-skips-the-width-pass", "src/multlat/enumeration.py",
        "and {*map(len, chain.from_iterable(witnesses))} <= {ambient}\n",
        "and True\n",
        ("tests/test_cli.py::test_a_bad_census_basis_exits_three",
         "tests/test_enumeration.py::"
         "test_the_bulk_verdict_falls_back_on_every_fault")),
    Mutant(
        "verdict-skips-the-row-count", "src/multlat/enumeration.py",
        "and {*map(len, witnesses)} <= {n}\n",
        "and True\n",
        ("tests/test_enumeration.py::"
         "test_the_bulk_verdict_falls_back_on_every_fault",)),
    Mutant(
        "verdict-skips-the-count", "src/multlat/enumeration.py",
        "    passed = (len(witnesses) == formula_count\n",
        "    passed = (True\n",
        ("tests/test_enumeration.py::"
         "test_the_bulk_verdict_falls_back_on_every_fault",)),
    Mutant(
        "verdict-passes-on-any-placed-key", "src/multlat/enumeration.py",
        "and all(map(keyed.__contains__",
        "and any(map(keyed.__contains__",
        ("tests/test_enumeration.py::"
         "test_the_bulk_verdict_falls_back_on_every_fault",)),
    Mutant(
        "keys-drop-the-zero-column", "src/multlat/lattice.py",
        "map(\n        chain, repeat(((0,) * rank,)), starmap(zip, bases))))",
        "starmap(zip, bases)))",
        ("tests/test_enumeration.py::"
         "test_label_key_is_the_label_dict_as_a_tuple",
         "tests/test_enumeration.py::"
         "test_a_passing_cell_places_no_witness_one_by_one")),
    Mutant(
        "transport-picks-a-for-a-minus-1", "src/multlat/partitions.py",
        "[(0,) + row for row in basis]",
        "[row + (0,) for row in basis]",
        ("tests/test_partitions.py::test_apply_map_diagonal_example",)),
    Mutant(
        "ordered-maps-keep-unfinished-strings", "src/multlat/partitions.py",
        "if used + target_dim - j <= source_dim:",
        "if used + target_dim - j < source_dim:",
        ("tests/test_partitions.py::test_enumerate_ordered_maps_counts",)),
    Mutant(
        "stirling2-off-by-one-at-u10-v3", "src/multlat/partitions.py",
        "    return prev[v]\n",
        "    return prev[v] + (u >= 10 and v == 3)\n",
        ("tests/test_partitions.py::test_stirling2_matches_golden_table",)),
    Mutant(
        "reverify-skips-torsion", "src/multlat/enumeration.py",
        "        if torsion_size(lat) != torsion:\n",
        "        if False:\n",
        ("tests/test_enumeration.py::test_check_witness_from_one_square",)),
    Mutant(
        "duplicate-check-dropped", "src/multlat/scan.py",
        "        if len(set(bases)) < len(bases):\n",
        "        if False:\n",
        ("tests/test_enumeration.py::"
         "test_each_engine_rejects_a_lattice_found_twice",)),
    Mutant(
        "order-check-skips-every-other-pair", "src/multlat/scan.py",
        "map(_key, bases), map(_key, islice(bases, 1, None))",
        "map(_key, bases[::2]), map(_key, bases[1::2])",
        ("tests/test_enumeration.py::"
         "test_each_engine_rejects_a_census_out_of_order",)),
    Mutant(
        "rows-keep-the-hermite-zero-rows", "src/multlat/lattice.py",
        "    return Lattice(ambient_dim, tuple(r for r in hnf if any(r)))\n",
        "    return Lattice(ambient_dim, hnf)\n",
        ("tests/test_lattice.py::test_from_rows_canonicalizes",
         "tests/test_lattice.py::test_from_rows_runs_the_constructor_once")),
    Mutant(
        "count-record-accepts-any-method", "src/multlat/cache.py",
        '        if method not in ("oracle", "formula", "unital"):\n',
        "        if False:\n",
        ("tests/test_cache.py::test_lines_put_could_not_write_are_skipped",)),
    Mutant(
        "count-record-accepts-a-negative-rank", "src/multlat/cache.py",
        "        if n < 0 or k < 0:\n",
        "        if k < 0:\n",
        ("tests/test_cache.py::"
         "test_count_record_validates_what_the_loader_validates",)),
    Mutant(
        "count-record-accepts-a-negative-corank", "src/multlat/cache.py",
        "        if n < 0 or k < 0:\n",
        "        if n < 0:\n",
        ("tests/test_cache.py::"
         "test_count_record_validates_what_the_loader_validates",)),
    Mutant(
        "count-record-accepts-torsion-zero", "src/multlat/cache.py",
        "        if r < 1:\n",
        "        if r < 0:\n",
        ("tests/test_cache.py::"
         "test_count_record_validates_what_the_loader_validates",
         "tests/test_enumeration.py::test_count_record_validation")),
    Mutant(
        "count-record-accepts-a-negative-count", "src/multlat/cache.py",
        "        if count < 0:\n",
        "        if False:\n",
        ("tests/test_cache.py::"
         "test_count_record_validates_what_the_loader_validates",
         "tests/test_cache.py::test_malformed_lines_are_skipped")),
    Mutant(
        "columns-keep-the-zero-column", "src/multlat/enumeration.py",
        "    if len(labels) == rank + 1:\n",
        "    if len(labels) == rank:\n",
        ("tests/test_enumeration.py::test_decompose_zero_lattice",
         "tests/test_enumeration.py::test_decompose_round_trip_small")),
    Mutant(
        "decompose-memo-skips-the-closure-test", "src/multlat/enumeration.py",
        "    return Lattice(len(key) - 1, square) if _square_closed(square)"
        " else None\n",
        "    return Lattice(len(key) - 1, square)\n",
        ("tests/test_enumeration.py::"
         "test_decompose_rejects_non_multiplicative_with_rigid_columns",
         "tests/test_enumeration.py::"
         "test_decompose_rejects_the_same_inputs_on_a_repeat")),
    Mutant(
        "decompose-memo-key-drops-a-column", "src/multlat/enumeration.py",
        "        core = _closed_core(tuple(labels))\n",
        "        core = _closed_core(tuple(labels)[:-1])\n",
        ("tests/test_enumeration.py::"
         "test_decompose_gives_the_same_pairs_cold_and_warm",
         "tests/test_enumeration.py::test_decompose_round_trip_small")),
    Mutant(
        "rank-zero-census-at-every-torsion", "src/multlat/scan.py",
        "        return [()] if torsion == 1 else []\n",
        "        return [()]\n",
        ("tests/test_enumeration.py::"
         "test_count_full_rank_dimension_zero_convention",
         "tests/test_enumeration.py::test_corank_full_ambient_edge")),
    Mutant(
        "scan-drops-large-discriminant-roots", "src/multlat/scan.py",
        "s = isqrt(disc) if disc > 0 else 0",
        "s = isqrt(disc) if 0 < disc < 1000 else 0",
        ("tests/test_torsion_axis.py::"
         "test_every_cell_of_the_torsion_axis_block_passes",)),
    Mutant(
        "cache-serves-every-engine-version", "src/multlat/cache.py",
        "                if version == ENGINE_VERSION:\n",
        "                if True:\n",
        ("tests/test_cache.py::test_engine_version_is_part_of_the_key",)),
    Mutant(
        "constructor-accepts-an-entry-equal-to-its-pivot",
        "src/multlat/lattice.py",
        "if not 0 <= basis[h][lead] < d:",
        "if not 0 <= basis[h][lead] <= d:",
        ("tests/test_lattice.py::"
         "test_constructor_accepts_exactly_the_reference_hermite_forms",)),
    Mutant(
        "closure-accepts-a-basis-with-no-square", "src/multlat/lattice.py",
        "square is not None and",
        "square is None or",
        ("tests/test_lattice.py",)),
    Mutant(
        "closure-skips-the-divisibility-test",
        "src/multlat/lattice.py",
        "                        if x % d:\n"
        "                            return False\n",
        "",
        ("tests/test_lattice.py::"
         "test_square_closed_matches_every_row_product_on_small_squares",
         "tests/test_lattice.py::"
         "test_square_closed_matches_the_reference_on_census_squares")),
    Mutant(
        "closure-tests-only-the-square-of-each-row",
        "src/multlat/lattice.py",
        "for u in tested:",
        "for u in tested[-1:]:",
        ("tests/test_lattice.py::"
         "test_square_closed_matches_every_row_product_on_small_squares",
         "tests/test_lattice.py::"
         "test_square_closed_matches_the_reference_on_census_squares")),
    Mutant(
        "closure-skips-rows-with-one-entry-right-of-the-pivot",
        "src/multlat/lattice.py",
        "if v.count(0) != last:",
        "if v.count(0) < last - 1:",
        ("tests/test_lattice.py::"
         "test_square_closed_matches_every_row_product_on_small_squares",
         "tests/test_lattice.py::"
         "test_square_closed_matches_the_reference_on_census_squares")),
    Mutant(
        "closure-folds-the-lower-rows-pivot",
        "src/multlat/lattice.py",
        "uj = u[j]",
        "uj = v[j]",
        ("tests/test_lattice.py::"
         "test_square_closed_matches_every_row_product_on_small_squares",
         "tests/test_lattice.py::"
         "test_square_closed_matches_the_reference_on_census_squares")),
    Mutant(
        "closure-skips-every-product-with-a-zero",
        "src/multlat/lattice.py",
        "if not any(w):",
        "if not all(w):",
        ("tests/test_lattice.py::"
         "test_square_closed_matches_every_row_product_on_small_squares",
         "tests/test_lattice.py::"
         "test_square_closed_matches_the_reference_on_census_squares")),
    Mutant(
        "closure-reduces-from-two-right-of-the-row",
        "src/multlat/lattice.py",
        "for c in range(j + 1, last + 1):",
        "for c in range(j + 2, last + 1):",
        ("tests/test_lattice.py::"
         "test_square_closed_matches_every_row_product_on_small_squares",
         "tests/test_lattice.py::"
         "test_square_closed_matches_the_reference_on_census_squares")),
    Mutant(
        "stray-skips-reverification", "src/multlat/enumeration.py",
        "    return _checked(ambient, strays, rank, r)\n",
        "    return [Lattice(ambient, basis) for basis in strays]\n",
        ("tests/test_cli.py::"
         "test_verify_rejects_a_non_multiplicative_witness",)),
    Mutant(
        "search-leaves-out-the-strays", "src/multlat/enumeration.py",
        "for basis in placed], n, r) + strays)",
        "for basis in placed], n, r))",
        ("tests/test_cli.py::"
         "test_verify_reports_a_non_rigid_witness_after_closed_ones",
         "tests/test_enumeration.py::"
         "test_verify_names_the_least_stray_in_every_census_order")),
    Mutant(
        "checked-reverifies-only-the-first-key",
        "src/multlat/enumeration.py",
        "[lat.basis for lat in lats], rank), lats)).values()",
        "[lat.basis for lat in lats], rank), lats[:1])).values()",
        ("tests/test_enumeration.py::"
         "test_oracle_reverifies_once_per_pivot_square",
         "tests/test_enumeration.py::"
         "test_oracle_rejects_a_bad_lattice_wherever_it_is")),
    Mutant(
        "checked-keys-by-row-count",
        "src/multlat/enumeration.py",
        "zip(_label_keys([lat.basis for lat in lats], rank), lats)",
        "zip(map(len, [lat.basis for lat in lats]), lats)",
        ("tests/test_enumeration.py::"
         "test_oracle_reverifies_once_per_pivot_square",
         "tests/test_enumeration.py::"
         "test_oracle_rejects_a_bad_lattice_wherever_it_is")),
    Mutant(
        "shards-capped-one-below-the-leads", "src/multlat/scan.py",
        "min(jobs, os.cpu_count() or 1, len(tasks))",
        "min(jobs, os.cpu_count() or 1, len(tasks) - 1)",
        ("tests/test_enumeration.py::"
         "test_jobs_run_on_no_more_processes_than_cores",)),
    Mutant(
        "labels-put-zero-last", "src/multlat/lattice.py",
        "    labels = {(0,) * len(rows): 0}\n",
        "    labels = {(0,) * len(rows): len(rows)}\n",
        ("tests/test_enumeration.py::test_decompose_round_trip_small",)),
    Mutant(
        "verify-pads-core-rows-at-the-end", "src/multlat/enumeration.py",
        "    keyed = {key: [] for key in _label_keys([c.basis for c in cores]",
        "    keyed = {tuple(col + (0,) for col in key): []"
        " for key in _label_keys([c.basis for c in cores]",
        ("tests/test_enumeration.py::"
         "test_verify_names_no_offender_on_clean_cells",
         "tests/test_enumeration.py::"
         "test_witness_pass_matches_per_witness_checks")),
    Mutant(
        "scan-emits-a-list-row", "src/multlat/scan.py",
        "if j + 1 == ambient:\n"
        "                            out.append((tuple(v), *hnf))",
        "if j + 1 == ambient:\n"
        "                            out.append((list(v), *hnf))",
        ("tests/test_enumeration.py::"
         "test_verify_names_no_offender_on_clean_cells",
         "tests/test_cli.py::test_verify_single_cell")),
    Mutant(
        "scan-emits-a-list-row-at-the-lead", "src/multlat/scan.py",
        "                out.append((tuple(v), *hnf))\n            else:\n",
        "                out.append((list(v), *hnf))\n            else:\n",
        ("tests/test_enumeration.py::"
         "test_verify_names_no_offender_on_clean_cells",
         "tests/test_cli.py::test_verify_single_cell")),
    Mutant(
        "scan-skips-the-leaf-at-a-pivot", "src/multlat/scan.py",
        "out.append((tuple(v), *hnf))\n                    continue",
        "continue",
        ("tests/test_enumeration.py::"
         "test_full_rank_engine_matches_unpruned_reference",
         "tests/test_full_rank_census.py")),
    Mutant(
        "cell-rule-allows-corank-above-ambient", "src/multlat/scan.py",
        "    if not 0 <= corank <= ambient:\n",
        "    if not 0 <= corank:\n",
        ("tests/test_enumeration.py::test_corank_arg_validation",
         "tests/test_cli.py::test_count_corank_bad_corank")),
    Mutant(
        "cell-rule-allows-a-negative-corank", "src/multlat/scan.py",
        "    if not 0 <= corank <= ambient:\n",
        "    if not corank <= ambient:\n",
        ("tests/test_enumeration.py::test_corank_arg_validation",)),
    Mutant(
        "cell-rule-allows-torsion-zero", "src/multlat/scan.py",
        "    if torsion < 1:\n",
        "    if torsion < 0:\n",
        ("tests/test_enumeration.py::test_corank_arg_validation",
         "tests/test_enumeration.py::"
         "test_enumerate_full_rank_arg_validation")),
    Mutant(
        "shards-take-every-lead", "src/multlat/scan.py",
        "        extend(first, [q], left)\n",
        "        extend((), [ambient], left * first[0][q])\n",
        ("tests/test_enumeration.py::"
         "test_shards_own_leads_so_their_steps_sum_to_one_shard",
         "tests/test_enumeration.py::test_corank_scan_jobs_split_agrees")),
    Mutant(
        "unital-lead-forced-a-level-early", "src/multlat/scan.py",
        "        leads = [left] if last else [",
        "        leads = [left] if len(hnf) >= n - 2 else [",
        ("tests/test_enumeration.py::"
         "test_unital_census_lists_exactly_the_unital_lattices",
         "tests/test_enumeration.py::"
         "test_unital_scan_drops_no_unital_lattice",
         "tests/test_enumeration.py::"
         "test_each_engine_fits_a_budget_of_exactly_its_steps")),
    Mutant(
        "last-level-skipped-without-the-unital-flag", "src/multlat/scan.py",
        "        leads = [left] if last else [",
        "        leads = [left] * (left == 1) if last else [",
        ("tests/test_enumeration.py::"
         "test_full_rank_engine_matches_unpruned_reference",
         "tests/test_enumeration.py::test_count_unital_matches_reference",
         "tests/test_enumeration.py::test_campaign_step_totals_are_pinned")),
    Mutant(
        "unital-row-skips-the-last-pivot-column",
        "src/multlat/enumeration.py",
        "    for c, row in enumerate(basis):\n",
        "    for c, row in enumerate(basis[:-1]):\n",
        ("tests/test_enumeration.py::"
         "test_unital_census_lists_exactly_the_unital_lattices",
         "tests/test_enumeration.py::test_count_unital_matches_reference")),
    Mutant(
        "count-unital-drops-the-unit-check", "src/multlat/enumeration.py",
        "    if not all(_solve(lat.basis, enumerate(range(n)), [1] * n) "
        "is not None\n               for lat in lats):\n",
        "    if False:\n",
        ("tests/test_cli.py::"
         "test_a_unital_census_basis_without_the_unit_exits_three",)),
    Mutant(
        # at n = 0 the coefficients are the empty tuple, which is falsy
        "unit-check-reads-coefficients-as-truth",
        "src/multlat/enumeration.py",
        "[1] * n) is not None\n",
        "[1] * n)\n",
        ("tests/test_enumeration.py::"
         "test_count_unital_dimension_zero_convention",)),
    Mutant(
        "divisors-stop-below-the-root", "src/multlat/scan.py",
        "    while p * p <= r:\n",
        "    while p * p < r:\n",
        ("tests/test_enumeration.py::test_budget_counts_divisor_leads",
         "tests/test_enumeration.py::"
         "test_divisors_from_the_factorization_match_trial_division")),
    Mutant(
        "echelon-torsion-skips-the-first-diagonal-entry",
        "src/multlat/lattice.py",
        "        order *= line[i]\n",
        "        order *= line[i] if i else 1\n",
        ("tests/test_lattice.py::"
         "test_torsion_and_decomposition_over_the_whole_box",)),
    Mutant(
        "rank-one-workers-build-the-divisor-list",
        "src/multlat/scan.py",
        "    leads = _divisors(torsion, budget) if n > 1 else [torsion]\n",
        "    leads = [d for d in _divisors(torsion, budget)\n"
        "             if n > 1 or d == torsion]\n",
        ("tests/test_enumeration.py::"
         "test_rank_one_workers_build_no_divisor_list",
         "tests/test_cli.py::test_a_large_prime_torsion_answers_at_once")),
    Mutant(
        "divisor-trials-ignore-the-budget", "src/multlat/scan.py",
        "        if p > budget:\n",
        "        if False:\n",
        ("tests/test_enumeration.py::"
         "test_divisor_trials_stop_above_the_budget",
         "tests/test_cli.py::test_a_large_prime_torsion_answers_at_once")),
    Mutant(
        "constructor-accepts-a-lead-left-of-the-one-above",
        "src/multlat/lattice.py",
        "            if lead < start or d < 0:\n",
        "            if d < 0:\n",
        ("tests/test_lattice.py::test_constructor_rejects_unsorted_pivots",
         "tests/test_lattice.py::"
         "test_constructor_accepts_exactly_the_reference_hermite_forms")),
    Mutant(
        "constructor-accepts-a-negative-pivot", "src/multlat/lattice.py",
        "            if lead < start or d < 0:\n",
        "            if lead < start:\n",
        ("tests/test_lattice.py::test_constructor_rejects_negative_pivot",)),
    Mutant(
        "constructor-accepts-a-bool-entry", "src/multlat/lattice.py",
        "                if type(x) is not int:\n",
        "                if type(x) not in (int, bool):\n",
        ("tests/test_lattice.py::"
         "test_constructor_rejects_non_integer_entries",)),
    Mutant(
        "map-accepts-a-negative-entry", "src/multlat/partitions.py",
        "            if a < 0:\n",
        "            if False:\n",
        ("tests/test_partitions.py::"
         "test_constructors_reject_fields_of_the_wrong_type",)),
    Mutant(
        "eq-ignores-ambient", "src/multlat/lattice.py",
        "            return (self.basis == other.basis\n"
        "                    and self.ambient_dim == other.ambient_dim)\n",
        "            return self.basis == other.basis\n",
        ("tests/test_lattice.py::test_equality_reads_the_ambient_dimension",)),
    Mutant(
        "image-stores-the-rank-as-its-ambient", "src/multlat/partitions.py",
        "        return Lattice._trusted(len(assignment), rows)\n",
        "        return Lattice._trusted(len(basis), rows)\n",
        ("tests/test_lattice.py::test_equality_reads_the_ambient_dimension",
         "tests/test_partitions.py::test_apply_map_diagonal_example")),
    Mutant(
        "map-accepts-an-unused-source", "src/multlat/partitions.py",
        "        if len(used) != max(used, default=0):\n",
        "        if False:\n",
        ("tests/test_partitions.py::test_map_validation",)),
    Mutant(
        "scan-skips-x1-at-pivot-32", "src/multlat/scan.py",
        "        for x in range(p):\n",
        "        for x in range(p):\n"
        "            if p == 32 and x == 1:\n"
        "                continue\n",
        ("tests/test_rank_two_zeta.py",)),
    Mutant(
        "scan-skips-x1-at-pivot-16-from-the-third-row",
        "src/multlat/scan.py",
        "        for x in range(p):\n",
        "        for x in range(p):\n"
        "            if p == 16 and x == 1 and len(hnf) >= 2:\n"
        "                continue\n",
        ("tests/test_rank_three_zeta.py",
         "tests/test_frontier.py::"
         "test_ambient_seven_census_is_closed_under_coordinate_permutations")),
    Mutant(
        "shards-allow-jobs-zero", "src/multlat/scan.py",
        "        if value < 1:\n",
        "        if value < (0 if name == \"jobs\" else 1):\n",
        ("tests/test_enumeration.py::test_corank_arg_validation",)),
    Mutant(
        "shards-allow-budget-zero", "src/multlat/scan.py",
        "        if value < 1:\n",
        "        if value < (0 if name == \"budget\" else 1):\n",
        ("tests/test_enumeration.py::test_corank_arg_validation",)),
    Mutant(
        "shards-refuse-budget-one", "src/multlat/scan.py",
        "        if value < 1:\n",
        "        if value < (2 if name == \"budget\" else 1):\n",
        ("tests/test_enumeration.py::"
         "test_a_census_of_one_step_fits_a_budget_of_one",)),
    Mutant(
        "first-level-rows-not-reversed", "src/multlat/scan.py",
        "for h in reversed(\n        _closed_extensions((), [], q,",
        "for h in (\n        _closed_extensions((), [], q,",
        ("tests/test_enumeration.py::"
         "test_every_shard_lists_its_bases_in_census_order",
         "tests/test_enumeration.py::"
         "test_every_small_census_matches_its_committed_digest")),
    Mutant(
        "jobs-one-tasks-get-a-fresh-budget", "src/multlat/scan.py",
        "              steps if jobs == 1 else _Steps(budget))\n",
        "              _Steps(budget))\n",
        ("tests/test_enumeration.py::"
         "test_each_engine_fits_a_budget_of_exactly_its_steps",
         "tests/test_enumeration.py::"
         "test_shards_own_leads_so_their_steps_sum_to_one_shard")),
    Mutant(
        "first-level-row-dropped", "src/multlat/scan.py",
        "             for h, q in firsts] if n > 1 else []\n",
        "             for h, q in firsts[1:]] if n > 1 else []\n",
        ("tests/test_enumeration.py::"
         "test_jobs_run_on_no_more_processes_than_cores",
         "tests/test_enumeration.py::"
         "test_every_small_census_matches_its_committed_digest")),
)


def _pytest(tree: Path, args: list[str]) -> tuple[bool, float, str]:
    """Run pytest in the tree; whether it passed, its time and its summary
    line, with the first failing test."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *args], cwd=tree, env=env, capture_output=True, text=True,
        timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    failed = [line.split(" - ")[0] for line in lines
              if line.startswith("FAILED ")]
    summary = lines[-1] if lines else proc.stderr.strip()[-200:]
    return (proc.returncode == 0, time.perf_counter() - start,
            "; ".join([summary, *failed[:1]]))


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    with tempfile.TemporaryDirectory(prefix="multlat-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench-*"))
        named = sorted({t for m in chosen for t in m.tests})
        ok, took, last = _pytest(tree, named)
        print(f"clean copy, named tests: {last} ({took:.1f} s)", flush=True)
        if not ok:
            print("the named tests fail on the clean copy")
            return 1
        killed = 0
        for m in chosen:
            path = tree / m.path
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} times",
                      flush=True)
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                runs = [(test, *_pytest(tree, ["-x", test]))
                        for test in m.tests]
                took = sum(run[2] for run in runs)
                failed = [run[3] for run in runs if not run[1]]
                if failed:
                    killed += 1
                    verdict, last = "killed", failed[0]
                else:
                    ok, more, last = _pytest(tree, ["-x"])
                    took += more
                    verdict = ("survived" if ok else
                               "killed, but only by the whole suite")
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{m.name}: {verdict} ({took:.1f} s): {last}", flush=True)
            for test, ok, _, _ in runs:
                if ok:
                    print(f"  still passes: {test}", flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
