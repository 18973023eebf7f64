"""Set partitions, acceptable coordinate maps, and the subset-count table."""

import copy
import csv
import pickle
import random
from pathlib import Path

import pytest

import multlat.lattice as lattice
import multlat.partitions as partitions
from multlat.enumeration import VerificationReport
from multlat.intlinalg import hermite_normal_form
from multlat.lattice import Lattice, lattice_from_rows, torsion_size
from multlat.partitions import (
    AcceptableMap,
    SetPartition,
    _transport_rows,
    apply_map,
    enumerate_ordered_maps,
    enumerate_partitions,
    map_to_partition,
    map_to_string,
    partition_to_map,
    stirling2,
)

from refimpl import partitions_ref, stirling_ref

GOLDEN = Path(__file__).parent / "data" / "a008277.csv"


# ----------------------------------------------------------- subset numbers

def test_stirling2_base_cases():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(0, 3) == 0
    assert stirling2(4, 7) == 0
    assert stirling2(6, 6) == 1
    assert stirling2(6, 1) == 1
    with pytest.raises(ValueError):
        stirling2(-1, 2)


def test_stirling2_recurrence():
    for u in range(1, 12):
        for v in range(1, u + 1):
            assert stirling2(u, v) == v * stirling2(u - 1, v) + stirling2(u - 1, v - 1)


def test_stirling2_matches_inclusion_exclusion():
    for u in range(0, 10):
        for v in range(0, 10):
            assert stirling2(u, v) == stirling_ref(u, v)


def test_stirling2_matches_golden_table():
    # frozen copy of the standard subset-number triangle, rows u = 1..10
    with GOLDEN.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 55
    for rec in rows:
        u, v, value = int(rec["u"]), int(rec["v"]), int(rec["value"])
        assert stirling2(u, v) == value, (u, v)


# --------------------------------------------------------------- partitions

def test_partition_validation():
    SetPartition(3, ((0, 2), (1,)))
    with pytest.raises(ValueError):
        SetPartition(3, ((0,), (2,)))  # element 1 missing
    with pytest.raises(ValueError):
        SetPartition(3, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(3, ((1,), (0, 2)))  # not ordered by minimum
    with pytest.raises(ValueError):
        SetPartition(3, ((2, 0), (1,)))  # block not sorted
    with pytest.raises(ValueError):
        SetPartition(0, ())


def test_enumerate_partitions_counts():
    for u in range(1, 9):
        for v in range(1, u + 1):
            got = sum(1 for _ in enumerate_partitions(u, v))
            assert got == stirling2(u, v), (u, v)


def test_enumerate_partitions_matches_reference_sets():
    for u in range(1, 8):
        for v in range(1, u + 1):
            mine = {p.blocks for p in enumerate_partitions(u, v)}
            ref = set(partitions_ref(u, v))
            assert mine == ref, (u, v)


def test_enumerate_partitions_deterministic_and_distinct():
    first = list(enumerate_partitions(6, 3))
    second = list(enumerate_partitions(6, 3))
    assert first == second
    assert len({p.blocks for p in first}) == len(first)


def test_enumerate_partitions_bad_args():
    with pytest.raises(ValueError):
        list(enumerate_partitions(3, 0))
    with pytest.raises(ValueError):
        list(enumerate_partitions(3, 4))


# --------------------------------------------------------------------- maps

def test_map_validation():
    AcceptableMap(2, 4, (1, 0, 2, 1))
    with pytest.raises(ValueError):
        AcceptableMap(2, 4, (1, 0, 1, 1))  # source 2 never used
    with pytest.raises(ValueError):
        AcceptableMap(2, 4, (1, 0, 3, 2))  # entry out of range
    with pytest.raises(ValueError):
        AcceptableMap(2, 1, (1,))  # target smaller than source
    with pytest.raises(ValueError):
        AcceptableMap(2, 4, (1, 2))  # wrong length


@pytest.mark.parametrize("cls, args", [
    (AcceptableMap, (1, 2, [1, 0])),  # a list never hashes
    (AcceptableMap, (1, 2, (1.0, 0))),  # a float never indexes a row
    (AcceptableMap, (1, 2, (True, 0))),
    (AcceptableMap, (True, 1, (1,))),
    (AcceptableMap, (1, 2.0, (1, 0))),
    (SetPartition, (2, [[0], [1]])),
    (SetPartition, (2, ([0], (1,)))),
    (SetPartition, (3, ((0, 1.0), (2,)))),
    (SetPartition, (2, ((False,), (1,)))),
    (SetPartition, (True, ((0,),))),
])
def test_constructors_reject_fields_of_the_wrong_type(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


# ------------------------------------------------------------- value types

@pytest.mark.parametrize("cls, fields", [
    (SetPartition, dict(ground_size=1, blocks=((0,),))),
    (SetPartition, dict(ground_size=9,
                        blocks=((0, 3, 4), (1, 5), (2, 7, 8), (6,)))),
    (AcceptableMap, dict(source_dim=0, target_dim=0, assignment=())),
    (AcceptableMap, dict(source_dim=2, target_dim=4, assignment=(1, 0, 2, 1))),
    (VerificationReport, dict(n=2, k=1, r=2, oracle_count=18,
                              formula_count=18, stirling_factor=6,
                              full_rank_count=3, witnesses_checked=18,
                              status="pass")),
])
def test_value_type_contract(cls, fields):
    value = cls(**fields)
    twin = cls(*fields.values())
    assert twin == value and hash(twin) == hash(value)
    assert eval(repr(value)) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    for name, field in fields.items():
        assert getattr(value, name) == field
        with pytest.raises(AttributeError):
            setattr(value, name, field)
    if cls is not VerificationReport:
        # equality is class-strict: a tuple of the same fields is not equal
        assert value != tuple(fields.values())


@pytest.mark.parametrize("value, old, new", [
    # the ground size 3 as 4: the blocks no longer cover the ground set
    (SetPartition(3, ((0, 2), (1,))), b"K\x03", b"K\x04"),
    # the target dimension 4 as 5: the assignment is one entry short
    (AcceptableMap(2, 4, (1, 0, 2, 1)), b"K\x04", b"K\x05"),
])
def test_unpickling_validates_the_fields(value, old, new):
    payload = pickle.dumps(value)
    assert payload.count(old) == 1
    with pytest.raises(ValueError):
        pickle.loads(payload.replace(old, new))


def test_partition_map_round_trip():
    for u in range(1, 8):
        for v in range(1, u + 1):
            for p in enumerate_partitions(u, v):
                g = partition_to_map(p, v - 1)
                assert map_to_partition(g) == p


def test_docstring_example_partition():
    p = SetPartition(9, ((0, 3, 4), (1, 5), (2, 7, 8), (6,)))
    g = partition_to_map(p, 3)
    assert g.assignment == (1, 2, 0, 0, 1, 3, 2, 2)
    assert map_to_string(g) == "a,b,0,0,a,c,b,b"


def test_enumerate_ordered_maps_counts():
    for n in range(0, 5):
        for t in range(n, 8):
            if t + 1 > 9:
                continue
            maps = list(enumerate_ordered_maps(n, t))
            assert len(maps) == stirling2(t + 1, n + 1), (n, t)
            assert len(set(maps)) == len(maps)
            assert all(partition_to_map(map_to_partition(g), n) == g
                       for g in maps)


def test_enumerate_ordered_maps_identity_case():
    # square case: only the identity-shaped assignments with no zeros and no
    # repeats, ordered, i.e. exactly one map
    maps = list(enumerate_ordered_maps(3, 3))
    assert maps == [AcceptableMap(3, 3, (1, 2, 3))]


# ---------------------------------------------------------------- apply_map

def test_apply_map_diagonal_example():
    lat = lattice_from_rows(2, [(2, 0), (0, 3)])
    g = AcceptableMap(2, 4, (1, 1, 0, 2))
    image = apply_map(g, lat)
    assert image.ambient_dim == 4
    assert image.basis == ((2, 2, 0, 0), (0, 0, 0, 3))
    assert torsion_size(image) == torsion_size(lat)


def test_apply_map_requires_full_rank_and_matching_source():
    g = AcceptableMap(2, 3, (1, 2, 0))
    with pytest.raises(ValueError):
        apply_map(g, lattice_from_rows(2, [(1, 1)]))
    with pytest.raises(ValueError):
        apply_map(g, lattice_from_rows(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


def test_apply_map_rank_and_injectivity():
    lat = lattice_from_rows(2, [(1, 1), (0, 4)])
    images = set()
    for g in enumerate_ordered_maps(2, 4):
        image = apply_map(g, lat)
        assert image.rank == 2
        images.add(image)
    # distinct ordered maps send a fixed lattice to distinct images
    assert len(images) == stirling2(5, 3)


def test_apply_map_unordered_equals_hermite_form_of_image():
    # relabeled sources put the image rows out of Hermite order, so the
    # image must be canonicalized, not taken as it is
    rng = random.Random(2024)
    reordered = 0
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2)):
        cores = [lattice_from_rows(n, [[rng.randint(0, 5) for _ in range(n)]
                                       for _ in range(n)]) for _ in range(30)]
        cores = [c for c in cores if c.is_full_rank]
        for ordered in enumerate_ordered_maps(n, n + k):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            g = AcceptableMap(n, n + k,
                              tuple(perm[a - 1] if a else 0 for a in ordered.assignment))
            for core in rng.sample(cores, 3):
                rows = [tuple(row[a - 1] if a else 0 for a in g.assignment)
                        for row in core.basis]
                hnf = tuple(r for r in hermite_normal_form(rows) if any(r))
                image = apply_map(g, core)
                assert image == Lattice(n + k, hnf)
                reordered += (partition_to_map(map_to_partition(g), n) != g
                              and image.basis != tuple(rows))
    assert reordered > 0


def test_transport_and_apply_map_edge_cases(monkeypatch):
    # target dimensions 0 and 1, where no itemgetter picks the entries
    assert _transport_rows(AcceptableMap(0, 0, ()), ()) == ()
    assert apply_map(AcceptableMap(0, 0, ()), Lattice(0, ())) == Lattice(0, ())
    assert _transport_rows(AcceptableMap(0, 1, (0,)), ()) == ()
    assert apply_map(AcceptableMap(0, 1, (0,)), Lattice(0, ())) == Lattice(1, ())
    assert _transport_rows(AcceptableMap(1, 1, (1,)), ((3,),)) == ((3,),)
    assert apply_map(AcceptableMap(1, 1, (1,)),
                     Lattice(1, ((3,),))) == Lattice(1, ((3,),))
    # zero-labelled columns pick 0, first, last and between copies
    g = AcceptableMap(2, 5, (0, 1, 0, 2, 0))
    core = Lattice(2, ((2, 1), (0, 3)))
    image_rows = ((0, 2, 0, 1, 0), (0, 0, 0, 3, 0))
    assert _transport_rows(g, core.basis) == image_rows
    # an ordered map's rows reach the constructor uncopied, with no Hermite
    # form; an unordered map's rows go through the Hermite form
    hnf_inputs = []
    hnf = lattice.hermite_normal_form
    monkeypatch.setattr(lattice, "hermite_normal_form",
                        lambda m: hnf_inputs.append(m) or hnf(m))
    transported = []
    transport = partitions._transport_rows
    monkeypatch.setattr(partitions, "_transport_rows",
                        lambda g, rows: transported.append(transport(g, rows))
                        or transported[-1])
    image = apply_map(g, core)
    assert image.basis == image_rows and image.basis is transported[-1]
    assert hnf_inputs == []
    unordered = AcceptableMap(2, 3, (2, 1, 2))
    assert partition_to_map(map_to_partition(unordered), 2) != unordered
    image = apply_map(unordered, core)
    assert hnf_inputs == [((1, 2, 1), (3, 0, 3))]
    assert image.basis == ((1, 2, 1), (0, 6, 0))


def _naive_image_rows(g, core):
    # target coordinate j copies source coordinate assignment[j], or is 0
    rows = []
    for row in core.basis:
        image = [0] * g.target_dim
        for j, a in enumerate(g.assignment):
            if a:
                image[j] = row[a - 1]
        rows.append(image)
    return rows


def _random_full_rank_cores(rng, n, count):
    if n == 0:
        return [Lattice(0, ())]
    cores = []
    while len(cores) < count:
        lat = lattice_from_rows(n, [[rng.randint(-4, 4) for _ in range(n)]
                                    for _ in range(n)])
        if lat.is_full_rank:
            cores.append(lat)
    return cores


def test_apply_map_equals_naive_transport_for_ordered_maps():
    rng = random.Random(1717)
    seen_zero_source = False
    for total in range(5):
        for n in range(total + 1):
            cores = _random_full_rank_cores(rng, n, 6)
            for g in enumerate_ordered_maps(n, total):
                seen_zero_source |= n == 0 and total > 0
                for core in cores:
                    image = apply_map(g, core)
                    assert image == lattice_from_rows(total, _naive_image_rows(g, core))
    assert seen_zero_source


def test_apply_map_equals_naive_transport_for_unordered_maps():
    rng = random.Random(1718)
    unordered = 0
    for _ in range(400):
        n = rng.randint(0, 4)
        target = rng.randint(n, 6)
        while True:
            assignment = tuple(rng.randint(0, n) for _ in range(target))
            if set(range(1, n + 1)) <= set(assignment):
                break
        g = AcceptableMap(n, target, assignment)
        unordered += partition_to_map(map_to_partition(g), n) != g
        for core in _random_full_rank_cores(rng, n, 2):
            image = apply_map(g, core)
            assert image == lattice_from_rows(target, _naive_image_rows(g, core))
    assert unordered > 100
