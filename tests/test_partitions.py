"""Acceptable coordinate maps, their set partitions, and the subset-count table."""

import copy
import csv
import pickle
import random
from itertools import product
from math import factorial
from pathlib import Path

import pytest

import multlat.lattice as lattice
import multlat.partitions as partitions
from multlat.enumeration import (
    VerificationReport,
    enumerate_full_rank_multiplicative,
)
from multlat.intlinalg import hermite_normal_form
from multlat.lattice import Lattice, lattice_from_rows, torsion_size
from multlat.partitions import (
    AcceptableMap,
    _is_ordered,
    _transport_rows,
    apply_map,
    enumerate_ordered_maps,
    map_to_partition,
    map_to_string,
    stirling2,
)

from refimpl import is_growth_string, partitions_ref, stirling_ref

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


# --------------------------------------------------------------------- maps

def _is_acceptable(assignment):
    # written out here, not taken from the package: a map's nonzero labels
    # are exactly 1..max, so every source up to the largest is used
    labels = {a for a in assignment if a}
    return labels == set(range(1, max(assignment, default=0) + 1))


def test_map_validation():
    # every tuple with entries 0..4 and length <= 5: the constructor accepts
    # the acceptable ones, and reads both dimensions off the assignment
    accepted = 0
    for length in range(6):
        for assignment in product(range(5), repeat=length):
            if not _is_acceptable(assignment):
                with pytest.raises(ValueError,
                                   match="^every source coordinate must "
                                         "be used$"):
                    AcceptableMap(assignment)
                continue
            g = AcceptableMap(assignment)
            assert g.assignment == assignment
            assert g.source_dim == max(assignment, default=0)
            assert g.target_dim == len(assignment)
            accepted += 1
    # n! relabelings of each partition of {0..t} into n + 1 blocks
    assert accepted == sum(factorial(n) * stirling2(t + 1, n + 1)
                           for t in range(6) for n in range(min(t, 4) + 1))


def test_map_dimensions_are_read_only():
    g = AcceptableMap((1, 0, 2, 1))
    assert AcceptableMap.__slots__ == ("assignment",)
    for name in ("source_dim", "target_dim", "assignment"):
        with pytest.raises(AttributeError):
            setattr(g, name, 3)
    # the dimensions are not arguments
    with pytest.raises(TypeError):
        AcceptableMap(2, 4, (1, 0, 2, 1))
    # a map is not its assignment
    assert g != (1, 0, 2, 1)


@pytest.mark.parametrize("cls, args", [
    (AcceptableMap, ([1, 0],)),  # a list never hashes
    (AcceptableMap, ((1.0, 0),)),  # a float never indexes a row
    (AcceptableMap, ((True, 0),)),
    (AcceptableMap, ((1, -1),)),  # a negative entry names no source
    (AcceptableMap, ((-1,),)),
    # -1 makes up the count of the labels 1 and 3, so only its own check
    # refuses this one
    (AcceptableMap, ((1, 3, -1),)),
])
def test_constructors_reject_fields_of_the_wrong_type(cls, args):
    with pytest.raises(ValueError, match="^(assignment must be a tuple|"
                       "non-integer assignment entry|negative assignment "
                       "entry)"):
        cls(*args)


# ------------------------------------------------------------- value types

@pytest.mark.parametrize("cls, fields", [
    (AcceptableMap, dict(assignment=())),
    (AcceptableMap, dict(assignment=(1, 0, 2, 1))),
    (AcceptableMap, dict(assignment=(1, 2, 0, 0, 1, 3, 2, 2))),
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
    # the one copy of source 2 as source 3: source 2 is left unused
    (AcceptableMap((1, 0, 2, 1)), b"K\x02", b"K\x03"),
    # the assignment's closing TUPLE as LIST: the assignment is a list
    (AcceptableMap((1, 0, 2, 1)), b"K\x01t", b"K\x01l"),
    # the one copy of source 2 as source 1: source 2 is left unused
    (AcceptableMap((1, 2, 3, 3)), b"K\x02", b"K\x01"),
])
def test_unpickling_validates_the_fields(value, old, new):
    payload = pickle.dumps(value)
    assert payload.count(old) == 1
    with pytest.raises(ValueError):
        pickle.loads(payload.replace(old, new))


@pytest.mark.parametrize("cls, fields", [
    (Lattice, (0, ())),
    (Lattice, (3, ())),
    (Lattice, (2, ((1, 1),))),
    (Lattice, (3, ((2, 0, 1), (0, 1, 1)))),
    (Lattice, (4, ((2, 2, 0, 0), (0, 0, 0, 3)))),
    (AcceptableMap, ((),)),
    (AcceptableMap, ((1, 0, 2, 1),)),
    (AcceptableMap, ((1, 2, 0, 0, 1, 3, 2, 2),)),
])
def test_trusted_store_builds_what_the_constructor_builds(cls, fields,
                                                          monkeypatch):
    built = cls(*fields)
    trusted = cls._trusted(*fields)
    assert type(trusted) is cls
    assert trusted == built and hash(trusted) == hash(built)
    assert repr(trusted) == repr(built)
    for name, field in zip(cls.__slots__, fields):
        assert getattr(trusted, name) is field
        with pytest.raises(AttributeError):
            setattr(trusted, name, field)
    # unpickling a trusted value runs the constructor
    calls = []
    init = cls.__init__
    monkeypatch.setattr(cls, "__init__",
                        lambda self, *a: calls.append(a) or init(self, *a))
    assert pickle.loads(pickle.dumps(trusted)) == built
    assert calls == [fields]


def test_trusted_stores_are_written_per_class():
    # the base keeps no generic store; each class stores its own fields, and
    # a trusted value the constructor would refuse is refused on unpickling
    assert not hasattr(lattice._Frozen, "_trusted")
    assert "_trusted" in vars(Lattice) and "_trusted" in vars(AcceptableMap)
    with pytest.raises(ValueError, match="canonical Hermite form"):
        pickle.loads(pickle.dumps(Lattice._trusted(2, ((0, 1), (1, 0)))))
    with pytest.raises(ValueError, match="every source coordinate"):
        pickle.loads(pickle.dumps(AcceptableMap._trusted((2, 0))))


def test_ordered_maps_give_the_reference_partitions():
    # the ordered maps list every partition once, in the order of the
    # reference's placement of each element into an earlier or a new block
    for u in range(1, 9):
        for v in range(1, u + 1):
            blocks = [map_to_partition(g)
                      for g in enumerate_ordered_maps(v - 1, u - 1)]
            assert blocks == partitions_ref(u, v), (u, v)
    # an unordered map gives the blocks of its ordered form
    assert map_to_partition(AcceptableMap((2, 1, 2))) == (
        (0,), (1, 3), (2,))


def test_map_to_partition_identifies_exactly_the_relabelings():
    # over every map, ordered or not: the blocks partition {0..t} into n + 1
    # sorted blocks ordered by minimum, the n! relabelings of the sources
    # share their blocks, and no two partitions' maps do
    for n in range(0, 4):
        for t in range(n, 6):
            classes = {}
            for assignment in product(range(n + 1), repeat=t):
                if set(range(1, n + 1)) - set(assignment):
                    continue
                g = AcceptableMap(assignment)
                assert (g.source_dim, g.target_dim) == (n, t)
                blocks = map_to_partition(g)
                assert len(blocks) == n + 1, (g, blocks)
                assert sorted(e for b in blocks for e in b) == list(
                    range(t + 1))
                assert all(list(b) == sorted(b) for b in blocks)
                assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
                classes.setdefault(blocks, []).append(g)
            assert len(classes) == stirling2(t + 1, n + 1), (n, t)
            for blocks, maps in classes.items():
                assert len(maps) == factorial(n), (n, t, blocks)
                assert sum(is_growth_string(g.assignment) for g in maps) == 1


def test_docstring_example_partition():
    g = AcceptableMap((1, 2, 0, 0, 1, 3, 2, 2))
    assert map_to_partition(g) == ((0, 3, 4), (1, 5), (2, 7, 8), (6,))
    assert map_to_string(g) == "a,b,0,0,a,c,b,b"
    # past z, a source is named by its number
    wide = AcceptableMap(tuple(range(1, 28)))
    assert map_to_string(wide).split(",")[-2:] == ["z", "s27"]


def test_enumerate_ordered_maps_counts():
    for n in range(0, 5):
        for t in range(n, 8):
            if t + 1 > 9:
                continue
            maps = list(enumerate_ordered_maps(n, t))
            assert len(maps) == stirling2(t + 1, n + 1), (n, t)
            assert maps == sorted(maps, key=lambda g: g.assignment)
            assert len(set(maps)) == len(maps)
            assert all(is_growth_string(g.assignment) for g in maps)


def test_enumerate_ordered_maps_identity_case():
    # square case: only the identity-shaped assignments with no zeros and no
    # repeats, ordered, i.e. exactly one map
    maps = list(enumerate_ordered_maps(3, 3))
    assert maps == [AcceptableMap((1, 2, 3))]
    # a smaller target has none: refused on first iteration
    maps = enumerate_ordered_maps(2, 1)
    with pytest.raises(ValueError,
                       match="^need 0 <= source_dim <= target_dim$"):
        next(maps)


# ---------------------------------------------------------------- apply_map

def test_apply_map_diagonal_example():
    lat = lattice_from_rows(2, [(2, 0), (0, 3)])
    g = AcceptableMap((1, 1, 0, 2))
    image = apply_map(g, lat)
    assert image.ambient_dim == 4
    assert image.basis == ((2, 2, 0, 0), (0, 0, 0, 3))
    assert torsion_size(image) == torsion_size(lat)


def test_apply_map_requires_full_rank_and_matching_source():
    g = AcceptableMap((1, 2, 0))
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
        cores = [c for c in cores if len(c.basis) == c.ambient_dim]
        for ordered in enumerate_ordered_maps(n, n + k):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            g = AcceptableMap(tuple(perm[a - 1] if a else 0
                                    for a in ordered.assignment))
            for core in rng.sample(cores, 3):
                rows = [tuple(row[a - 1] if a else 0 for a in g.assignment)
                        for row in core.basis]
                hnf = tuple(r for r in hermite_normal_form(rows) if any(r))
                image = apply_map(g, core)
                assert image == Lattice(n + k, hnf)
                reordered += (not is_growth_string(g.assignment)
                              and image.basis != tuple(rows))
    assert reordered > 0


def test_transport_and_apply_map_edge_cases(monkeypatch):
    # target dimensions 0 and 1, where no itemgetter picks the entries; the
    # rows carry a leading 0, which label 0 picks
    assert _transport_rows((), ()) == ()
    assert apply_map(AcceptableMap(()), Lattice(0, ())) == Lattice(0, ())
    assert _transport_rows((0,), ()) == ()
    assert apply_map(AcceptableMap((0,)), Lattice(0, ())) == Lattice(1, ())
    assert _transport_rows((1,), [(0, 3)]) == ((3,),)
    assert _transport_rows((0,), [(0, 3)]) == ((0,),)
    assert apply_map(AcceptableMap((1,)),
                     Lattice(1, ((3,),))) == Lattice(1, ((3,),))
    # zero-labelled columns pick 0, first, last and between copies
    g = AcceptableMap((0, 1, 0, 2, 0))
    core = Lattice(2, ((2, 1), (0, 3)))
    image_rows = ((0, 2, 0, 1, 0), (0, 0, 0, 3, 0))
    assert _transport_rows(g.assignment,
                           [(0, 2, 1), (0, 0, 3)]) == image_rows
    # an ordered map's rows are the image's basis as transported, stored
    # without the constructor and with no Hermite form; an unordered map's
    # rows go through the Hermite form
    hnf_inputs = []
    hnf = lattice.hermite_normal_form
    monkeypatch.setattr(lattice, "hermite_normal_form",
                        lambda m: hnf_inputs.append(m) or hnf(m))
    inits = []
    init = Lattice.__init__
    monkeypatch.setattr(Lattice, "__init__",
                        lambda self, *a: inits.append(a) or init(self, *a))
    transported = []
    transport = partitions._transport_rows
    monkeypatch.setattr(partitions, "_transport_rows",
                        lambda assignment, rows: transported.append(
                            transport(assignment, rows)) or transported[-1])
    image = apply_map(g, core)
    assert image.basis == image_rows and image.basis is transported[-1]
    assert image.ambient_dim == 5
    assert hnf_inputs == [] and inits == []
    unordered = AcceptableMap((2, 1, 2))
    assert not is_growth_string(unordered.assignment)
    image = apply_map(unordered, core)
    assert hnf_inputs == [((1, 2, 1), (3, 0, 3))]
    assert image.basis == ((1, 2, 1), (0, 6, 0))
    assert inits[-1] == (3, ((1, 2, 1), (0, 6, 0)))


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
        if len(lat.basis) == lat.ambient_dim:
            cores.append(lat)
    return cores


def _accepted(image):
    # the image is a value the validating constructor builds as it is
    return Lattice(image.ambient_dim, image.basis) == image


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
                    assert _accepted(image)
    assert seen_zero_source


def test_ordered_images_of_the_cores_are_canonical():
    # every ordered map with n + k <= 5 on every full-rank multiplicative
    # core of index <= 8: the image, stored unchecked, is what the
    # constructor accepts
    pairs = 0
    for n in range(6):
        cores = ([Lattice(0, ())] if n == 0 else
                 [core for r in range(1, 9)
                  for core in enumerate_full_rank_multiplicative(n, r)])
        for total in range(n, 6):
            for g in enumerate_ordered_maps(n, total):
                for core in cores:
                    image = apply_map(g, core)
                    assert image.rank == n and _accepted(image), (g, core)
                    pairs += 1
    assert pairs == 16687


def test_order_check_is_the_growth_string_test():
    # every tuple of labels 0..3 of length <= 6, maps or not
    for length in range(7):
        for assignment in product(range(4), repeat=length):
            assert _is_ordered(assignment) == is_growth_string(assignment), (
                assignment)


def test_apply_map_equals_naive_transport_for_unordered_maps():
    rng = random.Random(1718)
    unordered = 0
    for _ in range(400):
        n = rng.randint(0, 6)
        target = rng.randint(n, 8)
        while True:
            assignment = tuple(rng.randint(0, n) for _ in range(target))
            if set(range(1, n + 1)) <= set(assignment):
                break
        g = AcceptableMap(assignment)
        unordered += not is_growth_string(g.assignment)
        for core in _random_full_rank_cores(rng, n, 2):
            image = apply_map(g, core)
            assert image == lattice_from_rows(target, _naive_image_rows(g, core))
            assert _accepted(image)
    assert unordered > 200


def test_apply_map_reads_the_order_of_every_label():
    # sources 5 and 6 relabeled past the first three: the first labels of
    # the assignment are in order, and only a later one is not
    rng = random.Random(1719)
    late = 0
    for n in (5, 6):
        cores = _random_full_rank_cores(rng, n, 3)
        for target in (n, n + 1, n + 2):
            maps = list(enumerate_ordered_maps(n, target))
            for ordered in rng.sample(maps, min(len(maps), 12)):
                tail = list(range(4, n + 1))
                rng.shuffle(tail)
                perm = [1, 2, 3] + tail
                g = AcceptableMap(tuple(perm[a - 1] if a else 0
                                        for a in ordered.assignment))
                late += not is_growth_string(g.assignment)
                for core in cores:
                    image = apply_map(g, core)
                    assert image == lattice_from_rows(
                        target, _naive_image_rows(g, core))
                    assert _accepted(image)
    assert late > 20
