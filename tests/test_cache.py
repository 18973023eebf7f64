"""The append-only count store and its invalidation behavior."""

import ast
import json
from pathlib import Path

import pytest

import multlat
from multlat import ENGINE_VERSION
from multlat.cache import CountCache, CountRecord


def rec(n=2, k=1, r=3, count=18, method="oracle"):
    return CountRecord(n, k, r, count, method)


def line(**fields):
    """A stored line as put() writes it, with fields replaced."""
    return {"n": 2, "k": 1, "r": 3, "method": "oracle",
            "engine_version": ENGINE_VERSION, "count": 18,
            "created_at": "2026-01-01T00:00:00+00:00", **fields}


def test_a_record_holds_no_engine_version():
    assert CountRecord._fields == ("n", "k", "r", "count", "method")


def test_only_the_cache_reads_the_engine_version():
    # the package defines it; of its modules, only the cache stamps and
    # compares it
    def reads(path):
        return any(isinstance(node, ast.Name) and node.id == "ENGINE_VERSION"
                   or isinstance(node, ast.alias)
                   and node.name == "ENGINE_VERSION"
                   for node in ast.walk(ast.parse(path.read_text())))

    package = Path(multlat.__file__).parent
    assert sorted(path.name for path in package.glob("*.py")
                  if reads(path)) == ["__init__.py", "cache.py"]


def test_put_then_get(tmp_path):
    cache = CountCache(tmp_path / "counts.jsonl")
    assert cache.get(2, 1, 3, "oracle") is None
    cache.put(rec())
    assert cache.get(2, 1, 3, "oracle") == 18
    assert len(cache._index) == 1


def test_reload_from_disk(tmp_path):
    path = tmp_path / "counts.jsonl"
    CountCache(path).put(rec())
    fresh = CountCache(path)
    assert fresh.get(2, 1, 3, "oracle") == 18


def test_file_is_json_lines_with_sorted_keys(tmp_path):
    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    cache.put(rec())
    cache.put(rec(r=4, count=39))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for text in lines:
        data = json.loads(text)
        assert list(data) == ["count", "created_at", "engine_version", "k",
                              "method", "n", "r"]
        # put() stamps the version the record itself does not carry
        assert data["engine_version"] == ENGINE_VERSION
        assert data["created_at"].endswith("+00:00")


def test_idempotent_put_appends_nothing(tmp_path):
    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    cache.put(rec())
    cache.put(rec())
    assert len(path.read_text().splitlines()) == 1


def test_conflicting_count_raises(tmp_path):
    cache = CountCache(tmp_path / "counts.jsonl")
    cache.put(rec(count=18))
    with pytest.raises(RuntimeError, match="conflict"):
        cache.put(rec(count=19))


def test_engine_version_is_part_of_the_key(tmp_path):
    path = tmp_path / "counts.jsonl"
    old = json.dumps(line(engine_version="0.0.9", count=17)) + "\n"
    path.write_text(old)
    cache = CountCache(path)
    # an entry written by another engine version is never served, nor
    # indexed
    assert cache.get(2, 1, 3, "oracle") is None
    assert cache._index == {}
    # so a current count that differs from it is no conflict, and storing
    # it leaves the old line in the file
    cache.put(rec(count=18))
    assert path.read_text().startswith(old)
    assert len(path.read_text().splitlines()) == 2
    assert cache.get(2, 1, 3, "oracle") == 18
    fresh = CountCache(path)
    assert fresh._index == {(2, 1, 3, "oracle"): 18}


def test_lines_that_carry_a_bound_multiplier_are_left_behind(tmp_path):
    # engine 0.2.0 also keyed each line by the census bound multiplier; the
    # version bump leaves its lines, under either multiplier, unserved and
    # untouched, and a fresh line records no multiplier
    path = tmp_path / "counts.jsonl"
    old = line(engine_version="0.2.0")
    text = "".join(json.dumps({**old, "bound_multiplier": bound}) + "\n"
                   for bound in (1, 2))
    path.write_text(text)
    cache = CountCache(path)
    assert cache.get(2, 1, 3, "oracle") is None
    cache.put(rec())
    assert path.read_text().startswith(text)
    new = json.loads(path.read_text().splitlines()[-1])
    assert "bound_multiplier" not in new
    assert new["engine_version"] == ENGINE_VERSION
    assert CountCache(path).get(2, 1, 3, "oracle") == 18


def test_created_at_distinguishes_old_and_new(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text(json.dumps(line(engine_version="0.0.9",
                                    created_at="2000-01-01T00:00:00+00:00"))
                    + "\n")
    CountCache(path).put(rec())
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [data["engine_version"] for data in lines] == ["0.0.9",
                                                          ENGINE_VERSION]
    old, new = (data["created_at"] for data in lines)
    assert old <= new


def test_malformed_lines_are_skipped(tmp_path, capsys):
    path = tmp_path / "counts.jsonl"
    good = line()
    # a count or key field that is not a JSON integer, or a negative count,
    # would otherwise reach stdout as a served count
    bad = [{**good, "r": 4, "count": 18.9},
           {**good, "r": 4, "count": -3},
           {**good, "r": 4, "count": True},
           {**good, "r": 4, "count": "18"},
           {**good, "r": 4.0},
           {**good, "n": True},
           {**good, "k": "1"}]
    # a blank line is skipped with no warning
    path.write_text(
        "not json at all\n"
        + "\n \n"
        + json.dumps(good) + "\n"
        + json.dumps({"n": 1}) + "\n"
        + "".join(json.dumps(line) + "\n" for line in bad))
    cache = CountCache(path)
    err = capsys.readouterr().err
    assert err.count("skipping unreadable line") == 2 + len(bad)
    assert cache.get(2, 1, 3, "oracle") == 18
    assert cache.get(2, 1, 4, "oracle") is None
    assert len(cache._index) == 1


def test_lines_of_other_versions_are_checked_as_current_ones(tmp_path,
                                                             capsys):
    # every line is checked before its version is read, so a malformed line
    # of another version warns exactly as a current one does, and a line
    # with no version at all is malformed
    path = tmp_path / "counts.jsonl"
    bad = [line(engine_version="0.0.9", count=18.9),
           line(engine_version="0.0.9", n=True),
           line(engine_version="0.0.9", r=0)]
    missing = line()
    del missing["engine_version"]
    path.write_text("".join(json.dumps(data) + "\n"
                            for data in (*bad, missing)))
    cache = CountCache(path)
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"cache: skipping unreadable line 1 of {path}: not an integer: 18.9",
        f"cache: skipping unreadable line 2 of {path}: not an integer: True",
        f"cache: skipping unreadable line 3 of {path}: torsion size must "
        "be at least 1",
        f"cache: skipping unreadable line 4 of {path}: 'engine_version'"]
    assert cache._index == {}


def test_lines_put_could_not_write_are_skipped(tmp_path, capsys):
    # a line is read as the CountRecord it stores: an unknown method and a
    # co-rank 0 formula record each warn once, with the record's own
    # reason, and neither is served
    path = tmp_path / "counts.jsonl"
    bad = [line(method="Oracle"), line(k=0, method="formula")]
    reasons = []
    for data in bad:
        with pytest.raises(ValueError) as exc:
            rec(data["n"], data["k"], data["r"], data["count"],
                data["method"])
        reasons.append(str(exc.value))
    path.write_text("".join(json.dumps(data) + "\n"
                            for data in (*bad, line())))
    cache = CountCache(path)
    assert capsys.readouterr().err.splitlines() == [
        f"cache: skipping unreadable line {lineno} of {path}: {reason}"
        for lineno, reason in enumerate(reasons, 1)]
    assert cache.get(2, 1, 3, "Oracle") is None
    assert cache.get(2, 0, 3, "formula") is None
    assert cache.get(2, 1, 3, "oracle") == 18
    assert len(cache._index) == 1


def test_last_entry_wins_on_replay(tmp_path):
    path = tmp_path / "counts.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(line(count=7)) + "\n")
        fh.write(json.dumps(line(count=18)) + "\n")
    assert CountCache(path).get(2, 1, 3, "oracle") == 18


def test_missing_file_is_empty_cache(tmp_path):
    cache = CountCache(tmp_path / "nope" / "counts.jsonl")
    assert len(cache._index) == 0
    # first put creates the parent directory
    cache.put(rec())
    assert cache.get(2, 1, 3, "oracle") == 18


def test_put_after_torn_last_line_survives_reload(tmp_path, capsys):
    # a writer killed mid-line leaves a last line with no newline
    path = tmp_path / "counts.jsonl"
    path.write_text('{"n": 2, "k": 1, "r"')
    cache = CountCache(path)
    cache.put(rec())
    capsys.readouterr()
    fresh = CountCache(path)
    err = capsys.readouterr().err
    assert err.count("skipping unreadable line") == 1
    assert "line 1 " in err
    assert fresh.get(2, 1, 3, "oracle") == 18
    assert len(path.read_text().splitlines()) == 2


def test_two_writers_append_without_losing_lines(tmp_path):
    path = tmp_path / "counts.jsonl"
    first, second = CountCache(path), CountCache(path)
    for r in range(1, 7):
        writer = first if r % 2 else second
        writer.put(rec(r=r, count=10 + r))
    fresh = CountCache(path)
    assert len(fresh._index) == 6
    for r in range(1, 7):
        assert fresh.get(2, 1, r, "oracle") == 10 + r
    assert len(path.read_text().splitlines()) == 6


@pytest.mark.parametrize("fields", [
    dict(n=-1), dict(k=-2), dict(r=0), dict(count=-1),
    dict(n=1.5), dict(k=1.0), dict(r=3.0), dict(count=18.0),
    dict(n=True), dict(k=False), dict(r=True), dict(count=True),
    dict(count="18"),
])
def test_count_record_validates_what_the_loader_validates(tmp_path, capsys,
                                                          fields):
    # a record put() could write must be one _load() serves again: each bad
    # record is refused on creation, and the same fields written as a line
    # are skipped on load
    with pytest.raises(ValueError):
        rec(**fields)
    path = tmp_path / "counts.jsonl"
    path.write_text(json.dumps(line(**fields)) + "\n")
    assert len(CountCache(path)._index) == 0
    assert capsys.readouterr().err.count("skipping unreadable line") == 1


@pytest.mark.parametrize("fields", [
    dict(), dict(n=0, k=0, r=1, count=1, method="unital"),
    dict(n=0, k=3, r=1, count=1), dict(count=0),
])
def test_every_record_put_writes_is_served_after_reload(tmp_path, fields):
    path = tmp_path / "counts.jsonl"
    record = rec(**fields)
    CountCache(path).put(record)
    fresh = CountCache(path)
    assert fresh.get(record.n, record.k, record.r, record.method) \
        == record.count
