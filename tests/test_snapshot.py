"""The parsed snapshots that ``load_purchases``, ``load_mentions``,
``load_geoposts`` and ``load_geometry`` keep beside their input files.

A hit must return the value a parse returns, field by field with dtypes;
any change to the file, and any snapshot that cannot be read, must fall
back to a parse; a directory that cannot be written must still load.  Each
test below runs on all four inputs.
"""
import dataclasses
import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest

from segflow import cli, ingest
from segflow.cli import main
from segflow.ingest import (SNAPSHOT_DIR, ValidationError, load_geometry, load_geoposts,
                            load_mentions, load_purchases)

SRC = Path(__file__).resolve().parent.parent / "src"

SMOKE_ARGS = ["--preset", "homophilous", "--seed", "7",
              "--n-neighborhoods", "64", "--n-purchase-events", "6000",
              "--n-mention-events", "4000", "--n-customers", "300",
              "--n-stores", "200", "--n-twitter-users", "300"]

# The ten analysis commands, with replicate counts cut to keep the test short.
COMMANDS = [
    ("ingest", []),
    ("diversity", []),
    ("network", []),
    ("mixing", ["--k", "10"]),
    ("sweep", ["--jackknife-replicates", "5", "--seed", "1"]),
    ("asymmetry", []),
    ("gravity", ["--eps-step", "0.1"]),
    ("null", ["--replicates", "5", "--seed", "1"]),
    ("jackknife", ["--replicates", "5", "--seed", "1"]),
    ("gini-report", ["--replicates", "3", "--seed", "1"]),
]

PURCHASES = ("customer_id,store_id,timestamp,amount,customer_home,store_neighborhood\n"
             "C1,S1,2013-05-01T10:00:00,12.5,N1,N2\n"
             '"C,2",S1,2013-05-01T11:00:00,3.0,,N2\n'
             '"C\n3",S2,2013-05-01T12:00:00,7.25,N2,\n')
MENTIONS = ("source_user,target_user,timestamp\n"
            "u1,u2,2013-05-01T10:00:00\n"
            '"u,2",u1,2013-05-01T11:00:00\n'
            "u3,u3,2013-05-01T12:00:00\n")
GEOPOSTS = ("user_id,lat,lon,timestamp\n"
            "u1,0.5,0.5,2013-05-01T23:00:00\n"
            '"u\n2",1.5,0.25,2013-05-01T10:00:00+02:00\n')
SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
HOLE = [[0.25, 0.25], [0.75, 0.25], [0.75, 0.75], [0.25, 0.25]]
# ids out of sorted order: a hit must keep the file's order
GEOMETRY = json.dumps({"N2": [SQUARE], "N\x001": [SQUARE, HOLE]})


class Input(NamedTuple):
    """One snapshotted input: its file name and contents, the contents with
    one value changed (and a different length), contents that fail
    validation and the end of their message, its loader and the name of
    the ingest function that parses it."""

    name: str
    text: str
    edited: str
    corrupt: str
    message: str
    load: Callable
    parse: str


INPUTS = [
    Input("purchases.csv", PURCHASES, PURCHASES.replace("12.5", "99.75"),
          PURCHASES + "C5,S5,2013-05-01T14:00:00,abc,N1,N2\n",
          "purchases.csv: line 6: amount is not a finite number: 'abc'",
          load_purchases, "_parse_purchases"),
    Input("mentions.csv", MENTIONS, MENTIONS.replace("u1,u2", "u1,u22"),
          MENTIONS + "u4,u1,noon\n", "mentions.csv: line 5: bad timestamp 'noon'",
          load_mentions, "_parse_mentions"),
    Input("geoposts.csv", GEOPOSTS, GEOPOSTS.replace("u1,0.5", "u1,0.75"),
          GEOPOSTS + "u3,95,0.5,2013-05-01T10:00:00\n",
          "geoposts.csv: line 5: coordinates out of range", load_geoposts, "_parse_geoposts"),
    Input("geometry.json", GEOMETRY, GEOMETRY.replace("[0.75, 0.75]", "[0.5, 0.875]"),
          json.dumps({"N2": [SQUARE], "N3": [SQUARE[:-1] + [[0, 0.5]]]}),
          "malformed polygon for 'N3': ring not closed", load_geometry, "_parse_geometry"),
]


def snapshot_of(path: Path) -> Path:
    return path.parent / SNAPSHOT_DIR / (path.name + ".npz")


def assert_same(got, want):
    """Equal field by field, dtypes included; polygons in the same order."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for nid, rings in want.items():
            assert len(got[nid]) == len(rings), nid
            for a, b in zip(got[nid], rings):
                assert a.dtype == b.dtype and np.array_equal(a, b), nid
        return
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def parsed(source: Input, path: Path):
    return getattr(ingest, source.parse)(path)


@contextmanager
def parsing_forbidden():
    """Every snapshotted loader with its parse forbidden."""
    with ExitStack() as stack:
        for source in INPUTS:
            stack.enter_context(mock.patch.object(ingest, source.parse,
                                                  side_effect=AssertionError("parsed")))
        yield


def load_from_snapshot(source: Input, path: Path):
    """The loader with parsing forbidden: only a hit can return."""
    with parsing_forbidden():
        return source.load(path)


@pytest.fixture
def inputs(tmp_path):
    """Each input and its file, all in one directory."""
    files = []
    for source in INPUTS:
        path = tmp_path / source.name
        path.write_text(source.text)
        files.append((source, path))
    return files


def test_hit_returns_the_parsed_log(inputs):
    for source, path in inputs:
        first = source.load(path)
        assert snapshot_of(path).is_file(), source.name
        assert_same(first, parsed(source, path))
        assert_same(load_from_snapshot(source, path), first)


def test_purchase_hit_keeps_unknown_places(tmp_path):
    csv_file = tmp_path / "purchases.csv"
    csv_file.write_text(PURCHASES)
    purchases = load_purchases(csv_file)
    assert purchases.customer_ids == ["C1", "C,2", "C\n3"]
    assert purchases.home == ["N1", None, "N2"] and purchases.location == ["N2", None]
    assert_same(load_from_snapshot(INPUTS[0], csv_file), purchases)


def test_snapshot_has_the_csv_permissions(inputs):
    for source, path in inputs:
        path.chmod(0o640)
        source.load(path)
        assert snapshot_of(path).stat().st_mode & 0o777 == 0o640, source.name


def test_id_ending_in_nul_round_trips(tmp_path):
    path = tmp_path / "purchases.csv"
    path.write_text("customer_id,store_id,timestamp,amount,customer_home\n"
                    "C\x00,S\x00\x00,2013-05-01T10:00:00,1.0,N1\x00\n"
                    "C,S,2013-05-01T10:00:00,2.0,N1\n")
    purchases = load_purchases(path)
    assert purchases.customer_ids == ["C\x00", "C"] and purchases.store_ids == ["S\x00\x00", "S"]
    assert purchases.home == ["N1\x00", "N1"]
    assert_same(load_from_snapshot(INPUTS[0], path), purchases)


def test_edited_cell_misses_and_returns_new_values(inputs):
    for source, path in inputs:
        original = source.load(path)
        path.write_text(source.edited)
        edited = source.load(path)
        assert_same(edited, parsed(source, path))
        with pytest.raises(AssertionError):
            assert_same(edited, original)
        assert_same(load_from_snapshot(source, path), edited)


def garbage(valid: bytes) -> bytes:
    return b"not a snapshot\n" * 10


def truncated(valid: bytes) -> bytes:
    return valid[:len(valid) // 2]


def foreign(valid: bytes) -> bytes:
    """Every id column's end offsets renamed away."""
    assert b"ids_ends" in valid
    return valid.replace(b"ids_ends", b"ids_gone")


@pytest.mark.parametrize("damage", [garbage, truncated, foreign])
def test_unreadable_snapshot_misses_and_is_overwritten(inputs, damage):
    for source, path in inputs:
        first = source.load(path)
        snapshot = snapshot_of(path)
        snapshot.write_bytes(damage(snapshot.read_bytes()))
        assert_same(source.load(path), first)
        assert_same(load_from_snapshot(source, path), first)


def test_snapshot_with_another_key_misses(inputs, tmp_path):
    other = tmp_path / "other"
    other.mkdir()
    for source, path in inputs:
        elsewhere = other / source.name
        elsewhere.write_text(source.edited)
        source.load(elsewhere)
        snapshot_of(path).parent.mkdir(exist_ok=True)
        shutil.copy(snapshot_of(elsewhere), snapshot_of(path))
        assert_same(source.load(path), parsed(source, path))


def refuse(*args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied")


@pytest.mark.parametrize("blocked", ["read-only", "cache-is-a-file"])
def test_unwritable_directory_still_loads(inputs, tmp_path, blocked, monkeypatch):
    """A read-only directory (simulated: the superuser ignores file modes)
    or a file in the snapshot directory's place."""
    if blocked == "read-only":
        monkeypatch.setattr(ingest.tempfile, "mkstemp", refuse)
    else:
        (tmp_path / SNAPSHOT_DIR).write_text("")
    for source, path in inputs:
        expected = parsed(source, path)
        for _ in range(2):
            assert_same(source.load(path), expected)
    assert not list(tmp_path.rglob("*.npz"))
    assert not list(tmp_path.rglob("*.tmp"))


def test_file_changed_during_parse_is_not_snapshotted(inputs):
    for source, path in inputs:
        parse = getattr(ingest, source.parse)

        def parse_then_edit(path, parse=parse, source=source):
            value = parse(path)
            path.write_text(source.edited)
            return value

        with mock.patch.object(ingest, source.parse, parse_then_edit):
            old = source.load(path)
        assert not snapshot_of(path).exists(), source.name
        path.write_text(source.text)
        assert_same(old, parsed(source, path))
        path.write_text(source.edited)
        assert_same(source.load(path), parsed(source, path))


def test_corrupt_csv_raises_same_message_every_call(inputs, tmp_path):
    """Also a corrupt geometry.json."""
    for source, path in inputs:
        path.write_text(source.corrupt)
        messages = []
        for _ in range(2):
            with pytest.raises(ValidationError) as info:
                source.load(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith(source.message)
    assert not list(tmp_path.rglob("*.npz"))


@pytest.fixture(scope="module")
def smoke_city(tmp_path_factory):
    city = tmp_path_factory.mktemp("smoke")
    assert main(["synth", "--out", str(city)] + SMOKE_ARGS) == 0
    return city


def tree_hashes(root: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


def test_cold_and_warm_runs_write_identical_trees(smoke_city, tmp_path):
    """Each command once with no snapshot, then again from the snapshot."""
    cold, warm = {}, {}
    for command, flags in COMMANDS:
        shutil.rmtree(smoke_city / SNAPSHOT_DIR, ignore_errors=True)
        out = tmp_path / "cold" / command
        assert main([command, *flags, "--data", str(smoke_city), "--out", str(out)]) == 0
        cold[command] = tree_hashes(out)
    warm_city(smoke_city, tmp_path)
    with parsing_forbidden():
        for command, flags in COMMANDS:
            out = tmp_path / "warm" / command
            assert main([command, *flags, "--data", str(smoke_city), "--out", str(out)]) == 0
            warm[command] = tree_hashes(out)
        # homes are inferred on every call: another night window, other homes
        night = tmp_path / "warm" / "night-22"
        assert main(["ingest", "--night-start", "22", "--data", str(smoke_city),
                     "--out", str(night)]) == 0
    assert warm == cold
    assert all("manifest.json" in hashes for hashes in cold.values())
    assert tree_hashes(night)["homes.csv"] != warm["ingest"]["homes.csv"]


def warm_city(smoke_city: Path, tmp_path: Path) -> Path:
    """The smoke city after one ``ingest`` wrote its snapshots."""
    assert main(["ingest", "--data", str(smoke_city), "--out", str(tmp_path / "warm-up")]) == 0
    return smoke_city


def test_one_command_places_posts_and_infers_homes_once(smoke_city, tmp_path):
    """The benchmark's traced run records a span for each of these
    functions; a cache above them would leave it none."""
    city = warm_city(smoke_city, tmp_path)
    names = ("load_mentions", "load_geoposts", "load_geometry",
             "assign_points_to_neighborhoods", "infer_home")
    with ExitStack() as stack:
        calls = {name: stack.enter_context(mock.patch.object(
            cli, name, wraps=getattr(ingest, name))) for name in names}
        assert main(["mixing", "--data", str(city), "--out", str(tmp_path / "mixing")]) == 0
    assert {name: spy.call_count for name, spy in calls.items()} == dict.fromkeys(names, 1)


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_each_input_is_hashed_once_per_command(smoke_city, tmp_path, cache):
    """The manifest reuses the digests that keyed the snapshots."""
    if cache == "warm":
        warm_city(smoke_city, tmp_path)
    else:
        shutil.rmtree(smoke_city / SNAPSHOT_DIR, ignore_errors=True)
    with mock.patch.object(ingest, "_sha256", wraps=ingest._sha256) as sha256:
        assert main(["network", "--data", str(smoke_city), "--out", str(tmp_path / "net")]) == 0
    hashed = Counter(Path(call.args[0]).name for call in sha256.call_args_list)
    assert hashed == Counter({name: 1 for name in (*cli.DATA_FILES, "ingest.py")})
    manifest = json.loads((tmp_path / "net" / "manifest.json").read_text())
    assert manifest["inputs"] == {name: ingest._sha256(smoke_city / name)
                                  for name in cli.DATA_FILES}


def segflow(args: list[str], **env) -> subprocess.CompletedProcess:
    environ = {k: v for k, v in os.environ.items() if k != "SEGFLOW_LOG"}
    environ.update(env, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "segflow.cli", *args], env=environ,
                          capture_output=True, text=True, timeout=120)


# how each loader names its snapshot in log lines
SNAPSHOTTED = ("purchase", "mention", "geopost", "geometry")


def test_second_command_logs_a_hit(smoke_city, tmp_path):
    city = tmp_path / "city"
    shutil.copytree(smoke_city, city, ignore=shutil.ignore_patterns(SNAPSHOT_DIR))
    first = segflow(["ingest", "--data", str(city), "--out", str(tmp_path / "i")],
                    SEGFLOW_LOG="INFO")
    assert first.returncode == 0, first.stderr
    for what in SNAPSHOTTED:
        assert f"{what} snapshot miss (none)" in first.stderr
    logged = segflow(["mixing", "--data", str(city), "--out", str(tmp_path / "logged")],
                     SEGFLOW_LOG="INFO")
    assert logged.returncode == 0, logged.stderr
    for what in SNAPSHOTTED:
        assert f"INFO segflow.ingest: {what} snapshot hit" in logged.stderr
    quiet = segflow(["mixing", "--data", str(city), "--out", str(tmp_path / "quiet")])
    assert quiet.returncode == 0 and quiet.stderr == ""
    assert tree_hashes(tmp_path / "logged") == tree_hashes(tmp_path / "quiet")


def test_unknown_log_level_exits_one(tmp_path):
    done = segflow(["ingest", "--data", str(tmp_path), "--out", str(tmp_path / "o")],
                   SEGFLOW_LOG="LOUD")
    assert done.returncode == 1
    assert "error: Unknown level: 'LOUD'" in done.stderr
