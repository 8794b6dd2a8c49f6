"""The parsed-purchases snapshot that ``load_purchases`` keeps beside its CSV.

A hit must return the log a parse returns, field by field with dtypes; any
change to the file, and any snapshot that cannot be read, must fall back to
a parse; a directory that cannot be written must still load.
"""
import errno
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from segflow import ingest
from segflow.cli import main
from segflow.ingest import SNAPSHOT_DIR, ValidationError, load_purchases

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


def snapshot_of(csv: Path) -> Path:
    return csv.parent / SNAPSHOT_DIR / (csv.name + ".npz")


def assert_same_log(got, want):
    for name in ("customer_ids", "store_ids", "home", "location"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("customer", "store", "amount"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def load_from_snapshot(path: Path):
    """``load_purchases`` with parsing forbidden: only a hit can return."""
    with mock.patch.object(ingest, "_parse_purchases", side_effect=AssertionError("parsed")):
        return load_purchases(path)


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "purchases.csv"
    path.write_text(PURCHASES)
    return path


def test_hit_returns_the_parsed_log(csv_file):
    parsed = load_purchases(csv_file)
    assert snapshot_of(csv_file).is_file()
    assert_same_log(load_from_snapshot(csv_file), parsed)
    assert parsed.customer_ids == ["C1", "C,2", "C\n3"]
    assert parsed.home == ["N1", None, "N2"] and parsed.location == ["N2", None]


def test_snapshot_has_the_csv_permissions(csv_file):
    csv_file.chmod(0o640)
    load_purchases(csv_file)
    assert snapshot_of(csv_file).stat().st_mode & 0o777 == 0o640


def test_id_ending_in_nul_round_trips(tmp_path):
    path = tmp_path / "purchases.csv"
    path.write_text("customer_id,store_id,timestamp,amount,customer_home\n"
                    "C\x00,S\x00\x00,2013-05-01T10:00:00,1.0,N1\x00\n"
                    "C,S,2013-05-01T10:00:00,2.0,N1\n")
    parsed = load_purchases(path)
    assert parsed.customer_ids == ["C\x00", "C"] and parsed.store_ids == ["S\x00\x00", "S"]
    assert parsed.home == ["N1\x00", "N1"]
    assert_same_log(load_from_snapshot(path), parsed)


def test_edited_cell_misses_and_returns_new_values(csv_file):
    load_purchases(csv_file)
    csv_file.write_text(PURCHASES.replace("12.5", "99.5"))
    edited = load_purchases(csv_file)
    assert edited.amount.tolist() == [99.5, 3.0, 7.25]
    assert_same_log(load_from_snapshot(csv_file), edited)


def garbage(valid: bytes) -> bytes:
    return b"not a snapshot\n" * 10


def truncated(valid: bytes) -> bytes:
    return valid[:len(valid) // 2]


def foreign(valid: bytes) -> bytes:
    return valid.replace(b"customer_ids_ends", b"customer_ids_gone")


@pytest.mark.parametrize("damage", [garbage, truncated, foreign])
def test_unreadable_snapshot_misses_and_is_overwritten(csv_file, damage):
    parsed = load_purchases(csv_file)
    snapshot = snapshot_of(csv_file)
    snapshot.write_bytes(damage(snapshot.read_bytes()))
    assert_same_log(load_purchases(csv_file), parsed)
    assert_same_log(load_from_snapshot(csv_file), parsed)


def test_snapshot_with_another_key_misses(csv_file, tmp_path):
    other = tmp_path / "other" / "purchases.csv"
    other.parent.mkdir()
    other.write_text(PURCHASES.replace("C1", "D1"))
    load_purchases(other)
    csv_file.parent.joinpath(SNAPSHOT_DIR).mkdir()
    shutil.copy(snapshot_of(other), snapshot_of(csv_file))
    assert load_purchases(csv_file).customer_ids[0] == "C1"


def refuse(*args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied")


@pytest.mark.parametrize("blocked", ["read-only", "cache-is-a-file"])
def test_unwritable_directory_still_loads(csv_file, blocked, monkeypatch):
    """A read-only directory (simulated: the superuser ignores file modes)
    or a file in the snapshot directory's place."""
    if blocked == "read-only":
        monkeypatch.setattr(ingest.tempfile, "mkstemp", refuse)
    else:
        (csv_file.parent / SNAPSHOT_DIR).write_text("")
    expected = ingest._parse_purchases(csv_file)
    for _ in range(2):
        assert_same_log(load_purchases(csv_file), expected)
    assert not list(csv_file.parent.rglob("*.npz"))
    assert not list(csv_file.parent.rglob("*.tmp"))


def test_file_changed_during_parse_is_not_snapshotted(csv_file):
    parse = ingest._parse_purchases

    def parse_then_append(path):
        log = parse(path)
        with open(path, "a") as fh:
            fh.write("C4,S4,2013-05-01T13:00:00,1.0,N3,N4\n")
        return log

    with mock.patch.object(ingest, "_parse_purchases", parse_then_append):
        assert len(load_purchases(csv_file)) == 3
    assert not snapshot_of(csv_file).exists()
    assert len(load_purchases(csv_file)) == 4


def test_corrupt_csv_raises_same_message_every_call(csv_file):
    csv_file.write_text(PURCHASES + "C5,S5,2013-05-01T14:00:00,abc,N1,N2\n")
    messages = []
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            load_purchases(csv_file)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("purchases.csv: line 6: amount is not a finite number: 'abc'")
    assert not list(csv_file.parent.rglob("*.npz"))


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
    with mock.patch.object(ingest, "_parse_purchases", side_effect=AssertionError("parsed")):
        for command, flags in COMMANDS:
            out = tmp_path / "warm" / command
            assert main([command, *flags, "--data", str(smoke_city), "--out", str(out)]) == 0
            warm[command] = tree_hashes(out)
    assert warm == cold
    assert all("manifest.json" in hashes for hashes in cold.values())


def segflow(args: list[str], **env) -> subprocess.CompletedProcess:
    environ = {k: v for k, v in os.environ.items() if k != "SEGFLOW_LOG"}
    environ.update(env, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "segflow.cli", *args], env=environ,
                          capture_output=True, text=True, timeout=120)


def test_second_command_logs_a_hit(smoke_city, tmp_path):
    city = tmp_path / "city"
    shutil.copytree(smoke_city, city, ignore=shutil.ignore_patterns(SNAPSHOT_DIR))
    first = segflow(["ingest", "--data", str(city), "--out", str(tmp_path / "i")],
                    SEGFLOW_LOG="INFO")
    assert first.returncode == 0, first.stderr
    assert "purchase snapshot miss (none)" in first.stderr
    logged = segflow(["mixing", "--data", str(city), "--out", str(tmp_path / "logged")],
                     SEGFLOW_LOG="INFO")
    assert logged.returncode == 0, logged.stderr
    assert "INFO segflow.ingest: purchase snapshot hit" in logged.stderr
    quiet = segflow(["mixing", "--data", str(city), "--out", str(tmp_path / "quiet")])
    assert quiet.returncode == 0 and quiet.stderr == ""
    assert tree_hashes(tmp_path / "logged") == tree_hashes(tmp_path / "quiet")


def test_unknown_log_level_exits_one(tmp_path):
    done = segflow(["ingest", "--data", str(tmp_path), "--out", str(tmp_path / "o")],
                   SEGFLOW_LOG="LOUD")
    assert done.returncode == 1
    assert "error: Unknown level: 'LOUD'" in done.stderr
