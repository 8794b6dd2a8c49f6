import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from segflow.cli import COMMANDS, main, read_config_file

SRC = Path(__file__).resolve().parent.parent / "src"

SYNTH_ARGS = ["--preset", "homophilous", "--seed", "7",
              "--n-neighborhoods", "144", "--n-purchase-events", "12000",
              "--n-mention-events", "6000", "--n-customers", "600",
              "--n-stores", "400", "--n-twitter-users", "300"]


@pytest.fixture(scope="module")
def city_dir(tmp_path_factory):
    data = tmp_path_factory.mktemp("city")
    assert main(["synth", "--out", str(data)] + SYNTH_ARGS) == 0
    return data


DATA_COMMANDS = [name for name in COMMANDS if name != "synth"]


def copy_city(city_dir: Path, dest: Path, purchase_lines: list[str]) -> Path:
    """The city in ``dest``, with purchases.csv replaced by ``purchase_lines``."""
    dest.mkdir()
    for path in city_dir.iterdir():
        if path.is_file() and path.name not in ("purchases.csv", "manifest.json"):
            shutil.copy(path, dest / path.name)
    (dest / "purchases.csv").write_text("".join(purchase_lines))
    return dest


def tree_hashes(root: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.is_file()}


class TestSmoke:
    def test_synth_writes_city_and_manifest(self, city_dir):
        for name in ("neighborhoods.csv", "geometry.json", "purchases.csv",
                     "mentions.csv", "geoposts.csv", "truth.json", "manifest.json"):
            assert (city_dir / name).exists(), name
        manifest = json.loads((city_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["seed"] == 7
        assert "version" in manifest

    def test_pipeline_commands_run(self, city_dir, tmp_path):
        for cmd, extra in [("ingest", []), ("diversity", []), ("network", []),
                           ("mixing", []), ("asymmetry", [])]:
            out = tmp_path / cmd
            code = main([cmd, "--data", str(city_dir), "--out", str(out)] + extra)
            assert code == 0, cmd
            assert (out / "manifest.json").exists()

    def test_sweep_row_count(self, city_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--data", str(city_dir), "--out", str(out),
                     "--jackknife-replicates", "0", "--seed", "1"]) == 0
        for channel in ("purchase", "mention"):
            lines = (out / f"sweep_extremes_{channel}.csv").read_text().splitlines()
            assert len(lines) == 1 + 5  # header + k/2 steps at k=10

    def test_null_jackknife_gravity_report(self, city_dir, tmp_path):
        assert main(["null", "--data", str(city_dir), "--out", str(tmp_path / "null"),
                     "--replicates", "20", "--seed", "2"]) == 0
        lines = (tmp_path / "null" / "null_purchase.csv").read_text().splitlines()
        assert lines[0] == "replicate,statistic,value"
        assert len(lines) == 1 + 40  # 20 assortativity + 20 bias rows

        assert main(["jackknife", "--data", str(city_dir),
                     "--out", str(tmp_path / "jk"), "--replicates", "20",
                     "--seed", "2"]) == 0
        payload = json.loads((tmp_path / "jk" / "jackknife_purchase.json").read_text())
        assert payload["ci_low"] <= payload["ci_high"]

        assert main(["gravity", "--data", str(city_dir),
                     "--out", str(tmp_path / "grav"), "--eps-step", "0.05"]) == 0
        fit = json.loads((tmp_path / "grav" / "gravity_purchase.json").read_text())
        assert fit["c"] > 0

        assert main(["gini-report", "--data", str(city_dir),
                     "--out", str(tmp_path / "rep"), "--replicates", "5",
                     "--seed", "3"]) == 0
        lines = (tmp_path / "rep" / "report.csv").read_text().splitlines()
        assert lines[0].startswith("label,fraction,assortativity_mean")
        assert len(lines) == 1 + 2 + 5  # empirical, gravity, five fractions


class TestDeterminism:
    def test_synth_rerun_identical(self, city_dir, tmp_path):
        out = tmp_path / "again"
        assert main(["synth", "--out", str(out)] + SYNTH_ARGS) == 0
        assert tree_hashes(out) == tree_hashes(city_dir)

    def test_analysis_rerun_identical(self, city_dir, tmp_path):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["sweep", "--data", str(city_dir), "--out", str(out),
                         "--jackknife-replicates", "10", "--seed", "5"]) == 0
            runs.append(tree_hashes(out))
        assert runs[0] == runs[1]


class TestErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["mixing", "--out", "/tmp/x", "--bogus-flag", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_one(self):
        assert main(["transmogrify", "--out", "/tmp/x"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "command" in capsys.readouterr().out

    def test_missing_data_exits_one(self, tmp_path, capsys):
        code = main(["mixing", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("amount", ["abc", "nan", "inf"])
    def test_bad_purchase_amount_names_line(self, tmp_path, capsys, amount):
        data = tmp_path / "city"
        data.mkdir()
        (data / "neighborhoods.csv").write_text(
            "neighborhood_id,lat,lon,population,ses\nN1,40.0,-3.0,500,20\n")
        (data / "purchases.csv").write_text(
            "customer_id,store_id,timestamp,amount\n"
            "C1,S1,2013-05-01T10:00:00,12.5\n"
            f"C1,S1,2013-05-01T11:00:00,{amount}\n")
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
        assert "purchases.csv: line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("before", [
        "\n",                                            # a blank line 3
        '"C\n2",S1,2013-05-01T10:30:00,3.0\n',           # one row on lines 3-4
    ])
    def test_error_names_physical_line(self, tmp_path, capsys, before):
        data = tmp_path / "city"
        data.mkdir()
        (data / "neighborhoods.csv").write_text(
            "neighborhood_id,lat,lon,population,ses\nN1,40.0,-3.0,500,20\n")
        lines = ("customer_id,store_id,timestamp,amount\n"
                 "C1,S1,2013-05-01T10:00:00,12.5\n" + before
                 + "C1,S1,2013-05-01T11:00:00,abc\n")
        (data / "purchases.csv").write_text(lines)
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
        line = lines.count("\n")
        assert f"purchases.csv: line {line}: amount is not a finite number: 'abc'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["lat", "lon", "ses"])
    def test_non_finite_neighborhood_names_line(self, tmp_path, capsys, column):
        data = tmp_path / "city"
        data.mkdir()
        row = {"lat": "40.0", "lon": "-3.0", "ses": "20", column: "nan"}
        (data / "neighborhoods.csv").write_text(
            "neighborhood_id,lat,lon,population,ses\n"
            "N1,40.1,-3.1,600,30\n"
            f"N2,{row['lat']},{row['lon']},500,{row['ses']}\n")
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
        assert "neighborhoods.csv: line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_vertex_exits_one(self, tmp_path, capsys, value):
        data = tmp_path / "city"
        data.mkdir()
        (data / "neighborhoods.csv").write_text(
            "neighborhood_id,lat,lon,population,ses\nA,0.5,0.5,500,20\n")
        (data / "geometry.json").write_text(
            f'{{"A": [[[0,0],[1,0],[1,{value}],[0,1],[0,0]]]}}')
        (data / "geoposts.csv").write_text("user_id,lat,lon,timestamp\n"
                                           "u1,0.5,0.5,2013-05-01T23:00:00\n")
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
        assert ("error: malformed polygon for 'A': non-finite vertex"
                in capsys.readouterr().err)

    def test_internal_error_exits_two(self, tmp_path, monkeypatch):
        def boom(cfg, out):
            raise RuntimeError("wires crossed")
        monkeypatch.setitem(COMMANDS, "mixing", (boom, "", {"data": "."}))
        assert main(["mixing", "--data", ".", "--out", str(tmp_path / "o")]) == 2


class TestConfigResolution:
    def test_config_file_used_and_flags_win(self, city_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# analysis settings\nreplicates = 6\nseed = 9\n")
        out = tmp_path / "nullcfg"
        assert main(["null", "--data", str(city_dir), "--out", str(out),
                     "--config", str(config), "--seed", "11"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["replicates"] == 6   # from file
        assert manifest["config"]["seed"] == 11        # flag wins
        assert "run.cfg" in manifest["inputs"]

    def test_env_seed_fallback(self, city_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("SEGFLOW_SEED", "123")
        out = tmp_path / "envseed"
        assert main(["null", "--data", str(city_dir), "--out", str(out),
                     "--replicates", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 123

    def test_bad_config_line_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("replicates 6\n")
        with pytest.raises(Exception):
            read_config_file(config)

    @pytest.mark.parametrize("text, line, key", [
        ("seed = 9\nreplicate = 3\n", 2, "replicate"),   # misspelt: would run 100
        ("# where to write\nout = elsewhere\n", 2, "out"),  # a file cannot set --out
    ])
    def test_unknown_key_rejected(self, city_dir, tmp_path, capsys, text, line, key):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        out = tmp_path / "null"
        assert main(["null", "--data", str(city_dir), "--out", str(out),
                     "--config", str(config)]) == 1
        assert f"{config}: line {line}: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("mixing", "k", "ten"),
        ("null", "replicates", "2.5"),
        ("jackknife", "fraction", "half"),
        ("mixing", "ses_descending", "flase"),     # would run as false
        ("gravity", "linear_distance", "nope"),    # would run as false
    ])
    def test_value_of_wrong_type_rejected(self, city_dir, tmp_path, capsys,
                                          command, key, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\n{key} = {value}\n")
        out = tmp_path / command
        assert main([command, "--data", str(city_dir), "--out", str(out),
                     "--config", str(config)]) == 1
        assert f"{config}: line 2: {key} = {value!r}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, expected", [
        ("YES", True), ("On", True), ("1", True), ("no", False), ("OFF", False), ("0", False)])
    def test_boolean_spellings(self, city_dir, tmp_path, value, expected):
        config = tmp_path / "run.cfg"
        config.write_text(f"ses_descending = {value}\n")
        out = tmp_path / "mix"
        assert main(["mixing", "--data", str(city_dir), "--out", str(out),
                     "--config", str(config)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["ses_descending"] is expected

    def test_every_key_has_one_type(self):
        types = {}
        for _, _, defaults in COMMANDS.values():
            for key, default in defaults.items():
                types.setdefault(key, set()).add(type(default))
        assert {key: t for key, t in types.items() if len(t) > 1} == {}

    def test_bad_env_seed_named(self, city_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SEGFLOW_SEED", "abc")
        out = tmp_path / "envseed"
        assert main(["null", "--data", str(city_dir), "--out", str(out),
                     "--replicates", "5"]) == 1
        assert "SEGFLOW_SEED = 'abc': " in capsys.readouterr().err
        assert not out.exists()

    def test_other_commands_keys_allowed(self, city_dir, tmp_path):
        # one file can serve a whole pipeline; null reads only its own keys
        config = tmp_path / "pipeline.cfg"
        config.write_text("replicates = 4\neps-step = 0.05\nfractions = 0.5,1.0\n")
        out = tmp_path / "null"
        assert main(["null", "--data", str(city_dir), "--out", str(out),
                     "--config", str(config)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["replicates"] == 4
        assert not {"eps_step", "fractions"} & manifest["config"].keys()

    def test_config_file_is_closed(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("replicates = 6\n")
        code = f"from segflow.cli import read_config_file; print(read_config_file({str(config)!r}))"
        done = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", code],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert done.stdout == "{'replicates': '6'}\n"
        assert done.stderr == ""

    def test_manifest_hashes_inputs(self, city_dir, tmp_path):
        out = tmp_path / "mix"
        assert main(["mixing", "--data", str(city_dir), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256((city_dir / "purchases.csv").read_bytes()).hexdigest()
        assert manifest["inputs"]["purchases.csv"] == digest
        assert set(manifest["outputs"]) >= {"mixing_purchase_M.csv",
                                            "mixing_purchase_S.csv",
                                            "mixing_purchase_e.csv"}

    def test_rerunnable_from_manifest_alone(self, city_dir, tmp_path):
        out = tmp_path / "first"
        assert main(["null", "--data", str(city_dir), "--out", str(out),
                     "--replicates", "8", "--seed", "21"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        argv = [manifest["command"], "--out", str(tmp_path / "second")]
        for key, value in manifest["config"].items():
            if isinstance(value, bool):
                if value:
                    argv.append("--" + key.replace("_", "-"))
            else:
                argv += ["--" + key.replace("_", "-"), str(value)]
        assert main(argv) == 0
        assert ((tmp_path / "second" / "null_purchase.csv").read_bytes()
                == (out / "null_purchase.csv").read_bytes())

    def test_commands_do_not_mutate_inputs(self, city_dir, tmp_path):
        before = tree_hashes(city_dir)
        assert main(["diversity", "--data", str(city_dir),
                     "--out", str(tmp_path / "d")]) == 0
        assert main(["asymmetry", "--data", str(city_dir),
                     "--out", str(tmp_path / "a")]) == 0
        assert tree_hashes(city_dir) == before


class TestPurchasePlaces:
    @pytest.mark.parametrize("kind", ["customer", "store"])
    def test_second_neighborhood_fails_every_data_command(self, city_dir, tmp_path, capsys,
                                                          kind):
        lines = (city_dir / "purchases.csv").read_text().splitlines(keepends=True)
        key, column = (0, 4) if kind == "customer" else (1, 5)
        seen = set()
        for idx, line in enumerate(lines[1:], start=1):
            cells = line.rstrip("\n").split(",")
            if cells[key] in seen:
                break
            seen.add(cells[key])
        # a later row of an already-seen customer (store) names another place
        cells[column] = "N0001" if cells[column] == "N0000" else "N0000"
        lines[idx] = ",".join(cells) + "\n"
        data = copy_city(city_dir, tmp_path / "city", lines)
        for command in DATA_COMMANDS:
            out = tmp_path / command
            assert main([command, "--data", str(data), "--out", str(out)]) == 1, command
            err = capsys.readouterr().err
            assert f"purchases.csv: line {idx + 1}: {kind} {cells[key]!r}" in err, command

    def test_purchase_channel_without_places_is_skipped(self, city_dir, tmp_path, capsys):
        lines = (city_dir / "purchases.csv").read_text().splitlines(keepends=True)
        data = copy_city(city_dir, tmp_path / "city",
                         [",".join(line.split(",")[:4]) + "\n" for line in lines])
        for command in ("network", "mixing"):
            out = tmp_path / command
            assert main([command, "--data", str(data), "--out", str(out)]) == 0
            assert not list(out.glob("*purchase*")), command
        (data / "mentions.csv").unlink()
        for command in ("network", "mixing"):
            out = tmp_path / f"{command}_no_mentions"
            assert main([command, "--data", str(data), "--out", str(out)]) == 1
            assert "no usable event data" in capsys.readouterr().err


class TestHomes:
    def test_home_outside_table_is_skipped_in_both_channels(self, city_dir, tmp_path):
        # a polygon missing from neighborhoods.csv gives its users a home
        # that, like an unplaced customer's, no command may report
        lines = (city_dir / "purchases.csv").read_text().splitlines(keepends=True)
        data = copy_city(city_dir, tmp_path / "city", lines)
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "ingest")]) == 0
        with open(tmp_path / "ingest" / "homes.csv", newline="") as fh:
            homes = [row[1] for row in csv.reader(fh)][1:]
        renamed = max(set(homes), key=homes.count)
        geometry = json.loads((data / "geometry.json").read_text())
        geometry["X" + renamed] = geometry.pop(renamed)
        (data / "geometry.json").write_text(json.dumps(geometry))
        assert main(["diversity", "--data", str(data), "--out", str(tmp_path / "div")]) == 0
        with open(tmp_path / "div" / "diversity.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["channel"] for row in rows} == {"purchase", "mention"}
        with open(data / "neighborhoods.csv", newline="") as fh:
            known = {row["neighborhood_id"] for row in csv.DictReader(fh)}
        assert {row["neighborhood_id"] for row in rows} <= known

    def test_homes_csv_round_trips_quoted_ids(self, city_dir, tmp_path):
        lines = (city_dir / "purchases.csv").read_text().splitlines(keepends=True)
        data = copy_city(city_dir, tmp_path / "city", lines)
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "before")]) == 0
        before = (tmp_path / "before" / "homes.csv").read_text().splitlines(keepends=True)
        user, home = before[1].rstrip("\n").split(",")
        odd = 'odd,"user'
        with open(data / "geoposts.csv", newline="") as fh:
            posts = [[odd if cell == user else cell for cell in row] for row in csv.reader(fh)]
        with open(data / "geoposts.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(posts)
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "after")]) == 0
        with open(tmp_path / "after" / "homes.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [odd, home] in rows and [user, home] not in rows
        after = (tmp_path / "after" / "homes.csv").read_text().splitlines(keepends=True)
        assert sorted(set(after) - set(before)) == ['"odd,""user",' + home + "\n"]


class TestBadParameters:
    """Out-of-range parameters exit 1 with a plain message, not 2, and
    never write NaN into an artifact."""

    def test_zero_reshuffle_replicates(self, city_dir, tmp_path, capsys):
        code = main(["gini-report", "--data", str(city_dir), "--out", str(tmp_path / "rep"),
                     "--replicates", "0"])
        assert code == 1
        assert "replicates must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "report.csv").exists()

    def test_gini_report_has_no_night_window(self, city_dir, tmp_path, capsys):
        # it reads no geoposts, so a night window would be recorded but unused
        out = tmp_path / "rep"
        assert main(["gini-report", "--data", str(city_dir), "--out", str(out),
                     "--night-start", "25", "--night-end", "30"]) == 1
        assert "unrecognized arguments: --night-start 25" in capsys.readouterr().err
        assert main(["gini-report", "--data", str(city_dir), "--out", str(out),
                     "--replicates", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["config"]) == ["data", "fractions", "k", "min_tx", "replicates",
                                              "seed", "ses_descending"]

    @pytest.mark.parametrize("command, start, end", [
        ("ingest", "25", "30"), ("network", "5", "5"), ("diversity", "-1", "6"),
        ("mixing", "20", "24")])
    def test_bad_night_window(self, city_dir, tmp_path, capsys, command, start, end):
        code = main([command, "--data", str(city_dir), "--out", str(tmp_path / command),
                     "--night-start", start, "--night-end", end])
        assert code == 1
        assert f"night window {start}-{end}" in capsys.readouterr().err

    def test_negative_jackknife_replicates(self, city_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--data", str(city_dir), "--out", str(out),
                     "--jackknife-replicates", "-5"])
        assert code == 1
        assert "jackknife_replicates must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("flags, message", [
        (["--eps-step", "0"], "eps_step must be positive"),
        (["--eps-step", "-0.01"], "eps_step must be positive"),
        (["--eps-step", "nan"], "eps_step must be positive"),
        (["--eps-start", "3", "--eps-stop", "2"], "empty eps grid"),
    ])
    def test_bad_eps_grid(self, city_dir, tmp_path, capsys, flags, message):
        code = main(["gravity", "--data", str(city_dir), "--out", str(tmp_path / "g"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "collinear" not in err
