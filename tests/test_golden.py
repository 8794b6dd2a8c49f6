"""Golden outputs of the analysis commands on a small seeded city.

The resampling numbers were recorded from the dense n x n implementation
of the replicate loops, and the ingest, diversity, network, asymmetry and
gravity numbers from the per-event purchase loops that preceded the
columnar purchase log.  Later implementations must reproduce them to
rtol 1e-9, atol 1e-12: summing edge weights by bincount reorders the
floating-point additions, which moves near-zero null r values by about
1e-11 relative.

Re-record, only when an output change is intended, with
    PYTHONPATH=src python tests/test_golden.py
"""
import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from segflow.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_smoke_seed7.json"

SYNTH_ARGS = ["--preset", "homophilous", "--seed", "7",
              "--n-neighborhoods", "64", "--n-purchase-events", "6000",
              "--n-mention-events", "4000", "--n-customers", "300",
              "--n-stores", "200", "--n-twitter-users", "300"]

COMMANDS = [
    ("ingest", []),
    ("diversity", []),
    ("network", []),
    ("mixing", ["--k", "10"]),
    ("sweep", ["--jackknife-replicates", "100", "--seed", "1"]),
    ("null", ["--replicates", "100", "--seed", "1"]),
    ("asymmetry", []),
    ("gravity", ["--eps-step", "0.01"]),
    ("jackknife", ["--replicates", "100", "--seed", "1"]),
    ("gini-report", ["--replicates", "50", "--seed", "1"]),
]


def numbers(path: Path) -> list[float]:
    """Every number in an artifact, in file order (JSON keys sorted)."""
    if path.suffix == ".json":
        out = []

        def walk(node):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key])
            elif isinstance(node, list):
                for item in node:
                    walk(item)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                out.append(float(node))

        walk(json.loads(path.read_text()))
        return out
    values = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    values.append(float(cell))
                except ValueError:
                    pass
    return values


def run_commands(root: Path) -> dict[str, list[float]]:
    city = root / "city"
    assert main(["synth", "--out", str(city)] + SYNTH_ARGS) == 0
    found = {}
    for command, flags in COMMANDS:
        out = root / command
        assert main([command, "--data", str(city), "--out", str(out)] + flags) == 0
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                found[f"{command}/{path.name}"] = numbers(path)
    return found


def test_resampling_outputs_match_golden(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = run_commands(tmp_path)
    assert sorted(got) == sorted(want)
    for key in want:
        assert len(got[key]) == len(want[key]), key
        np.testing.assert_allclose(got[key], want[key], rtol=1e-9, atol=1e-12,
                                   err_msg=key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = run_commands(Path(tmp))
    GOLDEN.write_text(json.dumps(result, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(result)} artifacts to {GOLDEN}", file=sys.stderr)
