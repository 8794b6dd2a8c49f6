"""Output checks: an invocation fails unless every one of them holds.

- it exited 0 and wrote its documented artifacts and `manifest.json`;
- its artifacts are byte-identical to an earlier run of the same sources;
- its numbers match the reference fingerprints recorded from the seed
  commit, to a relative tolerance (refactors may move the last ulp);
- the structural properties the acceptance suite asserts hold on it, with
  Newman's r recomputed here from the written mixing matrix e.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pipeline import ARTIFACTS, CHANNELS, Invocation, dir_digests

RTOL = 1e-9


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol)


# ------------------------------------------------------------ fingerprints

def _numbers(path: Path) -> list[float]:
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

        try:
            walk(json.loads(path.read_text()))
        except ValueError:              # unreadable: fingerprints as one NaN
            return [math.nan]
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


def fingerprint(path: Path) -> list[float]:
    """[finite count, non-finite count, sum, sum |x|, sum x^2, position-weighted sum]."""
    x = np.array(_numbers(path), dtype=float)
    finite = x[np.isfinite(x)]
    weights = 1.0 + np.arange(finite.size) % 7
    return [float(finite.size), float(x.size - finite.size), float(finite.sum()),
            float(np.abs(finite).sum()), float(finite @ finite), float(finite @ weights)]


def fingerprints(runs: list[Invocation]) -> dict[str, list[float]]:
    return {f"{r.command}/{name}": fingerprint(r.out / name)
            for r in runs for name in ARTIFACTS[r.command] if (r.out / name).exists()}


def fingerprints_match(got: list[float], want: list[float]) -> bool:
    if got[:2] != want[:2]:
        return False
    scale = max(1.0, want[3])
    return all(math.isclose(g, w, rel_tol=RTOL, abs_tol=RTOL * scale)
               for g, w in zip(got[2:], want[2:]))


def check_reference(runs: list[Invocation], found: dict, reference: dict) -> None:
    by_command = {r.command: r for r in runs}
    for key, want in reference.items():
        command = key.split("/", 1)[0]
        got = found.get(key)
        if got is not None and not fingerprints_match(got, want):
            by_command[command].errors.append(f"{key}: numbers differ from the reference")


# ------------------------------------------------------------ readers

def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _matrix(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]])


def newman_r(e: np.ndarray) -> float:
    """Newman (2003) scalar assortativity of a normalized mixing matrix e,
    with group values 1..k."""
    x = np.arange(1, e.shape[0] + 1, dtype=float)
    a, b = e.sum(axis=1), e.sum(axis=0)
    mean_a, mean_b = x @ a, x @ b
    sd_a = math.sqrt((x * x) @ a - mean_a ** 2)
    sd_b = math.sqrt((x * x) @ b - mean_b ** 2)
    return float((x @ e @ x - mean_a * mean_b) / (sd_a * sd_b))


def bias(e: np.ndarray) -> float:
    """Poor-to-rich asymmetry: mass above the diagonal minus mass below."""
    return float(np.triu(e, 1).sum() - np.tril(e, -1).sum())


# ------------------------------------------------------------ checks

def check_pipeline(runs: list[Invocation]) -> dict:
    """Record every failed check on its invocation; return the values the
    planted-truth report needs."""
    by_command = {r.command: r for r in runs}
    for r in runs:
        if r.exit_code != 0:
            r.errors.append(f"exit code {r.exit_code}")
            continue
        missing = [n for n in ARTIFACTS[r.command] + ["manifest.json"]
                   if not (r.out / n).is_file()]
        if missing:
            r.errors.append(f"missing artifacts: {missing}")
            continue
        with guard(r):
            listed = json.loads((r.out / "manifest.json").read_text())["outputs"]
            if listed != sorted(ARTIFACTS[r.command]):
                r.errors.append(f"manifest lists {listed}")

    def ok(*commands):
        return all(not by_command[c].errors for c in commands)

    def expect(command, condition, message):
        if not condition:
            by_command[command].errors.append(message)

    def out(command):
        return by_command[command].out

    values = {}
    if ok("ingest"):
        with guard(by_command["ingest"]):
            report = json.loads((out("ingest") / "ingest_report.json").read_text())
            expect("ingest", 0 < report["purchases_active"] <= report["purchases_loaded"],
                   "active purchases outside (0, loaded]")
    for ch in CHANNELS:
        if not ok("mixing"):
            break
        with guard(by_command["mixing"]):
            M = _matrix(out("mixing") / f"mixing_{ch}_M.csv")
            e = _matrix(out("mixing") / f"mixing_{ch}_e.csv")
            expect("mixing", np.allclose(e, M / M.sum(), rtol=RTOL, atol=1e-15),
                   f"{ch}: e is not M normalized")
            r_full, bias_full = newman_r(e), bias(e)
            values[f"{ch}.r"], values[f"{ch}.bias"] = r_full, bias_full
        if not ok("mixing"):
            break
        if ok("sweep"):
            with guard(by_command["sweep"]):
                steps = _rows(out("sweep") / f"sweep_extremes_{ch}.csv")
                expect("sweep", float(steps[0]["r_or_bias"]) > r_full,
                       f"{ch}: extremes step 1 r does not exceed the full-matrix r")
                expect("sweep", close(float(steps[-1]["r_or_bias"]), r_full),
                       f"{ch}: last extremes step differs from the full-matrix r")
                within = [s for s in _rows(out("sweep") / f"sweep_distance_{ch}.csv")
                          if s["param"].startswith("within")]
                expect("sweep", close(float(within[-1]["r_or_bias"]), r_full),
                       f"{ch}: distance sweep within@max differs from the full-matrix r")
        if ok("asymmetry"):
            with guard(by_command["asymmetry"]):
                steps = _rows(out("asymmetry") / f"asymmetry_{ch}.csv")
                expect("asymmetry", close(float(steps[-1]["r_or_bias"]), bias_full),
                       f"{ch}: last asymmetry step differs from the full-matrix bias")
        if ok("jackknife"):
            with guard(by_command["jackknife"]):
                jk = json.loads((out("jackknife") / f"jackknife_{ch}.json").read_text())
                expect("jackknife", jk["ci_low"] <= jk["point"] <= jk["ci_high"],
                       f"{ch}: jackknife point outside its CI")
                expect("jackknife", close(jk["point"], r_full),
                       f"{ch}: jackknife point differs from the full-matrix r")
        if ok("null"):
            with guard(by_command["null"]):
                rows = _rows(out("null") / f"null_{ch}.csv")
                null_r = [float(x["value"]) for x in rows if x["statistic"] == "assortativity"]
                null_b = [float(x["value"]) for x in rows if x["statistic"] == "bias"]
                expect("null", 1 < len(null_r) == len(null_b) <= 100
                       and all(map(math.isfinite, null_r + null_b)),
                       f"{ch}: null distribution malformed")
                values[f"{ch}.null_r"], values[f"{ch}.null_bias"] = null_r, null_b
        if ok("gravity", "network"):
            with guard(by_command["gravity"]):
                fit = json.loads((out("gravity") / f"gravity_{ch}.json").read_text())
                with open(out("network") / f"{ch}_raw_edges.csv") as fh:
                    nnz = sum(1 for _ in fh) - 1
                expect("gravity", fit["n_pairs"] == nnz,
                       f"{ch}: gravity fitted {fit['n_pairs']} pairs, network has {nnz} nonzero")
    if ok("gini-report", "mixing"):
        with guard(by_command["gini-report"]):
            rows = _rows(out("gini-report") / "report.csv")
            empirical = [float(x["assortativity_mean"]) for x in rows
                         if x["label"] == "empirical"]
            expect("gini-report",
                   len(empirical) == 1 and close(empirical[0], values["purchase.r"]),
                   "empirical report r differs from the full-matrix purchase r")
            shuffled = sorted((float(x["fraction"]), float(x["assortativity_mean"]))
                              for x in rows if x["label"] == "reshuffle")
            expect("gini-report", all(b[1] <= a[1] for a, b in zip(shuffled, shuffled[1:])),
                   "reshuffle r increases with the fraction")
    return values


@contextmanager
def guard(run: Invocation):
    """An artifact that cannot be read as documented fails its invocation."""
    try:
        yield
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        run.errors.append(f"unreadable output: {exc!r}")


def check_identical(runs: list[Invocation], digests: dict[str, dict], what: str) -> None:
    """Byte-for-byte comparison with the digests of an earlier run."""
    for r in runs:
        want = digests.get(r.command)
        if want is not None and r.exit_code == 0:
            got = {k: v for k, v in dir_digests(r.out).items() if k in want}
            if got != want:
                changed = sorted(k for k in want if got.get(k) != want[k])
                r.errors.append(f"artifacts differ from {what}: {changed}")


# ------------------------------------------------------------ planted truth

def truth_report(city: Path, values: dict) -> list[dict]:
    """Each truth.json expectation on each channel, as pass or miss."""
    expectations = json.loads((city / "truth.json").read_text())["truth"]["expectations"]
    report = []
    for ch in CHANNELS:
        for stat, key in (("assortativity", "r"), ("bias", "bias")):
            exp = expectations[stat]
            value = values.get(f"{ch}.{key}")
            null = values.get(f"{ch}.null_{key}")
            if value is None or (exp["kind"] == "null_band" and not null):
                passed = None
            elif exp["kind"] == "min":
                passed = value >= exp["value"]
            elif exp["kind"] == "positive":
                passed = value > 0
            elif exp["kind"] == "negative":
                passed = value < 0
            else:
                passed = abs(value - statistics.fmean(null)) <= 3 * statistics.stdev(null)
            report.append({"channel": ch, "statistic": stat, "expect": exp,
                           "value": value, "result": {True: "pass", False: "miss",
                                                      None: "unchecked"}[passed]})
    return report
