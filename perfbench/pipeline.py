"""Workloads, the ten-command pipeline and the subprocess runner.

Every subcommand runs as a fresh `python3 -c "...segflow.cli.main()"`
process, exactly what the installed `segflow` console script does, with
`src/` of this checkout on PYTHONPATH.  Paths handed to the program are
relative to the checkout root, so manifests are byte-identical between
checkouts and between runs.
"""
from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")          # relative to ROOT, which is the cwd

# City flags on top of `synth --preset homophilous --seed <seed>`.
WORKLOADS = {
    # 1600 neighborhoods, ~20k purchases, 0.35% of the 2.56M cells nonzero:
    # replicate loops over dense n x n matrices dominate.
    "preset": [],
    # 400 neighborhoods, 200k purchases, ~half the cells nonzero: event
    # parsing dominates and dense BLAS is cheap.
    "coarse": ["--n-neighborhoods", "400", "--n-purchase-events", "200000"],
    # ~64 neighborhoods: runs the whole harness in seconds (self-test only).
    "smoke": ["--n-neighborhoods", "64", "--n-purchase-events", "6000",
              "--n-mention-events", "4000", "--n-customers", "300",
              "--n-stores", "200", "--n-twitter-users", "300"],
}

# The ten analysis subcommands in README order, with the README's flags.
PIPELINE = [
    ("ingest", []),
    ("diversity", []),
    ("network", []),
    ("mixing", ["--k", "10"]),
    ("sweep", ["--jackknife-replicates", "100", "--seed", "1"]),
    ("asymmetry", []),
    ("gravity", ["--eps-step", "0.01"]),
    ("null", ["--replicates", "100", "--seed", "1"]),
    ("jackknife", ["--replicates", "100", "--seed", "1"]),
    ("gini-report", ["--replicates", "50", "--seed", "1"]),
]
SINGLE_PASS = ("ingest", "diversity", "network", "mixing", "asymmetry", "gravity")
RESAMPLING = ("sweep", "null", "jackknife", "gini-report")

CHANNELS = ("purchase", "mention")
ARTIFACTS = {
    "ingest": ["neighborhoods.csv", "homes.csv", "ingest_report.json"],
    "diversity": ["diversity.csv"],
    "network": [f"{c}_{t}_{kind}" for c in CHANNELS for t in ("raw", "weighted")
                for kind in ("edges.csv", "header.json")],
    "mixing": [f"mixing_{c}_{v}.csv" for c in CHANNELS for v in ("M", "S", "e")],
    "sweep": [f"sweep_{s}_{c}.csv" for c in CHANNELS for s in ("extremes", "distance")],
    "asymmetry": [f"asymmetry_{c}.csv" for c in CHANNELS],
    "gravity": [f"gravity_{c}.json" for c in CHANNELS],
    "null": [f"null_{c}.csv" for c in CHANNELS],
    "jackknife": [f"jackknife_{c}.json" for c in CHANNELS],
    "gini-report": ["report.csv", "report_details.json"],
}
CITY_FILES = ("neighborhoods.csv", "geometry.json", "purchases.csv",
              "mentions.csv", "geoposts.csv", "truth.json")

CLI_CODE = "import sys; from segflow.cli import main; sys.exit(main())"


@dataclass
class Invocation:
    command: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    out: Path
    errors: list[str] = field(default_factory=list)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli(args: list[str], log: Path) -> tuple[float, float, int]:
    """Run one segflow invocation; (wall seconds, peak RSS MB, exit code)."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_CODE, *args],
                                env=cli_env(), stdout=fh, stderr=fh)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dir_digests(path: Path) -> dict[str, str]:
    return {p.name: file_digest(p) for p in sorted(path.iterdir()) if p.is_file()}


def source_digest() -> str:
    """Digest of the program's sources: identifies "the same commit"."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "segflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def synth_args(workload: str, seed: int, city: Path) -> list[str]:
    return ["synth", "--out", str(city), "--preset", "homophilous",
            "--seed", str(seed), *WORKLOADS[workload]]


def set_up(workload: str, seed: int, base: Path, repeats: int) -> list[float]:
    """Generate the city in `base` `repeats` times, then one untimed warm-up.

    Returns the synth wall times.  Every repeat must write the same bytes.
    """
    city = base / "city"
    log = base / "setup.log"
    times, digests = [], None
    for _ in range(repeats):
        shutil.rmtree(city, ignore_errors=True)
        wall, _, code = run_cli(synth_args(workload, seed, city), log)
        if code != 0:
            raise RuntimeError(f"synth exited {code}; see {log}")
        found = {name: file_digest(city / name) for name in CITY_FILES}
        if digests is not None and found != digests:
            raise RuntimeError("synth reruns with the same seed wrote different files")
        digests = found
        times.append(wall)
    _, _, code = run_cli(["ingest", "--data", str(city), "--out", str(base / "warmup")], log)
    if code != 0:
        raise RuntimeError(f"warm-up ingest exited {code}; see {log}")
    return times


def run_pipeline(city: Path, out_root: Path) -> list[Invocation]:
    """One closed-loop pass: each subcommand after the previous one ended."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    log = out_root / "cli.log"
    runs = []
    for command, flags in PIPELINE:
        out = out_root / command
        wall, rss, code = run_cli([command, *flags, "--data", str(city),
                                   "--out", str(out)], log)
        runs.append(Invocation(command, wall, rss, code, out))
    return runs


def pipeline_metrics(runs: list[Invocation]) -> dict[str, float]:
    wall = {r.command: r.wall_s for r in runs}
    return {
        "pipeline_s": sum(wall.values()),
        "single_pass_s": sum(wall[c] for c in SINGLE_PASS),
        "resampling_s": sum(wall[c] for c in RESAMPLING),
        "sweep_s": wall["sweep"],
        "gini_report_s": wall["gini-report"],
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
    }


def startup_seconds(repeats: int = 5) -> float:
    """Median wall time of interpreter start plus `import segflow.cli`."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import segflow.cli"], env=cli_env(),
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
