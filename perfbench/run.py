"""segflow benchmark: the ten analysis subcommands on a synthetic city.

    python3 perfbench/run.py --workload preset --seed 7 --seconds 40 --trace 0

Run from the root of a checkout.  `--trace 0` times the pipeline as a user
runs it (one fresh process per subcommand) and reports the end-to-end
metrics; `--trace 1` runs it once more in-process under the span tracer
and reports the per-layer metrics.  `--selftest` runs the whole harness on
a tiny city, including a negative test.  The last line of standard output
is the JSON result.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from pipeline import (PIPELINE, ROOT, SRC, WORK, WORKLOADS, Invocation, dir_digests,
                      pipeline_metrics, run_pipeline, set_up, source_digest,
                      startup_seconds, synth_args)
from spans import LAYERS, Tracer

SETUP_REPEATS = 3
MAX_RUN_S = 150.0             # never start a pass that would end past this
REFERENCE = Path(__file__).resolve().parent / "reference.json"

E2E_UNITS = {"pipeline_s": "s", "resampling_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed beside them but not declared: sums over less than ~15 s of a run
# are too unsteady between runs on a shared 2-core machine to hold a bound.
UNBOUNDED_UNITS = {"single_pass_s": "s", "sweep_s": "s", "gini_report_s": "s"}

# per-layer time metric -> traced function (summed self time)
SELF_TIMES = {
    "ingest.load_purchases_s": "ingest.load_purchases",
    "ingest.load_mentions_s": "ingest.load_mentions",
    "ingest.load_geoposts_s": "ingest.load_geoposts",
    "ingest.load_geometry_s": "ingest.load_geometry",
    "ingest.load_neighborhoods_s": "ingest.load_neighborhoods",
    "ingest.filter_active_customers_s": "ingest.filter_active_customers",
    "ingest.assign_points_s": "ingest.assign_points_to_neighborhoods",
    "ingest.infer_home_s": "ingest.infer_home",
    "metrics.purchase_profiles_s": "metrics.purchase_profiles",
    "metrics.neighborhood_diversity_s": "metrics.neighborhood_diversity",
    "network.build_purchase_network_s": "network.build_purchase_network",
    "network.build_mention_network_s": "network.build_mention_network",
    "network.population_weight_s": "network.population_weight",
    "network.centroid_distances_s": "network.centroid_distances",
    "segregation.mixing_from_matrix_s": "segregation.mixing_from_matrix",
    "segregation.extremes_sweep_s": "segregation.extremes_sweep",
    "segregation.distance_sweep_s": "segregation.distance_sweep",
    "segregation.asymmetry_sweep_s": "segregation.asymmetry_sweep",
    "models.fit_gravity_s": "models.fit_gravity",
    "models.null_shuffle_ses_s": "models.null_shuffle_ses",
    "models.purchase_arrays_s": "models.purchase_arrays",
    "models.reshuffle_locations_s": "models.reshuffle_locations",
    "models.simulate_gravity_s": "models.simulate_gravity",
    "models.adjust_gravity_amounts_s": "models.adjust_gravity_amounts",
    "stats.jackknife_statistic_s": "stats.jackknife_statistic",
    "stats.segregation_inequality_report_self_s": "stats.segregation_inequality_report",
    "synth.generate_city_s": "synth.generate_city",
    "synth.write_city_s": "synth.write_city",
}
CALL_COUNTS = {
    "network.population_weight_calls": "network.population_weight",
    "network.centroid_distances_calls": "network.centroid_distances",
    "segregation.mixing_from_matrix_calls": "segregation.mixing_from_matrix",
}
COUNTS = {   # tracer counter -> unit
    "ingest.file_parses": "count",
    "segregation.dense_bytes_read": "bytes_computed",
    "segregation.invalid_steps": "count",
    "models.gravity_pairs": "count",
    "models.gravity_eps_solves": "count",
    "models.null_replicates": "count",
    "models.null_discarded": "count",
    "models.reshuffle_replicates": "count",
    "models.reshuffle_bytes_held": "bytes_computed",
    "stats.jackknife_replicates": "count",
    "stats.jackknife_discarded": "count",
    "stats.jackknife_bytes_copied": "bytes_computed",
}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "git_commit": commit, "source_digest": source_digest(), "city_seed": seed}


def workdir(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-{seed}"


def digests_file(workload: str, seed: int) -> Path:
    return WORK / f"digests-{source_digest()}-{workload}-{seed}.json"


def check_pass(runs, base: Path, workload: str, seed: int) -> list[dict]:
    """Every check on a first pass; returns the planted-truth report."""
    values = checks.check_pipeline(runs)
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = references.get(workload, {}).get(str(seed))
    if reference is not None:
        checks.check_reference(runs, checks.fingerprints(runs), reference)
    stored = digests_file(workload, seed)
    if stored.exists():
        checks.check_identical(runs, json.loads(stored.read_text()), "an earlier run")
    elif not any(r.errors for r in runs):
        digests = {r.command: dir_digests(r.out) for r in runs}
        stored.write_text(json.dumps(digests, indent=1, sort_keys=True))
    return checks.truth_report(base / "city", values)


def record_reference(workload: str, seed: int) -> int:
    """Store the fingerprints of an earlier run that passed every check."""
    stored = digests_file(workload, seed)
    runs = [Invocation(command, 0.0, 0.0, 0, workdir(workload, seed) / "pass0" / command)
            for command, _ in PIPELINE]
    if not stored.exists():
        print(f"error: no clean run of {workload} seed {seed} with these sources",
              file=sys.stderr)
        return 1
    checks.check_identical(runs, json.loads(stored.read_text()), "the clean run")
    if any(r.errors for r in runs):
        print(f"error: {[r.errors for r in runs if r.errors]}", file=sys.stderr)
        return 1
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    references.setdefault(workload, {})[str(seed)] = checks.fingerprints(runs)
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def untraced(args, base: Path, setup_times: list[float]):
    """Closed loop: whole passes until the next one would overrun --seconds."""
    passes, all_runs, truth = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        runs = run_pipeline(base / "city", base / f"pass{min(len(passes), 1)}")
        if not passes:
            truth = check_pass(runs, base, args.workload, args.seed)
            first = {r.command: dir_digests(r.out) for r in runs if r.exit_code == 0}
        else:
            checks.check_pipeline(runs)
            checks.check_identical(runs, first, "the first pass")
        passes.append(pipeline_metrics(runs))
        all_runs += runs
        now = time.perf_counter()
        projected = now - start + (now - pass_start)
        if projected > args.seconds or projected > MAX_RUN_S:
            break
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["setup_s"] = statistics.median(setup_times)
    return metrics, all_runs, truth, {"passes": len(passes)}


def traced(args, base: Path):
    """One untraced pass for reference, then the same pass in-process, traced."""
    runs = run_pipeline(base / "city", base / "pass0")
    truth = check_pass(runs, base, args.workload, args.seed)
    untraced_s = pipeline_metrics(runs)["pipeline_s"]
    startup = startup_seconds()

    sys.path.insert(0, str(SRC))
    import segflow.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "segflow":
        raise RuntimeError(f"imported segflow from {cli.__file__}, not from {SRC}")
    tracer = Tracer()
    traced_names = tracer.install()
    traced_runs = []
    try:
        tracer.command = "synth"
        if cli.main(synth_args(args.workload, args.seed, base / "traced_city")) != 0:
            raise RuntimeError("traced synth failed")
        for command, flags in PIPELINE:
            out = base / "traced" / command
            tracer.command = command
            start = time.perf_counter()
            code = cli.main([command, *flags, "--data", str(base / "city"), "--out", str(out)])
            traced_runs.append(Invocation(command, time.perf_counter() - start, 0.0, code, out))
    finally:
        tracer.uninstall()

    checks.check_pipeline(traced_runs)
    checks.check_identical(traced_runs, {r.command: dir_digests(r.out) for r in runs
                                         if r.exit_code == 0}, "the untraced run")
    if dir_digests(base / "traced_city") != dir_digests(base / "city"):
        traced_runs[0].errors.append("traced synth wrote a different city")
    expected = set(SELF_TIMES.values()) | set(CALL_COUNTS.values()) | {"cli.main"}
    unbound = sorted(name for name in expected
                     if name not in traced_names or tracer.calls(name) == 0)
    if unbound:
        traced_runs[0].errors.append(f"no span recorded for {unbound}")

    for key, seen in tracer.values.items():
        if len(seen) != 1:
            traced_runs[0].errors.append(f"{key}: builds disagree: {sorted(seen)}")
    misses = sum(t["result"] == "miss" for t in truth)
    metrics = layer_metrics(tracer, traced_runs, untraced_s, startup, misses)
    return metrics, runs + traced_runs, truth, {"traced_functions": len(traced_names),
                                                "spans": len(tracer.spans)}


def layer_metrics(tracer: Tracer, traced_runs, untraced_s: float, startup: float,
                  truth_misses: int) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    for name, fn in SELF_TIMES.items():
        put(name, tracer.self_time(fn), "s")
    for name, fn in CALL_COUNTS.items():
        put(name, tracer.calls(fn), "count")
    for name, unit in COUNTS.items():
        put(name, tracer.counts[name], unit)
    c = tracer.counts
    put("ingest.purchase_rows_per_s",
        ratio(c["ingest.purchase_rows"], tracer.self_time("ingest.load_purchases")), "rows/s")
    put("ingest.purchases_kept_ratio",
        ratio(c["ingest.purchases_kept"], c["ingest.purchases_in"]), "ratio")
    for channel in ("purchase", "mention"):
        put(f"network.{channel}_nnz", max(tracer.values[f"network.{channel}_nnz"], default=0),
            "count")
    put("network.purchase_density", ratio(m["network.purchase_nnz"]["value"],
                                          max(tracer.values["network.purchase_cells"], default=0)),
        "ratio")
    put("segregation.mixing_ms_per_call", 1000 * ratio(
        m["segregation.mixing_from_matrix_s"]["value"],
        m["segregation.mixing_from_matrix_calls"]["value"]), "ms")
    put("synth.truth_misses", truth_misses, "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", tracer.layer_self_time(layer), "s")
    put("cli.startup_s", startup, "s")
    for r in traced_runs:
        put(f"cli.{r.command}.wall_s", r.wall_s, "s")
        put(f"cli.{r.command}.self_s", tracer.layer_self_time("cli", r.command), "s")
    # The in-process run skips one interpreter start per subcommand, so the
    # overhead compares it with the untraced time less those starts.
    traced_s = sum(r.wall_s for r in traced_runs)
    overhead = traced_s - (untraced_s - len(traced_runs) * startup)
    put("trace.pipeline_s", traced_s, "s")
    put("trace.untraced_pipeline_s", untraced_s, "s")
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_frac", overhead / untraced_s, "ratio")
    return m


def report(workload, seed, env, info, runs, truth, metrics, unbounded) -> None:
    print(json.dumps({"environment": env}))
    print(f"workload {workload} seed {seed}: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    for r in runs:
        if r.errors:
            print(f"FAILED {r.command}: {'; '.join(r.errors)}")
    for t in truth:
        print(f"truth {t['channel']} {t['statistic']} expect {t['expect']} "
              f"value {t['value']}: {t['result']}")
    failed = sum(1 for r in runs if r.errors)
    print(f"failed_ops_frac {failed / len(runs)} ({failed}/{len(runs)} invocations)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    for name, metric in unbounded.items():
        print(f"{name} {metric['value']} {metric['unit']} (not bounded)")


def selftest() -> int:
    """Whole harness on the smoke city, then a perturbed artifact must fail."""
    base = workdir("smoke", 7)
    base.mkdir(parents=True, exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(workload="smoke", seed=7, seconds=0.0)
    setup_times = set_up("smoke", 7, base, 1)
    _, runs, _, _ = untraced(args, base, setup_times)
    problems = [f"{r.command}: {r.errors}" for r in runs if r.errors]
    if set(E2E_UNITS) != {m["name"] for m in declared["end_to_end"]}:
        problems.append(f"end-to-end metrics {sorted(E2E_UNITS)} differ from BENCHMARK.json")
    metrics, runs, _, _ = traced(args, base)
    problems += [f"traced {r.command}: {r.errors}" for r in runs if r.errors]
    missing = {m["name"] for m in declared["per_layer"]} - set(metrics)
    if missing:
        problems.append(f"per-layer metrics missing: {sorted(missing)}")

    # Each check on its own must fail the perturbed operation and no other.
    target = base / "pass0" / "jackknife" / "jackknife_purchase.json"
    payload = json.loads(target.read_text())
    payload["point"] += 1e-3
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    traced_digests = {r.command: dir_digests(r.out) for r in runs[len(PIPELINE):]}
    reference = json.loads(REFERENCE.read_text())["smoke"]["7"]
    mechanisms = {
        "structural": checks.check_pipeline,
        "byte-identity": lambda rs: checks.check_identical(rs, traced_digests, "traced"),
        "reference": lambda rs: checks.check_reference(rs, checks.fingerprints(rs), reference),
    }
    for label, check in mechanisms.items():
        rechecked = [Invocation(r.command, 0.0, 0.0, 0, r.out) for r in runs[:len(PIPELINE)]]
        check(rechecked)
        failed = sorted(r.command for r in rechecked if r.errors)
        if failed != ["jackknife"]:
            problems.append(f"perturbed artifact, {label} check: failed operations {failed}")
    for line in problems:
        print(f"selftest: {line}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="preset")
    parser.add_argument("--seed", type=int, default=7, help="city seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the fingerprints of an earlier clean run of this "
                             "workload and seed in reference.json, then exit")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "segflow" / "cli.py").is_file():
        print(f"error: no segflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.record_reference:
        return record_reference(args.workload, args.seed)

    base = workdir(args.workload, args.seed)
    base.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = set_up(args.workload, args.seed, base, 1 if args.trace else SETUP_REPEATS)
        unbounded = {}
        if args.trace:
            metrics, runs, truth, info = traced(args, base)
        else:
            values, runs, truth, info = untraced(args, base, setup_times)
            metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
            unbounded = {k: {"value": values[k], "unit": u} for k, u in UNBOUNDED_UNITS.items()}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, environment(args.seed), info, runs, truth, metrics,
           unbounded)
    failed = sum(1 for r in runs if r.errors)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
