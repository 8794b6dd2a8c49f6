"""Command-line surface wiring the library into reproducible runs.

Every command reads conventional file names from a data directory, writes
its artifacts plus a manifest (input hashes, resolved config, version)
into the output directory, and exits 0 on success, 1 on a validation
problem, 2 on an internal error.  The seed falls back to the
SEGFLOW_SEED environment variable, and a flat key=value config file can
stand in for any flag; explicit flags win.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, metrics, models, network, segregation, stats, synth
from .ingest import (ValidationError, assign_points_to_neighborhoods,
                     filter_active_customers, infer_home, load_geometry,
                     load_geoposts, load_mentions, load_neighborhoods,
                     load_purchases)

DATA_FILES = ("neighborhoods.csv", "geometry.json", "purchases.csv",
              "mentions.csv", "geoposts.csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_config_file(path) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; keys match flag names
    with dashes replaced by underscores."""
    values = {}
    for lineno, raw in enumerate(open(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


# types for options whose default is None (absent unless given)
OPTIONAL_INT_KEYS = ("seed", "n_neighborhoods", "n_purchase_events",
                     "n_mention_events", "n_customers", "n_stores",
                     "n_twitter_users")


def _caster_for(key: str, default):
    if default is None:
        return int if key in OPTIONAL_INT_KEYS else str
    return type(default) if isinstance(default, (bool, int, float)) else str


def _resolve(args: argparse.Namespace, file_cfg: dict, defaults: dict) -> dict:
    """flags > config file > defaults; returns the effective config."""
    merged = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_cfg:
            raw = file_cfg[key]
            caster = _caster_for(key, default)
            if caster is bool:
                merged[key] = raw.lower() in ("1", "true", "yes", "on")
            else:
                merged[key] = caster(raw)
        else:
            merged[key] = default
    if "seed" in merged and merged["seed"] is None:
        merged["seed"] = int(os.environ.get("SEGFLOW_SEED", "0"))
    return merged


def _write_manifest(out: Path, command: str, cfg: dict, inputs: list[Path],
                    outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": {key: (str(v) if isinstance(v, Path) else v) for key, v in cfg.items()},
        "inputs": {p.name: _sha256(p) for p in inputs if p.exists()},
        "outputs": sorted(outputs),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_purchases(cfg: dict):
    """The neighborhood table and the active customers' purchase log (None
    without purchases.csv)."""
    data = Path(cfg["data"])
    table = load_neighborhoods(data / "neighborhoods.csv")
    purchases = None
    if (data / "purchases.csv").exists():
        purchases = filter_active_customers(load_purchases(data / "purchases.csv"),
                                            cfg["min_tx"])
    return table, purchases


def _mentions(cfg: dict):
    """Mentions and the users' inferred homes; empty without their files."""
    data = Path(cfg["data"])
    mentions, homes = [], {}
    if (data / "mentions.csv").exists():
        mentions = load_mentions(data / "mentions.csv")
    if (data / "geoposts.csv").exists() and (data / "geometry.json").exists():
        geometry = load_geometry(data / "geometry.json")
        posts = load_geoposts(data / "geoposts.csv")
        localized, _ = assign_points_to_neighborhoods(posts, geometry)
        homes, _ = infer_home(localized, cfg["night_start"], cfg["night_end"])
    return mentions, homes


def _both_networks(cfg: dict):
    """(channel, raw, weighted) for every channel with resolved flow."""
    table, purchases = _load_purchases(cfg)
    mentions, homes = _mentions(cfg)
    raws = [network.build_purchase_network(purchases, table)] if purchases else []
    if mentions and homes:
        raws.append(network.build_mention_network(mentions, homes, table))
    out = [(raw.channel, raw, network.population_weight(raw, table))
           for raw in raws if raw.W.any()]
    if not out:
        raise ValidationError("no usable event data found in the data directory")
    return table, out


def _groups(table, cfg):
    return segregation.assign_groups(table, k=cfg["k"],
                                     ses_ascending=not cfg["ses_descending"])


# ---------------------------------------------------------------- commands

def cmd_synth(cfg, out: Path) -> list[str]:
    config = synth.preset(cfg["preset"], seed=cfg["seed"])
    for field in ("n_neighborhoods", "n_purchase_events", "n_mention_events",
                  "n_customers", "n_stores", "n_twitter_users"):
        if cfg.get(field) is not None:
            setattr(config, field, cfg[field])
    city = synth.generate_city(config)
    paths = synth.write_city(city, out)
    return [Path(p).name for p in paths.values()]


def cmd_ingest(cfg, out: Path) -> list[str]:
    data = Path(cfg["data"])
    table = load_neighborhoods(data / "neighborhoods.csv")
    report = {"neighborhoods": table.n}
    outputs = ["neighborhoods.csv"]
    table.write_csv(out / "neighborhoods.csv")
    if (data / "purchases.csv").exists():
        purchases = load_purchases(data / "purchases.csv")
        kept = filter_active_customers(purchases, cfg["min_tx"])
        report["purchases_loaded"] = len(purchases)
        report["purchases_active"] = len(kept)
    if (data / "mentions.csv").exists():
        report["mentions_loaded"] = len(load_mentions(data / "mentions.csv"))
    if (data / "geoposts.csv").exists() and (data / "geometry.json").exists():
        posts = load_geoposts(data / "geoposts.csv")
        localized, dropped = assign_points_to_neighborhoods(
            posts, load_geometry(data / "geometry.json"))
        homes, unassigned = infer_home(localized, cfg["night_start"], cfg["night_end"])
        report.update(geoposts=len(posts), geoposts_outside=dropped,
                      users_homed=len(homes), users_unassigned=len(unassigned))
        with open(out / "homes.csv", "w") as fh:
            fh.write("user_id,neighborhood_id\n")
            for user in sorted(homes):
                fh.write(f"{user},{homes[user]}\n")
        outputs.append("homes.csv")
    with open(out / "ingest_report.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    outputs.append("ingest_report.json")
    return outputs


def cmd_diversity(cfg, out: Path) -> list[str]:
    table, purchases = _load_purchases(cfg)
    mentions, homes = _mentions(cfg)
    results = []
    if purchases:
        home, _ = purchases.indices(table)
        customer_homes = {c: table.ids[h] for c, h in zip(purchases.customer_ids, home) if h >= 0}
        if customer_homes:
            results.append(metrics.neighborhood_diversity(
                metrics.purchase_profiles(purchases), customer_homes, "purchase", table))
    if mentions and homes:
        results.append(metrics.neighborhood_diversity(
            metrics.mention_profiles(mentions), homes, "mention", table))
    if not results:
        raise ValidationError("no event data for diversity")
    metrics.write_diversity_csv(results, out / "diversity.csv")
    return ["diversity.csv"]


def cmd_network(cfg, out: Path) -> list[str]:
    _, nets = _both_networks(cfg)
    outputs = []
    for channel, raw, weighted in nets:
        for tag, net in (("raw", raw), ("weighted", weighted)):
            edges = f"{channel}_{tag}_edges.csv"
            header = f"{channel}_{tag}_header.json"
            network.write_network(net, out / edges, out / header)
            outputs += [edges, header]
    return outputs


def cmd_mixing(cfg, out: Path) -> list[str]:
    table, nets = _both_networks(cfg)
    groups = _groups(table, cfg)
    outputs = []
    for channel, _, weighted in nets:
        mix = segregation.mixing_matrix(weighted, groups)
        for view in ("M", "S", "e"):
            name = f"mixing_{channel}_{view}.csv"
            segregation.write_mixing_csv(mix, out / name, view=view)
            outputs.append(name)
    return outputs


def cmd_sweep(cfg, out: Path) -> list[str]:
    table, nets = _both_networks(cfg)
    groups = _groups(table, cfg)
    dist = network.centroid_distances(table)
    outputs = []
    for channel, _, weighted in nets:
        steps = segregation.extremes_sweep(weighted, groups)
        if cfg["jackknife_replicates"] > 0:
            stats.jackknife_extremes_sweep(weighted, groups, steps, cfg["jackknife_fraction"],
                                           cfg["jackknife_replicates"], cfg["seed"])
        name = f"sweep_extremes_{channel}.csv"
        segregation.write_sweep_csv(steps, out / name)
        outputs.append(name)

        dist_steps = segregation.distance_sweep(weighted, groups, dist)
        name = f"sweep_distance_{channel}.csv"
        segregation.write_sweep_csv(dist_steps, out / name)
        outputs.append(name)
    return outputs


def cmd_asymmetry(cfg, out: Path) -> list[str]:
    table, nets = _both_networks(cfg)
    groups = _groups(table, cfg)
    outputs = []
    for channel, _, weighted in nets:
        steps = segregation.asymmetry_sweep(weighted, groups)
        name = f"asymmetry_{channel}.csv"
        segregation.write_sweep_csv(steps, out / name)
        outputs.append(name)
    return outputs


def cmd_gravity(cfg, out: Path) -> list[str]:
    table, nets = _both_networks(cfg)
    dist = network.centroid_distances(table)
    eps_grid = np.round(np.arange(cfg["eps_start"], cfg["eps_stop"] + 1e-9,
                                  cfg["eps_step"]), 10)
    outputs = []
    for channel, raw, _ in nets:
        dest = raw.store_counts if channel == "purchase" else raw.user_counts
        params = models.fit_gravity(raw, dist, raw.user_counts, dest,
                                    eps_grid=eps_grid,
                                    linear_distance=cfg["linear_distance"])
        name = f"gravity_{channel}.json"
        with open(out / name, "w") as fh:
            json.dump(params.as_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        outputs.append(name)
    return outputs


def cmd_null(cfg, out: Path) -> list[str]:
    table, nets = _both_networks(cfg)
    outputs = []
    for channel, _, weighted in nets:
        dist = models.null_shuffle_ses(
            weighted, table, replicates=cfg["replicates"], seed=cfg["seed"],
            k=cfg["k"], ses_ascending=not cfg["ses_descending"])
        name = f"null_{channel}.csv"
        with open(out / name, "w") as fh:
            fh.write("replicate,statistic,value\n")
            for i, v in enumerate(dist.r_values):
                fh.write(f"{i},assortativity,{float(v)!r}\n")
            for i, v in enumerate(dist.bias_values):
                fh.write(f"{i},bias,{float(v)!r}\n")
        outputs.append(name)
    return outputs


def cmd_jackknife(cfg, out: Path) -> list[str]:
    table, nets = _both_networks(cfg)
    groups = _groups(table, cfg)
    outputs = []
    for channel, _, weighted in nets:
        est = stats.jackknife_assortativity(
            weighted, groups, removal_fraction=cfg["fraction"],
            replicates=cfg["replicates"], seed=cfg["seed"])
        name = f"jackknife_{channel}.json"
        payload = {"channel": channel, "point": est.point, "ci_low": est.ci_low,
                   "ci_high": est.ci_high, "std": est.std,
                   "replicates": est.replicates, "discarded": est.discarded,
                   "removal_fraction": est.removal_fraction}
        with open(out / name, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        outputs.append(name)
    return outputs


def cmd_gini_report(cfg, out: Path) -> list[str]:
    table, purchases = _load_purchases(cfg)
    if not purchases:
        raise ValidationError("the inequality report needs purchase events")
    fractions = tuple(float(f) for f in cfg["fractions"].split(","))
    rows = stats.segregation_inequality_report(
        purchases, table, k=cfg["k"], ses_ascending=not cfg["ses_descending"],
        fractions=fractions, replicates=cfg["replicates"], seed=cfg["seed"])
    stats.write_report_csv(rows, out / "report.csv")
    stats.write_report_details(rows, out / "report_details.json")
    return ["report.csv", "report_details.json"]


COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic city", dict(
        preset="homophilous", seed=None, n_neighborhoods=None,
        n_purchase_events=None, n_mention_events=None, n_customers=None,
        n_stores=None, n_twitter_users=None)),
    "ingest": (cmd_ingest, "validate inputs and infer homes", dict(
        data=".", min_tx=10, night_start=20, night_end=6)),
    "diversity": (cmd_diversity, "neighborhood diversity table", dict(
        data=".", min_tx=10, night_start=20, night_end=6)),
    "network": (cmd_network, "build raw and weighted networks", dict(
        data=".", min_tx=10, night_start=20, night_end=6)),
    "mixing": (cmd_mixing, "group-level mixing matrices", dict(
        data=".", min_tx=10, night_start=20, night_end=6, k=10,
        ses_descending=False)),
    "sweep": (cmd_sweep, "extreme-group and distance sweeps", dict(
        data=".", min_tx=10, night_start=20, night_end=6, k=10,
        ses_descending=False, jackknife_replicates=100, jackknife_fraction=0.05,
        seed=None)),
    "asymmetry": (cmd_asymmetry, "poor-to-rich bias sweep", dict(
        data=".", min_tx=10, night_start=20, night_end=6, k=10,
        ses_descending=False)),
    "gravity": (cmd_gravity, "fit the gravity model", dict(
        data=".", min_tx=10, night_start=20, night_end=6,
        eps_start=0.0, eps_stop=2.0, eps_step=0.01, linear_distance=False)),
    "null": (cmd_null, "SES-shuffle null distribution", dict(
        data=".", min_tx=10, night_start=20, night_end=6, k=10,
        ses_descending=False, replicates=100, seed=None)),
    "jackknife": (cmd_jackknife, "edge-removal confidence interval", dict(
        data=".", min_tx=10, night_start=20, night_end=6, k=10,
        ses_descending=False, replicates=100, fraction=0.05, seed=None)),
    "gini-report": (cmd_gini_report, "segregation-inequality coupling", dict(
        data=".", min_tx=10, night_start=20, night_end=6, k=10,
        ses_descending=False, replicates=50, seed=None,
        fractions="0.2,0.4,0.6,0.8,1.0")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="segflow",
                     description="behavioral segregation analytics pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_text, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None, help="flat key=value config file")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            caster = _caster_for(key, default)
            if caster is bool:
                p.add_argument(flag, action="store_const", const=True, default=None)
            else:
                p.add_argument(flag, type=caster, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_help()
        return 1
    runner, _, defaults = COMMANDS[args.command]
    try:
        file_cfg = read_config_file(args.config) if args.config else {}
        cfg = _resolve(args, file_cfg, defaults)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs = runner(cfg, out)
        inputs = []
        if "data" in cfg:
            inputs = [Path(cfg["data"]) / name for name in DATA_FILES]
        if args.config:
            inputs.append(Path(args.config))
        _write_manifest(out, args.command, cfg, inputs, outputs)
        return 0
    except (ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
