"""Command-line surface wiring the library into reproducible runs.

Every command reads conventional file names from a data directory, writes
its artifacts plus a manifest (input hashes, resolved config, version)
into the output directory, and exits 0 on success, 1 on a validation
problem, 2 on an internal error.  The seed falls back to the
SEGFLOW_SEED environment variable, and a flat key=value config file can
stand in for any flag; explicit flags win.  Log records go to stderr at
the level named by SEGFLOW_LOG (default WARNING).
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, metrics, models, network, segregation, stats, synth
from .ingest import (ValidationError, assign_points_to_neighborhoods, file_sha256,
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


def read_config_file(path) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; keys match flag names
    with dashes replaced by underscores.  A key that is an option of no
    command (``--out`` and ``--config`` included), or a value that its
    key's type rejects, is a ValidationError."""
    casters = {key: _caster_for(default)
               for _, _, defaults in COMMANDS.values() for key, default in defaults.items()}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}: line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            if name not in casters:
                raise ValidationError(f"{path}: line {lineno}: unknown key {key!r}")
            try:
                casters[name](value)
            except ValueError as exc:
                raise ValidationError(f"{path}: line {lineno}: {key} = {value!r}: {exc}") from None
            values[name] = value
    return values


_TRUTH = {"true": True, "false": False, "yes": True, "no": False,
          "on": True, "off": False, "1": True, "0": False}


def _boolean(text: str) -> bool:
    try:
        return _TRUTH[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean; use one of {'/'.join(_TRUTH)}") from None


def _caster_for(default):
    """The type of an option's values.  The options whose default is None,
    absent unless given, are the seed and synth's counts: whole numbers."""
    if default is None:
        return int
    return {bool: _boolean, int: int, float: float}.get(type(default), str)


def _resolve(args: argparse.Namespace, file_cfg: dict, defaults: dict) -> dict:
    """flags > config file > defaults; returns the effective config."""
    merged = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
        elif key in file_cfg:
            merged[key] = _caster_for(default)(file_cfg[key])
        else:
            merged[key] = default
    if "seed" in merged and merged["seed"] is None:
        raw = os.environ.get("SEGFLOW_SEED", "0")
        try:
            merged["seed"] = int(raw)
        except ValueError as exc:
            raise ValidationError(f"SEGFLOW_SEED = {raw!r}: {exc}") from None
    return merged


def _write_manifest(out: Path, command: str, cfg: dict, inputs: list[Path],
                    outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": {key: (str(v) if isinstance(v, Path) else v) for key, v in cfg.items()},
        "inputs": {p.name: file_sha256(p) for p in inputs if p.exists()},
        "outputs": sorted(outputs),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_purchases(cfg: dict):
    """The neighborhood table, the active customers' purchase log and the
    counts that ``ingest`` reports; None and no counts without purchases.csv."""
    data = Path(cfg["data"])
    table = load_neighborhoods(data / "neighborhoods.csv")
    purchases, counts = None, {}
    if (data / "purchases.csv").exists():
        loaded = load_purchases(data / "purchases.csv")
        purchases = filter_active_customers(loaded, cfg["min_tx"])
        counts.update(purchases_loaded=len(loaded), purchases_active=len(purchases))
    return table, purchases, counts


def _mentions(cfg: dict):
    """Mentions, the users' inferred homes and the counts that ``ingest``
    reports; None, {} and no counts without their files."""
    data = Path(cfg["data"])
    mentions, homes, counts = None, {}, {}
    if (data / "mentions.csv").exists():
        mentions = load_mentions(data / "mentions.csv")
        counts["mentions_loaded"] = len(mentions)
    if (data / "geoposts.csv").exists() and (data / "geometry.json").exists():
        geometry = load_geometry(data / "geometry.json")
        posts = load_geoposts(data / "geoposts.csv")
        place, outside = assign_points_to_neighborhoods(posts, geometry)
        homes, unassigned = infer_home(posts, place, sorted(geometry),
                                       cfg["night_start"], cfg["night_end"])
        counts.update(geoposts=len(posts), geoposts_outside=outside,
                      users_homed=len(homes), users_unassigned=len(unassigned))
    return mentions, homes, counts


def _both_networks(cfg: dict):
    """(channel, raw, weighted) for every channel with resolved flow."""
    table, purchases, _ = _load_purchases(cfg)
    mentions, homes, _ = _mentions(cfg)
    raws = [network.build_purchase_network(purchases, table)] if purchases else []
    if mentions and homes:
        raws.append(network.build_mention_network(mentions, homes, table))
    out = [(raw.channel, raw, network.population_weight(raw))
           for raw in raws if raw.flows.size]
    if not out:
        raise ValidationError("no usable event data found in the data directory")
    return table, out


def _groups(table, cfg):
    return segregation.assign_groups(table, k=cfg["k"],
                                     ses_ascending=not cfg["ses_descending"])


# ---------------------------------------------------------------- commands

def cmd_synth(cfg, out: Path) -> list[str]:
    overrides = {key: value for key, value in cfg.items()
                 if key not in ("preset", "seed") and value is not None}
    city = synth.generate_city(synth.preset(cfg["preset"], seed=cfg["seed"], **overrides))
    paths = synth.write_city(city, out)
    return [Path(p).name for p in paths.values()]


def cmd_ingest(cfg, out: Path) -> list[str]:
    table, _, counts = _load_purchases(cfg)
    _, homes, geo_counts = _mentions(cfg)
    report = {"neighborhoods": table.n, **counts, **geo_counts}
    table.write_csv(out / "neighborhoods.csv")
    outputs = ["neighborhoods.csv"]
    if "geoposts" in report:
        with open(out / "homes.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["user_id", "neighborhood_id"])
            writer.writerows(sorted(homes.items()))
        outputs.append("homes.csv")
    with open(out / "ingest_report.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    outputs.append("ingest_report.json")
    return outputs


def _placed(pairs, table) -> dict:
    """The (person, home) pairs whose home is in the table, as a dict."""
    return {person: home for person, home in pairs if home in table.index}


def cmd_diversity(cfg, out: Path) -> list[str]:
    table, purchases, _ = _load_purchases(cfg)
    mentions, homes, _ = _mentions(cfg)
    results = []
    if purchases:
        customer_homes = _placed(zip(purchases.customer_ids, purchases.home), table)
        if customer_homes:
            results.append(metrics.neighborhood_diversity(
                metrics.purchase_profiles(purchases), customer_homes, "purchase", table))
    homes = _placed(homes.items(), table)
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
    if cfg["jackknife_replicates"] < 0:  # 0 means no intervals
        raise ValueError(f"jackknife_replicates must be >= 0, got {cfg['jackknife_replicates']}")
    table, nets = _both_networks(cfg)
    groups = _groups(table, cfg)
    outputs = []
    for channel, _, weighted in nets:
        steps = segregation.extremes_sweep(weighted, groups)
        if cfg["jackknife_replicates"] > 0:
            stats.jackknife_extremes_sweep(weighted, groups, steps, cfg["jackknife_fraction"],
                                           cfg["jackknife_replicates"], cfg["seed"])
        name = f"sweep_extremes_{channel}.csv"
        segregation.write_sweep_csv(steps, out / name)
        outputs.append(name)

        dist_steps = segregation.distance_sweep(weighted, groups)
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
    for key in ("eps_start", "eps_stop"):
        if not (np.isfinite(cfg[key]) and cfg[key] >= 0):
            raise ValueError(f"{key} must be finite and non-negative, got {cfg[key]}")
    if not cfg["eps_step"] > 0:
        raise ValueError(f"eps_step must be positive, got {cfg['eps_step']}")
    eps_grid = np.round(np.arange(cfg["eps_start"], cfg["eps_stop"] + 1e-9,
                                  cfg["eps_step"]), 10)
    if not eps_grid.size:
        raise ValueError(f"empty eps grid from {cfg['eps_start']} to {cfg['eps_stop']}")
    _, nets = _both_networks(cfg)
    outputs = []
    for channel, raw, _ in nets:
        params = models.fit_gravity(raw, eps_grid=eps_grid,
                                    linear_distance=cfg["linear_distance"])
        name = f"gravity_{channel}.json"
        with open(out / name, "w") as fh:
            json.dump(params.as_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        outputs.append(name)
    return outputs


def cmd_null(cfg, out: Path) -> list[str]:
    table, nets = _both_networks(cfg)
    groups = _groups(table, cfg)
    outputs = []
    for channel, _, weighted in nets:
        dist = models.null_shuffle_ses(weighted, groups, cfg["replicates"], cfg["seed"])
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
    table, purchases, _ = _load_purchases(cfg)
    if not purchases:
        raise ValidationError("the inequality report needs purchase events")
    try:
        fractions = tuple(float(f) for f in cfg["fractions"].split(","))
    except ValueError:
        raise ValueError(f"fractions must be comma-separated numbers, "
                         f"got {cfg['fractions']!r}") from None
    rows = stats.segregation_inequality_report(
        purchases, table, _groups(table, cfg),
        fractions=fractions, replicates=cfg["replicates"], seed=cfg["seed"])
    stats.write_report_csv(rows, out / "report.csv")
    stats.write_report_details(rows, out / "report_details.json")
    return ["report.csv", "report_details.json"]


# defaults of every command that reads purchases, of those that also read
# mentions and geoposts, and of those that group neighborhoods
PURCHASES = dict(data=".", min_tx=10)
DATA = dict(PURCHASES, night_start=20, night_end=6)
GROUPED = dict(DATA, k=10, ses_descending=False)

COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic city", dict(
        preset="homophilous", seed=None, n_neighborhoods=None,
        n_purchase_events=None, n_mention_events=None, n_customers=None,
        n_stores=None, n_twitter_users=None)),
    "ingest": (cmd_ingest, "validate inputs and infer homes", DATA),
    "diversity": (cmd_diversity, "neighborhood diversity table", DATA),
    "network": (cmd_network, "build raw and weighted networks", DATA),
    "mixing": (cmd_mixing, "group-level mixing matrices", GROUPED),
    "sweep": (cmd_sweep, "extreme-group and distance sweeps", dict(
        GROUPED, jackknife_replicates=100, jackknife_fraction=0.05, seed=None)),
    "asymmetry": (cmd_asymmetry, "poor-to-rich bias sweep", GROUPED),
    "gravity": (cmd_gravity, "fit the gravity model", dict(
        DATA, eps_start=0.0, eps_stop=2.0, eps_step=0.01, linear_distance=False)),
    "null": (cmd_null, "SES-shuffle null distribution", dict(
        GROUPED, replicates=100, seed=None)),
    "jackknife": (cmd_jackknife, "edge-removal confidence interval", dict(
        GROUPED, replicates=100, fraction=0.05, seed=None)),
    "gini-report": (cmd_gini_report, "segregation-inequality coupling", dict(
        PURCHASES, k=10, ses_descending=False, replicates=50, seed=None,
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
            caster = _caster_for(default)
            if caster is _boolean:
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
        logging.basicConfig(level=os.environ.get("SEGFLOW_LOG", "WARNING").upper(),
                            format="%(levelname)s %(name)s: %(message)s")
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
