"""Synthetic city generator with planted ground truth.

Cities live on a square grid of neighborhood cells.  Expected flows
between cells follow a gravity law modulated by a status-homophily factor
exp(-h * |ses_i - ses_j|) and a poor-to-rich tilt exp(tau * (ses_j -
ses_i)); realized event counts are Poisson draws around those
intensities.  The generator emits the exact CSV/JSON formats the ingest
loaders consume, so the whole pipeline can be exercised end to end
without any proprietary data.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .ingest import (GeoPostLog, MentionLog, NeighborhoodTable, PurchaseLog, _formatted,
                     _gather, _renumber, _write_columns, _write_json)
from .models import GravityParams
from .network import EARTH_RADIUS_KM, centroid_distances

KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0
BASE_LAT = 40.0
BASE_LON = -3.0
KM_PER_DEG_LON = KM_PER_DEG_LAT * math.cos(math.radians(BASE_LAT))

NIGHT_HOURS = (20, 21, 22, 23, 0, 1, 2, 3, 4, 5)
START = np.datetime64("2013-04-01T00:00:00", "s")    # events fall on the N_DAYS days
N_DAYS = 90                                            # from START on


@dataclass
class SynthConfig:
    n_neighborhoods: int = 100
    extent_km: float = 30.0
    ses_field: str = "linear"          # linear | radial | random
    n_stores: int = 400
    n_customers: int = 1500
    n_twitter_users: int = 800
    purchase_gravity: GravityParams = field(default_factory=partial(
        GravityParams, c=1.0, beta1=0.8, beta2=0.7, epsilon=0.5, alpha=0.6, channel="purchase"))
    mention_gravity: GravityParams = field(default_factory=partial(
        GravityParams, c=1.0, beta1=0.6, beta2=0.6, epsilon=0.5, alpha=0.5, channel="mention"))
    homophily: float = 0.0             # h >= 0, flow factor exp(-h * |dses|)
    tilt: float = 0.0                  # tau, poor-to-rich factor exp(tau * dses)
    exploration: float = 1.0           # richer individuals spread over more targets
    self_flow_scale: float = 1.0       # multiplier on within-neighborhood intensity
    n_purchase_events: int = 40000
    n_mention_events: int = 25000
    seed: int = 0

    def validate(self) -> None:
        if self.n_neighborhoods < 4:
            raise ValueError("need at least 4 neighborhoods")
        if min(self.n_stores, self.n_customers, self.n_twitter_users) < self.n_neighborhoods:
            raise ValueError("need at least one store/customer/user per neighborhood")
        if self.homophily < 0 or self.self_flow_scale < 0:
            raise ValueError("homophily and self_flow_scale must be non-negative")
        for value in (self.homophily, self.tilt, self.exploration):
            if not np.isfinite(value):
                raise ValueError("config parameters must be finite")
        if self.ses_field not in ("linear", "radial", "random"):
            raise ValueError(f"unknown ses_field {self.ses_field!r}")


@dataclass
class SynthCity:
    config: SynthConfig
    table: NeighborhoodTable
    geometry: dict[str, list[np.ndarray]]
    purchases: PurchaseLog
    purchase_times: np.ndarray         # datetime64[s], one per event
    mentions: MentionLog
    mention_times: np.ndarray
    geoposts: GeoPostLog
    geopost_times: np.ndarray
    truth: dict
    customer_homes: dict[str, str]
    user_homes: dict[str, str]


def _grid_layout(cfg: SynthConfig, rng: np.random.Generator):
    n = cfg.n_neighborhoods
    side = math.ceil(math.sqrt(n))
    spacing = cfg.extent_km / side
    rows, cols = np.divmod(np.arange(n), side)
    x_km = (cols + 0.5) * spacing
    y_km = (rows + 0.5) * spacing
    lat = BASE_LAT + y_km / KM_PER_DEG_LAT
    lon = BASE_LON + x_km / KM_PER_DEG_LON

    if cfg.ses_field == "linear":
        raw = x_km + y_km
    elif cfg.ses_field == "radial":
        cx, cy = cfg.extent_km / 2.0, cfg.extent_km / 2.0
        raw = -np.hypot(x_km - cx, y_km - cy)
    else:
        raw = rng.uniform(0.0, 1.0, n)
    span = raw.max() - raw.min()
    ses = 5.0 + 90.0 * (raw - raw.min()) / (span if span > 0 else 1.0)
    ses = np.clip(ses + 3.0 * rng.standard_normal(n), 0.0, 100.0)

    ids = [f"N{i:04d}" for i in range(n)]
    population = rng.integers(800, 1201, n)
    table = NeighborhoodTable(ids, lat, lon, population, ses)

    cell_origin_km = np.column_stack([cols * spacing, rows * spacing])
    # each cell's ring of corners, closed, as (lon, lat) pairs
    unit_ring = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])
    corners_km = cell_origin_km[:, None, :] + unit_ring * spacing
    rings = np.stack([BASE_LON + corners_km[..., 0] / KM_PER_DEG_LON,
                      BASE_LAT + corners_km[..., 1] / KM_PER_DEG_LAT], axis=-1)
    geometry = {nid: [ring] for nid, ring in zip(ids, rings)}
    return table, geometry, cell_origin_km, spacing


def synthetic_geometry(n: int = 100, extent_km: float = 30.0,
                       ses_field: str = "linear", seed: int = 0):
    """Just the table and polygons of a grid city, no events."""
    cfg = SynthConfig(n_neighborhoods=n, extent_km=extent_km, ses_field=ses_field,
                      n_stores=n, n_customers=n, n_twitter_users=n, seed=seed)
    cfg.validate()
    table, geometry, _, _ = _grid_layout(cfg, np.random.default_rng(seed))
    return table, geometry


def _allocate(total: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Spread `total` units uniformly over n neighborhoods, at least one each."""
    if total < n:
        raise ValueError(f"cannot allocate {total} units over {n} neighborhoods")
    return 1 + rng.multinomial(total - n, np.full(n, 1.0 / n))


def _first(counts: np.ndarray) -> np.ndarray:
    """The number of each neighborhood's first individual, when individuals
    are numbered across the city, neighborhood by neighborhood."""
    return np.cumsum(counts) - counts


def _truncated_geometric(rng, rho: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Sample index 0..size-1 with P(s) ~ rho**s (rho == 1 means uniform)."""
    r = rng.random(rho.size)
    out = np.floor(r * size).astype(np.int64)
    decay = rho < 1.0 - 1e-12
    if decay.any():
        rho_d = rho[decay]
        top = np.exp(size[decay] * np.log(rho_d))
        s = np.floor(np.log1p(-r[decay] * (1.0 - top)) / np.log(rho_d)).astype(np.int64)
        out[decay] = s
    return np.clip(out, 0, size - 1)


def _event_times(rng, hours: np.ndarray) -> np.ndarray:
    """A random day, minute and second for events at the given hours."""
    days = rng.integers(0, N_DAYS, hours.size)
    minutes = rng.integers(0, 60, hours.size)
    seconds = rng.integers(0, 60, hours.size)
    return START + (((days * 24 + hours) * 60 + minutes) * 60 + seconds).astype("timedelta64[s]")


def _draw_events(rng, cfg: SynthConfig, grav: GravityParams, origin_counts, dest_counts,
                 dist, u, target_events: int):
    """Poisson event counts around the planted intensity for every pair of
    neighborhoods, then for each event an origin individual drawn uniformly
    in its neighborhood and a destination individual drawn geometrically in
    its own, richer origins spreading further.  Returns each event's origin
    and destination neighborhood, its origin and destination individual, and
    the scale that brings the intensity to ``target_events``."""
    # lam takes each factor in place, with at most two n x n temporaries beside it
    lam = grav.c * np.outer(origin_counts ** grav.beta1, dest_counts ** grav.beta2)
    lam /= (dist + grav.epsilon) ** grav.alpha
    dses = u[None, :] - u[:, None]
    factor = np.abs(dses)
    factor *= -cfg.homophily
    lam *= np.exp(factor, out=factor)
    dses *= cfg.tilt
    lam *= np.exp(dses, out=dses)
    del factor, dses
    lam[np.diag_indices_from(lam)] *= cfg.self_flow_scale
    scale = target_events / lam.sum()
    lam *= scale
    counts = rng.poisson(lam)
    pair_i, pair_j = np.nonzero(counts)
    reps = counts[pair_i, pair_j]
    ev_i, ev_j = np.repeat(pair_i, reps), np.repeat(pair_j, reps)
    origin = _first(origin_counts)[ev_i] + np.floor(
        rng.random(ev_i.size) * origin_counts[ev_i]).astype(np.int64)
    rho = np.exp(-cfg.exploration * (1.0 - u[ev_i]))
    dest = _first(dest_counts)[ev_j] + _truncated_geometric(rng, rho, dest_counts[ev_j])
    return ev_i, ev_j, origin, dest, scale


def generate_city(cfg: SynthConfig) -> SynthCity:
    """Generate one deterministic synthetic city from a config and seed."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    table, geometry, cell_origin_km, spacing = _grid_layout(cfg, rng)
    n = table.n
    u = table.ses / 100.0

    dist = centroid_distances(table)

    store_counts = _allocate(cfg.n_stores, n, rng)
    customer_counts = _allocate(cfg.n_customers, n, rng)
    twitter_counts = _allocate(cfg.n_twitter_users, n, rng)
    store_ids = [f"S{i:05d}" for i in range(cfg.n_stores)]
    customer_ids = [f"C{i:05d}" for i in range(cfg.n_customers)]
    user_ids = [f"U{i:05d}" for i in range(cfg.n_twitter_users)]
    customer_nbhd = np.repeat(np.arange(n), customer_counts)
    user_nbhd = np.repeat(np.arange(n), twitter_counts)

    ev_i, ev_j, cust, store, scale_p = _draw_events(
        rng, cfg, cfg.purchase_gravity, customer_counts, store_counts, dist, u,
        cfg.n_purchase_events)
    amounts = np.round(rng.lognormal(3.0, 0.6, ev_i.size), 2)
    purchase_times = _event_times(rng, rng.integers(9, 22, ev_i.size))
    ids = np.array(table.ids)
    customer_home = ids[customer_nbhd].tolist()
    # select renumbers the customers and stores with an event in first-seen order
    purchases = PurchaseLog(customer_ids, store_ids, customer_home,
                            ids[np.repeat(np.arange(n), store_counts)].tolist(),
                            cust, store, amounts).select(np.ones(ev_i.size, dtype=bool))

    ev_i, ev_j, src, dst, scale_t = _draw_events(
        rng, cfg, cfg.mention_gravity, twitter_counts, twitter_counts, dist, u,
        cfg.n_mention_events)
    # a self-mention moves on to the next user of the neighborhood, if it has one
    first, size = _first(twitter_counts)[ev_j], twitter_counts[ev_j]
    move = (src == dst) & (size > 1)
    dst[move] = first[move] + (dst[move] - first[move] + 1) % size[move]
    keep = src != dst
    mention_times = _event_times(rng, rng.integers(8, 24, ev_i.size))[keep]
    # sources interleave with targets, so a row's source is seen first
    codes, users = _renumber(np.column_stack([src[keep], dst[keep]]).ravel(), user_ids)
    mentions = MentionLog(users, codes[0::2], codes[1::2])

    # geo posts: a handful of night posts at home plus daytime posts elsewhere,
    # drawn user by user in the order the recorded data digests pin
    n_posts, cells, hours, xy, day_minute = [], [], [], [], []
    for home in user_nbhd.tolist():
        n_night = int(rng.integers(2, 6))
        n_day = int(rng.integers(0, 4))
        n_posts.append(n_night + n_day)
        # scalar draws give the stream of one sized draw, without its np.prod on the size
        cells += [home] * n_night + [int(rng.integers(0, n)) for _ in range(n_day)]
        hours += [NIGHT_HOURS[int(rng.integers(0, len(NIGHT_HOURS)))] for _ in range(n_night)]
        hours += [int(rng.integers(9, 20)) for _ in range(n_day)]
        for _ in range(n_night + n_day):
            xy.append(rng.random(2))
            day_minute.append((rng.integers(0, N_DAYS), rng.integers(0, 60)))
    post_km = cell_origin_km[cells] + (0.15 + 0.7 * np.array(xy)) * spacing
    (day, minute), hour = np.array(day_minute).T, np.array(hours)
    user, users = _renumber(np.repeat(np.arange(len(user_ids)), n_posts), user_ids)
    geoposts = GeoPostLog(users, user, BASE_LAT + post_km[:, 1] / KM_PER_DEG_LAT,
                          BASE_LON + post_km[:, 0] / KM_PER_DEG_LON, hour)

    truth = dict(planted_truth(cfg), effective_c_purchase=cfg.purchase_gravity.c * scale_p,
                 effective_c_mention=cfg.mention_gravity.c * scale_t,
                 customer_counts=customer_counts.tolist(), store_counts=store_counts.tolist(),
                 twitter_counts=twitter_counts.tolist())

    return SynthCity(
        config=cfg, table=table, geometry=geometry,
        purchases=purchases, purchase_times=purchase_times, mentions=mentions,
        mention_times=mention_times, geoposts=geoposts,
        geopost_times=START + ((day * 24 + hour) * 60 + minute).astype("timedelta64[m]"),
        truth=truth, customer_homes=dict(zip(customer_ids, customer_home)),
        user_homes=dict(zip(user_ids, ids[user_nbhd].tolist())),
    )


def planted_truth(cfg: SynthConfig) -> dict:
    """Machine-readable expectations for the planted segregation structure.

    Thresholds for the strong-homophily regime come from a 20-seed pilot
    of the shipped presets.
    """
    expect_r = ({"kind": "min", "value": 0.6} if cfg.homophily >= 3.0 else
                {"kind": "null_band"} if cfg.homophily == 0.0 else {"kind": "positive"})
    expect_bias = {"kind": "positive" if cfg.tilt > 0.0 else
                   "null_band" if cfg.tilt == 0.0 else "negative"}
    return {
        "seed": cfg.seed,
        "homophily": cfg.homophily,
        "tilt": cfg.tilt,
        "gravity_purchase": cfg.purchase_gravity.as_dict(),
        "gravity_mention": cfg.mention_gravity.as_dict(),
        "expectations": {"assortativity": expect_r, "bias": expect_bias},
    }


_PRESET_BASE = dict(
    n_neighborhoods=1600, extent_km=40.0, ses_field="linear",
    n_stores=2000, n_customers=2500, n_twitter_users=2000,
    n_purchase_events=20000, n_mention_events=30000,
    exploration=1.5, self_flow_scale=0.0,
)

# The neutral preset draws SES independently of the grid: with a spatial
# SES gradient, distance decay alone produces positive assortativity, so a
# null-level city needs SES decoupled from geography.
PRESETS = {
    "neutral": dict(_PRESET_BASE, homophily=0.0, tilt=0.0, ses_field="random"),
    "homophilous": dict(_PRESET_BASE, homophily=6.0, tilt=0.0),
    "tilted": dict(_PRESET_BASE, homophily=1.0, tilt=1.5),
}


def preset(name: str, seed: int = 0, **overrides) -> SynthConfig:
    """A named preset config; keyword overrides replace individual fields."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return SynthConfig(seed=seed, **{**PRESETS[name], **overrides})


def _iso_columns(times: np.ndarray, end: str) -> list[list[str]]:
    """datetime64[s] values as ISO 8601 text, as ``datetime.isoformat``
    prints them, then ``end``: the date and hour, formatted once for each
    distinct hour, and the minute and second, gathered from a table."""
    hour, second = np.divmod(times.astype(np.int64), 3600)
    hours, hour = np.unique(hour, return_inverse=True)
    hours = np.datetime_as_string(hours.astype("datetime64[h]")).tolist()
    return [_gather([f"{h}:" for h in hours], hour),
            _gather([f"{s // 60:02d}:{s % 60:02d}{end}" for s in range(3600)], second)]


def write_city(city: SynthCity, outdir) -> dict[str, str]:
    """Write a city in the exact formats the ingest loaders read, a column
    at a time: each id, amount and hour is formatted once, then gathered."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {file.split(".")[0]: outdir / file for file in ("neighborhoods.csv", "geometry.json",
             "purchases.csv", "mentions.csv", "geoposts.csv", "truth.json")}
    city.table.write_csv(paths["neighborhoods"])
    paths["geometry"].write_text(json.dumps({nid: [ring.tolist() for ring in rings]
                                             for nid, rings in city.geometry.items()},
                                            sort_keys=True) + "\n")
    log = city.purchases
    _write_columns(paths["purchases"],
                   "customer_id,store_id,timestamp,amount,customer_home,store_neighborhood\n",
                   _gather([f"{c}," for c in log.customer_ids], log.customer),
                   _gather([f"{s}," for s in log.store_ids], log.store),
                   *_iso_columns(city.purchase_times, ","), _formatted(log.amount, "{:.2f},"),
                   _gather([f"{h}," for h in log.home], log.customer),
                   _gather([f"{p}\n" for p in log.location], log.store))
    users = [f"{u}," for u in city.mentions.user_ids]
    _write_columns(paths["mentions"], "source_user,target_user,timestamp\n",
                   _gather(users, city.mentions.source), _gather(users, city.mentions.target),
                   *_iso_columns(city.mention_times, "\n"))
    posts = city.geoposts
    _write_columns(paths["geoposts"], "user_id,lat,lon,timestamp\n",
                   _gather([f"{u}," for u in posts.user_ids], posts.user),
                   _formatted(posts.lat, "{!r},"), _formatted(posts.lon, "{!r},"),
                   *_iso_columns(city.geopost_times, "\n"))
    _write_json(paths["truth"], {"config": asdict(city.config), "truth": city.truth})
    return {name: str(path) for name, path in paths.items()}
