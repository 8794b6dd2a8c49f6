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
from pathlib import Path

import numpy as np

from .ingest import GeoPostLog, MentionLog, NeighborhoodTable, PurchaseLog, _write_json
from .models import GravityParams
from .network import EARTH_RADIUS_KM, centroid_distances

KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0
BASE_LAT = 40.0
BASE_LON = -3.0
KM_PER_DEG_LON = KM_PER_DEG_LAT * math.cos(math.radians(BASE_LAT))

NIGHT_HOURS = (20, 21, 22, 23, 0, 1, 2, 3, 4, 5)
START = np.datetime64("2013-04-01T00:00:00", "s")    # events fall on the N_DAYS days
N_DAYS = 90                                            # from START on


def _default_purchase_gravity() -> GravityParams:
    return GravityParams(c=1.0, beta1=0.8, beta2=0.7, epsilon=0.5, alpha=0.6,
                         channel="purchase")


def _default_mention_gravity() -> GravityParams:
    return GravityParams(c=1.0, beta1=0.6, beta2=0.6, epsilon=0.5, alpha=0.5,
                         channel="mention")


@dataclass
class SynthConfig:
    n_neighborhoods: int = 100
    extent_km: float = 30.0
    ses_field: str = "linear"          # linear | radial | random
    n_stores: int = 400
    n_customers: int = 1500
    n_twitter_users: int = 800
    purchase_gravity: GravityParams = field(default_factory=_default_purchase_gravity)
    mention_gravity: GravityParams = field(default_factory=_default_mention_gravity)
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

    geometry = {}
    for i, nid in enumerate(ids):
        x0, y0 = cols[i] * spacing, rows[i] * spacing
        corners_km = [(x0, y0), (x0 + spacing, y0), (x0 + spacing, y0 + spacing),
                      (x0, y0 + spacing), (x0, y0)]
        ring = np.array([[BASE_LON + cx / KM_PER_DEG_LON, BASE_LAT + cy / KM_PER_DEG_LAT]
                         for cx, cy in corners_km])
        geometry[nid] = [ring]
    cell_origin_km = np.column_stack([cols * spacing, rows * spacing])
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
    lam = grav.c * np.outer(origin_counts ** grav.beta1, dest_counts ** grav.beta2)
    lam = lam / (dist + grav.epsilon) ** grav.alpha
    dses = u[None, :] - u[:, None]
    lam = lam * np.exp(-cfg.homophily * np.abs(dses)) * np.exp(cfg.tilt * dses)
    lam[np.diag_indices_from(lam)] *= cfg.self_flow_scale
    scale = target_events / lam.sum()
    counts = rng.poisson(lam * scale)
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
    # select renumbers the customers and stores with an event in first-seen order
    purchases = PurchaseLog(customer_ids, store_ids, ids[customer_nbhd].tolist(),
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
    mentions = MentionLog.from_rows((user_ids[a], user_ids[b])
                                    for a, b in zip(src[keep].tolist(), dst[keep].tolist()))

    # geo posts: a handful of night posts at home plus daytime posts elsewhere
    post_rows, post_minutes = [], []
    for uid_idx, uid in enumerate(user_ids):
        home = user_nbhd[uid_idx]
        n_night = int(rng.integers(2, 6))
        n_day = int(rng.integers(0, 4))
        cells = [home] * n_night + list(rng.integers(0, n, n_day))
        hour_pool = [int(rng.choice(NIGHT_HOURS)) for _ in range(n_night)]
        hour_pool += [int(h) for h in rng.integers(9, 20, n_day)]
        for cell, hour in zip(cells, hour_pool):
            fx, fy = 0.15 + 0.7 * rng.random(), 0.15 + 0.7 * rng.random()
            x_km = cell_origin_km[cell, 0] + fx * spacing
            y_km = cell_origin_km[cell, 1] + fy * spacing
            day, minute = int(rng.integers(0, N_DAYS)), int(rng.integers(0, 60))
            post_rows.append((uid, float(BASE_LAT + y_km / KM_PER_DEG_LAT),
                              float(BASE_LON + x_km / KM_PER_DEG_LON), hour))
            post_minutes.append((day * 24 + hour) * 60 + minute)

    truth = planted_truth(cfg)
    truth["effective_c_purchase"] = cfg.purchase_gravity.c * scale_p
    truth["effective_c_mention"] = cfg.mention_gravity.c * scale_t
    truth["customer_counts"] = [int(v) for v in customer_counts]
    truth["store_counts"] = [int(v) for v in store_counts]
    truth["twitter_counts"] = [int(v) for v in twitter_counts]

    return SynthCity(
        config=cfg, table=table, geometry=geometry,
        purchases=purchases, purchase_times=purchase_times, mentions=mentions,
        mention_times=mention_times, geoposts=GeoPostLog.from_rows(post_rows),
        geopost_times=START + np.array(post_minutes, dtype="timedelta64[m]"), truth=truth,
        customer_homes={customer_ids[i]: table.ids[customer_nbhd[i]]
                        for i in range(cfg.n_customers)},
        user_homes={user_ids[i]: table.ids[user_nbhd[i]]
                    for i in range(cfg.n_twitter_users)},
    )


def planted_truth(cfg: SynthConfig) -> dict:
    """Machine-readable expectations for the planted segregation structure.

    Thresholds for the strong-homophily regime come from a 20-seed pilot
    of the shipped presets.
    """
    if cfg.homophily >= 3.0:
        expect_r = {"kind": "min", "value": 0.6}
    elif cfg.homophily == 0.0:
        expect_r = {"kind": "null_band"}
    else:
        expect_r = {"kind": "positive"}
    if cfg.tilt > 0.0:
        expect_bias = {"kind": "positive"}
    elif cfg.tilt == 0.0:
        expect_bias = {"kind": "null_band"}
    else:
        expect_bias = {"kind": "negative"}
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


def _iso(times: np.ndarray) -> list[str]:
    """datetime64[s] values as ISO 8601 text, as ``datetime.isoformat`` prints them."""
    return np.datetime_as_string(times, unit="s").tolist()


def write_city(city: SynthCity, outdir) -> dict[str, str]:
    """Write a city in the exact formats the ingest loaders read."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}

    paths["neighborhoods"] = str(outdir / "neighborhoods.csv")
    city.table.write_csv(paths["neighborhoods"])

    paths["geometry"] = str(outdir / "geometry.json")
    with open(paths["geometry"], "w") as fh:
        json.dump({nid: [ring.tolist() for ring in rings]
                   for nid, rings in city.geometry.items()}, fh, sort_keys=True)
        fh.write("\n")

    paths["purchases"] = str(outdir / "purchases.csv")
    with open(paths["purchases"], "w") as fh:
        fh.write("customer_id,store_id,timestamp,amount,customer_home,store_neighborhood\n")
        log = city.purchases
        for c, s, t, a in zip(log.customer.tolist(), log.store.tolist(),
                              _iso(city.purchase_times), log.amount.tolist()):
            fh.write(f"{log.customer_ids[c]},{log.store_ids[s]},{t},"
                     f"{a:.2f},{log.home[c]},{log.location[s]}\n")

    paths["mentions"] = str(outdir / "mentions.csv")
    with open(paths["mentions"], "w") as fh:
        fh.write("source_user,target_user,timestamp\n")
        users = city.mentions.user_ids
        for a, b, ts in zip(city.mentions.source.tolist(), city.mentions.target.tolist(),
                            _iso(city.mention_times)):
            fh.write(f"{users[a]},{users[b]},{ts}\n")

    paths["geoposts"] = str(outdir / "geoposts.csv")
    with open(paths["geoposts"], "w") as fh:
        fh.write("user_id,lat,lon,timestamp\n")
        posts = city.geoposts
        for u, lat, lon, ts in zip(posts.user.tolist(), posts.lat.tolist(), posts.lon.tolist(),
                                   _iso(city.geopost_times)):
            fh.write(f"{posts.user_ids[u]},{lat!r},{lon!r},{ts}\n")

    paths["truth"] = str(outdir / "truth.json")
    _write_json(paths["truth"], {"config": asdict(city.config), "truth": city.truth})
    return paths
