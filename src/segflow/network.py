"""Directed neighborhood interaction networks and population weighting.

Networks are dense n x n matrices (rows = origin) over the canonical
sorted neighborhood order.  Raw edge weights are event counts; the
population weighting divides out each neighborhood's sampling rate so
that under-sampled areas are not under-represented.  Each n x n matrix is
built once into its own buffer, with no full-size temporaries: centroid
distances a block of rows at a time, mention weights divided into their scale.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .ingest import MentionLog, NeighborhoodTable, PurchaseLog

EARTH_RADIUS_KM = 6371.0
_BLOCK_ROWS = 128     # rows of the distance matrix computed at a time


@dataclass
class InteractionNetwork:
    nodes: list[str]
    W: np.ndarray
    channel: str                      # "purchase" | "mention"
    weighting: str = "raw"            # "raw" | "population_weighted"
    population: np.ndarray | None = None
    ses: np.ndarray | None = None
    user_counts: np.ndarray | None = None   # sampled individuals per home neighborhood
    store_counts: np.ndarray | None = None  # purchase channel only: stores per neighborhood
    dropped_events: int = 0
    simulated: bool = False

    @property
    def n(self) -> int:
        return len(self.nodes)

    def total_weight(self) -> float:
        return float(self.W.sum())


def build_purchase_network(events: PurchaseLog, table: NeighborhoodTable) -> InteractionNetwork:
    """Count purchases from each home neighborhood at each store neighborhood.

    Events whose home or store neighborhood is unknown are dropped and
    counted.
    """
    log, home, loc = events.resolved(table)
    n = table.n
    cells = home[log.customer] * n + loc[log.store]
    return InteractionNetwork(
        nodes=list(table.ids), W=np.bincount(cells, minlength=n * n).reshape(n, n).astype(float),
        channel="purchase", weighting="raw",
        population=table.population.copy(), ses=table.ses.copy(),
        user_counts=np.bincount(home, minlength=n), store_counts=np.bincount(loc, minlength=n),
        dropped_events=len(events) - len(log),
    )


def build_mention_network(
    mentions: MentionLog,
    homes: Mapping[str, str],
    table: NeighborhoodTable,
) -> InteractionNetwork:
    """Count mentions between the home neighborhoods of source and target.

    Mentions with an endpoint lacking a home assignment are dropped and
    counted.  The per-neighborhood user count is the number of homed users,
    whether or not they mention anyone.
    """
    n = table.n
    row = table.rows(map(homes.get, mentions.user_ids))
    source, target = row[mentions.source], row[mentions.target]
    kept = (source >= 0) & (target >= 0)
    cells, homed = source[kept] * n + target[kept], table.rows(homes.values())
    return InteractionNetwork(
        nodes=list(table.ids), W=np.bincount(cells, minlength=n * n).reshape(n, n).astype(float),
        channel="mention", weighting="raw",
        population=table.population.copy(), ses=table.ses.copy(),
        user_counts=np.bincount(homed[homed >= 0], minlength=n),
        dropped_events=len(mentions) - int(kept.sum()),
    )


def population_weight(net: InteractionNetwork) -> InteractionNetwork:
    """Rescale flows by the network's census population over its sampled-user counts.

    Purchase flows from i are divided by m_i/p_i; mention flows from i to j
    are divided by (m_i*m_j)/(p_i*p_j).  A neighborhood with zero sampled
    users may not carry any flow, and zero population with sampled users is
    an inconsistent census.
    """
    if net.weighting != "raw":
        raise ValueError("network is already population-weighted")
    m, p = net.user_counts, net.population
    if m is None or p is None:
        raise ValueError("population weighting needs user counts and population")
    if np.any((p == 0) & (m > 0)):
        raise ValueError("inconsistent census: zero population with sampled users")
    W = net.W
    rate = sampling_rate(m, p)
    if net.channel == "purchase":
        involved, scale, out = W.sum(axis=1) > 0, rate[:, None], None
    elif net.channel == "mention":
        involved = (W.sum(axis=1) > 0) | (W.sum(axis=0) > 0)
        scale = out = np.outer(rate, rate)   # a fresh n x n buffer: divide into it
    else:
        raise ValueError(f"unknown channel {net.channel!r}")
    if np.any((m == 0) & involved):
        raise ValueError(f"zero sampled users in a neighborhood with {net.channel} flow")
    return replace(net, W=np.divide(W, scale, out=out), weighting="population_weighted")


def sampling_rate(user_counts, population) -> np.ndarray:
    """Sampled users over census population; 1 where nobody was sampled."""
    m = np.asarray(user_counts, dtype=float)
    p = np.asarray(population, dtype=float)
    return np.divide(m, p, out=np.ones_like(p), where=m > 0)


def centroid_distances(table: NeighborhoodTable) -> np.ndarray:
    """Great-circle distances (km) between neighborhood centroids, 0 on the
    diagonal.  Filled a block of rows at a time, with no n x n temporary.
    ``haversine_km`` is symmetric bit for bit (each difference is squared and
    the cosine product commutes), so the matrix is too."""
    lat, lon, n = table.lat, table.lon, table.n
    d = np.empty((n, n))
    for a in range(0, n, _BLOCK_ROWS):
        rows = slice(a, a + _BLOCK_ROWS)
        d[rows] = haversine_km(lat[rows, None], lon[rows, None], lat, lon)
    np.fill_diagonal(d, 0.0)
    return d


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance (km) between points in degrees, broadcast."""
    p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
    a = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _square(M: np.ndarray, n: int, what: str) -> np.ndarray:
    """``M``, once it is shown to be n x n: one entry per pair of the n nodes."""
    if np.shape(M) != (n, n):
        raise ValueError(f"{what} matrix is {'x'.join(map(str, np.shape(M)))}, not {n}x{n}")
    return M


def _distances(dist: np.ndarray, n: int) -> np.ndarray:
    """``dist``, once it is shown to be an n x n matrix of finite, non-negative
    distances.  min and max propagate NaN, so neither needs an n x n mask."""
    _square(dist, n, "distance")
    if dist.size and not (dist.min() >= 0.0 and np.isfinite(dist.max())):
        raise ValueError("distances must be finite and non-negative")
    return dist


def _edges(W: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Origin, destination and weight of every nonzero entry of the n x n W,
    row-major.  A NaN entry is an edge too, so scoring refuses it, not drops it."""
    o, d = np.nonzero(_square(W, n, "flow"))
    return o, d, W[o, d]


def _whole(values, field: str) -> list[int] | None:
    """``values`` as ints; one that ``int`` would truncate is refused."""
    if values is not None and not all(float(v).is_integer() for v in values):
        raise ValueError(f"{field} must be whole numbers")
    return None if values is None else [int(v) for v in values]


def write_network(net: InteractionNetwork, edges_path, header_path) -> None:
    """Export as an edge list (zero entries omitted) plus a JSON header.
    Population and counts are written as integers; a fractional one is refused."""
    header = {
        "nodes": net.nodes,
        "channel": net.channel,
        "weighting": net.weighting,
        "population": _whole(net.population, "population"),
        "ses": None if net.ses is None else [float(v) for v in net.ses],
        "user_counts": _whole(net.user_counts, "user_counts"),
        "store_counts": _whole(net.store_counts, "store_counts"),
        "dropped_events": net.dropped_events,
        "simulated": net.simulated,
    }
    with open(edges_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin_id", "dest_id", "weight"])
        for i, j, w in zip(*_edges(net.W, net.n)):
            writer.writerow([net.nodes[i], net.nodes[j], repr(float(w))])
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_network(edges_path, header_path) -> InteractionNetwork:
    with open(header_path) as fh:
        header = json.load(fh)
    nodes = header["nodes"]
    index = {nid: i for i, nid in enumerate(nodes)}
    W = np.zeros((len(nodes), len(nodes)))
    with open(edges_path, newline="") as fh:
        for row in csv.DictReader(fh):
            W[index[row["origin_id"]], index[row["dest_id"]]] = float(row["weight"])

    def arr(key, dtype):
        return None if header.get(key) is None else np.asarray(header[key], dtype=dtype)

    return InteractionNetwork(
        nodes=nodes, W=W, channel=header["channel"], weighting=header["weighting"],
        population=arr("population", np.int64), ses=arr("ses", float),
        user_counts=arr("user_counts", np.int64), store_counts=arr("store_counts", np.int64),
        dropped_events=header.get("dropped_events", 0),
        simulated=header.get("simulated", False),
    )
