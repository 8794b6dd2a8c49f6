"""Directed neighborhood interaction networks and population weighting.

Networks are dense n x n matrices (rows = origin) over the canonical
sorted neighborhood order.  Raw edge weights are event counts; the
population weighting divides out each neighborhood's sampling rate so
that under-sampled areas are not under-represented.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .ingest import MentionEvent, NeighborhoodTable, PurchaseLog

EARTH_RADIUS_KM = 6371.0


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
    mentions: Iterable[MentionEvent],
    homes: Mapping[str, str],
    table: NeighborhoodTable,
) -> InteractionNetwork:
    """Count mentions between the home neighborhoods of source and target.

    Mentions with an endpoint lacking a home assignment are dropped and
    counted.  The per-neighborhood user count is the number of homed users,
    whether or not they mention anyone.
    """
    n = table.n
    W = np.zeros((n, n))
    dropped = 0
    for m in mentions:
        i = table.index.get(homes.get(m.source_user))
        j = table.index.get(homes.get(m.target_user))
        if i is None or j is None:
            dropped += 1
            continue
        W[i, j] += 1
    user_counts = np.zeros(n, dtype=np.int64)
    for nid in homes.values():
        pos = table.index.get(nid)
        if pos is not None:
            user_counts[pos] += 1
    return InteractionNetwork(
        nodes=list(table.ids), W=W, channel="mention", weighting="raw",
        population=table.population.copy(), ses=table.ses.copy(),
        user_counts=user_counts, dropped_events=dropped,
    )


def population_weight(
    net: InteractionNetwork,
    table: NeighborhoodTable | None = None,
    user_counts: np.ndarray | None = None,
) -> InteractionNetwork:
    """Rescale flows by census population over sampled-user counts.

    Purchase flows from i are divided by m_i/p_i; mention flows from i to j
    are divided by (m_i*m_j)/(p_i*p_j).  A neighborhood with zero sampled
    users may not carry any flow, and zero population with sampled users is
    an inconsistent census.
    """
    if net.weighting != "raw":
        raise ValueError("network is already population-weighted")
    m = user_counts if user_counts is not None else net.user_counts
    p = table.population if table is not None else net.population
    if m is None or p is None:
        raise ValueError("population weighting needs user counts and population")
    m = np.asarray(m, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any((p == 0) & (m > 0)):
        raise ValueError("inconsistent census: zero population with sampled users")
    W = net.W
    rate = sampling_rate(m, p)
    if net.channel == "purchase":
        involved, scale = W.sum(axis=1) > 0, rate[:, None]
    elif net.channel == "mention":
        involved, scale = (W.sum(axis=1) > 0) | (W.sum(axis=0) > 0), np.outer(rate, rate)
    else:
        raise ValueError(f"unknown channel {net.channel!r}")
    if np.any((m == 0) & involved):
        raise ValueError(f"zero sampled users in a neighborhood with {net.channel} flow")
    return replace(net, W=W / scale, weighting="population_weighted")


def sampling_rate(user_counts, population) -> np.ndarray:
    """Sampled users over census population; 1 where nobody was sampled."""
    m = np.asarray(user_counts, dtype=float)
    p = np.asarray(population, dtype=float)
    return np.divide(m, p, out=np.ones_like(p), where=m > 0)


def centroid_distances(table: NeighborhoodTable) -> np.ndarray:
    """Great-circle distances (km) between neighborhood centroids."""
    lat = np.radians(table.lat)
    lon = np.radians(table.lon)
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, km."""
    p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
    a = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    return float(2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(min(1.0, a))))


def write_network(net: InteractionNetwork, edges_path, header_path) -> None:
    """Export as an edge list (zero entries omitted) plus a JSON header."""
    with open(edges_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin_id", "dest_id", "weight"])
        for i, j, w in zip(*np.nonzero(net.W), net.W[net.W != 0]):
            writer.writerow([net.nodes[i], net.nodes[j], repr(float(w))])
    header = {
        "nodes": net.nodes,
        "channel": net.channel,
        "weighting": net.weighting,
        "population": None if net.population is None else [int(v) for v in net.population],
        "ses": None if net.ses is None else [float(v) for v in net.ses],
        "user_counts": None if net.user_counts is None else [int(v) for v in net.user_counts],
        "store_counts": None if net.store_counts is None else [int(v) for v in net.store_counts],
        "dropped_events": net.dropped_events,
        "simulated": net.simulated,
    }
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
