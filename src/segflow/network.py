"""Directed neighborhood interaction networks and population weighting.

A network holds its flows as an edge list, ``Flows``: the nonzero entries
of its n x n flow matrix (rows = origin) in row-major order, over the
sorted rows of the neighborhood table it shares, which gives its census
and centroids.  Raw edge weights are event counts; the population
weighting divides out each neighborhood's sampling rate, edge by edge, so
that under-sampled areas are not under-represented.  No analysis builds an
n x n matrix: ``net.W`` is a dense view made on each read, and the
centroid distance matrix is filled a block of rows at a time, for the
synthetic-city generator only.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .ingest import MentionLog, NeighborhoodTable, PurchaseLog

EARTH_RADIUS_KM = 6371.0
_BLOCK_ROWS = 128     # rows (origins) of a block of distances computed at a time


@dataclass
class Flows:
    """The nonzero entries of an n x n flow matrix (rows = origin) in
    row-major order, the order of ``np.nonzero``; ``size`` counts them, and
    a ``Flows`` unpacks as ``origin, dest, weight``."""

    origin: np.ndarray
    dest: np.ndarray
    weight: np.ndarray
    n: int

    @property
    def size(self) -> int:
        return len(self.weight)

    def __iter__(self):
        return iter((self.origin, self.dest, self.weight))

    @classmethod
    def from_matrix(cls, W) -> "Flows":
        """The nonzero entries of a square matrix.  A NaN entry is an edge
        too, so scoring refuses it, not drops it."""
        W = np.asarray(W)
        o, d = np.nonzero(W)
        return cls(o, d, W[o, d], len(W))

    @classmethod
    def counted(cls, cells: np.ndarray, n: int) -> "Flows":
        """How many times each cell ``origin * n + dest`` occurs."""
        cells, counts = np.unique(cells, return_counts=True)
        return cls(cells // n, cells % n, counts.astype(float), n)


@dataclass
class InteractionNetwork:
    table: NeighborhoodTable          # node ids, census and centroids, shared
    flows: Flows
    channel: str                      # "purchase" | "mention"
    weighting: str = "raw"            # "raw" | "population_weighted"
    user_counts: np.ndarray | None = None   # sampled individuals per home neighborhood
    store_counts: np.ndarray | None = None  # purchase channel only: stores per neighborhood
    dropped_events: int = 0
    simulated: bool = False

    @property
    def nodes(self) -> list[str]:
        return self.table.ids

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def W(self) -> np.ndarray:
        """The flows as a dense matrix, built on each read; no analysis reads it."""
        f = self.flows
        W = np.zeros((f.n, f.n))
        W[f.origin, f.dest] = f.weight
        return W

    def total_weight(self) -> float:
        return float(self.flows.weight.sum())


def build_purchase_network(events: PurchaseLog, table: NeighborhoodTable) -> InteractionNetwork:
    """Count purchases from each home neighborhood at each store neighborhood.

    Events whose home or store neighborhood is unknown are dropped and
    counted.
    """
    log, home, loc = events.resolved(table)
    n = table.n
    return InteractionNetwork(
        table=table, flows=Flows.counted(home[log.customer] * n + loc[log.store], n),
        channel="purchase",
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
    homed = table.rows(homes.values())
    return InteractionNetwork(
        table=table, flows=Flows.counted(source[kept] * n + target[kept], n),
        channel="mention", user_counts=np.bincount(homed[homed >= 0], minlength=n),
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
    m, p = net.user_counts, net.table.population
    if m is None:
        raise ValueError("population weighting needs the network's user counts")
    if np.any((p == 0) & (m > 0)):
        raise ValueError("inconsistent census: zero population with sampled users")
    f, rate = net.flows, sampling_rate(m, p)
    if net.channel == "purchase":
        involved, scale = f.origin, rate[f.origin]
    elif net.channel == "mention":
        involved, scale = np.r_[f.origin, f.dest], rate[f.origin] * rate[f.dest]
    else:
        raise ValueError(f"unknown channel {net.channel!r}")
    if np.any(m[involved] == 0):
        raise ValueError(f"zero sampled users in a neighborhood with {net.channel} flow")
    return replace(net, flows=replace(f, weight=f.weight / scale),
                   weighting="population_weighted")


def sampling_rate(user_counts, population) -> np.ndarray:
    """Sampled users over census population; 1 where nobody was sampled."""
    m = np.asarray(user_counts, dtype=float)
    p = np.asarray(population, dtype=float)
    return np.divide(m, p, out=np.ones_like(p), where=m > 0)


def _distance_blocks(table: NeighborhoodTable):
    """(row slice, its rows of the centroid distance matrix in km) for each
    block of rows.  ``haversine_km`` is symmetric bit for bit (each difference
    is squared and the cosine product commutes), and 0 from a point to itself."""
    lat, lon = table.lat, table.lon
    for a in range(0, table.n, _BLOCK_ROWS):
        rows = slice(a, a + _BLOCK_ROWS)
        yield rows, haversine_km(lat[rows, None], lon[rows, None], lat, lon)


def centroid_distances(table: NeighborhoodTable) -> np.ndarray:
    """Great-circle distances (km) between neighborhood centroids, 0 on the
    diagonal.  Filled a block of rows at a time, with no n x n temporary."""
    d = np.empty((table.n, table.n))
    for rows, block in _distance_blocks(table):
        d[rows] = block
    return d


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance (km) between points in degrees, broadcast."""
    p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
    a = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _edges(W: Flows | np.ndarray, n: int) -> Flows:
    """The edges of W once W is shown to be n x n: a ``Flows`` as it is, a
    dense matrix through ``Flows.from_matrix``."""
    shape = (W.n, W.n) if isinstance(W, Flows) else np.shape(W)
    if shape != (n, n):
        raise ValueError(f"flow matrix is {'x'.join(map(str, shape))}, not {n}x{n}")
    return W if isinstance(W, Flows) else Flows.from_matrix(W)


def _whole(values, field: str) -> list[int] | None:
    """``values`` as ints; one that ``int`` would truncate is refused."""
    if values is not None and not all(float(v).is_integer() for v in values):
        raise ValueError(f"{field} must be whole numbers")
    return None if values is None else [int(v) for v in values]


def write_network(net: InteractionNetwork, edges_path, header_path) -> None:
    """Export as an edge list (zero entries omitted) plus a JSON header.
    Counts are written as integers; a fractional one is refused."""
    header = {
        "nodes": net.nodes,
        "channel": net.channel,
        "weighting": net.weighting,
        "population": net.table.population.tolist(),
        "ses": net.table.ses.tolist(),
        "user_counts": _whole(net.user_counts, "user_counts"),
        "store_counts": _whole(net.store_counts, "store_counts"),
        "dropped_events": net.dropped_events,
        "simulated": net.simulated,
    }
    with open(edges_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin_id", "dest_id", "weight"])
        for i, j, w in zip(*(a.tolist() for a in _edges(net.flows, net.n))):
            writer.writerow([net.nodes[i], net.nodes[j], repr(float(w))])
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_network(edges_path, header_path, table: NeighborhoodTable) -> InteractionNetwork:
    """A network written by ``write_network`` over ``table``; a header whose
    nodes, population or SES differ from the table's is refused, and so is
    an edge row with an unknown node or a pair already given.  Rows may come
    in any order; a zero weight is no edge."""
    with open(header_path) as fh:
        header = json.load(fh)
    for key, ours in (("nodes", table.ids), ("population", table.population.tolist()),
                      ("ses", table.ses.tolist())):
        if header[key] != ours:
            raise ValueError(f"{header_path}: {key} differ from the neighborhood table's")
    seen, weights = {}, {}
    with open(edges_path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{edges_path}: line {reader.line_num}"
            try:
                pair = table.index[row["origin_id"]], table.index[row["dest_id"]]
            except KeyError as exc:
                raise ValueError(f"{where}: unknown neighborhood {exc.args[0]!r}") from None
            if pair in seen:
                raise ValueError(f"{where}: repeats the pair of line {seen[pair]}")
            seen[pair], weight = reader.line_num, float(row["weight"])
            if weight != 0:
                weights[pair] = weight
    pairs = sorted(weights)
    o, d = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    flows = Flows(o, d, np.array([weights[p] for p in pairs], dtype=float), table.n)

    def arr(key, dtype):
        return None if header.get(key) is None else np.asarray(header[key], dtype=dtype)

    return InteractionNetwork(
        table=table, flows=flows, channel=header["channel"], weighting=header["weighting"],
        user_counts=arr("user_counts", np.int64), store_counts=arr("store_counts", np.int64),
        dropped_events=header.get("dropped_events", 0),
        simulated=header.get("simulated", False),
    )
