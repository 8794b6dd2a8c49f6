"""Directed neighborhood interaction networks and population weighting.

A network holds its flows as an edge list, ``Flows``: the nonzero entries
of its n x n flow matrix (rows = origin) in row-major order, over the
sorted rows of the neighborhood table it shares, which gives its census
and centroids.  Raw edge weights are event counts; the population
weighting divides out each neighborhood's sampling rate, edge by edge, so
that under-sampled areas are not under-represented.  No analysis builds an
n x n matrix: ``net.W`` is a dense view made on each read, and every walk
over node pairs holds at most ``_BLOCK_PAIRS`` of them (``_row_blocks``),
the budget that the passes over events share too.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .ingest import (MentionLog, NeighborhoodTable, PurchaseLog, _csv_fields, _formatted,
                     _gather, _run_starts, _write_json, _write_rows)

EARTH_RADIUS_KM = 6371.0
_BLOCK_EDGES = 1 << 12   # edges of a block weighted at a time
_BLOCK_PAIRS = 1 << 15   # node pairs, edges or events that a pass holds at a time


@dataclass
class Flows:
    """The nonzero entries of an n x n flow matrix (rows = origin) in
    row-major order, the order of ``np.nonzero``; ``size`` counts them, and
    a ``Flows`` unpacks as ``origin, dest, weight``.  ``origin`` and
    ``dest`` are int32 and ``weight`` float64: 16 bytes an edge.  A cell
    key ``origin * n + dest`` needs int64 (see ``models.adjust_gravity_amounts``)."""

    origin: np.ndarray
    dest: np.ndarray
    weight: np.ndarray
    n: int

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.int32)
        self.dest = np.asarray(self.dest, dtype=np.int32)
        self.weight = np.asarray(self.weight, dtype=np.float64)

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
        """How many times each cell ``origin * n + dest`` occurs.  The int64
        ``cells`` are consumed: sorted in place and counted by runs, where
        ``np.unique`` sorts a flattened copy."""
        cells.sort()
        starts = _run_starts(cells)
        keys, counts = cells[starts], np.empty(len(starts))
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1:] = len(cells) - starts[-1:]
        del starts
        origin, dest = np.empty((2, len(keys)), np.int32)
        np.divmod(keys, n, out=(origin, dest), casting="unsafe")   # no int64 quotient
        return cls(origin, dest, counts, n)


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

    def __post_init__(self):
        _sized(self.flows, self.table.n)

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


def _sized(flows: Flows, n: int) -> Flows:
    """``flows``, once shown to be n x n."""
    if flows.n != n:
        raise ValueError(f"flow matrix is {flows.n}x{flows.n}, not {n}x{n}")
    return flows


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
    an inconsistent census.  The weights are new; those of ``net`` are read only.
    """
    f = net.flows
    return replace(net, flows=replace(f, weight=_population_weights(net, np.empty(f.size))),
                   weighting="population_weighted")


def _population_weights(net: InteractionNetwork, out: np.ndarray) -> np.ndarray:
    """``out``, filled with the population weights of the raw flows of ``net``
    (see ``population_weight``), ``_BLOCK_EDGES`` edges at a time.  ``out``
    may be the flows' own weights when the caller alone holds them, as the
    report holds its simulated network; an unsampled end found in a later
    block then raises after earlier blocks were weighted."""
    if net.weighting != "raw":
        raise ValueError("network is already population-weighted")
    m, p = net.user_counts, net.table.population
    if m is None:
        raise ValueError("population weighting needs the network's user counts")
    if (bad := np.flatnonzero((p == 0) & (m > 0))).size:
        raise ValueError(f"inconsistent census: neighborhood {net.table.ids[bad[0]]!r} has "
                         f"{m[bad[0]]} sampled users but population 0 in neighborhoods.csv")
    if net.channel not in ("purchase", "mention"):
        raise ValueError(f"unknown channel {net.channel!r}")
    f, rate, unsampled = net.flows, sampling_rate(m, p), m == 0
    mention = net.channel == "mention"
    for start in range(0, f.size, _BLOCK_EDGES):
        edges = slice(start, start + _BLOCK_EDGES)
        ends = (f.origin[edges], f.dest[edges]) if mention else (f.origin[edges],)
        if any(np.any(unsampled[end]) for end in ends):
            raise ValueError(f"zero sampled users in a neighborhood with {net.channel} flow")
        scale = rate[ends[0]]
        if mention:
            scale *= rate[ends[1]]
        np.divide(f.weight[edges], scale, out=out[edges])
    return out


def sampling_rate(user_counts, population) -> np.ndarray:
    """Sampled users over census population; 1 where nobody was sampled."""
    m = np.asarray(user_counts, dtype=float)
    p = np.asarray(population, dtype=float)
    return np.divide(m, p, out=np.ones_like(p), where=m > 0)


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Blocks of ``rows`` rows of ``width`` pairs, each of at most ``_BLOCK_PAIRS``
    pairs (or one row); at least one, so that a walk's checks run on no rows."""
    step = max(1, _BLOCK_PAIRS // max(width, 1))
    return [slice(a, a + step) for a in range(0, max(rows, 1), step)]


def centroid_distances(table: NeighborhoodTable) -> np.ndarray:
    """Great-circle distances (km) between neighborhood centroids, 0 on the
    diagonal.  Filled a block of rows at a time, with no n x n temporary."""
    d, lat, lon = np.empty((table.n, table.n)), table.lat, table.lon
    for rows in _row_blocks(table.n, table.n):
        d[rows] = haversine_km(lat[rows, None], lon[rows, None], lat, lon)
    return d


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Great-circle distance (km) between points in degrees, broadcast."""
    p1, l1, p2, l2 = map(np.radians, (lat1, lon1, lat2, lon2))
    return _haversine(p1, l1, np.cos(p1), p2, l2, np.cos(p2))


def _haversine(p1, l1, cos1, p2, l2, cos2) -> np.ndarray:
    a = np.sin((p2 - p1) / 2.0) ** 2 + cos1 * cos2 * np.sin((l2 - l1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _edge_km(table: NeighborhoodTable):
    """A function of edge ends ``(o, d)``, index arrays that broadcast
    against each other, that gives their centroid distances as
    ``haversine_km`` does, bit for bit (numpy's radians and cosine work
    element by element), with each node's radians and cosine taken once."""
    p, l = np.radians(table.lat), np.radians(table.lon)
    cos = np.cos(p)
    return lambda o, d: _haversine(p[o], l[o], cos[o], p[d], l[d], cos[d])


def _whole(values, field: str) -> list[int] | None:
    """``values`` as ints; one that ``int`` would truncate is refused."""
    if values is not None and not all(float(v).is_integer() for v in values):
        raise ValueError(f"{field} must be whole numbers")
    return None if values is None else [int(v) for v in values]


def write_network(net: InteractionNetwork, edges_path, header_path) -> None:
    """Export as an edge list (zero entries omitted) plus a JSON header.
    Counts are written as integers; a fractional one is refused.  The edge
    list is written as ``csv.writer`` writes it, a block of rows at a time,
    a column at a time: each node id is quoted once, and each distinct
    weight of a block formatted once with ``repr``."""
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
    ids = [f"{field}," for field in _csv_fields(net.nodes)]
    edge = net.flows.weight != 0
    o, d, w = (a[edge] for a in net.flows)
    _write_rows(edges_path, "origin_id,dest_id,weight\r\n", len(w), lambda rows: (
        _gather(ids, o[rows]), _gather(ids, d[rows]), _formatted(w[rows], "{!r}\r\n")))
    _write_json(header_path, header)

