"""Input parsing, validation, and home-location inference.

Loaders accept the CSV/JSON layouts documented in the README and fail
loudly, naming the offending id or line number.  Social-media users get a
home neighborhood inferred from where their night-time posts land.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

NEIGHBORHOOD_COLUMNS = ("neighborhood_id", "lat", "lon", "population", "ses")
PURCHASE_COLUMNS = ("customer_id", "store_id", "timestamp", "amount")
MENTION_COLUMNS = ("source_user", "target_user", "timestamp")
GEOPOST_COLUMNS = ("user_id", "lat", "lon", "timestamp")


class ValidationError(ValueError):
    """An input file violates its schema or a table invariant."""


@dataclass
class NeighborhoodTable:
    """Census frame: one row per administrative neighborhood.

    Rows are kept in sorted neighborhood_id order; every matrix built
    downstream shares that node order.
    """

    ids: list[str]
    lat: np.ndarray
    lon: np.ndarray
    population: np.ndarray
    ses: np.ndarray

    def __post_init__(self):
        if len(self.ids) == 0:
            raise ValidationError("no neighborhoods")
        dupes = [nid for nid, c in Counter(self.ids).items() if c > 1]
        if dupes:
            raise ValidationError(f"duplicate neighborhood_id {dupes[0]!r}")
        order = np.argsort(np.asarray(self.ids, dtype=object))
        self.ids = [self.ids[i] for i in order]
        self.lat = np.asarray(self.lat, dtype=float)[order]
        self.lon = np.asarray(self.lon, dtype=float)[order]
        self.population = np.asarray(self.population, dtype=np.int64)[order]
        self.ses = np.asarray(self.ses, dtype=float)[order]
        if np.any(self.population < 0):
            raise ValidationError("population must be non-negative")
        if not np.any(self.population > 0):
            raise ValidationError("at least one neighborhood needs population > 0")
        if np.any(np.abs(self.lat) > 90.0) or np.any(np.abs(self.lon) > 180.0):
            raise ValidationError("centroid coordinates out of range")
        self.index = {nid: i for i, nid in enumerate(self.ids)}

    @property
    def n(self) -> int:
        return len(self.ids)

    def write_csv(self, path) -> None:
        """Write the table back out in normalized (sorted, canonical) form."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(NEIGHBORHOOD_COLUMNS)
            for i, nid in enumerate(self.ids):
                writer.writerow([nid, repr(float(self.lat[i])), repr(float(self.lon[i])),
                                 int(self.population[i]), repr(float(self.ses[i]))])


@dataclass(eq=False)
class PurchaseLog:
    """Columnar purchase events: customer and store codes (ids interned in
    first-seen order) and amounts.  Each customer has one home and each
    store one location, a neighborhood id or None when no row names one."""

    customer_ids: list[str]
    store_ids: list[str]
    home: list[str | None]
    location: list[str | None]
    customer: np.ndarray
    store: np.ndarray
    amount: np.ndarray

    def __len__(self) -> int:
        return len(self.customer)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str, float, str | None, str | None]],
                  source="purchases") -> PurchaseLog:
        """Intern (customer, store, amount, home, location) rows; the first
        row is line 2 of ``source``.  A row that names a second home for its
        customer or a second location for its store is a ValidationError."""
        customers, stores, homes, locations = {}, {}, [], []
        ev_c, ev_s, ev_a = [], [], []
        for line, (customer, store, amount, home, location) in enumerate(rows, start=2):
            ev_c.append(_intern(customers, homes, customer, home, "customer", source, line))
            ev_s.append(_intern(stores, locations, store, location, "store", source, line))
            ev_a.append(amount)
        return cls(list(customers), list(stores), homes, locations,
                   np.array(ev_c, dtype=np.int64), np.array(ev_s, dtype=np.int64),
                   np.array(ev_a, dtype=float))

    def select(self, keep: np.ndarray) -> PurchaseLog:
        """The events where ``keep`` holds, customers and stores renumbered
        in first-seen order."""
        customer, customer_ids, home = _renumber(self.customer[keep], self.customer_ids, self.home)
        store, store_ids, location = _renumber(self.store[keep], self.store_ids, self.location)
        return PurchaseLog(customer_ids, store_ids, home, location, customer, store,
                           self.amount[keep])

    def indices(self, table: NeighborhoodTable) -> tuple[np.ndarray, np.ndarray]:
        """Table index of every customer's home and every store's location;
        -1 where the table has no such neighborhood."""
        return tuple(np.array([table.index.get(nid, -1) for nid in names], dtype=np.int64)
                     for names in (self.home, self.location))

    def resolved(self, table: NeighborhoodTable) -> tuple[PurchaseLog, np.ndarray, np.ndarray]:
        """The events whose home and store location are both in ``table``,
        with the table index of each kept customer's home and store's location."""
        home, loc = self.indices(table)
        log = self.select((home[self.customer] >= 0) & (loc[self.store] >= 0))
        return (log, *log.indices(table))


def _intern(index: dict[str, int], places: list, key: str, place: str | None,
            kind: str, source, line: int) -> int:
    code = index.setdefault(key, len(index))
    if code == len(places):
        places.append(place)
    elif place is not None and place != places[code]:
        if places[code] is not None:
            raise ValidationError(f"{source}: line {line}: {kind} {key!r} is placed in "
                                  f"{place!r}, but an earlier row names {places[code]!r}")
        places[code] = place
    return code


def _renumber(codes: np.ndarray, ids: list[str], places: list):
    """Codes renumbered in first-seen order, with the ids and places kept."""
    used, first = np.unique(codes, return_index=True)
    order = used[np.argsort(first)]
    new = np.empty(len(ids), dtype=np.int64)
    new[order] = np.arange(order.size)
    return new[codes], [ids[i] for i in order], [places[i] for i in order]


@dataclass
class MentionEvent:
    source_user: str
    target_user: str
    timestamp: datetime


@dataclass
class GeoPost:
    user_id: str
    lat: float
    lon: float
    timestamp: datetime


def _open_reader(path, required: Sequence[str]):
    fh = open(path, newline="")
    reader = csv.DictReader(fh)
    header = reader.fieldnames or []
    missing = [c for c in required if c not in header]
    if missing:
        fh.close()
        raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
    return fh, reader


def _cell(row: Mapping[str, str], col: str, lineno: int, path) -> str:
    value = row.get(col)
    if value is None or value == "":
        raise ValidationError(f"{path}: line {lineno}: missing field {col!r}")
    return value


def _finite(row: Mapping[str, str], col: str, lineno: int, path) -> float:
    value = _cell(row, col, lineno, path)
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValidationError(f"{path}: line {lineno}: {col} is not a finite number: {value!r}")
    return number


def _parse_ts(value: str, lineno: int, path) -> datetime:
    try:
        return datetime.fromisoformat(value)
    except ValueError as exc:
        raise ValidationError(f"{path}: line {lineno}: bad timestamp {value!r}") from exc


def load_neighborhoods(path) -> NeighborhoodTable:
    """Parse the neighborhood census CSV and validate its invariants."""
    ids, lats, lons, pops, ses = [], [], [], [], []
    seen = set()
    fh, reader = _open_reader(path, NEIGHBORHOOD_COLUMNS)
    with fh:
        for lineno, row in enumerate(reader, start=2):
            nid = _cell(row, "neighborhood_id", lineno, path)
            if nid in seen:
                raise ValidationError(f"{path}: duplicate neighborhood_id {nid!r}")
            seen.add(nid)
            lats.append(_finite(row, "lat", lineno, path))
            lons.append(_finite(row, "lon", lineno, path))
            try:
                pops.append(int(_cell(row, "population", lineno, path)))
            except ValueError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
            ses.append(_finite(row, "ses", lineno, path))
            ids.append(nid)
    if not ids:
        raise ValidationError(f"{path}: no neighborhoods")
    table = NeighborhoodTable(ids, np.array(lats), np.array(lons),
                              np.array(pops), np.array(ses))
    log.info("loaded %d neighborhoods from %s", table.n, path)
    return table


def load_purchases(path) -> PurchaseLog:
    """Parse purchase events; home/store neighborhood columns are optional.
    Timestamps are validated, not kept."""
    fh, reader = _open_reader(path, PURCHASE_COLUMNS)
    with fh:
        purchases = PurchaseLog.from_rows(_purchase_rows(reader, path), path)
    log.info("loaded %d purchase events from %s", len(purchases), path)
    return purchases


def _purchase_rows(reader, path):
    for lineno, row in enumerate(reader, start=2):
        amount = _finite(row, "amount", lineno, path)
        if amount < 0:
            raise ValidationError(f"{path}: line {lineno}: negative amount")
        customer = _cell(row, "customer_id", lineno, path)
        store = _cell(row, "store_id", lineno, path)
        _parse_ts(_cell(row, "timestamp", lineno, path), lineno, path)
        yield (customer, store, amount, row.get("customer_home") or None,
               row.get("store_neighborhood") or None)


def load_mentions(path) -> list[MentionEvent]:
    """Parse mention events. Self-mentions carry no interaction signal and
    are dropped here."""
    events = []
    n_self = 0
    fh, reader = _open_reader(path, MENTION_COLUMNS)
    with fh:
        for lineno, row in enumerate(reader, start=2):
            src = _cell(row, "source_user", lineno, path)
            dst = _cell(row, "target_user", lineno, path)
            if src == dst:
                n_self += 1
                continue
            events.append(MentionEvent(
                source_user=src, target_user=dst,
                timestamp=_parse_ts(_cell(row, "timestamp", lineno, path), lineno, path),
            ))
    if n_self:
        log.info("dropped %d self-mentions from %s", n_self, path)
    return events


def load_geoposts(path) -> list[GeoPost]:
    posts = []
    fh, reader = _open_reader(path, GEOPOST_COLUMNS)
    with fh:
        for lineno, row in enumerate(reader, start=2):
            lat = _finite(row, "lat", lineno, path)
            lon = _finite(row, "lon", lineno, path)
            if abs(lat) > 90.0 or abs(lon) > 180.0:
                raise ValidationError(f"{path}: line {lineno}: coordinates out of range")
            posts.append(GeoPost(
                user_id=_cell(row, "user_id", lineno, path),
                lat=lat, lon=lon,
                timestamp=_parse_ts(_cell(row, "timestamp", lineno, path), lineno, path),
            ))
    return posts


def load_geometry(path) -> dict[str, list[np.ndarray]]:
    """Load neighborhood polygons: id -> list of closed rings in (lon, lat).

    A ring must repeat its first vertex at the end and contain at least
    three distinct vertices.
    """
    with open(path) as fh:
        raw = json.load(fh)
    geometry = {}
    for nid, rings in raw.items():
        if not isinstance(rings, list) or not rings:
            raise ValidationError(f"malformed polygon for {nid!r}: no rings")
        parsed = []
        for ring in rings:
            arr = np.asarray(ring, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
                raise ValidationError(f"malformed polygon for {nid!r}: ring too short")
            if not np.allclose(arr[0], arr[-1]):
                raise ValidationError(f"malformed polygon for {nid!r}: ring not closed")
            parsed.append(arr)
        geometry[nid] = parsed
    return geometry


def filter_active_customers(events: PurchaseLog, min_tx: int = 10) -> PurchaseLog:
    """Keep only events of customers with at least ``min_tx`` transactions."""
    if min_tx < 1:
        raise ValueError("min_tx must be >= 1")
    counts = np.bincount(events.customer, minlength=len(events.customer_ids))
    return events.select(counts[events.customer] >= min_tx)


def _points_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, boundary-inclusive, vectorized over points."""
    inside = np.zeros(px.shape, dtype=bool)
    on_edge = np.zeros(px.shape, dtype=bool)
    eps = 1e-9
    for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        scale = abs(x2 - x1) + abs(y2 - y1) + 1e-30
        within = ((px >= min(x1, x2) - eps) & (px <= max(x1, x2) + eps)
                  & (py >= min(y1, y2) - eps) & (py <= max(y1, y2) + eps))
        on_edge |= (np.abs(cross) <= eps * scale) & within
        if y1 != y2:
            crosses = ((y1 > py) != (y2 > py)) & (px < (x2 - x1) * (py - y1) / (y2 - y1) + x1)
            inside ^= crosses
    return inside | on_edge


def assign_points_to_neighborhoods(
    posts: Sequence[GeoPost],
    geometry: Mapping[str, list[np.ndarray]],
) -> tuple[list[tuple[str, str, datetime]], int]:
    """Map each post to the neighborhood polygon containing it.

    Points on a shared border go to the lexicographically smaller
    neighborhood_id; points outside every polygon are dropped.  Returns
    the localized posts and the drop count.
    """
    if not posts:
        return [], 0
    px = np.array([p.lon for p in posts])
    py = np.array([p.lat for p in posts])
    assigned = np.full(len(posts), -1, dtype=np.int64)
    ordered = sorted(geometry)
    for pos, nid in enumerate(ordered):
        pending = assigned < 0
        if not pending.any():
            break
        hit = np.zeros(len(posts), dtype=bool)
        for ring in geometry[nid]:
            hit[pending] |= _points_in_ring(px[pending], py[pending], ring)
            pending = pending & ~hit
        assigned[hit] = pos
    localized = [(posts[i].user_id, ordered[assigned[i]], posts[i].timestamp)
                 for i in range(len(posts)) if assigned[i] >= 0]
    dropped = int((assigned < 0).sum())
    if dropped:
        log.info("dropped %d posts outside all polygons", dropped)
    return localized, dropped


def infer_home(
    localized: Iterable[tuple[str, str, datetime]],
    night_start: int = 20,
    night_end: int = 6,
) -> tuple[dict[str, str], list[str]]:
    """Assign each user the neighborhood used most during night hours.

    The window [night_start, night_end) is in local time and may wrap
    midnight.  Ties break on total all-hours count, then on the smaller
    neighborhood_id.  Users without any night post are left unassigned
    and returned separately.
    """
    def is_night(hour: int) -> bool:
        if night_start <= night_end:
            return night_start <= hour < night_end
        return hour >= night_start or hour < night_end

    night_counts: dict[str, Counter] = defaultdict(Counter)
    total_counts: dict[str, Counter] = defaultdict(Counter)
    for user, nid, ts in localized:
        total_counts[user][nid] += 1
        if is_night(ts.hour):
            night_counts[user][nid] += 1

    homes: dict[str, str] = {}
    unassigned = []
    for user in sorted(total_counts):
        nights = night_counts.get(user)
        if not nights:
            unassigned.append(user)
            continue
        totals = total_counts[user]
        homes[user] = min(nights, key=lambda nid: (-nights[nid], -totals[nid], nid))
    if unassigned:
        log.info("%d users had no night posts and were left unassigned", len(unassigned))
    return homes, unassigned
