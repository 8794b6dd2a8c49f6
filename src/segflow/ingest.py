"""Input parsing, validation, and home-location inference.

Loaders accept the CSV/JSON layouts documented in the README and fail
loudly, naming the offending id or line number.  CSV files are read in
chunks of ``CHUNK_ROWS`` rows, each validated and converted by whole
columns.  Social-media users get a home neighborhood inferred from where
their night-time posts land.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from itertools import compress, islice, tee
from operator import ne, not_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

# Rows parsed per pass of column operations: large enough that per-chunk
# numpy overhead is small, small enough that no loader holds a file's strings.
CHUNK_ROWS = 1024
# (point, ring edge) rows that point-in-polygon evaluates at once, which
# bounds its memory.
ROW_BLOCK = 1 << 16

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
        row is line 2 of ``source``, and an empty or None place is unknown.
        A row that names a second home for its customer or a second location
        for its store is a ValidationError."""
        builder = _PurchaseBuilder(source, lambda row: row + 2)
        rows = iter(rows)
        while chunk := list(islice(rows, CHUNK_ROWS)):
            customer, store, amount, home, location = zip(*chunk)
            builder.add(customer, store, np.array(amount, dtype=float), home, location)
        return builder.log()

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


def _interner() -> defaultdict:
    """A dict that gives each new key the next code, so codes follow
    first-seen order."""
    codes = defaultdict()
    codes.default_factory = codes.__len__
    return codes


def _codes(index: defaultdict, keys: Sequence) -> np.ndarray:
    return np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))


class _PurchaseBuilder:
    """Interns purchase rows, chunk by chunk, into PurchaseLog columns.

    Customers and stores get codes in first-seen order, each with the first
    place a row names for it; ``line`` maps a row number (0 for the first
    row) to the line an error names.
    """

    def __init__(self, source, line: Callable[[int], int]):
        self.source, self.line = source, line
        self.places = _interner()
        self.places[""] = self.places[None] = 0  # code 0: no place named
        self.keys = {"customer": _interner(), "store": _interner()}
        self.placed = {kind: np.zeros(0, dtype=np.int64) for kind in self.keys}
        self.columns = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
        self.rows = 0

    def add(self, customer: Sequence[str], store: Sequence[str], amount: np.ndarray,
            home: Sequence[str | None], location: Sequence[str | None]) -> None:
        """Append one chunk; the earliest row that names a second place for
        its customer (checked first) or store is a ValidationError."""
        c, c_bad = self._place("customer", customer, home)
        s, s_bad = self._place("store", store, location)
        if c_bad <= s_bad and c_bad < len(c):
            self._conflict("customer", customer[c_bad], home[c_bad], c[c_bad], c_bad)
        if s_bad < len(s):
            self._conflict("store", store[s_bad], location[s_bad], s[s_bad], s_bad)
        self.columns.append((c, s, amount))
        self.rows += len(amount)

    def _place(self, kind: str, keys: Sequence[str], names: Sequence[str | None]):
        """Codes of ``keys``, recording the first place named for each; and
        the first row naming another place for its key (``len(keys)`` if none)."""
        codes = _codes(self.keys[kind], keys)
        where = _codes(self.places, names)
        placed = np.zeros(len(self.keys[kind]), dtype=np.int64)
        placed[:len(self.placed[kind])] = self.placed[kind]
        fresh = np.flatnonzero((placed[codes] == 0) & (where > 0))
        key, first = np.unique(codes[fresh], return_index=True)
        placed[key] = where[fresh[first]]
        self.placed[kind] = placed
        return codes, _first((where != placed[codes]) & (where > 0))

    def _conflict(self, kind: str, key: str, place: str, code: int, row: int):
        earlier = list(self.places)[self.placed[kind][code]]
        raise ValidationError(f"{self.source}: line {self.line(self.rows + row)}: {kind} "
                              f"{key!r} is placed in {place!r}, but an earlier row names "
                              f"{earlier!r}")

    def log(self) -> PurchaseLog:
        names = [name or None for name in self.places]  # list index = place code
        home, location = ([names[code] for code in self.placed[kind].tolist()]
                          for kind in ("customer", "store"))
        customer, store, amount = map(np.concatenate, zip(*self.columns))
        return PurchaseLog(list(self.keys["customer"]), list(self.keys["store"]),
                           home, location, customer, store, amount)


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


def _read_chunks(path, required: Sequence[str], optional: Sequence[str] = ()
                 ) -> Iterator[tuple[int, dict[str, tuple[str, ...]]]]:
    """The cells of a CSV file's columns, ``CHUNK_ROWS`` rows at a time.

    Yields (number of the chunk's first row, {column: cells}) for every
    required and optional column.  Rows are numbered from 0 and skip blank
    lines; ``_line_of`` turns a row number into a line number.  As in
    ``csv.DictReader``, the last of repeated header names wins, and a cell
    missing from a short row or from an absent optional column reads as "".
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
        position = {name: i for i, name in enumerate(header)}
        present = [c for c in (*required, *optional) if c in position]
        width = max(position[c] for c in present) + 1
        start = 0
        while chunk := list(islice(reader, CHUNK_ROWS)):
            rows = list(filter(None, chunk))
            if not rows:
                continue
            if min(map(len, rows)) < width:
                rows = [row + [""] * (width - len(row)) for row in rows]
            cells = list(zip(*rows))
            columns = {c: cells[position[c]] for c in present}
            columns.update((c, ("",) * len(rows)) for c in optional if c not in position)
            yield start, columns
            start += len(rows)


def _line_of(path, row: int) -> int:
    """The line of a CSV file on which data row ``row`` (numbered as by
    ``_read_chunks``) starts."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        before = reader.line_num
        for cells in reader:
            if cells:
                if row == 0:
                    return before + 1
                row -= 1
            before = reader.line_num
    raise ValueError(f"{path} has no data row {row}")


def _parsed(parse: Callable[[str], object], cells: Sequence[str]) -> tuple[list, np.ndarray]:
    """``parse`` mapped over ``cells``, and where it raised ValueError (the
    value there is None)."""
    try:
        return list(map(parse, cells)), np.zeros(len(cells), dtype=bool)
    except ValueError:
        values = list(map(partial(_or_none, parse), cells))
        return values, np.array([value is None for value in values])


def _or_none(parse, cell: str):
    try:
        return parse(cell)
    except ValueError:
        return None


def _numbers(cells: Sequence[str]) -> np.ndarray:
    """Cells as floats; NaN where ``float`` rejects one, as for a blank cell."""
    return np.array(_parsed(float, cells)[0], dtype=float)


def _blank(cells: Sequence[str]) -> np.ndarray:
    """Where a cell is empty, which ``_cell`` rejects."""
    if "" not in cells:
        return np.zeros(len(cells), dtype=bool)
    return np.fromiter(map(not_, cells), dtype=bool, count=len(cells))


def _shared(strings: dict[str, str], cells: Iterable[str]) -> Iterator[str]:
    """Each cell as the first equal string seen, so kept events hold one
    copy of an id however many rows repeat it, not a chunk's strings."""
    return map(strings.setdefault, *tee(cells))


def _first(faults: np.ndarray) -> int:
    """Index of the first True in ``faults``, or its length if none."""
    return int(np.argmax(faults)) if faults.any() else len(faults)


def _fail(check: Callable, path, start: int, columns: Mapping[str, Sequence[str]],
          index: int):
    """Raise the ValidationError that the per-row ``check`` gives for row
    ``index`` of the chunk that starts at row ``start``."""
    line = _line_of(path, start + index)
    check({name: cells[index] for name, cells in columns.items()}, line, path)
    raise AssertionError(f"{path}: line {line}: flagged in bulk but passes its row check")


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


# Per-row checks, in the order a row's faults are reported.  Loaders run
# them only on the first row that their column checks flag.

def _check_neighborhood(row, lineno: int, path, seen) -> None:
    nid = _cell(row, "neighborhood_id", lineno, path)
    if nid in seen:
        raise ValidationError(f"{path}: duplicate neighborhood_id {nid!r}")
    _finite(row, "lat", lineno, path)
    _finite(row, "lon", lineno, path)
    try:
        int(_cell(row, "population", lineno, path))
    except ValueError as exc:
        raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
    _finite(row, "ses", lineno, path)


def _check_purchase(row, lineno: int, path) -> None:
    amount = _finite(row, "amount", lineno, path)
    if amount < 0:
        raise ValidationError(f"{path}: line {lineno}: negative amount")
    _cell(row, "customer_id", lineno, path)
    _cell(row, "store_id", lineno, path)
    _parse_ts(_cell(row, "timestamp", lineno, path), lineno, path)


def _check_mention(row, lineno: int, path) -> None:
    src = _cell(row, "source_user", lineno, path)
    if src != _cell(row, "target_user", lineno, path):
        _parse_ts(_cell(row, "timestamp", lineno, path), lineno, path)


def _check_geopost(row, lineno: int, path) -> None:
    lat = _finite(row, "lat", lineno, path)
    lon = _finite(row, "lon", lineno, path)
    if abs(lat) > 90.0 or abs(lon) > 180.0:
        raise ValidationError(f"{path}: line {lineno}: coordinates out of range")
    _cell(row, "user_id", lineno, path)
    _parse_ts(_cell(row, "timestamp", lineno, path), lineno, path)


def load_neighborhoods(path) -> NeighborhoodTable:
    """Parse the neighborhood census CSV and validate its invariants."""
    index = _interner()
    lats, lons, pops, ses = [], [], [], []
    for start, cols in _read_chunks(path, NEIGHBORHOOD_COLUMNS):
        nids = cols["neighborhood_id"]
        before = len(index)
        codes = _codes(index, nids)
        repeated = np.ones(len(nids), dtype=bool)
        first = np.unique(codes, return_index=True)[1]
        repeated[first] = codes[first] < before
        lat, lon, s = (_numbers(cols[c]) for c in ("lat", "lon", "ses"))
        pop, bad_pop = _parsed(int, cols["population"])
        faults = (_blank(nids) | repeated | ~np.isfinite(lat)
                  | ~np.isfinite(lon) | bad_pop | ~np.isfinite(s))
        if faults.any():
            i = _first(faults)
            seen = {*islice(index, before), *nids[:i]}
            _fail(partial(_check_neighborhood, seen=seen), path, start, cols, i)
        lats.append(lat)
        lons.append(lon)
        pops += pop
        ses.append(s)
    if not index:
        raise ValidationError(f"{path}: no neighborhoods")
    table = NeighborhoodTable(list(index), np.concatenate(lats), np.concatenate(lons),
                              np.array(pops), np.concatenate(ses))
    log.info("loaded %d neighborhoods from %s", table.n, path)
    return table


def load_purchases(path) -> PurchaseLog:
    """Parse purchase events; home/store neighborhood columns are optional.
    Timestamps are validated, not kept."""
    builder = _PurchaseBuilder(path, partial(_line_of, path))
    for start, cols in _read_chunks(path, PURCHASE_COLUMNS,
                                    ("customer_home", "store_neighborhood")):
        amount = _numbers(cols["amount"])
        _, bad_time = _parsed(datetime.fromisoformat, cols["timestamp"])
        faults = (~np.isfinite(amount) | (amount < 0) | _blank(cols["customer_id"])
                  | _blank(cols["store_id"]) | bad_time)
        stop = _first(faults)
        builder.add(cols["customer_id"][:stop], cols["store_id"][:stop], amount[:stop],
                    cols["customer_home"][:stop], cols["store_neighborhood"][:stop])
        if stop < len(faults):
            _fail(_check_purchase, path, start, cols, stop)
    purchases = builder.log()
    log.info("loaded %d purchase events from %s", len(purchases), path)
    return purchases


def load_mentions(path) -> list[MentionEvent]:
    """Parse mention events. Self-mentions carry no interaction signal and
    are dropped here."""
    events = []
    n_self = 0
    users = {}
    for start, cols in _read_chunks(path, MENTION_COLUMNS):
        src, dst = cols["source_user"], cols["target_user"]
        other = np.fromiter(map(ne, src, dst), dtype=bool, count=len(src))
        times, bad_time = _parsed(datetime.fromisoformat,
                                  tuple(compress(cols["timestamp"], other)))
        faults = _blank(src) | _blank(dst)
        faults[other] |= bad_time
        if faults.any():
            _fail(_check_mention, path, start, cols, _first(faults))
        events += map(MentionEvent, _shared(users, compress(src, other)),
                      _shared(users, compress(dst, other)), times)
        n_self += len(src) - len(times)
    if n_self:
        log.info("dropped %d self-mentions from %s", n_self, path)
    return events


def load_geoposts(path) -> list[GeoPost]:
    posts = []
    users = {}
    for start, cols in _read_chunks(path, GEOPOST_COLUMNS):
        lat, lon = _numbers(cols["lat"]), _numbers(cols["lon"])
        times, bad_time = _parsed(datetime.fromisoformat, cols["timestamp"])
        faults = (~np.isfinite(lat) | ~np.isfinite(lon) | (np.abs(lat) > 90.0)
                  | (np.abs(lon) > 180.0) | _blank(cols["user_id"]) | bad_time)
        if faults.any():
            _fail(_check_geopost, path, start, cols, _first(faults))
        posts += map(GeoPost, _shared(users, cols["user_id"]), lat.tolist(), lon.tolist(), times)
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
            _check_closed(geometry)
            raise ValidationError(f"malformed polygon for {nid!r}: no rings")
        geometry[nid] = parsed = []
        for ring in rings:
            arr = np.asarray(ring, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
                _check_closed(geometry)
                raise ValidationError(f"malformed polygon for {nid!r}: ring too short")
            parsed.append(arr)
    _check_closed(geometry)
    return geometry


def _check_closed(geometry: Mapping[str, list[np.ndarray]]) -> None:
    """Name the first polygon with a ring whose last vertex is not
    ``np.allclose`` to its first."""
    owners = [nid for nid, rings in geometry.items() for _ in rings]
    if not owners:
        return
    ends = np.array([(ring[0], ring[-1]) for rings in geometry.values() for ring in rings])
    closed = np.isclose(ends[:, 0], ends[:, 1]).all(axis=1)
    if not closed.all():
        raise ValidationError(f"malformed polygon for {owners[np.argmin(closed)]!r}: "
                              "ring not closed")


def filter_active_customers(events: PurchaseLog, min_tx: int = 10) -> PurchaseLog:
    """Keep only events of customers with at least ``min_tx`` transactions."""
    if min_tx < 1:
        raise ValueError("min_tx must be >= 1")
    counts = np.bincount(events.customer, minlength=len(events.customer_ids))
    return events.select(counts[events.customer] >= min_tx)


def _spans(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The integers of every range [first[i], last[i]), concatenated."""
    counts = last - first
    return np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _containing(px: np.ndarray, py: np.ndarray, rings: list[np.ndarray],
                owner: np.ndarray) -> np.ndarray:
    """Smallest ``owner`` of a ring containing each point, or -1.

    Containment is even-odd ray casting, boundary-inclusive to ``eps``.  Only
    points in a ring's bounding box widened by ``eps`` can be inside it or on
    its boundary, so the formulas run on those (point, ring) pairs alone, one
    row per (pair, edge), about ``ROW_BLOCK`` rows at a time.
    """
    eps = 1e-9
    best = np.full(len(px), len(rings), dtype=np.int64)
    if not rings:
        return best - 1
    sizes = np.array([len(ring) for ring in rings])
    starts = np.cumsum(sizes) - sizes
    vertices = np.concatenate(rings)
    low = np.minimum.reduceat(vertices, starts) - eps
    high = np.maximum.reduceat(vertices, starts) + eps
    by_x = np.argsort(px, kind="stable")
    first = np.searchsorted(px[by_x], low[:, 0], "left")
    last = np.searchsorted(px[by_x], high[:, 0], "right")
    # (pair, edge) rows of the rings up to each one, before the y mask
    rows = np.cumsum((last - first) * (sizes - 1))
    cuts = np.searchsorted(rows, np.arange(ROW_BLOCK, rows[-1], ROW_BLOCK))
    for block in np.split(np.arange(len(rings)), cuts):
        ring = np.repeat(block, last[block] - first[block])
        point = by_x[_spans(first[block], last[block])]
        near = (py[point] >= low[ring, 1]) & (py[point] <= high[ring, 1])
        ring, point = ring[near], point[near]
        if not ring.size:
            continue
        # edge e of a ring runs from vertex e to vertex e + 1
        edges = sizes[ring] - 1
        edge = _spans(starts[ring], starts[ring] + edges)
        x1, y1 = vertices[edge, 0], vertices[edge, 1]
        x2, y2 = vertices[edge + 1, 0], vertices[edge + 1, 1]
        qx, qy = np.repeat(px[point], edges), np.repeat(py[point], edges)
        cross = (x2 - x1) * (qy - y1) - (y2 - y1) * (qx - x1)
        scale = np.abs(x2 - x1) + np.abs(y2 - y1) + 1e-30
        within = ((qx >= np.minimum(x1, x2) - eps) & (qx <= np.maximum(x1, x2) + eps)
                  & (qy >= np.minimum(y1, y2) - eps) & (qy <= np.maximum(y1, y2) + eps))
        on_edge = (np.abs(cross) <= eps * scale) & within
        s = (y1 > qy) != (y2 > qy)  # never where y1 == y2
        crosses = np.zeros_like(s)
        crosses[s] = qx[s] < (x2[s] - x1[s]) * (qy[s] - y1[s]) / (y2[s] - y1[s]) + x1[s]
        pair_starts = np.cumsum(edges) - edges
        hit = (np.logical_xor.reduceat(crosses, pair_starts)
               | np.logical_or.reduceat(on_edge, pair_starts))
        np.minimum.at(best, point[hit], owner[ring[hit]])
    return np.where(best < len(rings), best, -1)


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
    ordered = sorted(geometry)
    owner = np.array([pos for pos, nid in enumerate(ordered) for _ in geometry[nid]])
    assigned = _containing(px, py, [ring for nid in ordered for ring in geometry[nid]], owner)
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
