"""Input parsing, validation, and home-location inference.

Loaders accept the CSV/JSON layouts documented in the README and fail
loudly, naming the offending id or line number.  CSV files are read in
chunks of ``CHUNK_ROWS`` rows, each validated and converted by whole
columns.  Social-media users get a home neighborhood inferred from where
their night-time posts land.

``load_purchases``, ``load_mentions``, ``load_geoposts`` and
``load_geometry`` each keep a snapshot of their parsed file in
``.segflow-cache/`` beside it, so a later call on the same bytes skips the
parse.  Placing posts in polygons and inferring homes run on every call.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import stat
import tempfile
from collections import Counter, defaultdict
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from itertools import chain, compress, islice
from operator import attrgetter, ne, not_
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

log = logging.getLogger(__name__)

# Rows parsed per pass of column operations: large enough that per-chunk
# numpy overhead is small, small enough that no loader holds a file's strings.
CHUNK_ROWS = 1024
# (point, ring edge) rows that point-in-polygon evaluates at once, which
# bounds its memory.
ROW_BLOCK = 1 << 16
# Event codes whose first-seen order is checked at once.
CODE_BLOCK = 1 << 14
# Directory beside an input file that holds its parsed snapshot.
SNAPSHOT_DIR = ".segflow-cache"
# Rows that a column-at-a-time writer joins into one string and writes at once.
WRITE_ROWS = 1 << 14

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
        self.ses = np.asarray(self.ses, dtype=float)[order]
        if not all(np.isfinite(v).all() for v in (self.lat, self.lon, self.ses)):
            raise ValidationError("lat, lon and ses must be finite")
        pop = np.asarray(self.population)
        if pop.dtype.kind == "f" and not np.all(np.isfinite(pop) & (np.floor(pop) == pop)):
            raise ValidationError("population must be whole numbers")
        self.population = pop.astype(np.int64)[order]
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

    def rows(self, ids: Iterable[str | None]) -> np.ndarray:
        """The row of each neighborhood id; -1 for None or an id not in the table."""
        return np.array([self.index.get(nid, -1) for nid in ids], dtype=np.int64)

    def write_csv(self, path) -> None:
        """Write the table back out in normalized (sorted, canonical) form."""
        _write_csv(path, NEIGHBORHOOD_COLUMNS,
                   zip(self.ids, map(repr, self.lat.tolist()), map(repr, self.lon.tolist()),
                       self.population.tolist(), map(repr, self.ses.tolist())))


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
        in first-seen order.  When ``keep`` holds for every event and the
        codes are already first-seen, as every loader numbers them, the
        result shares this log's columns instead of copying them."""
        if keep.all():
            keep = slice(None)      # a view, not a copy
        customer, customer_ids, home = _renumber(self.customer[keep], self.customer_ids, self.home)
        store, store_ids, location = _renumber(self.store[keep], self.store_ids, self.location)
        return PurchaseLog(customer_ids, store_ids, home, location, customer, store,
                           self.amount[keep])

    def resolved(self, table: NeighborhoodTable) -> tuple[PurchaseLog, np.ndarray, np.ndarray]:
        """The events whose home and store location are both in ``table``,
        with the table row of each kept customer's home and store's location."""
        home, loc = table.rows(self.home), table.rows(self.location)
        log = self.select((home >= 0)[self.customer] & (loc >= 0)[self.store])
        return log, table.rows(log.home), table.rows(log.location)


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


def _renumber(codes: np.ndarray, ids: list[str], *places: list):
    """Codes renumbered in first-seen order, with the ids and any lists of
    places kept beside them; codes that are already so numbered and use
    every id are returned as they are."""
    if _first_seen(codes, len(ids)):
        return (codes, ids, *places)
    first = np.full(len(ids), len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    used = np.flatnonzero(first < len(codes))
    # only the used codes are sorted, by their first position
    order = used[np.argsort(first[used])]
    new = np.empty(len(ids), dtype=np.int64)
    new[order] = np.arange(order.size)
    return (new[codes], *([values[i] for i in order] for values in (ids, *places)))


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted ``values`` starts, with
    one flag a value held beside them."""
    first = np.empty(len(values), bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return np.flatnonzero(first)


def _first_seen(codes: np.ndarray, n: int) -> bool:
    """Whether ``codes`` use each of 0..n-1, each code first seen after
    every lower one: each code is at most one above all codes before it.
    ``CODE_BLOCK`` codes are checked at a time."""
    top = -1     # the highest code before the block
    for start in range(0, len(codes), CODE_BLOCK):
        highest = np.maximum.accumulate(codes[start:start + CODE_BLOCK])
        np.maximum(highest, top, out=highest)
        if np.any(np.diff(highest, prepend=top) > 1):
            return False
        top = highest[-1]
    return top == n - 1


@dataclass(eq=False)
class MentionLog:
    """Columnar mention events: source and target codes into one list of
    user ids, interned in first-seen order (a row's source first)."""

    user_ids: list[str]
    source: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.source)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str]]) -> MentionLog:
        """Intern (source user, target user) rows."""
        users = _interner()
        codes = np.fromiter(map(users.__getitem__, chain.from_iterable(rows)), dtype=np.int64)
        return cls(list(users), codes[0::2], codes[1::2])


@dataclass(eq=False)
class GeoPostLog:
    """Columnar geo-tagged posts: user codes (ids interned in first-seen
    order), coordinates and the local hour of day of each post."""

    user_ids: list[str]
    user: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    hour: np.ndarray

    def __len__(self) -> int:
        return len(self.user)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, float, float, int]]) -> GeoPostLog:
        """Intern (user, lat, lon, local hour) rows."""
        users = _interner()
        posts = np.fromiter(((users[user], lat, lon, hour) for user, lat, lon, hour in rows),
                            dtype=[("user", np.int64), ("lat", float), ("lon", float),
                                   ("hour", np.int64)])
        return cls(list(users), posts["user"], posts["lat"], posts["lon"], posts["hour"])


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
        reader = _csv_rows(path, fh)
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing and header and header[0].startswith("\ufeff"):
            raise ValidationError(f"{path}: the header starts with a UTF-8 byte-order mark")
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


def _csv_rows(path, fh) -> Iterator[list[str]]:
    """The rows of ``csv.reader(fh)``; a row it cannot read, or bytes that
    do not decode, is a ValidationError naming ``path``."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not {exc.encoding} text: {exc.reason}") from None


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


def _first(faults: np.ndarray) -> int:
    """Index of the first True in ``faults``, or its length if none."""
    return int(np.argmax(faults)) if faults.any() else len(faults)


def _missing(columns: Mapping[str, Sequence[str]], name: str) -> tuple[np.ndarray, str]:
    cells = columns[name]
    blank = (np.fromiter(map(not_, cells), dtype=bool, count=len(cells)) if "" in cells
             else np.zeros(len(cells), dtype=bool))
    return blank, f"missing field {name!r}"


def _number_faults(columns: Mapping[str, Sequence[str]], name: str,
                   values: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """A numeric column's faults: a blank cell, then a cell whose number in
    ``values`` (the cells as by ``_numbers``) is NaN or infinite."""
    return [_missing(columns, name),
            (~np.isfinite(values), f"{name} is not a finite number: {{{name}!r}}")]


def _time_faults(columns: Mapping[str, Sequence[str]],
                 bad: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The timestamp column's faults: a blank cell, then one ``bad`` flags."""
    return [_missing(columns, "timestamp"), (bad, "bad timestamp {timestamp!r}")]


def _reject(path, start: int, columns: Mapping[str, Sequence[str]],
            faults: Sequence[tuple[np.ndarray, str]], accept: Callable[[int], None] | None = None):
    """Raise a ValidationError for the earliest row of the chunk starting at
    row ``start`` that a (mask, message) fault flags, if any does, with the
    message of the first fault that flags it, formatted with the row's cells
    by column name.  ``accept`` first gets the number of rows before that
    one (all rows if none is flagged); a ValidationError it raises wins."""
    flagged = np.array([mask for mask, _ in faults])
    row = _first(flagged.any(axis=0))
    if accept:
        accept(row)
    if row < flagged.shape[1]:
        message = faults[int(np.argmax(flagged[:, row]))][1]
        cells = {name: column[row] for name, column in columns.items()}
        raise ValidationError(f"{path}: line {_line_of(path, start + row)}: "
                              f"{message.format_map(cells)}")


def load_neighborhoods(path) -> NeighborhoodTable:
    """Parse the neighborhood census CSV and validate its invariants."""
    index = _interner()
    lats, lons, pops, ses = [], [], [], []
    for start, cols in _read_chunks(path, NEIGHBORHOOD_COLUMNS):
        before = len(index)
        codes = _codes(index, cols["neighborhood_id"])
        repeated = np.ones(len(codes), dtype=bool)
        first = np.unique(codes, return_index=True)[1]
        repeated[first] = codes[first] < before
        lat, lon, s = (_numbers(cols[c]) for c in ("lat", "lon", "ses"))
        pop, bad_pop = _parsed(int, cols["population"])
        exact = np.array([0 if v is None else v for v in pop], dtype=object)  # exact: no float cast
        _reject(path, start, cols, [
            _missing(cols, "neighborhood_id"),
            (repeated, "duplicate neighborhood_id {neighborhood_id!r}"),
            *_number_faults(cols, "lat", lat), *_number_faults(cols, "lon", lon),
            ((np.abs(lat) > 90) | (np.abs(lon) > 180), "centroid out of range: {lat}, {lon}"),
            _missing(cols, "population"), (bad_pop, "population is not an integer: {population!r}"),
            (exact < 0, "population must be non-negative: {population}"),
            (exact > np.iinfo(np.int64).max, "population is out of range: {population}"),
            *_number_faults(cols, "ses", s)])
        lats.append(lat)
        lons.append(lon)
        pops += pop
        ses.append(s)
    if not index:
        raise ValidationError(f"{path}: no neighborhoods")
    if max(pops) <= 0:
        raise ValidationError(f"{path}: at least one neighborhood needs population > 0")
    table = NeighborhoodTable(list(index), np.concatenate(lats), np.concatenate(lons),
                              np.array(pops), np.concatenate(ses))
    log.info("loaded %d neighborhoods from %s", table.n, path)
    return table


# Digests taken inside ``hash_once``, by real path; None outside it.
_digests: ContextVar[dict[str, str] | None] = ContextVar("segflow_digests", default=None)


@contextmanager
def hash_once() -> Iterator[None]:
    """Within the block, ``file_sha256`` reads each file once and then
    returns the digest of that read, so one command hashes each input once
    however many steps ask for its digest."""
    token = _digests.set({})
    try:
        yield
    finally:
        _digests.reset(token)


def file_sha256(path) -> str:
    """Hex sha256 of a file's bytes (inside ``hash_once``, as first read)."""
    digests = _digests.get()
    if digests is None:
        return _sha256(path)
    real = os.path.realpath(path)
    if real not in digests:
        digests[real] = _sha256(path)
    return digests[real]


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, value) -> None:
    """Write ``value`` as every JSON artifact is written: sorted, indent 1, a final newline."""
    with open(path, "w") as fh:
        json.dump(value, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence], newline: str = "\r\n"
               ) -> None:
    """Write ``header`` and then ``rows`` as every CSV artifact is written:
    quoted as ``csv.writer`` quotes, each line ended by ``newline``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=newline)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_fields(texts: Iterable[str]) -> list[str]:
    """Each text as ``csv.writer`` writes it as one field of a row ended by
    CR LF: quoted where it must be, which depends on that line end."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    fields = []
    for text in texts:
        writer.writerow((text, ""))    # a field alone in its row is quoted when empty
        fields.append(buf.getvalue().removesuffix(",\r\n"))
        buf.seek(0)
        buf.truncate()
    return fields


def _gather(texts: list[str], codes: np.ndarray) -> list[str]:
    """The text of each code."""
    return np.array(texts, dtype=object)[codes].tolist()


def _formatted(values: np.ndarray, fmt: str) -> list[str]:
    """``fmt`` applied to each float64 value, once for each distinct bit pattern."""
    bits, code = np.unique(values.view(np.int64), return_inverse=True)
    return _gather([fmt.format(v) for v in bits.view(np.float64).tolist()], code)


def _write_rows(path, header: str, n_rows: int,
                cells: Callable[[slice], Sequence[list[str]]]) -> None:
    """Write a header, then ``n_rows`` rows, ``WRITE_ROWS`` at a time:
    ``cells(rows)`` gives a slice of rows as columns of cells, separators
    and line ends included.  Line ends are written as given, on every
    platform."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for start in range(0, n_rows, WRITE_ROWS):
            fh.write("".join(map("".join, zip(*cells(slice(start, start + WRITE_ROWS))))))


def _write_columns(path, header: str, *columns: list[str]) -> None:
    """Write a header, then the rows whose cells, separators and line ends
    included, are the columns."""
    _write_rows(path, header, len(columns[0]), lambda rows: [column[rows] for column in columns])


T = TypeVar("T")


class _Layout(NamedTuple):
    """How one loader's value is kept in a snapshot: ``strings`` name its
    columns of ids, stored as UTF-8 blobs with end offsets, and ``arrays``
    its numpy columns; ``columns`` gives a value's columns by name, and
    ``build`` makes the value from them, passed by keyword."""

    what: str  # names the value in log lines
    strings: tuple[str, ...]
    arrays: tuple[str, ...]
    build: Callable[..., object]
    columns: Callable[[object], Mapping[str, object]] = vars


def _snapshotted(path, layout: _Layout, parse: Callable[[object], T]) -> T:
    """``parse(path)``, kept in ``SNAPSHOT_DIR`` beside the file and keyed
    by the sha256 of the file and of this module; a later call on the same
    bytes reads the snapshot back instead of parsing.  A file that changes
    while it is parsed, or a directory that cannot be written, gets no
    snapshot."""
    before = os.stat(path)
    key = file_sha256(path) + file_sha256(__file__)
    snapshot = Path(path).parent / SNAPSHOT_DIR / (Path(path).name + ".npz")
    columns, miss = _read_snapshot(snapshot, key, layout)
    if columns is not None:
        log.info("%s snapshot hit: %s", layout.what, snapshot)
        return layout.build(**columns)
    log.info("%s snapshot miss (%s): %s", layout.what, miss, snapshot)
    value = parse(path)
    after = os.stat(path)
    if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
        log.info("%s snapshot not written: %s changed while it was parsed", layout.what, path)
    else:
        _write_snapshot(snapshot, key, layout, layout.columns(value), before.st_mode)
    return value


def _read_snapshot(snapshot: Path, key: str, layout: _Layout) -> tuple[dict | None, str]:
    """The columns stored in ``snapshot`` under ``key``, or None and why not."""
    try:
        # np.load leaves a file it opened unclosed when the zip is truncated
        with open(snapshot, "rb") as fh, np.load(fh, allow_pickle=False) as stored:
            if stored["key"].item() != key:
                return None, "stale key"
            columns = {name: _decoded(stored[name], stored[name + "_ends"])
                       for name in layout.strings}
            columns.update((name, stored[name]) for name in layout.arrays)
    except FileNotFoundError:
        return None, "none"
    except Exception as exc:  # truncated, foreign or partial: parse and overwrite
        return None, f"unreadable: {exc!r}"
    return columns, "hit"


def _write_snapshot(snapshot: Path, key: str, layout: _Layout, columns: Mapping,
                    mode: int) -> None:
    """Store ``columns`` under ``key``: write a temporary file, then rename
    it over ``snapshot``, so readers never see a partial one.  The snapshot
    gets the permission bits ``mode`` of its input, so whoever can read the
    input can read the snapshot."""
    arrays = {"key": np.array(key)}
    arrays.update((name, columns[name]) for name in layout.arrays)
    for name in layout.strings:
        arrays[name], arrays[name + "_ends"] = _encoded(columns[name])
    try:
        snapshot.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=snapshot.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fd, stat.S_IMODE(mode))
                np.savez(fh, **arrays)
            os.replace(tmp, snapshot)
        finally:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
    except OSError as exc:
        log.info("%s snapshot not written: %s", layout.what, exc)


def _encoded(strings: Sequence[str | None]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``strings`` end to end (None as ""), and where each
    ends.  Unlike a numpy "U" array, this keeps trailing NULs."""
    parts = [(s or "").encode() for s in strings]
    ends = np.cumsum([len(part) for part in parts], dtype=np.int64)
    return np.frombuffer(b"".join(parts), dtype=np.uint8), ends


def _decoded(data: np.ndarray, ends: np.ndarray) -> list[str]:
    blob, ends = data.tobytes(), ends.tolist()
    return [blob[start:end].decode() for start, end in zip([0, *ends], ends)]


def _purchase_log(home: list[str], location: list[str], **columns) -> PurchaseLog:
    """A PurchaseLog from snapshot columns, where an unknown place is ""."""
    return PurchaseLog(home=[place or None for place in home],
                       location=[place or None for place in location], **columns)


def _geometry_columns(geometry: Mapping[str, list[np.ndarray]]) -> dict:
    """Polygon ids, rings per id, vertices per ring and every vertex, in order."""
    rings = [ring for polygon in geometry.values() for ring in polygon]
    return {"ids": list(geometry),
            "rings": np.array([len(polygon) for polygon in geometry.values()], dtype=np.int64),
            "sizes": np.array([len(ring) for ring in rings], dtype=np.int64),
            "vertices": np.concatenate([np.zeros((0, 2)), *rings])}


def _geometry(ids: list[str], rings: np.ndarray, sizes: np.ndarray,
              vertices: np.ndarray) -> dict[str, list[np.ndarray]]:
    each = np.split(vertices, np.cumsum(sizes)[:-1])
    ends = np.cumsum(rings).tolist()
    return {nid: each[start:end] for nid, start, end in zip(ids, [0, *ends], ends)}


_PURCHASES = _Layout("purchase", ("customer_ids", "store_ids", "home", "location"),
                     ("customer", "store", "amount"), _purchase_log)
_MENTIONS = _Layout("mention", ("user_ids",), ("source", "target"), MentionLog)
_GEOPOSTS = _Layout("geopost", ("user_ids",), ("user", "lat", "lon", "hour"), GeoPostLog)
_GEOMETRY = _Layout("geometry", ("ids",), ("rings", "sizes", "vertices"), _geometry,
                    _geometry_columns)


def load_purchases(path) -> PurchaseLog:
    """Parse purchase events; home/store neighborhood columns are optional.
    Timestamps are validated, not kept.  A valid file's log is snapshotted
    (see ``_snapshotted``)."""
    purchases = _snapshotted(path, _PURCHASES, _parse_purchases)
    log.info("loaded %d purchase events from %s", len(purchases), path)
    return purchases


def _parse_purchases(path) -> PurchaseLog:
    builder = _PurchaseBuilder(path, partial(_line_of, path))
    for start, cols in _read_chunks(path, PURCHASE_COLUMNS,
                                    ("customer_home", "store_neighborhood")):
        amount = _numbers(cols["amount"])
        _, bad_time = _parsed(datetime.fromisoformat, cols["timestamp"])
        # rows before the first fault are interned first: a second place
        # for a customer or store on an earlier row is named instead
        _reject(path, start, cols, [
            *_number_faults(cols, "amount", amount), (amount < 0, "negative amount"),
            _missing(cols, "customer_id"), _missing(cols, "store_id"),
            *_time_faults(cols, bad_time)],
            lambda stop: builder.add(
                cols["customer_id"][:stop], cols["store_id"][:stop], amount[:stop],
                cols["customer_home"][:stop], cols["store_neighborhood"][:stop]))
    return builder.log()


def load_mentions(path) -> MentionLog:
    """Parse mention events; timestamps are validated, not kept.
    Self-mentions carry no interaction signal and are dropped here.  A
    valid file's log is snapshotted (see ``_snapshotted``)."""
    return _snapshotted(path, _MENTIONS, _parse_mentions)


def _parse_mentions(path) -> MentionLog:
    rows = 0

    def other_user_chunks():
        nonlocal rows
        for start, cols in _read_chunks(path, MENTION_COLUMNS):
            src, dst = cols["source_user"], cols["target_user"]
            other = np.fromiter(map(ne, src, dst), dtype=bool, count=len(src))
            bad_time = np.zeros(len(src), dtype=bool)
            bad_time[other] = _parsed(datetime.fromisoformat,
                                      tuple(compress(cols["timestamp"], other)))[1]
            # a self-mention's timestamp goes unchecked
            _reject(path, start, cols, [
                _missing(cols, "source_user"), _missing(cols, "target_user"),
                *((mask & other, message) for mask, message in _time_faults(cols, bad_time))])
            rows += len(src)
            yield compress(zip(src, dst), other)

    mentions = MentionLog.from_rows(chain.from_iterable(other_user_chunks()))
    if rows > len(mentions):
        log.info("dropped %d self-mentions from %s", rows - len(mentions), path)
    return mentions


def load_geoposts(path) -> GeoPostLog:
    """Parse geo-tagged posts; of each timestamp only the local hour is
    kept.  A valid file's posts are snapshotted (see ``_snapshotted``)."""
    return _snapshotted(path, _GEOPOSTS, _parse_geoposts)


def _parse_geoposts(path) -> GeoPostLog:
    def chunks():
        for start, cols in _read_chunks(path, GEOPOST_COLUMNS):
            lat, lon = _numbers(cols["lat"]), _numbers(cols["lon"])
            times, bad_time = _parsed(datetime.fromisoformat, cols["timestamp"])
            _reject(path, start, cols, [
                *_number_faults(cols, "lat", lat), *_number_faults(cols, "lon", lon),
                ((np.abs(lat) > 90.0) | (np.abs(lon) > 180.0), "coordinates out of range"),
                _missing(cols, "user_id"), *_time_faults(cols, bad_time)])
            yield zip(cols["user_id"], lat.tolist(), lon.tolist(), map(attrgetter("hour"), times))

    return GeoPostLog.from_rows(chain.from_iterable(chunks()))


def load_geometry(path) -> dict[str, list[np.ndarray]]:
    """Load neighborhood polygons: id -> list of closed rings in (lon, lat).

    A ring must repeat its first vertex at the end, contain at least
    three distinct vertices and have only finite coordinates.  A valid
    file's polygons are snapshotted (see ``_snapshotted``).
    """
    return _snapshotted(path, _GEOMETRY, _parse_geometry)


def _parse_geometry(path) -> dict[str, list[np.ndarray]]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not {exc.encoding} text: {exc.reason}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: expected an object of polygons by neighborhood_id, "
                              f"got {type(raw).__name__}")
    geometry = {}

    def malformed(nid: str, problem: str) -> ValidationError:
        # an unclosed ring in an earlier polygon is named first
        _check_closed(path, geometry)
        return ValidationError(f"{path}: malformed polygon for {nid!r}: {problem}")

    for nid, rings in raw.items():
        if not isinstance(rings, list) or not rings:
            raise malformed(nid, "no rings")
        geometry[nid] = parsed = []
        for ring in rings:
            try:
                arr = np.asarray(ring, dtype=float)
            except (TypeError, ValueError, OverflowError):
                raise malformed(nid, "a vertex is not a pair of numbers") from None
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
                raise malformed(nid, "ring too short")
            if not np.isfinite(arr).all():  # json reads NaN and Infinity
                raise malformed(nid, "non-finite vertex")
            parsed.append(arr)
    _check_closed(path, geometry)
    return geometry


def _check_closed(path, geometry: Mapping[str, list[np.ndarray]]) -> None:
    """Name the first polygon with a ring whose last vertex is not
    ``np.allclose`` to its first."""
    owners = [nid for nid, rings in geometry.items() for _ in rings]
    if not owners:
        return
    ends = np.array([(ring[0], ring[-1]) for rings in geometry.values() for ring in rings])
    closed = np.isclose(ends[:, 0], ends[:, 1]).all(axis=1)
    if not closed.all():
        raise ValidationError(f"{path}: malformed polygon for {owners[np.argmin(closed)]!r}: "
                              "ring not closed")


def filter_active_customers(events: PurchaseLog, min_tx: int = 10) -> PurchaseLog:
    """Keep only events of customers with at least ``min_tx`` transactions."""
    if min_tx < 1:
        raise ValueError("min_tx must be >= 1")
    counts = np.bincount(events.customer, minlength=len(events.customer_ids))
    return events.select((counts >= min_tx)[events.customer])


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
    posts: GeoPostLog,
    geometry: Mapping[str, list[np.ndarray]],
) -> tuple[np.ndarray, int]:
    """Map each post to the neighborhood polygon containing it.

    Returns each post's neighborhood as a position in ``sorted(geometry)``,
    -1 for a post outside every polygon, and the count of those.  Points on
    a shared border go to the lexicographically smaller neighborhood_id.
    """
    ordered = sorted(geometry)
    owner = np.array([pos for pos, nid in enumerate(ordered) for _ in geometry[nid]])
    place = _containing(posts.lon, posts.lat,
                        [ring for nid in ordered for ring in geometry[nid]], owner)
    dropped = int((place < 0).sum())
    if dropped:
        log.info("dropped %d posts outside all polygons", dropped)
    return place, dropped


def infer_home(
    posts: GeoPostLog,
    place: np.ndarray,
    neighborhood_ids: Sequence[str],
    night_start: int = 20,
    night_end: int = 6,
) -> tuple[dict[str, str], list[str]]:
    """Assign each user the neighborhood used most during night hours.

    ``place`` is each post's position in the sorted ``neighborhood_ids``, or
    -1 (outside every polygon, ignored).  The window [night_start, night_end)
    in local hours 0-23 may wrap midnight.  Ties break on total all-hours
    count, then on the smaller neighborhood_id.  Users without any night post
    are left unassigned and returned separately, both results in user_id order.
    """
    if not (0 <= night_start <= 23 and 0 <= night_end <= 23) or night_start == night_end:
        raise ValueError(f"night window {night_start}-{night_end}: needs two different hours 0-23")
    inside = place >= 0
    night = (posts.hour[inside] - night_start) % 24 < (night_end - night_start) % 24
    n = len(neighborhood_ids)
    cell, which, total = np.unique(posts.user[inside] * n + place[inside],
                                   return_inverse=True, return_counts=True)
    nights = np.bincount(which[night], minlength=len(cell))
    user, nid = np.divmod(cell, n)
    # each user's cells, best first; keep the first cell of each user
    order = np.lexsort((nid, -total, -nights, user))
    best = order[np.diff(user[order], prepend=-1) != 0]
    found = sorted(zip(map(posts.user_ids.__getitem__, user[best].tolist()),
                       nid[best].tolist(), nights[best].tolist()))
    homes = {uid: neighborhood_ids[pos] for uid, pos, count in found if count}
    unassigned = [uid for uid, _, count in found if not count]
    if unassigned:
        log.info("%d users had no night posts and were left unassigned", len(unassigned))
    return homes, unassigned
