"""The chunked loaders, the vectorized point-in-polygon and the array home
inference, mention network and mention profiles against the row-at-a-time
references in ``ingest_reference``, and event selection against the
sort-based renumbering it replaced."""
import csv
import io
import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from segflow import ingest
from segflow.ingest import (GeoPostLog, PurchaseLog, load_geometry, load_geoposts,
                            load_mentions, load_purchases)
from segflow.metrics import mention_profiles
from segflow.network import build_mention_network

import ingest_reference as reference
from conftest import homes_of, localize, make_table, mention_log, profile_dict

# ids need quoting: commas, quotes and newlines inside a field
IDS = st.text(alphabet='ab ,"\n', min_size=1, max_size=4)
STAMPS = st.datetimes(datetime(2000, 1, 1), datetime(2030, 1, 1)).map(datetime.isoformat)
# a post keeps the hour of its own offset
LOCAL_STAMPS = st.datetimes(datetime(2000, 1, 1), datetime(2030, 1, 1), timezones=st.sampled_from(
    [None, timezone.utc, timezone(timedelta(hours=-5))])).map(datetime.isoformat)
EXTRA = ["note", "x,y"]


@st.composite
def csv_layout(draw, required, optional=()):
    """A header (required, some optional and some extra columns, in any
    order), how often the records repeat, the chunk size, and the rows
    after which a blank line or a trailing extra cell appears."""
    columns = [*required, *(c for c in optional if draw(st.booleans())),
               *draw(st.lists(st.sampled_from(EXTRA), max_size=2, unique=True))]
    return {"header": draw(st.permutations(columns)),
            "copies": draw(st.sampled_from([1, 1, 1, 1100])),
            "chunk": draw(st.sampled_from([1, 3, ingest.CHUNK_ROWS])),
            "blank": set(draw(st.lists(st.integers(0, 30), max_size=4))),
            "trailing": set(draw(st.lists(st.integers(0, 30), max_size=2)))}


def write_csv(path: Path, layout, records: list[dict]) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(layout["header"])
    for i, record in enumerate(records * layout["copies"]):
        row = [record.get(c, "memo, 1") for c in layout["header"]]
        writer.writerow(row + ["tail"] if i in layout["trailing"] else row)
        if i in layout["blank"]:
            out.write("\n")
    path.write_text(out.getvalue())


def load(loader, path: Path, layout):
    with mock.patch.object(ingest, "CHUNK_ROWS", layout["chunk"]):
        return loader(path)


@st.composite
def purchase_records(draw):
    """Rows in which each customer and store keeps one place; a row may
    leave its place cell empty."""
    places = st.sampled_from(["N1", "N2", "N,3"])
    ids = st.lists(IDS, min_size=1, max_size=4, unique=True)
    customers = {c: draw(places) for c in draw(ids)}
    stores = {s: draw(places) for s in draw(ids)}
    rows = draw(st.lists(st.tuples(st.sampled_from(sorted(customers)),
                                   st.sampled_from(sorted(stores)), st.floats(0, 1e6),
                                   st.booleans(), st.booleans(), STAMPS),
                         min_size=1, max_size=15))
    return [{"customer_id": c, "store_id": s, "amount": repr(a), "timestamp": t,
             "customer_home": customers[c] if named_home else "",
             "store_neighborhood": stores[s] if named_location else ""}
            for c, s, a, named_home, named_location, t in rows]


@given(layout=csv_layout(ingest.PURCHASE_COLUMNS, ("customer_home", "store_neighborhood")),
       records=purchase_records())
@settings(max_examples=60, deadline=None)
def test_purchases_match_dictreader_reference(layout, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "purchases.csv"
        write_csv(path, layout, records)
        log = load(load_purchases, path, layout)
        expected = reference.load_purchases(path)
        with mock.patch.object(ingest, "_parse_purchases", side_effect=AssertionError("parsed")):
            snapshot = load_purchases(path)
    assert {key: getattr(log, key) for key in ("customer_ids", "store_ids", "home", "location")} \
        == {key: expected[key] for key in ("customer_ids", "store_ids", "home", "location")}
    assert log.customer.tolist() == expected["customer"]
    assert log.store.tolist() == expected["store"]
    assert log.amount.tolist() == expected["amount"]
    for key in ("customer_ids", "store_ids", "home", "location"):
        assert getattr(snapshot, key) == getattr(log, key), key
    for key in ("customer", "store", "amount"):
        assert getattr(snapshot, key).dtype == getattr(log, key).dtype, key
        assert np.array_equal(getattr(snapshot, key), getattr(log, key)), key


@given(layout=csv_layout(ingest.MENTION_COLUMNS),
       records=st.lists(st.fixed_dictionaries({"source_user": st.sampled_from(["u1", "u,2", "u3"]),
                                               "target_user": st.sampled_from(["u1", "u,2", "u3"]),
                                               "timestamp": STAMPS}), min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_mentions_match_dictreader_reference(layout, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mentions.csv"
        write_csv(path, layout, records)
        events = load(load_mentions, path, layout)
        expected = reference.load_mentions(path)
    assert events.user_ids == expected["user_ids"]
    assert events.source.tolist() == expected["source"]
    assert events.target.tolist() == expected["target"]


@given(layout=csv_layout(ingest.GEOPOST_COLUMNS),
       records=st.lists(st.fixed_dictionaries({"user_id": IDS,
                                               "lat": st.floats(-90, 90).map(repr),
                                               "lon": st.floats(-180, 180).map(repr),
                                               "timestamp": LOCAL_STAMPS}),
                        min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_geoposts_match_dictreader_reference(layout, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "geoposts.csv"
        write_csv(path, layout, records)
        posts = load(load_geoposts, path, layout)
        expected = reference.load_geoposts(path)
    assert posts.user_ids == expected["user_ids"]
    for key in ("user", "lat", "lon", "hour"):
        assert getattr(posts, key).tolist() == expected[key], key


def jittered_grid(rng, n=6):
    """n x n quadrilaterals sharing their edges exactly, with ids in an
    order unrelated to their position."""
    x = -3.0 + 0.01 * np.arange(n + 1)[:, None] + np.zeros((1, n + 1))
    y = 40.0 + 0.01 * np.arange(n + 1)[None, :] + np.zeros((n + 1, 1))
    x[1:-1, 1:-1] += rng.uniform(-0.003, 0.003, (n - 1, n - 1))
    y[1:-1, 1:-1] += rng.uniform(-0.003, 0.003, (n - 1, n - 1))
    names = rng.permutation(n * n)
    geometry = {}
    for i in range(n):
        for j in range(n):
            corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1), (i, j)]
            geometry[f"P{names[i * n + j]:02d}"] = [np.array([(x[c], y[c]) for c in corners])]
    return geometry


def boundary_points(geometry):
    """Every vertex and edge midpoint of every ring."""
    points = []
    for rings in geometry.values():
        for ring in rings:
            points += list(ring) + list((ring[:-1] + ring[1:]) / 2)
    return np.array(points)


def posts_at(points):
    return GeoPostLog.from_rows((f"u{i}", lat, lon, i % 24) for i, (lon, lat) in enumerate(points))


@pytest.mark.parametrize("row_block", [ingest.ROW_BLOCK, 7])
@pytest.mark.parametrize("seed", range(4))
def test_assignments_match_per_polygon_reference(seed, row_block):
    rng = np.random.default_rng(seed)
    geometry = jittered_grid(rng)
    # a two-ring polygon: one ring overlaps the grid, the other lies apart
    geometry["P10a"] = [np.array([[-2.985, 40.015], [-2.965, 40.015], [-2.975, 40.035],
                                  [-2.985, 40.015]]),
                        np.array([[-2.9, 40.0], [-2.89, 40.0], [-2.89, 40.01], [-2.9, 40.01],
                                  [-2.9, 40.0]])]
    border = boundary_points(geometry)
    scattered = np.column_stack([rng.uniform(-3.01, -2.88, 400), rng.uniform(39.99, 40.07, 400)])
    far = np.array([[10.0, 10.0], [-3.005, 40.03], [-2.95, 40.0605]])
    with mock.patch.object(ingest, "ROW_BLOCK", row_block):
        for points in (border, scattered, far, np.vstack([border, scattered, far])):
            posts = posts_at(points)
            assert localize(posts, geometry) == reference.assign_points(posts, geometry)
        localized, dropped = localize(posts_at(border), geometry)
        assert dropped == 0
        assert localize(posts_at(far), geometry) == ([], len(far))


def test_no_polygons_drops_every_post():
    assert localize(posts_at([[0.5, 0.5]]), {}) == ([], 1)


def test_no_posts():
    assert localize(posts_at(np.zeros((0, 2))), jittered_grid(np.random.default_rng(0))) \
        == ([], 0)
    assert homes_of([]) == ({}, [])


# Few users, neighborhoods and hours, so that night and total counts tie often.
USERS = st.sampled_from(["u1", "u2", "u,3", "b", "B"])
POSTS = st.lists(st.tuples(USERS, st.sampled_from(["N00", "N01", "N02", "N10", None]),
                           st.integers(0, 23)), max_size=40)
HOURS = st.integers(0, 23)


@given(posts=POSTS, start=HOURS, end=HOURS)
@settings(max_examples=200, deadline=None)
def test_infer_home_matches_counter_reference(posts, start, end):
    """Wrapping (start > end) and non-wrapping windows; a post at None lies
    outside every polygon."""
    assume(start != end)
    homes, unassigned = homes_of(posts, night_start=start, night_end=end)
    expected_homes, expected_unassigned = reference.infer_home(
        [post for post in posts if post[1] is not None], start, end)
    assert list(homes.items()) == list(expected_homes.items())
    assert unassigned == expected_unassigned


MENTIONS = st.lists(st.tuples(USERS, USERS), max_size=40)
HOMES = st.dictionaries(USERS, st.sampled_from(["N00", "N01", "N02", "N03", "N99"]))


@given(mentions=MENTIONS, homes=HOMES)
@settings(max_examples=100, deadline=None)
def test_mention_network_matches_loop_reference(mentions, homes):
    """Endpoints without a home, or with a home missing from the table
    ("N99"), drop their mention."""
    table = make_table(4)
    net = build_mention_network(mention_log(mentions), homes, table)
    W, user_counts, dropped = reference.build_mention_network(mentions, homes, table)
    assert np.array_equal(net.W, W) and net.W.dtype == W.dtype
    assert net.user_counts.tolist() == user_counts.tolist()
    assert net.dropped_events == dropped and type(net.dropped_events) is int


@given(mentions=MENTIONS)
@settings(max_examples=100, deadline=None)
def test_mention_profiles_match_loop_reference(mentions):
    """Same counts in the same order: users and each user's targets first-seen."""
    profiles = profile_dict(mention_profiles(mention_log(mentions)))
    expected = reference.mention_profiles(mentions)
    assert [(u, list(c.items())) for u, c in profiles.items()] \
        == [(u, list(c.items())) for u, c in expected.items()]


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]


@pytest.mark.parametrize("geometry, message", [
    ({"A": [SQUARE], "B": [SQUARE], "C": [SQUARE, SQUARE[:-1] + [[0, 0.5]]], "D": [SQUARE]},
     "malformed polygon for 'C': ring not closed"),
    ({"A": [SQUARE], "B": [SQUARE[:-1] + [[0, 0.5]]], "C": [[[0, 0], [1, 0], [0, 0]]]},
     "malformed polygon for 'B': ring not closed"),
    ({"A": [SQUARE[:-1] + [[0, 0.5]]], "B": []},
     "malformed polygon for 'A': ring not closed"),
])
def test_unclosed_ring_names_its_polygon(tmp_path, geometry, message):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(geometry))
    with pytest.raises(ingest.ValidationError) as err:
        load_geometry(path)
    assert str(err.value) == f"{path}: {message}"


def renumbered_by_sort(codes: np.ndarray, ids: list, places: list):
    """The renumbering ``PurchaseLog.select`` did with one ``np.unique`` sort
    of every kept code."""
    used, first = np.unique(codes, return_index=True)
    order = used[np.argsort(first)]
    new = np.empty(len(ids), dtype=np.int64)
    new[order] = np.arange(order.size)
    return new[codes], [ids[i] for i in order], [places[i] for i in order]


@st.composite
def coded_log(draw):
    """A log whose codes may leave ids unused, and a keep mask that is all
    True, all False or drawn row by row."""
    n_customers, n_stores = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rows = draw(st.integers(0, 40))
    customer = draw(st.lists(st.integers(0, n_customers - 1), min_size=rows, max_size=rows))
    store = draw(st.lists(st.integers(0, n_stores - 1), min_size=rows, max_size=rows))
    places = st.sampled_from([None, "N1", "N2"])
    log = PurchaseLog([f"C{i}" for i in range(n_customers)], [f"S{i}" for i in range(n_stores)],
                      draw(st.lists(places, min_size=n_customers, max_size=n_customers)),
                      draw(st.lists(places, min_size=n_stores, max_size=n_stores)),
                      np.array(customer, dtype=np.int64), np.array(store, dtype=np.int64),
                      np.arange(rows, dtype=float))
    keep = draw(st.one_of(st.just([True] * rows), st.just([False] * rows),
                          st.lists(st.booleans(), min_size=rows, max_size=rows)))
    return log, np.array(keep, dtype=bool)


@given(coded_log())
@settings(max_examples=200, deadline=None)
def test_select_renumbers_as_the_sort_reference(case):
    log, keep = case
    selected = log.select(keep)
    customer, customer_ids, home = renumbered_by_sort(log.customer[keep], log.customer_ids,
                                                      log.home)
    store, store_ids, location = renumbered_by_sort(log.store[keep], log.store_ids, log.location)
    assert (selected.customer_ids, selected.home) == (customer_ids, home)
    assert (selected.store_ids, selected.location) == (store_ids, location)
    for got, want in ((selected.customer, customer), (selected.store, store),
                      (selected.amount, log.amount[keep])):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def selected_as_reference(log: PurchaseLog, keep: np.ndarray) -> PurchaseLog:
    """What ``select`` gives by the copying, sorting reference."""
    customer, customer_ids, home = renumbered_by_sort(log.customer[keep], log.customer_ids,
                                                      log.home)
    store, store_ids, location = renumbered_by_sort(log.store[keep], log.store_ids,
                                                    log.location)
    return PurchaseLog(customer_ids, store_ids, home, location, customer, store, log.amount[keep])


def assert_same_log(got: PurchaseLog, want: PurchaseLog):
    for name in ("customer_ids", "store_ids", "home", "location"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("customer", "store", "amount"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def columns(log: PurchaseLog) -> tuple[np.ndarray, ...]:
    return log.customer, log.store, log.amount


class TestSelectBranches:
    """``select`` shares the columns only when it drops no event and the
    codes are already first-seen; otherwise it renumbers copies."""

    def loaded(self) -> PurchaseLog:
        """A log as the loaders leave it: codes in first-seen order."""
        return PurchaseLog.from_rows((f"C{i % 7}", f"S{i % 5}", float(i), f"N{i % 7}",
                                      f"M{i % 5}") for i in range(40))

    def test_every_first_seen_event_kept_shares_the_columns(self):
        log = self.loaded()
        keep = np.ones(len(log), dtype=bool)
        selected = log.select(keep)
        for got, column in zip(columns(selected), columns(log)):
            assert np.shares_memory(got, column)
        assert_same_log(selected, selected_as_reference(log, keep))

    @pytest.mark.parametrize("customer", [
        [1, 0, 1, 2, 0],      # code 1 first seen before code 0
        [0, 2, 1, 2, 0],      # code 2 first seen before code 1
        [0, 1, 0, 1, 0],      # code 2 is no event's
    ], ids=["swapped", "skipped", "unused"])
    def test_every_event_kept_but_codes_not_first_seen_renumbered(self, customer):
        log = PurchaseLog(["C0", "C1", "C2"], ["S0"], ["N0", "N1", "N2"], ["M0"],
                          np.array(customer), np.zeros(5, dtype=np.int64), np.arange(5.0))
        keep = np.ones(len(log), dtype=bool)
        selected = log.select(keep)
        assert not np.shares_memory(selected.customer, log.customer)
        assert_same_log(selected, selected_as_reference(log, keep))

    def test_some_events_kept_copied(self):
        log = self.loaded()
        keep = np.arange(len(log)) % 3 != 1
        selected = log.select(keep)
        for got, column in zip(columns(selected), columns(log)):
            assert not np.shares_memory(got, column)
        assert_same_log(selected, selected_as_reference(log, keep))
