"""The chunked loaders and the vectorized point-in-polygon against the
row-at-a-time references in ``ingest_reference``."""
import csv
import io
import json
import tempfile
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segflow import ingest
from segflow.ingest import (GeoPost, assign_points_to_neighborhoods, load_geometry,
                            load_geoposts, load_mentions, load_purchases)

import ingest_reference as reference

# ids need quoting: commas, quotes and newlines inside a field
IDS = st.text(alphabet='ab ,"\n', min_size=1, max_size=4)
STAMPS = st.datetimes(datetime(2000, 1, 1), datetime(2030, 1, 1)).map(datetime.isoformat)
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
    assert {key: getattr(log, key) for key in ("customer_ids", "store_ids", "home", "location")} \
        == {key: expected[key] for key in ("customer_ids", "store_ids", "home", "location")}
    assert log.customer.tolist() == expected["customer"]
    assert log.store.tolist() == expected["store"]
    assert log.amount.tolist() == expected["amount"]


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
        assert [(e.source_user, e.target_user, e.timestamp) for e in events] \
            == reference.load_mentions(path)


@given(layout=csv_layout(ingest.GEOPOST_COLUMNS),
       records=st.lists(st.fixed_dictionaries({"user_id": IDS,
                                               "lat": st.floats(-90, 90).map(repr),
                                               "lon": st.floats(-180, 180).map(repr),
                                               "timestamp": STAMPS}), min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_geoposts_match_dictreader_reference(layout, records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "geoposts.csv"
        write_csv(path, layout, records)
        posts = load(load_geoposts, path, layout)
        assert [(p.user_id, p.lat, p.lon, p.timestamp) for p in posts] \
            == reference.load_geoposts(path)


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
    return [GeoPost(f"u{i}", lat, lon, datetime(2013, 5, 1, i % 24))
            for i, (lon, lat) in enumerate(points)]


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
            assert assign_points_to_neighborhoods(posts, geometry) \
                == reference.assign_points(posts, geometry)
        localized, dropped = assign_points_to_neighborhoods(posts_at(border), geometry)
        assert dropped == 0
        assert assign_points_to_neighborhoods(posts_at(far), geometry) == ([], len(far))


def test_no_polygons_drops_every_post():
    assert assign_points_to_neighborhoods(posts_at([[0.5, 0.5]]), {}) == ([], 1)


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
    assert str(err.value) == message
