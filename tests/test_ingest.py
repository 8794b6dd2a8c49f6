import re
import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segflow.ingest import (CHUNK_ROWS, GEOPOST_COLUMNS, MENTION_COLUMNS,
                            NEIGHBORHOOD_COLUMNS, GeoPost, ValidationError,
                            assign_points_to_neighborhoods,
                            filter_active_customers, infer_home, load_geometry,
                            load_geoposts, load_mentions, load_neighborhoods,
                            load_purchases)

from segflow.cli import main

from conftest import make_table, purchase, purchase_log


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadNeighborhoods:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "n.csv",
                     "neighborhood_id,lat,lon,population,ses\n"
                     "N2,40.0,-3.0,500,20\nN1,40.1,-3.1,600,30\nN3,40.2,-3.2,700,10\n")
        table = load_neighborhoods(path)
        assert table.n == 3
        assert table.ids == ["N1", "N2", "N3"]  # canonical sorted order
        assert table.population[table.index["N2"]] == 500

    def test_duplicate_id_names_offender(self, tmp_path):
        path = write(tmp_path, "n.csv",
                     "neighborhood_id,lat,lon,population,ses\n"
                     "N1,40.0,-3.0,500,20\nN1,40.1,-3.1,600,30\n")
        with pytest.raises(ValidationError, match="N1"):
            load_neighborhoods(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "n.csv", "neighborhood_id,lat,lon,population,ses\n")
        with pytest.raises(ValidationError, match="no neighborhoods"):
            load_neighborhoods(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = write(tmp_path, "n.csv",
                     "neighborhood_id,lat,lon,population,ses\n"
                     "N1,40.0,-3.0,500,20\nN2,40.1,-3.1,,30\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_neighborhoods(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "n.csv", "neighborhood_id,lat,lon,population\nN1,40,-3,5\n")
        with pytest.raises(ValidationError, match="ses"):
            load_neighborhoods(path)

    def test_coordinate_range(self, tmp_path):
        path = write(tmp_path, "n.csv",
                     "neighborhood_id,lat,lon,population,ses\nN1,95.0,-3.0,500,20\n")
        with pytest.raises(ValidationError, match="range"):
            load_neighborhoods(path)

    def test_reingest_byte_identical(self, tmp_path):
        path = write(tmp_path, "n.csv",
                     "neighborhood_id,lat,lon,population,ses\n"
                     "N2,40.123456789,-3.0,500,20.5\nN1,40.1,-3.1,600,30.25\n")
        t1 = load_neighborhoods(path)
        out1 = tmp_path / "norm1.csv"
        t1.write_csv(out1)
        t2 = load_neighborhoods(out1)
        out2 = tmp_path / "norm2.csv"
        t2.write_csv(out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestLoadPurchases:
    def test_optional_columns(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "customer_id,store_id,timestamp,amount\n"
                     "C1,S1,2013-05-01T10:00:00,12.5\n")
        events = load_purchases(path)
        assert events.home == [None] and events.location == [None]
        assert events.amount[0] == 12.5

    def test_negative_amount(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "customer_id,store_id,timestamp,amount\n"
                     "C1,S1,2013-05-01T10:00:00,-1\n")
        with pytest.raises(ValidationError, match="negative amount"):
            load_purchases(path)

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "customer_id,store_id,timestamp,amount\n"
                     "C1,S1,notatime,1\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_purchases(path)


# (column, bad value) pairs; "place" columns get a second neighborhood for
# a customer or store that an earlier row already placed
CORRUPTIONS = [("amount", v) for v in ("abc", "nan", "inf", "-inf", "-1.5", "")] + [
    ("timestamp", v) for v in ("notatime", "2013-13-01T10:00:00", "")] + [
    ("customer_id", ""), ("store_id", ""), ("customer_home", "N2"),
    ("store_neighborhood", "N2")]
PURCHASE_HEADER = ["customer_id", "store_id", "timestamp", "amount", "customer_home",
                   "store_neighborhood"]


NEIGHBORHOODS_CSV = ("neighborhood_id,lat,lon,population,ses\n"
                     "N0,40.0,-3.0,500,20\nN1,40.1,-3.0,600,30\nN2,40.2,-3.0,700,40\n")


def corrupt_purchases(rows, faults):
    """purchases.csv rows for (customer, store, amount) triples, with the
    cell of each {row: (column, value)} fault corrupted."""
    table = [[f"C{c}", f"S{s}", "2013-05-01T10:00:00", repr(a), f"N{c % 2}", f"N{s % 2}"]
             for c, s, a in rows]
    for bad, (column, value) in faults.items():
        if column == "customer_home":
            table[bad][0] = table[0][0]
        elif column == "store_neighborhood":
            table[bad][1] = table[0][1]
        table[bad][PURCHASE_HEADER.index(column)] = value
    return table


def csv_text(header, table, blank_after=()):
    """The CSV text, with a blank line after each data row in ``blank_after``."""
    lines = [",".join(header)]
    for i, row in enumerate(table):
        lines += [",".join(row)] + [""] * (i in blank_after)
    return "\n".join(lines) + "\n"


def assert_line_named(load, city, name, text, line):
    """``load`` of ``city/name`` holding ``text`` raises a ValidationError
    that starts with the path and ``line``, and the CLI exits 1."""
    path = city / name
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: line {line}: "):
        load(path)
    assert main(["ingest", "--data", str(city), "--out", str(city / "out")]) == 1


def physical_line(bad, blank_after):
    """The line of data row ``bad`` after the header and the blank lines."""
    return bad + 2 + sum(1 for i in blank_after if i < bad)


@given(rows=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                               st.floats(0, 1e6, allow_nan=False)), min_size=2, max_size=12),
       data=st.data(), corruption=st.sampled_from(CORRUPTIONS))
@settings(max_examples=60, deadline=None)
def test_fuzz_corrupt_purchase_cell(rows, data, corruption):
    """One bad cell in a valid purchases.csv: a ValidationError naming the
    file and line, and exit code 1 from the CLI."""
    bad = data.draw(st.integers(1, len(rows) - 1), label="corrupted row")
    blank = data.draw(st.sets(st.integers(0, len(rows) - 1)), label="blank line after rows")
    with tempfile.TemporaryDirectory() as tmp:
        city = Path(tmp)
        (city / "neighborhoods.csv").write_text(NEIGHBORHOODS_CSV)
        table = corrupt_purchases(rows, {bad: corruption})
        assert_line_named(load_purchases, city, "purchases.csv",
                          csv_text(PURCHASE_HEADER, table, blank), physical_line(bad, blank))


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupt_purchase_cell_after_first_chunk(tmp_path, corruption):
    rows = [(i % 40, i % 30, 12.5) for i in range(2 * CHUNK_ROWS)]
    bad = CHUNK_ROWS + 300
    (tmp_path / "neighborhoods.csv").write_text(NEIGHBORHOODS_CSV)
    assert_line_named(load_purchases, tmp_path, "purchases.csv",
                      csv_text(PURCHASE_HEADER, corrupt_purchases(rows, {bad: corruption}), {5}),
                      bad + 3)


@pytest.mark.parametrize("faults, named", [
    ({5: ("customer_home", "N2"), 3: ("store_neighborhood", "N2")}, 3),
    ({3: ("customer_home", "N2"), 3 + CHUNK_ROWS: ("amount", "abc")}, 3),
    ({4: ("amount", "abc"), 6: ("customer_home", "N2")}, 4),
    ({6: ("store_neighborhood", "N2"), 4: ("timestamp", "")}, 4),
])
def test_earliest_of_several_faults_is_named(tmp_path, faults, named):
    rows = [(i % 4, i % 3, 1.0) for i in range(2 * CHUNK_ROWS)]
    (tmp_path / "neighborhoods.csv").write_text(NEIGHBORHOODS_CSV)
    assert_line_named(load_purchases, tmp_path, "purchases.csv",
                      csv_text(PURCHASE_HEADER, corrupt_purchases(rows, faults)), named + 2)


# For each other loader: header, a valid row i, and (column, bad value)
# faults that name a line.  Mention rows are never self-mentions, whose
# timestamps go unchecked.
LOADER_FAULTS = {
    "mentions.csv": (load_mentions, list(MENTION_COLUMNS),
                     lambda i: [f"U{i}", f"V{i}", "2013-05-01T10:00:00"],
                     [("source_user", ""), ("target_user", ""), ("timestamp", "notatime"),
                      ("timestamp", "")]),
    "geoposts.csv": (load_geoposts, list(GEOPOST_COLUMNS),
                     lambda i: [f"U{i}", "40.05", "-2.95", "2013-05-01T22:00:00"],
                     [("user_id", ""), ("lat", "91"), ("lon", "-180.5"), ("lat", "nan"),
                      ("lon", "abc"), ("lat", ""), ("timestamp", "2013-02-30T00:00:00")]),
    "neighborhoods.csv": (load_neighborhoods, list(NEIGHBORHOOD_COLUMNS),
                          lambda i: [f"N{i}", "40.0", "-3.0", "500", str(i)],
                          [("neighborhood_id", ""), ("lat", "inf"), ("lon", "abc"),
                           ("lon", ""), ("population", "1.5"), ("population", ""),
                           ("ses", "nan")]),
}


@given(name=st.sampled_from(sorted(LOADER_FAULTS)), n=st.integers(1, 12), data=st.data())
@settings(max_examples=80, deadline=None)
def test_fuzz_corrupt_cell_of_other_loaders(name, n, data):
    """One bad cell in a valid mentions, geoposts or neighborhoods file: a
    ValidationError naming the file and physical line, and CLI exit 1."""
    load, header, row, faults = LOADER_FAULTS[name]
    column, value = data.draw(st.sampled_from(faults), label="fault")
    bad = data.draw(st.integers(0, n - 1), label="corrupted row")
    blank = data.draw(st.sets(st.integers(0, n - 1)), label="blank line after rows")
    table = [row(i) for i in range(n)]
    table[bad][header.index(column)] = value
    with tempfile.TemporaryDirectory() as tmp:
        city = Path(tmp)
        (city / "neighborhoods.csv").write_text(NEIGHBORHOODS_CSV)
        (city / "geometry.json").write_text('{"N0": [[[-3,40],[-2,40],[-2,41],[-3,41],[-3,40]]]}')
        assert_line_named(load, city, name, csv_text(header, table, blank),
                          physical_line(bad, blank))


class TestFilterActiveCustomers:
    def test_nine_events_dropped(self):
        events = purchase_log([purchase("C1", f"S{i}", "N00", "N01") for i in range(9)])
        assert len(filter_active_customers(events, 10)) == 0

    def test_ten_events_retained(self):
        events = purchase_log([purchase("C1", f"S{i}", "N00", "N01") for i in range(10)])
        assert len(filter_active_customers(events, 10)) == 10

    def test_mixed_log_counted_by_hand(self):
        # 12 events for C1 plus 3 for C2: only C1's 12 survive at min_tx=10
        events = purchase_log([purchase("C1", f"S{i}", "N00", "N01") for i in range(12)]
                              + [purchase("C2", f"T{i}", "N01", "N00") for i in range(3)])
        kept = filter_active_customers(events, 10)
        assert len(kept) == 12
        assert kept.customer_ids == ["C1"]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        events = purchase_log([purchase(f"C{rng.integers(6)}", f"S{i}", "N00", "N01")
                               for i in range(100)])
        once = filter_active_customers(events, 10)
        twice = filter_active_customers(once, 10)
        assert vars(twice).keys() == vars(once).keys()
        for key, value in vars(once).items():
            assert np.array_equal(getattr(twice, key), value), key

    def test_min_tx_validated(self):
        with pytest.raises(ValueError):
            filter_active_customers(purchase_log([]), 0)


def square(x0, y0, size=1.0):
    return np.array([[x0, y0], [x0 + size, y0], [x0 + size, y0 + size],
                     [x0, y0 + size], [x0, y0]])


def post(user, lon, lat, ts="2013-05-01T22:00:00"):
    return GeoPost(user_id=user, lat=lat, lon=lon,
                   timestamp=datetime.fromisoformat(ts))


class TestAssignPoints:
    geometry = {"A": [square(0.0, 0.0)], "B": [square(1.0, 0.0)]}

    def test_strictly_inside(self):
        localized, dropped = assign_points_to_neighborhoods(
            [post("u1", 0.5, 0.5)], self.geometry)
        assert localized == [("u1", "A", datetime.fromisoformat("2013-05-01T22:00:00"))]
        assert dropped == 0

    def test_outside_all_dropped(self):
        localized, dropped = assign_points_to_neighborhoods(
            [post("u1", 5.0, 5.0), post("u2", 0.2, 0.2)], self.geometry)
        assert dropped == 1
        assert len(localized) == 1

    def test_shared_border_goes_to_smaller_id(self):
        # the two unit squares share the x = 1 edge
        geometry = {"B": [square(1.0, 0.0)], "A": [square(0.0, 0.0)]}
        localized, dropped = assign_points_to_neighborhoods(
            [post("u1", 1.0, 0.5)], geometry)
        assert localized[0][1] == "A"
        assert dropped == 0

    def test_corner_point(self):
        localized, _ = assign_points_to_neighborhoods(
            [post("u1", 1.0, 1.0)], self.geometry)
        assert localized[0][1] == "A"

    def test_malformed_polygon(self, tmp_path):
        bad = tmp_path / "geom.json"
        bad.write_text('{"A": [[[0,0],[1,0],[0,0]]]}')
        with pytest.raises(ValidationError, match="A"):
            load_geometry(bad)

    def test_unclosed_ring(self, tmp_path):
        bad = tmp_path / "geom.json"
        bad.write_text('{"Z": [[[0,0],[1,0],[1,1],[0,1]]]}')
        with pytest.raises(ValidationError, match="not closed"):
            load_geometry(bad)


def localized(user, nid, hour):
    return (user, nid, datetime(2013, 5, 1, hour, 0, 0))


class TestInferHome:
    def test_majority_night_neighborhood(self):
        posts = [localized("u1", "A", 22)] * 5 + [localized("u1", "B", 23)] * 2
        homes, unassigned = infer_home(posts)
        assert homes == {"u1": "A"}
        assert unassigned == []

    def test_tie_broken_by_total_count(self):
        posts = ([localized("u1", "A", 21)] * 3 + [localized("u1", "B", 22)] * 3
                 + [localized("u1", "B", 12)] * 7 + [localized("u1", "A", 13)] * 1)
        # night tie 3-3; totals: B has 10, A has 4
        homes, _ = infer_home(posts)
        assert homes == {"u1": "B"}

    def test_full_tie_breaks_lexicographically(self):
        posts = [localized("u1", "B", 22), localized("u1", "A", 23)]
        homes, _ = infer_home(posts)
        assert homes == {"u1": "A"}

    def test_daytime_only_unassigned(self):
        posts = [localized("u1", "A", 12)] * 4
        homes, unassigned = infer_home(posts)
        assert homes == {}
        assert unassigned == ["u1"]

    def test_window_half_open(self):
        # 06:00 is day, 05:59 counts as night, 20:00 counts as night
        homes, unassigned = infer_home([("u1", "A", datetime(2013, 5, 1, 6, 0))])
        assert unassigned == ["u1"]
        homes, _ = infer_home([("u2", "A", datetime(2013, 5, 1, 5, 59)),
                               ("u2", "A", datetime(2013, 5, 1, 20, 0))])
        assert homes == {"u2": "A"}

    def test_non_wrapping_window(self):
        homes, _ = infer_home([("u1", "A", datetime(2013, 5, 1, 10, 0))],
                              night_start=9, night_end=11)
        assert homes == {"u1": "A"}


def test_home_assignment_referential_integrity(table4):
    geometry = {"N00": [square(0.0, 0.0)], "N01": [square(1.0, 0.0)]}
    posts = [post("u1", 0.4, 0.6), post("u1", 1.5, 0.5), post("u2", 1.2, 0.8)]
    loc, _ = assign_points_to_neighborhoods(posts, geometry)
    homes, _ = infer_home(loc)
    assert set(homes.values()) <= set(table4.ids)
