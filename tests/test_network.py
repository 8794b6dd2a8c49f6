import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from segflow import network, synth
from segflow.network import (EARTH_RADIUS_KM, Flows, InteractionNetwork,
                             build_mention_network, build_purchase_network, centroid_distances,
                             haversine_km, population_weight, read_network,
                             write_network)
from segflow.segregation import (assign_groups, assortativity, mixing_from_matrix,
                                 mixing_matrix)
from segflow.ingest import NeighborhoodTable

from conftest import (make_table, mention, mention_log, preset_table, purchase, purchase_log,
                      sparse_net)


class TestBuildPurchaseNetwork:
    def test_simple_counts(self, table4):
        events = [purchase("C1", "S1", "N00", "N01")] * 3 + [purchase("C2", "S2", "N01", "N00")]
        net = build_purchase_network(purchase_log(events), table4)
        assert net.W[0, 1] == 3
        assert net.W[1, 0] == 1
        assert net.weighting == "raw"
        assert net.total_weight() == 4

    def test_empty_stream(self, table4):
        net = build_purchase_network(purchase_log([]), table4)
        assert not net.W.any()

    def test_unknown_neighborhood_dropped_and_counted(self, table4):
        events = [purchase("C1", "S1", "N00", "N01"), purchase("C2", "S2", "NXX", "N00")]
        net = build_purchase_network(purchase_log(events), table4)
        assert net.dropped_events == 1
        assert net.total_weight() == 1

    def test_fifty_event_fixture_matches_group_by(self, table4):
        rng = np.random.default_rng(7)
        events = []
        for _ in range(50):
            c, s, h, loc = rng.integers(8), rng.integers(10), rng.integers(4), rng.integers(4)
            events.append(purchase(f"C{c}-N{h}", f"S{s}-N{loc}", f"N{h:02d}", f"N{loc:02d}"))
        net = build_purchase_network(purchase_log(events), table4)
        oracle = Counter((e.customer_home, e.store_neighborhood) for e in events)
        for (h, s), count in oracle.items():
            assert net.W[table4.index[h], table4.index[s]] == count
        assert net.total_weight() == 50
        assert np.all(net.W == np.round(net.W))  # raw weights are integer counts

    def test_user_and_store_counts_are_distinct_counts(self, table4):
        events = [purchase("C1", "S1", "N00", "N01"), purchase("C1", "S2", "N00", "N01"),
                  purchase("C2", "S3", "N00", "N02")]
        net = build_purchase_network(purchase_log(events), table4)
        assert net.user_counts[0] == 2
        assert net.store_counts[1] == 2
        assert net.store_counts[2] == 1

    def test_homes_mapping_fills_missing_columns(self, table4):
        # a row without home/location takes the one its customer's and
        # store's other rows name
        events = [purchase("C1", "S1", None, None), purchase("C1", "S2", "N00", "N01"),
                  purchase("C2", "S1", None, "N03")]
        net = build_purchase_network(purchase_log(events), table4)
        assert net.W[0, 3] == 1 and net.W[0, 1] == 1
        assert net.dropped_events == 1


class TestBuildMentionNetwork:
    def test_simple_counts(self, table4):
        homes = {"u1": "N00", "u2": "N01"}
        net = build_mention_network(mention_log([mention("u1", "u2")] * 2), homes, table4)
        assert net.W[0, 1] == 2

    def test_unknown_home_dropped(self, table4):
        homes = {"u1": "N00"}
        net = build_mention_network(mention_log([mention("u1", "u2")]), homes, table4)
        assert net.dropped_events == 1
        assert not net.W.any()

    def test_user_counts_from_homes_map(self, table4):
        homes = {"u1": "N00", "u2": "N00", "u3": "N01"}
        net = build_mention_network(mention_log([]), homes, table4)
        assert list(net.user_counts[:2]) == [2, 1]

    def test_forty_mention_fixture_matches_group_by(self, table4):
        rng = np.random.default_rng(11)
        homes = {f"u{i}": f"N{rng.integers(4):02d}" for i in range(12)}
        events = []
        while len(events) < 40:
            a, b = rng.integers(12), rng.integers(12)
            if a != b:
                events.append(mention(f"u{a}", f"u{b}"))
        net = build_mention_network(mention_log(events), homes, table4)
        oracle = Counter((homes[e.source_user], homes[e.target_user]) for e in events)
        for (h, t), count in oracle.items():
            assert net.W[table4.index[h], table4.index[t]] == count


class TestPopulationWeight:
    def test_purchase_plug_in(self):
        table = make_table(2, population=[50, 50])
        net = build_purchase_network(
            purchase_log([purchase(f"C{c}", "S1", "N00", "N01") for c in range(5)] * 2), table)
        assert net.W[0, 1] == 10 and net.user_counts[0] == 5
        weighted = population_weight(net)
        assert weighted.W[0, 1] == pytest.approx(100.0)
        assert weighted.weighting == "population_weighted"

    def test_mention_plug_in(self):
        table = make_table(2, population=[20, 30])
        homes = {"a1": "N00", "a2": "N00", "b1": "N01", "b2": "N01", "b3": "N01"}
        events = []
        for _ in range(6):
            events.append(mention("a1", "b1"))
        net = build_mention_network(mention_log(events), homes, table)
        weighted = population_weight(net)
        # 6 / ((2*3)/(20*30)) = 600
        assert weighted.W[0, 1] == pytest.approx(600.0)

    def test_purchase_identity_when_m_equals_p(self):
        table = make_table(2, population=[3, 2])
        events = ([purchase(f"C{i}", "S1", "N00", "N01") for i in range(3)]
                  + [purchase(f"D{i}", "S2", "N01", "N00") for i in range(2)])
        net = build_purchase_network(purchase_log(events), table)
        weighted = population_weight(net)
        assert np.allclose(weighted.W, net.W)

    def test_zero_users_with_flow_errors(self, table4):
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N00", "N01")]), table4)
        counts = net.user_counts.copy()
        counts[0] = 0
        with pytest.raises(ValueError, match="zero sampled users"):
            population_weight(replace(net, user_counts=counts))

    def test_zero_population_with_users_errors(self):
        table = make_table(2, population=[0, 100])
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N00", "N01")]), table)
        with pytest.raises(ValueError, match="inconsistent census"):
            population_weight(net)

    def test_zero_user_zero_flow_row_stays_zero(self, table4):
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N01", "N02")]), table4)
        weighted = population_weight(net)
        assert not weighted.W[0].any()

    @pytest.mark.parametrize("channel", ["purchase", "mention"])
    def test_missing_user_counts_named(self, table4, channel):
        W = np.zeros((4, 4))
        W[1, 2] = 1.0
        net = InteractionNetwork(table=table4, flows=Flows.from_matrix(W), channel=channel)
        with pytest.raises(ValueError, match="^population weighting needs the network's user counts$"):
            population_weight(net)

    def test_double_weighting_rejected(self, table4):
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N01", "N02")]), table4)
        weighted = population_weight(net)
        with pytest.raises(ValueError, match="already"):
            population_weight(weighted)

    @pytest.mark.parametrize("channel", ["purchase", "mention"])
    def test_raw_flows_left_unchanged(self, channel):
        raw = sparse_net(make_table(12), 40, channel=channel, weighting="raw")
        before = raw.W.copy()
        weighted = population_weight(raw)
        assert np.array_equal(raw.W, before)
        assert not np.shares_memory(weighted.W, raw.W)

    def test_uniform_sampling_ratio_is_global_scaling(self):
        # identical m_i/p_i everywhere multiplies W by one constant, so
        # downstream assortativity is unchanged to 1e-12
        rng = np.random.default_rng(5)
        table = make_table(8, population=[1000] * 8)
        events = []
        for k in range(400):
            i, j = rng.integers(8), rng.integers(8)
            events.append(purchase(f"C{k % 40}-N{i}", f"S{rng.integers(30)}-N{j}",
                                   f"N{i:02d}", f"N{j:02d}"))
        net = build_purchase_network(purchase_log(events), table)
        m_uniform = np.full(8, 10)  # m_i/p_i = 0.01 for everyone
        weighted = population_weight(replace(net, user_counts=m_uniform))
        assert np.allclose(weighted.W, net.W * 100.0)
        groups = assign_groups(table, k=4)
        r_raw = assortativity(mixing_from_matrix(net.W, groups))
        r_weighted = assortativity(mixing_matrix(weighted, groups))
        assert abs(r_raw - r_weighted) <= 1e-12


class TestDistances:
    def test_identical_centroids_zero(self):
        table = NeighborhoodTable(["A", "B"], [40.0, 40.0], [-3.0, -3.0], [10, 10], [1.0, 2.0])
        assert centroid_distances(table)[0, 1] == 0.0

    def test_one_degree_longitude_at_equator(self):
        # closed form: R * pi / 180
        assert haversine_km(0.0, 0.0, 0.0, 1.0) == pytest.approx(111.19492664455873, abs=1e-9)
        table = NeighborhoodTable(["A", "B"], [0.0, 0.0], [0.0, 1.0], [10, 10], [1.0, 2.0])
        assert centroid_distances(table)[0, 1] == pytest.approx(111.19492664455873, abs=1e-6)

    def test_haversine_broadcasts(self):
        lat, lon = np.array([0.0, 10.0, -20.0]), np.array([0.0, 1.0, 30.0])
        d = haversine_km(lat[:, None], lon[:, None], lat[None, :], lon[None, :])
        assert d.shape == (3, 3)
        assert d[1, 2] == haversine_km(10.0, 1.0, -20.0, 30.0)

    @pytest.mark.parametrize("n", [1600, 400], ids=["preset", "coarse"])
    def test_matches_former_centroid_formula_bitwise(self, n):
        """``centroid_distances`` through ``haversine_km`` equals the
        centroid-only formula it replaced, bit for bit, on the geometry of
        the homophilous preset (seed 7) at 1600 and 400 neighborhoods."""
        cfg = synth.preset("homophilous", seed=7, n_neighborhoods=n)
        table = synth._grid_layout(cfg, np.random.default_rng(cfg.seed))[0]
        lat, lon = np.radians(table.lat), np.radians(table.lon)
        dlat = lat[:, None] - lat[None, :]
        dlon = lon[:, None] - lon[None, :]
        a = (np.sin(dlat / 2.0) ** 2
             + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2)
        d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        assert np.array_equal(centroid_distances(table), d)

    @pytest.mark.parametrize("n", [1, network._BLOCK_ROWS - 1, network._BLOCK_ROWS,
                                   network._BLOCK_ROWS + 1, 1600])
    def test_blocks_match_whole_matrix_formula_bitwise(self, n):
        """The row blocks give, bit for bit, the one-shot ``(d + d.T) / 2``
        over the whole matrix with a zeroed diagonal, also when n is one block
        or falls one row either side of a block edge."""
        table = preset_table(1600)
        if n < 1600:
            table = NeighborhoodTable(table.ids[:n], table.lat[:n], table.lon[:n],
                                      table.population[:n] + 1, table.ses[:n])
        lat, lon = table.lat[:, None], table.lon[:, None]
        d = haversine_km(lat, lon, lat.T, lon.T)
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        assert np.array_equal(centroid_distances(table), d)

    def test_edge_distances_match_matrix_bitwise(self):
        """The distance of an edge, from ``haversine_km`` over its two
        centroids, equals its entry of ``centroid_distances`` bit for bit."""
        table = preset_table(1600)
        o, d = np.random.default_rng(3).integers(table.n, size=(2, 50000))
        lat, lon = table.lat, table.lon
        assert np.array_equal(haversine_km(lat[o], lon[o], lat[d], lon[d]),
                              centroid_distances(table)[o, d])

    def test_symmetry_and_zero_diagonal(self):
        """Nothing averages i -> j with j -> i, so the symmetry is
        haversine_km's own, bit for bit, also on 2000 random points within
        0.5, 20 and 89 degrees of the equator."""
        rng = np.random.default_rng(9)
        table = make_table(12)
        table.lat += rng.uniform(-0.5, 0.5, 12)
        tables = [table]
        for spread in (0.5, 20.0, 89.0):
            tables.append(NeighborhoodTable(
                [f"P{i:04d}" for i in range(2000)], rng.uniform(-spread, spread, 2000),
                rng.uniform(-180.0, 180.0, 2000), np.ones(2000), np.zeros(2000)))
        for table in tables:
            d = centroid_distances(table)
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(13)
        table = make_table(15)
        table.lat = 40.0 + rng.uniform(-1, 1, 15)
        table.lon = -3.0 + rng.uniform(-1, 1, 15)
        d = centroid_distances(table)
        for _ in range(200):
            i, j, k = rng.choice(15, 3, replace=False)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestExport:
    def test_round_trip(self, tmp_path, table4):
        events = [purchase("C1", "S1", "N00", "N01")] * 3 + [purchase("C2", "S2", "N03", "N02")]
        net = build_purchase_network(purchase_log(events), table4)
        write_network(net, tmp_path / "edges.csv", tmp_path / "header.json")
        text = (tmp_path / "edges.csv").read_text()
        assert "0.0" not in text.splitlines()[0]  # zero entries omitted
        back = read_network(tmp_path / "edges.csv", tmp_path / "header.json", table4)
        assert np.array_equal(back.W, net.W)
        assert back.table is table4
        assert back.channel == net.channel

    def test_rows_read_in_row_major_order(self, tmp_path, table4):
        """Rows may come in any order; a zero weight is no edge."""
        events = [purchase("C1", "S1", "N00", "N01")] * 3 + [purchase("C2", "S2", "N03", "N02"),
                                                            purchase("C3", "S1", "N02", "N01")]
        net = build_purchase_network(purchase_log(events), table4)
        edges, header = tmp_path / "edges.csv", tmp_path / "header.json"
        write_network(net, edges, header)
        first, *rows = edges.read_text().splitlines()
        edges.write_text("\n".join([first, *reversed(rows), "N01,N03,0.0"]) + "\n")
        back = read_network(edges, header, table4)
        for field in ("origin", "dest", "weight"):
            assert np.array_equal(getattr(back.flows, field), getattr(net.flows, field))

    @pytest.mark.parametrize("row, message", [
        ("N00,NXX,1.0", "line 4: unknown neighborhood 'NXX'"),
        ("N00,N01,2.0", "line 4: repeats the pair of line 2"),
    ], ids=["unknown node", "repeated pair"])
    def test_bad_edge_row_named(self, tmp_path, table4, row, message):
        events = [purchase("C1", "S1", "N00", "N01"), purchase("C2", "S2", "N03", "N02")]
        net = build_purchase_network(purchase_log(events), table4)
        edges, header = tmp_path / "edges.csv", tmp_path / "header.json"
        write_network(net, edges, header)
        with open(edges, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{edges}: {message}')}$"):
            read_network(edges, header, table4)

    @pytest.mark.parametrize("key, other", [
        ("nodes", make_table(5)),
        ("population", make_table(4, population=[1000, 1000, 1000, 999])),
        ("ses", make_table(4, ses=[10.0, 20.0, 30.0, 40.0]))])
    def test_header_of_other_table_refused(self, tmp_path, table4, key, other):
        """A network read back needs the table it was written over."""
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N00", "N01")]), table4)
        write_network(net, tmp_path / "edges.csv", tmp_path / "header.json")
        with pytest.raises(ValueError, match=f"{key} differ from the neighborhood table's$"):
            read_network(tmp_path / "edges.csv", tmp_path / "header.json", other)

    def test_fractional_counts_refused(self, tmp_path, table4):
        """``int`` would truncate them: [2.7, 1.5] used to read back as [2, 1]."""
        events = [purchase("C1", "S1", "N00", "N01"), purchase("C2", "S2", "N03", "N02")]
        net = build_purchase_network(purchase_log(events), table4)
        for field, counts in (("user_counts", [2.7, 1.5, 0.0, 1.0]),
                              ("store_counts", [0.4, 3.0, 1.0, 0.0])):
            with pytest.raises(ValueError, match=f"^{field} must be whole numbers$"):
                write_network(replace(net, **{field: np.array(counts)}),
                              tmp_path / "edges.csv", tmp_path / "header.json")
        assert not (tmp_path / "edges.csv").exists()

    def test_whole_float_counts_written_as_integers(self, tmp_path, table4):
        events = [purchase("C1", "S1", "N00", "N01"), purchase("C2", "S2", "N03", "N02")]
        net = build_purchase_network(purchase_log(events), table4)
        paths = [tmp_path / "edges.csv", tmp_path / "header.json"]
        write_network(net, *paths)
        expected = [p.read_bytes() for p in paths]
        write_network(replace(net, user_counts=net.user_counts.astype(float),
                              store_counts=net.store_counts.astype(float)), *paths)
        assert [p.read_bytes() for p in paths] == expected


def test_mass_conservation_sums_to_event_count(table4):
    rng = np.random.default_rng(21)
    events = []
    for _ in range(73):
        c, h, loc = rng.integers(5), rng.integers(4), rng.integers(4)
        events.append(purchase(f"C{c}-N{h}", f"S1-N{loc}", f"N{h:02d}", f"N{loc:02d}"))
    net = build_purchase_network(purchase_log(events), table4)
    assert net.total_weight() == 73
