from collections import Counter

import numpy as np
import pytest

from segflow.network import (InteractionNetwork, build_mention_network,
                             build_purchase_network, centroid_distances,
                             haversine_km, population_weight, read_network,
                             write_network)
from segflow.segregation import assign_groups, assortativity, mixing_matrix
from segflow.ingest import NeighborhoodTable

from conftest import make_table, mention, purchase, purchase_log


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
        net = build_mention_network([mention("u1", "u2")] * 2, homes, table4)
        assert net.W[0, 1] == 2

    def test_unknown_home_dropped(self, table4):
        homes = {"u1": "N00"}
        net = build_mention_network([mention("u1", "u2")], homes, table4)
        assert net.dropped_events == 1
        assert not net.W.any()

    def test_user_counts_from_homes_map(self, table4):
        homes = {"u1": "N00", "u2": "N00", "u3": "N01"}
        net = build_mention_network([], homes, table4)
        assert list(net.user_counts[:2]) == [2, 1]

    def test_forty_mention_fixture_matches_group_by(self, table4):
        rng = np.random.default_rng(11)
        homes = {f"u{i}": f"N{rng.integers(4):02d}" for i in range(12)}
        events = []
        while len(events) < 40:
            a, b = rng.integers(12), rng.integers(12)
            if a != b:
                events.append(mention(f"u{a}", f"u{b}"))
        net = build_mention_network(events, homes, table4)
        oracle = Counter((homes[e.source_user], homes[e.target_user]) for e in events)
        for (h, t), count in oracle.items():
            assert net.W[table4.index[h], table4.index[t]] == count


class TestPopulationWeight:
    def test_purchase_plug_in(self):
        table = make_table(2, population=[50, 50])
        net = build_purchase_network(
            purchase_log([purchase(f"C{c}", "S1", "N00", "N01") for c in range(5)] * 2), table)
        assert net.W[0, 1] == 10 and net.user_counts[0] == 5
        weighted = population_weight(net, table)
        assert weighted.W[0, 1] == pytest.approx(100.0)
        assert weighted.weighting == "population_weighted"

    def test_mention_plug_in(self):
        table = make_table(2, population=[20, 30])
        homes = {"a1": "N00", "a2": "N00", "b1": "N01", "b2": "N01", "b3": "N01"}
        events = []
        for _ in range(6):
            events.append(mention("a1", "b1"))
        net = build_mention_network(events, homes, table)
        weighted = population_weight(net, table)
        # 6 / ((2*3)/(20*30)) = 600
        assert weighted.W[0, 1] == pytest.approx(600.0)

    def test_purchase_identity_when_m_equals_p(self):
        table = make_table(2, population=[3, 2])
        events = ([purchase(f"C{i}", "S1", "N00", "N01") for i in range(3)]
                  + [purchase(f"D{i}", "S2", "N01", "N00") for i in range(2)])
        net = build_purchase_network(purchase_log(events), table)
        weighted = population_weight(net, table)
        assert np.allclose(weighted.W, net.W)

    def test_zero_users_with_flow_errors(self, table4):
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N00", "N01")]), table4)
        counts = net.user_counts.copy()
        counts[0] = 0
        with pytest.raises(ValueError, match="zero sampled users"):
            population_weight(net, table4, counts)

    def test_zero_population_with_users_errors(self):
        table = make_table(2, population=[0, 100])
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N00", "N01")]), table)
        with pytest.raises(ValueError, match="inconsistent census"):
            population_weight(net, table)

    def test_zero_user_zero_flow_row_stays_zero(self, table4):
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N01", "N02")]), table4)
        weighted = population_weight(net, table4)
        assert not weighted.W[0].any()

    @pytest.mark.parametrize("channel", ["purchase", "mention"])
    def test_missing_user_counts_named(self, table4, channel):
        W = np.zeros((4, 4))
        W[1, 2] = 1.0
        net = InteractionNetwork(nodes=list(table4.ids), W=W, channel=channel)
        with pytest.raises(ValueError, match="needs user counts and population"):
            population_weight(net, table4)

    def test_double_weighting_rejected(self, table4):
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N01", "N02")]), table4)
        weighted = population_weight(net, table4)
        with pytest.raises(ValueError, match="already"):
            population_weight(weighted, table4)

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
        weighted = population_weight(net, table, m_uniform)
        assert np.allclose(weighted.W, net.W * 100.0)
        groups = assign_groups(table, k=4)
        r_raw = assortativity(mixing_matrix(net, groups, allow_raw=True))
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

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(9)
        table = make_table(12)
        table.lat += rng.uniform(-0.5, 0.5, 12)
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
        back = read_network(tmp_path / "edges.csv", tmp_path / "header.json")
        assert np.array_equal(back.W, net.W)
        assert back.nodes == net.nodes
        assert back.channel == net.channel


def test_mass_conservation_sums_to_event_count(table4):
    rng = np.random.default_rng(21)
    events = []
    for _ in range(73):
        c, h, loc = rng.integers(5), rng.integers(4), rng.integers(4)
        events.append(purchase(f"C{c}-N{h}", f"S1-N{loc}", f"N{h:02d}", f"N{loc:02d}"))
    net = build_purchase_network(purchase_log(events), table4)
    assert net.total_weight() == 73
