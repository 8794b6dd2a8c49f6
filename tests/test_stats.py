import numpy as np
import pytest
from hypothesis import given, strategies as st

from segflow.network import InteractionNetwork
from segflow.segregation import (DegenerateMatrixError, assign_groups,
                                 extremes_sweep, extremes_value, mixing_from_matrix)
from segflow.stats import (flows_assortativity, gini, jackknife_assortativity,
                           jackknife_extremes_sweep, jackknife_statistic,
                           segregation_inequality_report, write_report_csv)
from segflow import filter_active_customers, synth

from conftest import make_table

positive_vectors = st.lists(st.floats(min_value=0.0, max_value=1e6,
                                      allow_nan=False), min_size=2, max_size=40).filter(
    lambda v: sum(v) > 0)
# Scaling a subnormal vector can underflow it to all zeros, where gini
# rightly raises (v=[0, 5e-324], c=0.5), so scale invariance excludes them.
normal_vectors = st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                                    allow_subnormal=False),
                          min_size=2, max_size=40).filter(lambda v: sum(v) > 0)


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)

    def test_maximal_concentration(self):
        assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_hand_computed(self):
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)

    def test_matches_pairwise_difference_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            v = rng.uniform(0, 100, rng.integers(2, 30))
            oracle = np.abs(v[:, None] - v[None, :]).sum() / (2 * v.size ** 2 * v.mean())
            assert gini(v) == pytest.approx(oracle, abs=1e-11)

    @given(normal_vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, v, c):
        assert gini(np.array(v) * c) == pytest.approx(gini(v), abs=1e-12)

    @given(positive_vectors)
    def test_replication_invariance(self, v):
        assert gini(list(v) + list(v)) == pytest.approx(gini(v), abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.uniform(0, 10, 12)
            assert 0.0 <= gini(v) < 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            gini([0.0, 0.0])
        with pytest.raises(ValueError):
            gini([1.0, -0.5])
        with pytest.raises(ValueError):
            gini([])


def dense_weighted_net(n=30, seed=2):
    rng = np.random.default_rng(seed)
    table = make_table(n, ses=rng.uniform(0, 100, n))
    W = rng.uniform(0.0, 3.0, (n, n))
    W[W < 0.8] = 0.0
    net = InteractionNetwork(nodes=list(table.ids), W=W, channel="purchase",
                             weighting="population_weighted",
                             population=table.population, ses=table.ses)
    return net, table


class TestJackknife:
    def test_zero_removal_degenerates_to_point(self):
        net, table = dense_weighted_net()
        groups = assign_groups(table, k=5)
        est = jackknife_assortativity(net, groups, removal_fraction=0.0, replicates=20, seed=0)
        assert np.all(est.values == est.point)
        assert est.ci_low == est.ci_high == est.point

    def test_seed_determinism(self):
        net, table = dense_weighted_net()
        groups = assign_groups(table, k=5)
        a = jackknife_assortativity(net, groups, replicates=40, seed=7)
        b = jackknife_assortativity(net, groups, replicates=40, seed=7)
        assert np.array_equal(a.values, b.values)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_point_inside_ci_most_of_the_time(self):
        net, table = dense_weighted_net(n=40, seed=11)
        groups = assign_groups(table, k=5)
        inside = 0
        for seed in range(100):
            est = jackknife_assortativity(net, groups, removal_fraction=0.05,
                                          replicates=60, seed=seed)
            inside += est.ci_low <= est.point <= est.ci_high
        assert inside >= 90

    def test_minimum_edges_required(self):
        table = make_table(6)
        W = np.zeros((6, 6))
        W[0, 1] = 1.0
        net = InteractionNetwork(nodes=list(table.ids), W=W, channel="purchase",
                                 weighting="population_weighted")
        with pytest.raises(ValueError, match="20"):
            jackknife_assortativity(net, assign_groups(table, k=2))

    def test_too_many_degenerate_replicates(self):
        # 24 edges inside group 1, one bridge pair into group 2: removing
        # half the edges usually kills the bridge and degenerates the matrix
        table = make_table(10, ses=np.arange(10, dtype=float))
        groups = assign_groups(table, k=2)
        rng = np.random.default_rng(4)
        W = np.zeros((10, 10))
        for _ in range(24):
            i, j = rng.integers(0, 5, 2)
            W[i, j] += 1.0
        W[7, 8] = 0.5
        with pytest.raises(ValueError, match="degenerate"):
            jackknife_statistic(W, flows_assortativity, groups,
                                removal_fraction=0.5, replicates=60, seed=1)

    def test_validation(self):
        net, table = dense_weighted_net()
        groups = assign_groups(table, k=5)
        with pytest.raises(ValueError):
            jackknife_assortativity(net, groups, removal_fraction=1.2)
        with pytest.raises(ValueError):
            jackknife_assortativity(net, groups, replicates=0)


class TestSweepReplicates:
    def test_emptied_group_cell_discards_replicate(self):
        # At step t=1 (groups 1 and 4) group 4's only outgoing flow is three
        # edges in one cell.  A replicate that drops all three has no group-4
        # origin mass: it must be discarded, not scored from the rounding
        # residue that subtracting the dropped flows can leave.
        table = make_table(8, ses=np.arange(8, dtype=float))
        groups = assign_groups(table, k=4)
        rng = np.random.default_rng(0)
        W = np.zeros((8, 8))
        W[np.ix_([0, 1], [0, 1, 6, 7])] = rng.uniform(0.5, 2.0, (2, 4))
        W[np.ix_([2, 4], [3, 5])] = 1.0
        W[6, 6], W[6, 7], W[7, 6] = 0.1, 0.2, 0.7
        net = InteractionNetwork(nodes=list(table.ids), W=W, channel="purchase",
                                 weighting="population_weighted")
        fraction, replicates, seed = 0.5, 60, 3

        # dense reference: zero the same draws and score what is left
        o, d = np.nonzero(W > 0)
        expected = []
        for rep in range(replicates):
            drop = np.random.default_rng((seed, rep)).choice(
                len(o), size=int(fraction * len(o)), replace=False)
            Wr = W.copy()
            Wr[o[drop], d[drop]] = 0.0
            try:
                expected.append(extremes_value(mixing_from_matrix(Wr, groups).M, 1))
            except DegenerateMatrixError:
                pass

        assert len(expected) < replicates

        steps = extremes_sweep(net, groups)
        jackknife_extremes_sweep(net, groups, steps, fraction, replicates, seed)
        assert steps[0].replicates == len(expected)
        assert steps[0].std == pytest.approx(np.std(expected, ddof=1), rel=1e-12)
        assert (steps[0].ci_low, steps[0].ci_high) == pytest.approx(
            tuple(np.percentile(expected, [2.5, 97.5])), rel=1e-12)


@pytest.fixture(scope="module")
def small_city():
    cfg = synth.preset("homophilous", seed=3, n_neighborhoods=64, extent_km=16.0,
                       n_stores=200, n_customers=300, n_twitter_users=100,
                       n_purchase_events=12000, n_mention_events=100)
    city = synth.generate_city(cfg)
    events = filter_active_customers(city.purchases, 10)
    return city, events


class TestInequalityReport:
    def test_structure_and_conservation(self, small_city, tmp_path):
        city, events = small_city
        rows = segregation_inequality_report(
            events, city.table, k=8, fractions=(0.5, 1.0), replicates=8,
            seed=0, jackknife_replicates=10,
            eps_grid=np.round(np.arange(0.3, 0.8, 0.01), 10))
        labels = [r.label for r in rows]
        assert labels == ["empirical", "gravity", "reshuffle", "reshuffle"]
        totals = [r.total_revenue for r in rows]
        assert np.allclose(totals, totals[0], rtol=1e-9)
        assert rows[1].details["fit"]["c"] > 0
        assert "gini_imposed_flows" in rows[1].details
        assert rows[2].replicates == 8
        for r in rows:
            assert np.isfinite(r.assortativity_mean)
            assert 0.0 <= r.gini_mean < 1.0
        write_report_csv(rows, tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == ("label,fraction,assortativity_mean,assortativity_std,"
                            "gini_mean,gini_std,replicates")
        assert len(lines) == 5

    def test_full_reshuffle_kills_segregation(self, small_city):
        city, events = small_city
        rows = segregation_inequality_report(
            events, city.table, k=8, fractions=(1.0,), replicates=12,
            seed=1, jackknife_replicates=10,
            eps_grid=np.round(np.arange(0.3, 0.8, 0.01), 10))
        emp = rows[0]
        shuffled = rows[-1]
        assert emp.assortativity_mean > 0.3
        assert abs(shuffled.assortativity_mean) <= 3.0 * shuffled.assortativity_std
        assert emp.assortativity_mean > shuffled.assortativity_mean

    def test_assortativity_non_increasing_in_fraction(self, small_city):
        # weak ordering: a later fraction may not exceed an earlier one by
        # more than one standard deviation
        city, events = small_city
        rows = segregation_inequality_report(
            events, city.table, k=8, fractions=(0.2, 0.6, 1.0), replicates=10,
            seed=2, jackknife_replicates=10,
            eps_grid=np.round(np.arange(0.3, 0.8, 0.01), 10))
        shuffle_rows = [r for r in rows if r.label == "reshuffle"]
        for earlier, later in zip(shuffle_rows, shuffle_rows[1:]):
            assert later.assortativity_mean <= (earlier.assortativity_mean
                                                + earlier.assortativity_std)
