import numpy as np
import pytest
from hypothesis import given, strategies as st

from segflow.ingest import load_neighborhoods, load_purchases
from segflow.metrics import purchase_profiles
from segflow.models import (GravityParams, adjust_gravity_amounts, fit_gravity,
                            purchase_arrays, reshuffle_locations, simulate_gravity)
from segflow.network import (Flows, InteractionNetwork, build_purchase_network,
                             population_weight, sampling_rate)
from segflow.segregation import (DegenerateMatrixError, _cell_sums, _cells, _compact_labels,
                                 assign_groups, extremes_sweep, extremes_value, group_flows,
                                 mixing_from_matrix)
from segflow.stats import (_reshuffle_flows, flows_assortativity, gini, jackknife_assortativity,
                           jackknife_extremes_sweep, jackknife_statistic,
                           segregation_inequality_report, write_report_csv)
from segflow import filter_active_customers, models, stats, synth

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite") as info:
            gini([1.0, bad, 2.0])
        assert not isinstance(info.value, DegenerateMatrixError)


def dense_weighted_net(n=30, seed=2):
    rng = np.random.default_rng(seed)
    table = make_table(n, ses=rng.uniform(0, 100, n))
    W = rng.uniform(0.0, 3.0, (n, n))
    W[W < 0.8] = 0.0
    net = InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel="purchase",
                             weighting="population_weighted")
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
        net = InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel="purchase",
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
            jackknife_statistic(Flows.from_matrix(W), flows_assortativity, groups,
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
        net = InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel="purchase",
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
                expected.append(extremes_value(
                    mixing_from_matrix(Flows.from_matrix(Wr), groups).M, 1))
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
            events, city.table, assign_groups(city.table, k=8),
            fractions=(0.5, 1.0), replicates=8,
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
            events, city.table, assign_groups(city.table, k=8),
            fractions=(1.0,), replicates=12,
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
            events, city.table, assign_groups(city.table, k=8),
            fractions=(0.2, 0.6, 1.0), replicates=10,
            seed=2, jackknife_replicates=10,
            eps_grid=np.round(np.arange(0.3, 0.8, 0.01), 10))
        shuffle_rows = [r for r in rows if r.label == "reshuffle"]
        for earlier, later in zip(shuffle_rows, shuffle_rows[1:]):
            assert later.assortativity_mean <= (earlier.assortativity_mean
                                                + earlier.assortativity_std)

    def test_reshuffle_flows_equal_event_cell_oracle_bitwise(self, small_city):
        """A replicate's k x k flows, formed from the groups of customers'
        homes and stores' neighborhoods, equal bit for bit the flows grouped
        from every event's home and store neighborhood."""
        city, events = small_city
        table, groups = city.table, assign_groups(city.table, k=8)
        arrays = purchase_arrays(events, table)
        net = build_purchase_network(events, table)
        inv_rate = 1.0 / sampling_rate(net.user_counts, table.population)
        lab = _compact_labels(groups.labels, groups.k)
        for fraction in (0.2, 1.0):
            for rep in reshuffle_locations(arrays, fraction, replicates=5, seed=3):
                i, j = arrays.event_cells(rep.home, rep.loc)
                oracle = group_flows(i, j, inv_rate[i], groups.labels, groups.k)
                assert np.array_equal(_reshuffle_flows(arrays, rep, lab, groups.k, inv_rate),
                                      oracle)

    @pytest.mark.parametrize("block", [1000, 32768])
    def test_reshuffle_flows_a_block_at_a_time_equal_all_events_bitwise(self, small_city,
                                                                       block, monkeypatch):
        """Summing a replicate's events a block at a time into one k x k
        array gives, bit for bit, the cell sums over all its events at once:
        the 8,400 events here in blocks of 1,000, and in one block."""
        monkeypatch.setattr(stats, "_BLOCK_PAIRS", block)
        city, events = small_city
        table, groups = city.table, assign_groups(city.table, k=8)
        arrays = purchase_arrays(events, table)
        net = build_purchase_network(events, table)
        inv_rate = 1.0 / sampling_rate(net.user_counts, table.population)
        lab, k = _compact_labels(groups.labels, groups.k), groups.k
        assert len(arrays.ev_customer) > 8 * 1000
        for rep in reshuffle_locations(arrays, 0.6, replicates=5, seed=4):
            whole = _cell_sums(_cells(lab[rep.home], arrays.ev_customer, lab[rep.loc],
                                      arrays.ev_store, k),
                               inv_rate[rep.home][arrays.ev_customer], k)
            assert np.array_equal(_reshuffle_flows(arrays, rep, lab, k, inv_rate), whole)

    def test_groups_of_another_table_rejected(self, small_city):
        city, events = small_city
        other = make_table(64, ses=np.arange(64, dtype=float))
        with pytest.raises(ValueError, match="different node sets"):
            segregation_inequality_report(events, city.table, assign_groups(other, k=8))


LAW = GravityParams(c=0.5, beta1=0.8, beta2=0.7, epsilon=0.5, alpha=0.6)


@pytest.mark.parametrize("seed, n", [(3, 64), (5, 144)])
def test_gravity_row_is_the_weighted_simulation_jackknifed(seed, n, monkeypatch):
    """The report weights its simulated network in place and jackknifes the
    edges' group cells and weights alone.  Its gravity row is, bit for bit,
    the public steps composed: the jackknife of the population-weighted
    simulation, its point, band and every replicate value."""
    cfg = synth.preset("homophilous", seed=seed, n_neighborhoods=n, extent_km=16.0,
                       n_stores=3 * n, n_customers=5 * n, n_twitter_users=2 * n,
                       n_purchase_events=12000, n_mention_events=100)
    city = synth.generate_city(cfg)
    events, table = filter_active_customers(city.purchases, 10), city.table
    groups = assign_groups(table, k=8)
    estimate, estimates = stats._estimate, []

    def recorded(*args):
        estimates.append(estimate(*args))
        return estimates[-1]

    monkeypatch.setattr(stats, "_estimate", recorded)
    rows = segregation_inequality_report(events, table, groups, gravity_params=LAW,
                                         fractions=(0.5,), replicates=2,
                                         jackknife_replicates=30, seed=4)
    monkeypatch.undo()
    sim = simulate_gravity(LAW, build_purchase_network(events, table))
    expected = jackknife_statistic(population_weight(sim).flows, flows_assortativity, groups,
                                   0.05, 30, 4)
    row, got = rows[1], estimates[1]
    assert row.label == "gravity" and len(estimates) == 2 and sim.flows.size > 1000
    assert (row.assortativity_mean, row.assortativity_std) == (expected.point, expected.std)
    assert got.values.tobytes() == expected.values.tobytes()
    assert ((got.ci_low, got.ci_high, got.replicates, got.discarded)
            == (expected.ci_low, expected.ci_high, expected.replicates, expected.discarded))


def test_estimate_reads_its_band_from_a_copy():
    """The band comes from a partitioned copy of the replicate values:
    ``values`` stay in replicate order, and the band and std equal numpy's
    on them, bit for bit."""
    scores = np.random.default_rng(5).standard_normal(41)
    reps = np.arange(41.0)[:, None, None]          # each replicate holds its index

    est = stats._estimate(lambda M: float(scores[int(M[0, 0])]), np.zeros((1, 1)), reps, 0.05)
    assert est.values.tobytes() == scores.tobytes()
    assert (est.ci_low, est.ci_high) == tuple(np.percentile(scores, [2.5, 97.5]))
    assert est.std == float(scores.std(ddof=1))


def test_report_writes_only_into_the_simulated_weights(small_city, tmp_path, monkeypatch):
    """The report's one write into an array it did not allocate is the
    in-place weighting of its simulated gravity network.  The loaded log's
    columns, the table's and the empirical network's arrays are read-only
    here, and the simulated weights end as the population weights."""
    synth.write_city(small_city[0], tmp_path)
    table = load_neighborhoods(tmp_path / "neighborhoods.csv")
    log = load_purchases(tmp_path / "purchases.csv")
    build, simulate, simulated = stats.build_purchase_network, models.simulate_gravity, []

    def built(events, table):
        net = build(events, table)
        for column in (*net.flows, net.user_counts, net.store_counts):
            column.flags.writeable = False
        return net

    def recorded(params, net):
        simulated.append(simulate(params, net))
        return simulated[-1]

    for column in (log.customer, log.store, log.amount, table.lat, table.lon,
                   table.population, table.ses):
        column.flags.writeable = False
    monkeypatch.setattr(stats, "build_purchase_network", built)
    monkeypatch.setattr(models, "simulate_gravity", recorded)
    rows = segregation_inequality_report(log, table, assign_groups(table, k=8),
                                         gravity_params=LAW, fractions=(0.5,), replicates=2,
                                         jackknife_replicates=2)
    monkeypatch.undo()
    assert len(rows) == 3 and len(simulated) == 1
    weighted = population_weight(simulate_gravity(LAW, build_purchase_network(log, table)))
    assert simulated[0].flows.weight.tobytes() == weighted.flows.weight.tobytes()


def test_no_step_writes_into_a_shared_column(small_city, tmp_path):
    """Filtering and resolving a log that loses no event share its columns,
    so every step over events runs here on a loaded log whose columns are
    read-only: a step that wrote into them would raise."""
    synth.write_city(small_city[0], tmp_path)
    table = load_neighborhoods(tmp_path / "neighborhoods.csv")
    log = load_purchases(tmp_path / "purchases.csv")
    for column in (log.customer, log.store, log.amount):
        column.flags.writeable = False
    events = filter_active_customers(log, 1)
    assert np.shares_memory(events.customer, log.customer)
    grid = np.round(np.arange(0.3, 0.8, 0.01), 10)
    net, arrays = build_purchase_network(events, table), purchase_arrays(events, table)
    assert np.shares_memory(arrays.ev_store, log.store)
    revenue = adjust_gravity_amounts(arrays, net, fit_gravity(net, eps_grid=grid))
    assert revenue.sum() > 0
    rows = segregation_inequality_report(events, table, assign_groups(table, k=8),
                                         fractions=(0.5,), replicates=2,
                                         jackknife_replicates=2, eps_grid=grid)
    assert len(rows) == 3
    assert purchase_profiles(events).count.sum() == len(log)
