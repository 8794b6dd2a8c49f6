from dataclasses import replace

import numpy as np
import pytest

from segflow.ingest import filter_active_customers
from segflow.models import (GravityParams, adjust_gravity_amounts,
                            fit_gravity, null_shuffle_ses, purchase_arrays,
                            reshuffle_locations, simulate_gravity)
from segflow.network import (Flows, InteractionNetwork, build_purchase_network,
                             centroid_distances, population_weight)
from segflow.segregation import (assign_groups, assortativity, mixing_from_matrix,
                                 mixing_matrix)
from segflow import synth

from conftest import gravity_net, make_table, purchase, purchase_log


@pytest.fixture(scope="module")
def geometry():
    table, _ = synth.synthetic_geometry(49, extent_km=20.0, seed=0)
    rng = np.random.default_rng(4)
    return table, centroid_distances(table), rng.integers(20, 200, 49), rng.integers(10, 120, 49)


class TestFitGravity:
    def test_noiseless_round_trip(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=0.25, beta1=0.76, beta2=0.6, epsilon=0.233, alpha=0.92)
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        fit = fit_gravity(sim,
                          eps_grid=np.round(np.arange(0.0, 0.5, 0.001), 10))
        assert fit.c == pytest.approx(planted.c, rel=1e-6)
        assert fit.beta1 == pytest.approx(planted.beta1, rel=1e-6)
        assert fit.beta2 == pytest.approx(planted.beta2, rel=1e-6)
        assert fit.epsilon == pytest.approx(planted.epsilon, abs=1e-9)
        assert fit.alpha == pytest.approx(planted.alpha, rel=1e-6)
        assert fit.r2_weighted == pytest.approx(1.0, abs=1e-9)

    def test_constant_model(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=3.5, beta1=0.0, beta2=0.0, epsilon=0.1, alpha=0.0)
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        assert np.allclose(sim.W, 3.5)
        fit = fit_gravity(sim)
        assert fit.beta1 == pytest.approx(0.0, abs=1e-8)
        assert fit.beta2 == pytest.approx(0.0, abs=1e-8)
        assert fit.alpha == pytest.approx(0.0, abs=1e-8)
        assert fit.c == pytest.approx(3.5, rel=1e-6)

    def test_noisy_round_trip_exponents(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=0.5, beta1=0.7, beta2=0.8, epsilon=0.3, alpha=0.9)
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        rng = np.random.default_rng(8)
        noisy = replace(sim, flows=Flows.from_matrix(
            sim.W * np.exp(0.1 * rng.standard_normal(sim.W.shape))))
        fit = fit_gravity(noisy)
        for got, want in ((fit.beta1, 0.7), (fit.beta2, 0.8), (fit.alpha, 0.9)):
            assert abs(got / want - 1.0) < 0.05

    def test_too_few_positive_entries(self, geometry):
        table, dist, n_o, n_d = geometry
        W = np.zeros((49, 49))
        W[0, :10] = 1.0
        with pytest.raises(ValueError, match="too few"):
            fit_gravity(gravity_net(table, n_o, n_d, W))

    def test_collinear_regressors_report_condition(self, geometry):
        table, dist, _, n_d = geometry
        uniform = np.full(49, 50)  # log origin mass constant -> collinear with intercept
        planted = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.2, alpha=0.5)
        sim = simulate_gravity(planted, gravity_net(table, uniform, n_d))
        with pytest.raises(ValueError, match="collinear"):
            fit_gravity(sim)

    def test_zero_flow_pairs_excluded(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=0.3, beta1=0.6, beta2=0.7, epsilon=0.25, alpha=0.8)
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        W = sim.W.copy()
        W[2, :] = 0.0  # knocked-out row must not break the log
        fit = fit_gravity(gravity_net(table, n_o, n_d, W),
                          eps_grid=np.round(np.arange(0.2, 0.3, 0.001), 10))
        assert fit.zero_pairs_excluded == 49
        assert fit.beta1 == pytest.approx(planted.beta1, rel=1e-6)

    def test_linear_distance_variant(self, geometry):
        table, dist, n_o, n_d = geometry
        # plant the exponential-distance form the flag reproduces
        W = 0.8 * np.outer(n_o ** 0.5, n_d ** 0.4) * np.exp(-0.07 * dist)
        fit = fit_gravity(gravity_net(table, n_o, n_d, W), linear_distance=True)
        assert fit.alpha == pytest.approx(0.07, rel=1e-6)
        assert fit.epsilon == 0.0
        assert fit.linear_distance

    def test_nan_and_negative_flows_refused(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=0.3, beta1=0.6, beta2=0.7, epsilon=0.25, alpha=0.8)
        W = simulate_gravity(planted, gravity_net(table, n_o, n_d)).W.copy()
        W[3, 4], W[5, 6] = np.nan, -5.0
        with pytest.raises(ValueError, match="^flows must be finite and non-negative$"):
            fit_gravity(gravity_net(table, n_o, n_d, W))


    @pytest.mark.parametrize("grid", [[-0.5, 0.0, 0.5], [np.nan], [0.1, np.inf]],
                             ids=["negative", "nan", "inf"])
    def test_negative_or_non_finite_eps_refused(self, geometry, grid):
        """With no self-flow every T + eps was positive at eps = -0.5, so the
        fit could pick it and then fail in ``GravityParams``."""
        table, _, n_o, n_d = geometry
        planted = GravityParams(c=0.3, beta1=0.6, beta2=0.7, epsilon=0.25, alpha=0.8)
        W = simulate_gravity(planted, gravity_net(table, n_o, n_d)).W
        np.fill_diagonal(W, 0.0)
        with pytest.raises(ValueError, match="^eps_grid values must be finite and non-negative$"):
            fit_gravity(gravity_net(table, n_o, n_d, W), eps_grid=grid)

    def test_eps_at_an_end_of_the_grid_logged(self, geometry, caplog):
        """The best offset may lie beyond a grid whose end the fit picks."""
        table, _, n_o, n_d = geometry
        planted = GravityParams(c=0.25, beta1=0.76, beta2=0.6, epsilon=0.233, alpha=0.92)
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        for grid, chosen, logged in (([0.2, 0.233, 0.3], 0.233, False),
                                     ([0.3, 0.4, 0.5], 0.3, True),
                                     ([0.05, 0.1, 0.15], 0.15, True)):
            caplog.clear()
            with caplog.at_level("INFO", logger="segflow.models"):
                assert fit_gravity(sim, eps_grid=grid).epsilon == chosen
            message = f"gravity fit of purchase flows: eps {chosen:g} is at an end of its grid"
            assert (message in caplog.text) == logged


class TestGravityMasses:
    """The fit and the simulation read their masses from the network: users
    at the origin, stores (purchases) or users (mentions) at the destination."""

    PLANTED = GravityParams(c=0.4, beta1=0.7, beta2=0.5, epsilon=0.2, alpha=0.9)
    GRID = np.round(np.arange(0.1, 0.3, 0.01), 10)

    def test_mention_network_uses_user_counts_at_both_ends(self, geometry):
        table, dist, n_o, _ = geometry
        mention = gravity_net(table, n_o, None, channel="mention")
        sim = simulate_gravity(self.PLANTED, mention)
        assert np.allclose(sim.W, 0.4 * np.outer(n_o ** 0.7, n_o ** 0.5) * (dist + 0.2) ** -0.9)
        fit = fit_gravity(sim, eps_grid=self.GRID)
        same = fit_gravity(replace(sim, channel="purchase", store_counts=n_o),
                           eps_grid=self.GRID)
        assert fit.channel == "mention"
        assert (fit.c, fit.beta1, fit.beta2, fit.epsilon, fit.alpha) == (
            same.c, same.beta1, same.beta2, same.epsilon, same.alpha)
        assert fit.beta2 == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize("missing", ["user_counts", "store_counts"])
    def test_purchase_network_without_counts_refused(self, geometry, missing):
        table, dist, n_o, n_d = geometry
        sim = simulate_gravity(self.PLANTED, gravity_net(table, n_o, n_d))
        net = replace(sim, **{missing: None})
        message = ("^the gravity model needs the network's user counts "
                   "and, for purchases, its store counts$")
        with pytest.raises(ValueError, match=message):
            fit_gravity(net)
        with pytest.raises(ValueError, match=message):
            simulate_gravity(self.PLANTED, net)

    def test_simulation_keeps_the_modelled_network(self, geometry):
        table, dist, n_o, n_d = geometry
        net = replace(gravity_net(table, n_o, n_d), dropped_events=7)
        sim = simulate_gravity(self.PLANTED, net)
        assert sim.user_counts is net.user_counts
        assert sim.store_counts is net.store_counts
        assert sim.table is net.table
        assert sim.simulated and sim.weighting == "raw" and sim.dropped_events == 0


class TestSimulateGravity:
    def test_doubling_c_doubles_flows_r_unchanged(self, geometry):
        table, dist, n_o, n_d = geometry
        base = GravityParams(c=0.5, beta1=0.7, beta2=0.8, epsilon=0.3, alpha=0.9)
        double = GravityParams(c=1.0, beta1=0.7, beta2=0.8, epsilon=0.3, alpha=0.9)
        sim1 = simulate_gravity(base, gravity_net(table, n_o, n_d))
        sim2 = simulate_gravity(double, gravity_net(table, n_o, n_d))
        assert np.allclose(sim2.W, 2.0 * sim1.W)
        groups = assign_groups(table, k=7)
        r1 = assortativity(mixing_from_matrix(sim1.W, groups))
        r2 = assortativity(mixing_from_matrix(sim2.W, groups))
        assert abs(r1 - r2) <= 1e-12

    def test_everywhere_positive(self, geometry):
        table, dist, n_o, n_d = geometry
        params = GravityParams(c=0.249, beta1=0.762, beta2=0.598, epsilon=0.233, alpha=0.918)
        sim = simulate_gravity(params, gravity_net(table, n_o, n_d))
        assert np.all(np.isfinite(sim.W))
        assert np.all(sim.W > 0)
        assert sim.simulated and sim.weighting == "raw"

    def test_zero_eps_zero_distance_errors(self, geometry):
        table, dist, n_o, n_d = geometry
        params = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.0, alpha=0.5)
        with pytest.raises(ValueError, match="distance singularity"):
            simulate_gravity(params, gravity_net(table, n_o, n_d))

    def test_alpha_zero_distance_free(self, geometry):
        table, dist, n_o, n_d = geometry
        params = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.5, alpha=0.0)
        sim = simulate_gravity(params, gravity_net(table, n_o, n_d))
        expected = np.outer(n_o ** 0.5, n_d ** 0.5)
        assert np.allclose(sim.W, expected)

    def test_alpha_zero_gives_null_level_assortativity(self):
        # with no distance decay and SES drawn independently of the grid,
        # simulated flows carry no status signal
        table, _ = synth.synthetic_geometry(100, extent_km=30.0,
                                            ses_field="random", seed=3)
        rng = np.random.default_rng(12)
        n_o = rng.integers(20, 200, 100)
        n_d = rng.integers(10, 120, 100)
        params = GravityParams(c=1.0, beta1=0.7, beta2=0.6, epsilon=0.5, alpha=0.0)
        sim = simulate_gravity(params, gravity_net(table, n_o, n_d))
        weighted = population_weight(sim)  # sim carries n_o as its user counts
        groups = assign_groups(table, k=10)
        r = assortativity(mixing_matrix(weighted, groups))
        null = null_shuffle_ses(weighted, groups, replicates=100, seed=2)
        assert abs(r - null.r_mean) <= 3.0 * null.r_std

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GravityParams(c=0.0, beta1=1, beta2=1, epsilon=0.1, alpha=1)
        with pytest.raises(ValueError):
            GravityParams(c=1.0, beta1=1, beta2=1, epsilon=-0.1, alpha=1)


class TestNullShuffle:
    def _weighted_city(self):
        rng = np.random.default_rng(19)
        table = make_table(40, ses=rng.uniform(0, 100, 40))
        W = rng.poisson(2.0, (40, 40)).astype(float)
        np.fill_diagonal(W, 0.0)
        net = InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel="purchase",
                                 weighting="population_weighted")
        return net, assign_groups(table, k=4)

    def test_seed_determinism(self):
        net, groups = self._weighted_city()
        d1 = null_shuffle_ses(net, groups, replicates=30, seed=5)
        d2 = null_shuffle_ses(net, groups, replicates=30, seed=5)
        assert np.array_equal(d1.r_values, d2.r_values)
        assert np.array_equal(d1.bias_values, d2.bias_values)
        d3 = null_shuffle_ses(net, groups, replicates=30, seed=6)
        assert not np.array_equal(d1.r_values, d3.r_values)

    def test_mean_r_and_bias_near_zero(self):
        # the permutation null carries a small negative offset of the order
        # of the node-strength concentration, so centering needs flows that
        # are lumpy per pair relative to per node: many nodes, few heavy
        # edges each
        rng = np.random.default_rng(77)
        n = 300
        table = make_table(n, ses=rng.uniform(0, 100, n))
        W = np.zeros((n, n))
        rows = rng.integers(0, n, 1500)
        cols = rng.integers(0, n, 1500)
        offdiag = rows != cols
        W[rows[offdiag], cols[offdiag]] += rng.integers(1, 4, offdiag.sum())
        net = InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel="purchase",
                                 weighting="population_weighted")
        dist = null_shuffle_ses(net, assign_groups(table, k=10), replicates=200, seed=1)
        assert abs(dist.r_mean) <= 3.0 * dist.r_std / np.sqrt(200)
        assert abs(dist.bias_mean) <= 3.0 * dist.bias_std / np.sqrt(200)

    def test_replicate_count_and_validation(self):
        net, groups = self._weighted_city()
        dist = null_shuffle_ses(net, groups, replicates=17, seed=0)
        assert len(dist.r_values) == 17
        with pytest.raises(ValueError):
            null_shuffle_ses(net, groups, replicates=0)

    def test_discarded_replicates_logged(self, caplog):
        # flow only between N00 and N01: a permutation that gives both the
        # same group leaves one group on each side, a degenerate replicate
        table = make_table(4)
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        net = InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel="purchase",
                                 weighting="population_weighted")
        with caplog.at_level("INFO", logger="segflow.models"):
            dist = null_shuffle_ses(net, assign_groups(table, k=2), replicates=30, seed=0)
        assert 0 < dist.discarded < 30
        assert f"discarded {dist.discarded} of 30 replicates" in caplog.text


class TestReshuffle:
    def _events(self):
        rng = np.random.default_rng(23)
        table = make_table(6, ses=np.arange(6, dtype=float))
        events = []
        for k in range(300):
            c, s, h, loc = rng.integers(30), rng.integers(20), rng.integers(6), rng.integers(6)
            events.append(purchase(f"C{c}-N{h}", f"S{s}-N{loc}", f"N{h:02d}", f"N{loc:02d}",
                                   amount=float(rng.uniform(1, 50))))
        return purchase_log(events), table

    def test_tiny_fraction_selects_nothing(self):
        events, table = self._events()
        arrays = purchase_arrays(events, table)
        reps = reshuffle_locations(arrays, fraction=0.001, replicates=3, seed=0)
        for rep in reps:
            assert np.array_equal(rep.W, build_purchase_network(events, table).W)
            assert np.allclose(rep.revenue, arrays.revenue())

    def test_amount_and_count_conservation(self):
        events, table = self._events()
        arrays = purchase_arrays(events, table)
        total = arrays.ev_amount.sum()
        base_stores = np.bincount(arrays.loc_of_store, minlength=6)
        base_cust = np.bincount(arrays.home_of_customer, minlength=6)
        for fraction in (0.2, 0.6, 1.0):
            for rep in reshuffle_locations(arrays, fraction, replicates=5, seed=2):
                assert rep.revenue.sum() == pytest.approx(total, rel=1e-12)
                assert rep.W.sum() == len(arrays.ev_amount)
                assert np.array_equal(np.bincount(rep.loc, minlength=6), base_stores)
                assert np.array_equal(np.bincount(rep.home, minlength=6), base_cust)

    def test_seed_determinism(self):
        arrays = purchase_arrays(*self._events())
        a = reshuffle_locations(arrays, 0.5, replicates=4, seed=9)
        b = reshuffle_locations(arrays, 0.5, replicates=4, seed=9)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.W, rb.W)

    def test_fraction_validation(self):
        arrays = purchase_arrays(*self._events())
        with pytest.raises(ValueError):
            reshuffle_locations(arrays, 0.0)
        with pytest.raises(ValueError):
            reshuffle_locations(arrays, 1.5)

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_replicate_count_validation(self, replicates):
        with pytest.raises(ValueError, match="replicates"):
            reshuffle_locations(purchase_arrays(*self._events()), 0.5, replicates=replicates)


class TestAdjustAmounts:
    def _setup(self):
        table = make_table(3, ses=[1.0, 2.0, 3.0])
        events = ([purchase("C1", "S1", "N00", "N01", amount=10.0)] * 4
                  + [purchase("C2", "S2", "N01", "N02", amount=5.0)] * 2)
        net = build_purchase_network(purchase_log(events), table)
        return events, table, net, purchase_arrays(purchase_log(events), table)

    def test_identical_networks_identity(self):
        _, table, net, arrays = self._setup()
        revenue = adjust_gravity_amounts(arrays, net, net)
        oracle = np.zeros(3)
        oracle[1] = 40.0
        oracle[2] = 10.0
        assert np.allclose(revenue, oracle)

    def test_single_pair_plug_in(self):
        table = make_table(2)
        log = purchase_log([purchase("C1", "S1", "N00", "N01", amount=10.0)] * 4)
        emp = build_purchase_network(log, table)
        sim = InteractionNetwork(table=table, flows=Flows.from_matrix(emp.W / 2.0),
                                 channel="purchase", weighting="raw")
        revenue = adjust_gravity_amounts(purchase_arrays(log, table), emp, sim)
        # each of the four 10-unit amounts is doubled (w=4, w_hat=2)
        assert revenue[1] == pytest.approx(80.0)

    def test_brute_force_total(self):
        events, table, net, arrays = self._setup()
        rng = np.random.default_rng(31)
        sim_W = net.W * rng.uniform(0.5, 2.0, net.W.shape)
        sim = InteractionNetwork(table=table, flows=Flows.from_matrix(sim_W),
                                 channel="purchase", weighting="raw")
        revenue = adjust_gravity_amounts(arrays, net, sim)
        oracle = 0.0
        for e in events:
            i, j = table.index[e.customer_home], table.index[e.store_neighborhood]
            oracle += e.amount * net.W[i, j] / sim_W[i, j]
        assert revenue.sum() == pytest.approx(oracle, rel=1e-12)

    def test_inverse_direction(self):
        _, table, net, arrays = self._setup()
        sim = InteractionNetwork(table=table, flows=Flows.from_matrix(net.W * 2.0),
                                 channel="purchase", weighting="raw")
        default = adjust_gravity_amounts(arrays, net, sim)
        inverse = adjust_gravity_amounts(arrays, net, sim, direction="simulated_over_actual")
        assert np.allclose(default * 4.0, inverse)

    def test_zero_simulated_flow_errors(self):
        _, table, net, arrays = self._setup()
        sim = InteractionNetwork(table=table, flows=Flows.from_matrix(np.zeros_like(net.W)),
                                 channel="purchase", weighting="raw")
        with pytest.raises(ValueError, match="zero on a pair"):
            adjust_gravity_amounts(arrays, net, sim)

    def test_unknown_direction(self):
        _, table, net, arrays = self._setup()
        with pytest.raises(ValueError, match="direction"):
            adjust_gravity_amounts(arrays, net, net, direction="sideways")


def test_reference_parameter_sets_round_trip():
    """Noiseless generate-then-fit recovers each reference parameter set."""
    table, _ = synth.synthetic_geometry(64, extent_km=24.0, seed=1)
    rng = np.random.default_rng(6)
    n_o = rng.integers(20, 200, 64)
    n_d = rng.integers(10, 120, 64)
    sets = [
        (0.249, 0.762, 0.598, 0.233, 0.918),
        (0.119, 0.594, 0.541, 0.029, 0.582),
        (0.231, 0.681, 0.824, 1.026, 1.058),
        (0.085, 0.493, 0.829, 0.298, 0.633),
        (7.941, 0.276, 0.353, 0.330, 0.837),
    ]
    grid = np.round(np.arange(0.0, 1.2, 0.001), 10)
    for c, b1, b2, eps, alpha in sets:
        planted = GravityParams(c=c, beta1=b1, beta2=b2, epsilon=eps, alpha=alpha)
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        fit = fit_gravity(sim, eps_grid=grid)
        for got, want in ((fit.c, c), (fit.beta1, b1), (fit.beta2, b2),
                          (fit.epsilon, eps), (fit.alpha, alpha)):
            assert abs(got / want - 1.0) < 0.01


def test_event_fit_attenuates_planted_law():
    """Pins the fit of event-sampled flows next to the law the city plants.

    Least squares on logs drops every zero pair and takes the log of counts
    of 1-3, which attenuates every exponent (Santos Silva and Tenreyro, The
    Log of Gravity, 2006).  On a 64-neighborhood ``neutral`` city, where the
    planted law is the only structure, the fit recovers 52-65% of each; a
    change of estimator has to change these numbers on purpose."""
    cfg = synth.preset("neutral", seed=7, n_neighborhoods=64, n_purchase_events=6000,
                       n_mention_events=4000, n_customers=300, n_stores=200,
                       n_twitter_users=300)
    city = synth.generate_city(cfg)
    fit = fit_gravity(build_purchase_network(filter_active_customers(city.purchases, 10),
                                             city.table))
    law = cfg.purchase_gravity
    assert (law.beta1, law.beta2, law.alpha, law.epsilon) == (0.8, 0.7, 0.6, 0.5)
    assert fit.beta1 == pytest.approx(0.5214837422300146, rel=1e-9)
    assert fit.beta2 == pytest.approx(0.4316555458621591, rel=1e-9)
    assert fit.alpha == pytest.approx(0.35415404688603186, rel=1e-9)
    assert fit.epsilon == 0.0   # the first value of the default grid
