import numpy as np
import pytest

from segflow.models import (GravityParams, adjust_gravity_amounts,
                            fit_gravity, null_shuffle_ses, purchase_arrays,
                            reshuffle_locations, simulate_gravity)
from segflow.network import (InteractionNetwork, build_purchase_network,
                             centroid_distances, population_weight)
from segflow.segregation import assign_groups, assortativity, mixing_matrix
from segflow import synth

from conftest import make_table, purchase, purchase_log


@pytest.fixture(scope="module")
def geometry():
    table, _ = synth.synthetic_geometry(49, extent_km=20.0, seed=0)
    rng = np.random.default_rng(4)
    return table, centroid_distances(table), rng.integers(20, 200, 49), rng.integers(10, 120, 49)


def raw_net(W, table, channel="purchase"):
    return InteractionNetwork(nodes=list(table.ids), W=np.asarray(W, float),
                              channel=channel, weighting="raw",
                              population=table.population, ses=table.ses)


class TestFitGravity:
    def test_noiseless_round_trip(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=0.25, beta1=0.76, beta2=0.6, epsilon=0.233, alpha=0.92)
        sim = simulate_gravity(planted, dist, n_o, n_d, table)
        fit = fit_gravity(sim, dist, n_o, n_d,
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
        sim = simulate_gravity(planted, dist, n_o, n_d, table)
        assert np.allclose(sim.W, 3.5)
        fit = fit_gravity(sim, dist, n_o, n_d)
        assert fit.beta1 == pytest.approx(0.0, abs=1e-8)
        assert fit.beta2 == pytest.approx(0.0, abs=1e-8)
        assert fit.alpha == pytest.approx(0.0, abs=1e-8)
        assert fit.c == pytest.approx(3.5, rel=1e-6)

    def test_noisy_round_trip_exponents(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=0.5, beta1=0.7, beta2=0.8, epsilon=0.3, alpha=0.9)
        sim = simulate_gravity(planted, dist, n_o, n_d, table)
        rng = np.random.default_rng(8)
        noisy = raw_net(sim.W * np.exp(0.1 * rng.standard_normal(sim.W.shape)), table)
        fit = fit_gravity(noisy, dist, n_o, n_d)
        for got, want in ((fit.beta1, 0.7), (fit.beta2, 0.8), (fit.alpha, 0.9)):
            assert abs(got / want - 1.0) < 0.05

    def test_too_few_positive_entries(self, geometry):
        table, dist, n_o, n_d = geometry
        W = np.zeros((49, 49))
        W[0, :10] = 1.0
        with pytest.raises(ValueError, match="too few"):
            fit_gravity(raw_net(W, table), dist, n_o, n_d)

    def test_collinear_regressors_report_condition(self, geometry):
        table, dist, _, n_d = geometry
        uniform = np.full(49, 50)  # log origin mass constant -> collinear with intercept
        planted = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.2, alpha=0.5)
        sim = simulate_gravity(planted, dist, uniform, n_d, table)
        with pytest.raises(ValueError, match="collinear"):
            fit_gravity(sim, dist, uniform, n_d)

    def test_zero_flow_pairs_excluded(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=0.3, beta1=0.6, beta2=0.7, epsilon=0.25, alpha=0.8)
        sim = simulate_gravity(planted, dist, n_o, n_d, table)
        W = sim.W.copy()
        W[2, :] = 0.0  # knocked-out row must not break the log
        fit = fit_gravity(raw_net(W, table), dist, n_o, n_d,
                          eps_grid=np.round(np.arange(0.2, 0.3, 0.001), 10))
        assert fit.zero_pairs_excluded == 49
        assert fit.beta1 == pytest.approx(planted.beta1, rel=1e-6)

    def test_explicit_weight_matrix(self, geometry):
        table, dist, n_o, n_d = geometry
        planted = GravityParams(c=0.3, beta1=0.6, beta2=0.7, epsilon=0.25, alpha=0.8)
        sim = simulate_gravity(planted, dist, n_o, n_d, table)
        fit = fit_gravity(sim, dist, n_o, n_d, weight_matrix=np.ones_like(sim.W),
                          eps_grid=[0.25])
        assert fit.beta1 == pytest.approx(planted.beta1, rel=1e-6)

    def test_linear_distance_variant(self, geometry):
        table, dist, n_o, n_d = geometry
        # plant the exponential-distance form the flag reproduces
        W = 0.8 * np.outer(n_o ** 0.5, n_d ** 0.4) * np.exp(-0.07 * dist)
        fit = fit_gravity(raw_net(W, table), dist, n_o, n_d, linear_distance=True)
        assert fit.alpha == pytest.approx(0.07, rel=1e-6)
        assert fit.epsilon == 0.0
        assert fit.linear_distance


class TestSimulateGravity:
    def test_doubling_c_doubles_flows_r_unchanged(self, geometry):
        table, dist, n_o, n_d = geometry
        base = GravityParams(c=0.5, beta1=0.7, beta2=0.8, epsilon=0.3, alpha=0.9)
        double = GravityParams(c=1.0, beta1=0.7, beta2=0.8, epsilon=0.3, alpha=0.9)
        sim1 = simulate_gravity(base, dist, n_o, n_d, table)
        sim2 = simulate_gravity(double, dist, n_o, n_d, table)
        assert np.allclose(sim2.W, 2.0 * sim1.W)
        groups = assign_groups(table, k=7)
        r1 = assortativity(mixing_matrix(sim1, groups, allow_raw=True))
        r2 = assortativity(mixing_matrix(sim2, groups, allow_raw=True))
        assert abs(r1 - r2) <= 1e-12

    def test_everywhere_positive(self, geometry):
        table, dist, n_o, n_d = geometry
        params = GravityParams(c=0.249, beta1=0.762, beta2=0.598, epsilon=0.233, alpha=0.918)
        sim = simulate_gravity(params, dist, n_o, n_d, table)
        assert np.all(np.isfinite(sim.W))
        assert np.all(sim.W > 0)
        assert sim.simulated and sim.weighting == "raw"

    def test_zero_eps_zero_distance_errors(self, geometry):
        table, dist, n_o, n_d = geometry
        params = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.0, alpha=0.5)
        with pytest.raises(ValueError, match="distance singularity"):
            simulate_gravity(params, dist, n_o, n_d, table)

    def test_alpha_zero_distance_free(self, geometry):
        table, dist, n_o, n_d = geometry
        params = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.5, alpha=0.0)
        sim = simulate_gravity(params, dist, n_o, n_d, table)
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
        dist = centroid_distances(table)
        params = GravityParams(c=1.0, beta1=0.7, beta2=0.6, epsilon=0.5, alpha=0.0)
        sim = simulate_gravity(params, dist, n_o, n_d, table)
        weighted = population_weight(sim, table, user_counts=n_o)
        groups = assign_groups(table, k=10)
        r = assortativity(mixing_matrix(weighted, groups))
        null = null_shuffle_ses(weighted, table, replicates=100, seed=2)
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
        return InteractionNetwork(nodes=list(table.ids), W=W, channel="purchase",
                                  weighting="population_weighted",
                                  population=table.population, ses=table.ses), table

    def test_seed_determinism(self):
        net, table = self._weighted_city()
        d1 = null_shuffle_ses(net, table, replicates=30, seed=5, k=4)
        d2 = null_shuffle_ses(net, table, replicates=30, seed=5, k=4)
        assert np.array_equal(d1.r_values, d2.r_values)
        assert np.array_equal(d1.bias_values, d2.bias_values)
        d3 = null_shuffle_ses(net, table, replicates=30, seed=6, k=4)
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
        net = InteractionNetwork(nodes=list(table.ids), W=W, channel="purchase",
                                 weighting="population_weighted",
                                 population=table.population, ses=table.ses)
        dist = null_shuffle_ses(net, table, replicates=200, seed=1, k=10)
        assert abs(dist.r_mean) <= 3.0 * dist.r_std / np.sqrt(200)
        assert abs(dist.bias_mean) <= 3.0 * dist.bias_std / np.sqrt(200)

    def test_replicate_count_and_validation(self):
        net, table = self._weighted_city()
        dist = null_shuffle_ses(net, table, replicates=17, seed=0, k=4)
        assert len(dist.r_values) == 17
        with pytest.raises(ValueError):
            null_shuffle_ses(net, table, replicates=0)


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
        sim = InteractionNetwork(nodes=list(table.ids), W=emp.W / 2.0,
                                 channel="purchase", weighting="raw")
        revenue = adjust_gravity_amounts(purchase_arrays(log, table), emp, sim)
        # each of the four 10-unit amounts is doubled (w=4, w_hat=2)
        assert revenue[1] == pytest.approx(80.0)

    def test_brute_force_total(self):
        events, table, net, arrays = self._setup()
        rng = np.random.default_rng(31)
        sim_W = net.W * rng.uniform(0.5, 2.0, net.W.shape)
        sim = InteractionNetwork(nodes=list(table.ids), W=sim_W,
                                 channel="purchase", weighting="raw")
        revenue = adjust_gravity_amounts(arrays, net, sim)
        oracle = 0.0
        for e in events:
            i, j = table.index[e.customer_home], table.index[e.store_neighborhood]
            oracle += e.amount * net.W[i, j] / sim_W[i, j]
        assert revenue.sum() == pytest.approx(oracle, rel=1e-12)

    def test_inverse_direction(self):
        _, table, net, arrays = self._setup()
        sim = InteractionNetwork(nodes=list(table.ids), W=net.W * 2.0,
                                 channel="purchase", weighting="raw")
        default = adjust_gravity_amounts(arrays, net, sim)
        inverse = adjust_gravity_amounts(arrays, net, sim, direction="simulated_over_actual")
        assert np.allclose(default * 4.0, inverse)

    def test_zero_simulated_flow_errors(self):
        _, table, net, arrays = self._setup()
        sim = InteractionNetwork(nodes=list(table.ids), W=np.zeros_like(net.W),
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
    dist = centroid_distances(table)
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
        sim = simulate_gravity(planted, dist, n_o, n_d, table)
        fit = fit_gravity(sim, dist, n_o, n_d, eps_grid=grid)
        for got, want in ((fit.c, c), (fit.beta1, b1), (fit.beta2, b2),
                          (fit.epsilon, eps), (fit.alpha, alpha)):
            assert abs(got / want - 1.0) < 0.01
