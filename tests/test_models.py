from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from segflow.ingest import filter_active_customers
from segflow.models import (_COND_LIMIT, GravityParams, _law, adjust_gravity_amounts,
                            fit_gravity, null_shuffle_ses, purchase_arrays,
                            reshuffle_locations, simulate_gravity)
from segflow.network import (_BLOCK_EDGES, Flows, InteractionNetwork, build_purchase_network,
                             centroid_distances, haversine_km, population_weight)
from segflow.segregation import (assign_groups, assortativity, mixing_from_matrix,
                                 mixing_matrix)
from segflow import models, synth

from conftest import (gravity_net, make_table, preset_table, purchase, purchase_log,
                      simulated_args)


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

    def test_collinear_regressors_refused(self, geometry):
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
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        W = sim.W.copy()
        W[3, 4], W[5, 6] = np.nan, -5.0
        with pytest.raises(ValueError, match="^flows must be finite and positive$"):
            fit_gravity(gravity_net(table, n_o, n_d, W))
        # an explicit zero edge, which no builder makes, has no log either
        weight = sim.flows.weight.copy()
        weight[3] = 0.0
        with pytest.raises(ValueError, match="^flows must be finite and positive$"):
            fit_gravity(replace(sim, flows=replace(sim.flows, weight=weight)))


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


# A 5 x 5 grid city with 0.5 km cells, and eps values from 0 to the far end
# of the default grid.
FIT_TABLE = synth.synthetic_geometry(25, extent_km=2.5, seed=0)[0]
EPS_VALUES = [0.0, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0]


@st.composite
def fit_case(draw):
    """A network over ``FIT_TABLE`` and an eps grid.  Flows follow a planted
    law with noise on a random subset of pairs; self-flows put edges at zero
    distance; masses may be 1 but for a few at 1 + delta, whose log columns
    are then close to zero, so that the normal equations come near the
    condition limit or pass it, depending on eps; the grid is unsorted,
    repeats values and holds values a few ulps apart, whose residuals are
    near-ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = FIT_TABLE.n
    delta = draw(st.sampled_from([None, 1e-3, 1e-5, 1e-6]))
    n_o, n_d = (rng.integers(1, 200, (2, n)) if delta is None else
                1 + delta * (rng.random((2, n)) < 0.1))
    planted = GravityParams(c=0.5, beta1=0.8, beta2=0.6, epsilon=0.3, alpha=0.9)
    W = simulate_gravity(planted, gravity_net(FIT_TABLE, n_o, n_d)).W
    W *= np.exp(draw(st.sampled_from([0.01, 0.5, 2.0])) * rng.standard_normal((n, n)))
    W *= rng.random((n, n)) < draw(st.floats(0.1, 1.0))
    if not draw(st.booleans()):
        np.fill_diagonal(W, 0.0)
    base = draw(st.lists(st.sampled_from(EPS_VALUES) | st.floats(0.001, 3.0), min_size=1,
                         max_size=6))
    near = [v + k * np.spacing(v) for v, k in draw(st.lists(
        st.tuples(st.sampled_from(base), st.integers(1, 64)), max_size=6)) if v > 0]
    grid = draw(st.permutations(base + near + draw(st.lists(st.sampled_from(base), max_size=3))))
    return gravity_net(FIT_TABLE, n_o, n_d, W), [float(v) for v in grid]


SINGULAR = "collinear regressors at every eps: singular normal equations"
ONLY_EPS_0 = ("no eps to fit: the grid holds only eps 0, and an edge has centroid distance "
              "0 km (a self-flow), where -log(distance + eps) is undefined")


def fit_at_each(net, grid) -> list[tuple[float, GravityParams | ValueError]]:
    """The fit of ``net`` at each value of ``grid`` alone, or its error."""
    fits = []
    for eps in grid:
        try:
            fits.append((eps, fit_gravity(net, eps_grid=[eps])))
        except ValueError as exc:
            fits.append((eps, exc))
    return fits


def exponential_decay_case():
    """Flows that fall off as exp(-0.003 T): -log(T + eps) approaches that
    form as eps grows, so the normal equations of eps 1000 to 5000 have
    condition numbers from 1e10 to 6e11, just under the limit, and residuals
    that differ by less than their rounding.  The grid must still pick what
    the single-eps fits pick."""
    rng = np.random.default_rng(1)
    n_o, n_d = rng.integers(1, 200, (2, FIT_TABLE.n))
    W = 0.5 * np.outer(n_o ** 0.8, n_d ** 0.6) * np.exp(
        -0.003 * centroid_distances(FIT_TABLE) + 1e-5 * rng.standard_normal((FIT_TABLE.n,) * 2))
    return gravity_net(FIT_TABLE, n_o, n_d, W), [100.0, 300.0, 1000.0, 2000.0, 3000.0, 5000.0]


@given(fit_case())
@example(exponential_decay_case())
@settings(max_examples=150, deadline=None)
def test_fit_is_the_first_least_residual_of_single_eps_fits(case):
    """A grid picks what fitting each of its values alone picks: the first
    eps of least residual, with the same parameters bit for bit, since both
    build and solve the same normal equations for each eps; with no
    solvable value, the error names the last one that failed, or eps 0
    and the zero distance when the grid holds only eps 0."""
    net, grid = case
    fits = fit_at_each(net, grid)
    solved = [(eps, fit) for eps, fit in fits if isinstance(fit, GravityParams)]
    if not solved:
        failed = [str(exc) for _, exc in fits if str(exc) != ONLY_EPS_0]
        with pytest.raises(ValueError) as whole:
            fit_gravity(net, eps_grid=grid)
        assert str(whole.value) == (failed[-1] if failed else ONLY_EPS_0)
        return
    least = min(fit.residual_norm for _, fit in solved)
    tied = [eps for eps, fit in solved if fit.residual_norm == least]
    fit = fit_gravity(net, eps_grid=grid)
    assert fit.residual_norm == least
    assert fit.as_dict() == dict(solved)[fit.epsilon].as_dict()
    # the first such eps, unless a later one's norm is equal and its residual smaller
    assert fit.epsilon == tied[0] or len(set(tied)) > 1


def test_all_singular_grid_keeps_its_message(geometry):
    """Constant origin masses are collinear with the intercept at every eps:
    the error says so, and names no condition number, which for exactly
    singular normal equations is rounding noise."""
    table, _, _, n_d = geometry
    planted = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.2, alpha=0.5)
    sim = simulate_gravity(planted, gravity_net(table, np.full(49, 50), n_d))
    for grid in ([0.2], [0.3, 0.0, 0.1, 0.2]):
        with pytest.raises(ValueError) as err:
            fit_gravity(sim, eps_grid=grid)
        assert str(err.value) == SINGULAR


@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.0]])
def test_eps_0_alone_on_a_self_flow_names_the_zero_distance(geometry, grid):
    """Simulated flows include each neighborhood's flow to itself, 0 km
    away, where eps 0 leaves -log(distance + eps) undefined: the error used
    to be "collinear regressors at every eps: None"."""
    table, _, n_o, n_d = geometry
    planted = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.2, alpha=0.5)
    sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
    assert np.any(sim.flows.origin == sim.flows.dest)
    with pytest.raises(ValueError) as err:
        fit_gravity(sim, eps_grid=grid)
    assert str(err.value) == ONLY_EPS_0
    assert fit_gravity(sim, eps_grid=[0.0, 0.2]).epsilon == 0.2


def test_empty_grid_refused(geometry):
    table, _, n_o, n_d = geometry
    planted = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.2, alpha=0.5)
    with pytest.raises(ValueError, match="^empty eps grid$"):
        fit_gravity(simulate_gravity(planted, gravity_net(table, n_o, n_d)), eps_grid=[])


def test_overflowing_c_refused():
    """Masses of 1000 and 1001 barely identify the mass exponents, so log c
    absorbs -beta1 * log 1000 and passes 709: the fit used to return c = inf
    after numpy's overflow warning."""
    n = FIT_TABLE.n
    rng = np.random.default_rng(19)
    n_o, n_d = (np.where(rng.random(n) < 0.1, 1001, 1000) for _ in range(2))
    planted = GravityParams(c=0.5, beta1=0.8, beta2=0.6, epsilon=0.3, alpha=0.9)
    W = simulate_gravity(planted, gravity_net(FIT_TABLE, n_o, n_d)).W
    W *= np.exp(0.1 * rng.standard_normal((n, n)))
    with pytest.raises(ValueError, match=r"^the fitted log c, 928\.\d+, overflows c$"):
        fit_gravity(gravity_net(FIT_TABLE, n_o, n_d, W), eps_grid=[0.001])


def lstsq_fit(net, eps, linear_distance) -> list[float]:
    """c, beta1, beta2, alpha and the residual norm of the fit at one eps,
    from its definition: least squares over the edges, each row of the log
    law scaled by the square root of its flow."""
    rows, cols, w = net.flows
    n_d = net.store_counts if net.channel == "purchase" else net.user_counts
    lat, lon = net.table.lat, net.table.lon
    T = haversine_km(lat[rows], lon[rows], lat[cols], lon[cols])
    X = np.column_stack([np.ones(len(w)), np.log(net.user_counts[rows]), np.log(n_d[cols]),
                         -T if linear_distance else -np.log(T + eps)])
    root = np.sqrt(w)
    beta, rss, rank, _ = np.linalg.lstsq(X * root[:, None], np.log(w) * root, rcond=None)
    assert rank == 4
    return [np.exp(beta[0]), *beta[1:], np.sqrt(rss[0])]


@pytest.mark.parametrize("linear_distance", [False, True], ids=["log", "linear"])
@pytest.mark.parametrize("channel", ["purchase", "mention"])
def test_fit_matches_weighted_lstsq_over_the_edges(geometry, channel, linear_distance):
    """The per-distance sums solve the same least-squares problem as the
    edges do: a noisy purchase network over 49 nodes with self-flows, and a
    sparse mention network over 25 nodes without them."""
    if channel == "purchase":
        table, _, n_o, n_d = geometry
        rng = np.random.default_rng(11)
    else:
        table, rng = FIT_TABLE, np.random.default_rng(12)
        n_o = n_d = rng.integers(5, 300, FIT_TABLE.n)
    planted = GravityParams(c=0.3, beta1=0.6, beta2=0.7, epsilon=0.25, alpha=0.8)
    W = simulate_gravity(planted, gravity_net(table, n_o, n_d, channel=channel)).W
    W *= np.exp(0.4 * rng.standard_normal(W.shape))
    if channel == "mention":
        W *= rng.random(W.shape) < 0.5
        np.fill_diagonal(W, 0.0)
    net = gravity_net(table, n_o, n_d, W, channel=channel)
    fit = fit_gravity(net, eps_grid=[0.25], linear_distance=linear_distance)
    assert fit.epsilon == (0.0 if linear_distance else 0.25)
    got = [fit.c, fit.beta1, fit.beta2, fit.alpha, fit.residual_norm]
    assert got == pytest.approx(lstsq_fit(net, 0.25, linear_distance), rel=1e-9, abs=0)


def block_net(n_blocks, masses="random", self_flows=False):
    """A noisy gravity network of ``n_blocks`` times ``_BLOCK_EDGES`` edges
    on random cells of the 400-node preset geometry.  ``masses`` "unit"
    makes every mass 1, whose log columns are 0; "steep" draws origin
    masses of e**10 or e**10.1 and thins the flows from the heavier ones
    by e**7.5, so that beta1 is near -74 and log c near 740."""
    table, rng = preset_table(400), np.random.default_rng(int(2 * n_blocks))
    cells = np.sort(rng.choice(table.n ** 2, size=int(n_blocks * _BLOCK_EDGES), replace=False))
    if self_flows:
        cells[:table.n] = np.arange(table.n) * (table.n + 1)
        cells.sort()
    o, d = np.divmod(cells, table.n)
    n_o, n_d = rng.integers(1, 200, (2, table.n))
    if masses == "unit":
        n_o = n_d = np.ones(table.n, dtype=np.int64)
    elif masses == "steep":
        n_o = np.where(rng.random(table.n) < 0.5, 22026, 24343)   # e**10, e**10.1
    law = GravityParams(c=0.5, beta1=0.8, beta2=0.6, epsilon=0.3, alpha=0.9)
    w = _law(law, gravity_net(table, n_o, n_d), o, d) * np.exp(0.4 * rng.standard_normal(len(o)))
    if masses == "steep":
        w[n_o[o] == 24343] *= np.exp(-7.5)
    return InteractionNetwork(table=table, flows=Flows(o, d, w, table.n), channel="purchase",
                              user_counts=n_o, store_counts=n_d)


def one_pass_fit(net, grid) -> dict:
    """The fit from its definition in one pass over all edges: each eps's
    normal equations from the weighted cross products of the edges' design
    rows (1, log n_o, log n_d, -log(T + eps)); the first least residual among
    those at most ``_COND_LIMIT`` in condition number, and the fit's errors."""
    rows, cols, w = net.flows
    lat, lon = net.table.lat, net.table.lon
    T = haversine_km(lat[rows], lon[rows], lat[cols], lon[cols])
    y = np.log(w)
    eps = [e for e in grid if T.min() + e > 0]
    if not eps:
        raise ValueError(ONLY_EPS_0)
    solved = []
    for e in eps:
        X = np.column_stack([np.ones(len(w)), np.log(net.user_counts[rows]),
                             np.log(net.store_counts[cols]), -np.log(T + e)])
        K, v = (X * w[:, None]).T @ X, X.T @ (w * y)
        if np.linalg.cond(K) <= _COND_LIMIT:
            beta = np.linalg.solve(K, v)
            solved.append((max(0.0, w @ y ** 2 - 2 * beta @ v + beta @ K @ beta), e, beta))
    if not solved:
        raise ValueError(SINGULAR)
    rss, e, beta = min(solved, key=lambda fit: fit[0])
    with np.errstate(over="ignore"):
        c = float(np.exp(beta[0]))
    if not np.isfinite(c):
        raise ValueError(f"the fitted log c, {beta[0]:.6g}, overflows c")
    tss = w @ (y - (w @ y) / w.sum()) ** 2
    return dict(c=c, beta1=beta[1], beta2=beta[2], epsilon=e, alpha=beta[3],
                r2_weighted=1 - rss / tss, residual_norm=np.sqrt(rss))


FIT_GRID = [0.0, 0.05, 0.3, 1.0]


@pytest.mark.parametrize("merge", ["batch", "every block"])
@pytest.mark.parametrize("n_blocks", [1, 3, 3.5])
def test_blocked_fit_matches_one_pass_normal_equations(n_blocks, merge, monkeypatch):
    """Summing the normal equations a block of edges at a time, and merging
    the blocks' distinct distances a batch at a time or after every block,
    moves each parameter by at most 1e-9 relative and picks the same eps."""
    if merge == "every block":
        monkeypatch.setattr(models, "_BLOCK_PAIRS", 1)
    net = block_net(n_blocks)
    assert net.flows.size == n_blocks * _BLOCK_EDGES
    expected, fit = one_pass_fit(net, FIT_GRID), fit_gravity(net, eps_grid=FIT_GRID).as_dict()
    assert fit["epsilon"] == expected.pop("epsilon")
    for name, value in expected.items():
        assert fit[name] == pytest.approx(value, rel=1e-9, abs=0), name


@pytest.mark.parametrize("masses, self_flows, grid", [
    ("unit", False, FIT_GRID), ("random", True, [0.0]), ("steep", False, FIT_GRID)],
    ids=["collinear", "only-eps-0", "overflowing-c"])
@pytest.mark.parametrize("n_blocks", [1, 3, 3.5])
def test_blocked_fit_keeps_the_one_pass_errors(n_blocks, masses, self_flows, grid):
    """Zero log-mass columns, eps 0 alone on a self-flow and an overflowing
    c raise the one-pass fit's errors, word for word."""
    net = block_net(n_blocks, masses, self_flows)
    with pytest.raises(ValueError) as expected:
        one_pass_fit(net, grid)
    with pytest.raises(ValueError) as got:
        fit_gravity(net, eps_grid=grid)
    assert str(got.value) == str(expected.value)


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
        r1 = assortativity(mixing_from_matrix(Flows.from_matrix(sim1.W), groups))
        r2 = assortativity(mixing_from_matrix(Flows.from_matrix(sim2.W), groups))
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

    def test_rules_hold_with_no_origin_mass(self, geometry):
        """With no origin mass no pair is evaluated, yet eps = 0 and a
        negative mass are still refused."""
        table, dist, _, n_d = geometry
        net = gravity_net(table, np.zeros(table.n, int), n_d)
        with pytest.raises(ValueError, match="distance singularity"):
            simulate_gravity(GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.0, alpha=0.5),
                             net)
        params = GravityParams(c=1.0, beta1=0.5, beta2=0.5, epsilon=0.5, alpha=0.5)
        assert simulate_gravity(params, net).flows.size == 0
        with pytest.raises(ValueError, match="^mass counts must be non-negative$"):
            simulate_gravity(params, replace(net, store_counts=-n_d))

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
        for c, epsilon, message in ((0.0, 0.1, "c must be positive and finite"),
                                    (np.inf, 0.1, "c must be positive and finite"),
                                    (np.nan, 0.1, "c must be positive and finite"),
                                    (1.0, -0.1, "epsilon must be non-negative and finite"),
                                    (1.0, np.nan, "epsilon must be non-negative and finite"),
                                    (1.0, np.inf, "epsilon must be non-negative and finite")):
            with pytest.raises(ValueError, match=message):
                GravityParams(c=c, beta1=1, beta2=1, epsilon=epsilon, alpha=1)


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

    def test_store_revenue_matches_event_sum(self):
        """Revenue sums each store's total once; summing every event gives
        the same to rounding, as placed and after relocation."""
        events, table = self._events()
        arrays = purchase_arrays(events, table)
        for rep in [None] + reshuffle_locations(arrays, 0.6, replicates=4, seed=5):
            loc = arrays.loc_of_store if rep is None else rep.loc
            by_event = np.bincount(loc[arrays.ev_store], weights=arrays.ev_amount,
                                   minlength=table.n)
            np.testing.assert_allclose(arrays.revenue(loc), by_event, rtol=1e-12, atol=0)
            if rep is not None:
                assert np.array_equal(rep.revenue, arrays.revenue(loc))

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


def _past_int32():
    """A 50,000-row table, whose cell keys ``origin * n + dest`` pass 2**31,
    the rows that its customers and stores live at, their (customer, store)
    pairs, and a log of one purchase a pair."""
    n = 50_000
    table = make_table(n, spacing_deg=1e-5)
    rows = [n - 1, n - 2, 46_341, 3]
    pairs = [(0, 1), (0, 1), (1, 0), (2, 3), (3, 2), (0, 0), (2, 1)]
    log = purchase_log([purchase(f"C{a}", f"S{b}", table.ids[rows[a]], table.ids[rows[b]],
                                 amount=1.0 + a + 2 * b) for a, b in pairs])
    return table, rows, pairs, log


def _past_int32_args():
    """A law, and the purchase network of ``_past_int32`` with masses of
    20-200 where its customers and stores live, so that a product of the
    law's factors taken in another order would round differently."""
    table, rows, _, log = _past_int32()
    net = build_purchase_network(log, table)
    users, stores = np.zeros((2, table.n), int)
    users[rows], stores[rows] = [37, 151, 88, 196], [64, 23, 119, 175]
    params = GravityParams(c=0.3, beta1=0.8, beta2=0.7, epsilon=0.5, alpha=0.6)
    return params, replace(net, user_counts=users, store_counts=stores)


@pytest.mark.parametrize("args", [simulated_args, _past_int32_args],
                         ids=["preset", "past int32"])
def test_law_at_edges_is_simulated_weights_bitwise(args):
    """``_law`` states the gravity law once: read at the edges that
    ``simulate_gravity`` fills a block of origins at a time, it gives their
    weights bit for bit, so the report's imposed flows read the very law
    its gravity row simulates."""
    params, net = args()
    f = simulate_gravity(params, net).flows
    assert f.size > 0
    for at in range(0, f.size, 1 << 16):     # the law's temporaries, a slice at a time
        edges = slice(at, at + (1 << 16))
        w_hat = _law(params, net, f.origin[edges], f.dest[edges])
        assert w_hat.tobytes() == f.weight[edges].tobytes()


class TestAdjustAmounts:
    def _setup(self):
        table = make_table(3, ses=[1.0, 2.0, 3.0])
        events = ([purchase("C1", "S1", "N00", "N01", amount=10.0)] * 4
                  + [purchase("C2", "S2", "N01", "N02", amount=5.0)] * 2)
        net = build_purchase_network(purchase_log(events), table)
        return events, table, net, purchase_arrays(purchase_log(events), table)

    @staticmethod
    def _flat(c, beta1=0.0):
        """A law with no distance decay: ``c * n_o**beta1``."""
        return GravityParams(c=c, beta1=beta1, beta2=0.0, epsilon=1.0, alpha=0.0)

    def test_identical_networks_identity(self):
        _, table, net, arrays = self._setup()
        # 2 * n_o is the observed flow on both pairs: 4 from N00, 2 from N01
        net = replace(net, user_counts=np.array([2, 1, 0]))
        revenue = adjust_gravity_amounts(arrays, net, self._flat(2.0, beta1=1.0))
        oracle = np.zeros(3)
        oracle[1] = 40.0
        oracle[2] = 10.0
        assert np.allclose(revenue, oracle)

    def test_single_pair_plug_in(self):
        table = make_table(2)
        log = purchase_log([purchase("C1", "S1", "N00", "N01", amount=10.0)] * 4)
        emp = build_purchase_network(log, table)
        revenue = adjust_gravity_amounts(purchase_arrays(log, table), emp, self._flat(8.0))
        # each of the four 10-unit amounts is doubled (w=4, w_hat=8)
        assert revenue[1] == pytest.approx(80.0)

    def test_brute_force_total(self):
        events, table, net, arrays = self._setup()
        net = replace(net, user_counts=np.array([3, 5, 0]), store_counts=np.array([0, 2, 7]))
        params = GravityParams(c=0.7, beta1=0.8, beta2=0.6, epsilon=0.3, alpha=1.1)
        revenue = adjust_gravity_amounts(arrays, net, params)
        dist = centroid_distances(table)
        oracle = 0.0
        for e in events:
            i, j = table.index[e.customer_home], table.index[e.store_neighborhood]
            w_hat = (0.7 * net.user_counts[i] ** 0.8 * net.store_counts[j] ** 0.6
                     * (dist[i, j] + 0.3) ** -1.1)
            oracle += e.amount * w_hat / net.W[i, j]
        assert revenue.sum() == pytest.approx(oracle, rel=1e-12)

    def test_zero_simulated_flow_errors(self):
        _, table, net, arrays = self._setup()
        # 1e-300 * (4.3 km + 1) ** -400 underflows to zero
        underflow = GravityParams(c=1e-300, beta1=0.0, beta2=0.0, epsilon=1.0, alpha=400.0)
        message = "^simulated flow is zero on a pair with observed flow$"
        with pytest.raises(ValueError, match=message):
            adjust_gravity_amounts(arrays, net, underflow)

    def test_cells_past_int32_match_int64_reference(self):
        """On a 50,000-row table the cell ``origin * n + dest`` passes 2**31,
        beyond the int32 that edges index nodes in; counting events into
        edges and looking each event up among them agree with the int64
        arithmetic."""
        table, rows, pairs, log = _past_int32()
        n, emp = table.n, build_purchase_network(log, table)
        cells = np.array([rows[a] * n + rows[b] for a, b in pairs], dtype=np.int64)
        assert cells.max() > 2 ** 31
        keys, counts = np.unique(cells, return_counts=True)
        f = emp.flows
        assert f.origin.dtype == f.dest.dtype == np.int32
        assert np.array_equal(f.origin, keys // n) and np.array_equal(f.dest, keys % n)
        assert np.array_equal(f.weight, counts)
        counted = Flows.counted(cells.copy(), n)     # the keys are consumed
        assert np.array_equal(counted.origin, keys // n)
        assert np.array_equal(counted.dest, keys % n)
        assert np.array_equal(counted.weight, counts)

        params = GravityParams(c=0.5, beta1=0.8, beta2=0.7, epsilon=0.5, alpha=0.6)
        lat, lon = table.lat, table.lon
        w = dict(zip(keys.tolist(), counts.tolist()))

        def w_hat(c):
            o, d = divmod(c, n)
            t = float(haversine_km(lat[o], lon[o], lat[d], lon[d]))
            return (0.5 * emp.user_counts[o] ** 0.8 * emp.store_counts[d] ** 0.7
                    * (t + 0.5) ** -0.6)

        oracle = np.zeros(n)
        for (a, b), c in zip(pairs, cells.tolist()):
            oracle[rows[b]] += (1.0 + a + 2 * b) * w_hat(c) / w[c]
        revenue = adjust_gravity_amounts(purchase_arrays(log, table), emp, params)
        assert np.allclose(revenue, oracle, rtol=1e-12, atol=0)


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
