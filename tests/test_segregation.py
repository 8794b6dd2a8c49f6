import numpy as np
import pytest

from segflow.ingest import NeighborhoodTable
from segflow.network import (Flows, InteractionNetwork, build_purchase_network,
                             centroid_distances, haversine_km, population_weight)
from segflow.segregation import (DegenerateMatrixError, GroupAssignment, MixingMatrix,
                                 _cell_sums, _percentiles, assign_groups, assortativity,
                                 asymmetry_bias, asymmetry_sweep, default_thresholds,
                                 distance_sweep, extremes_sweep, group_flows,
                                 mixing_from_matrix, mixing_matrix)

from conftest import make_table, preset_table, purchase, purchase_log, sparse_net


def weighted_net(W, table, channel="purchase"):
    return InteractionNetwork(table=table, flows=Flows.from_matrix(np.asarray(W, float)),
                              channel=channel, weighting="population_weighted")


def expansion_pearson(e, x_vals):
    """Textbook weighted Pearson over the expanded (x, y, weight) sample."""
    k = e.shape[0]
    xs, ys, ws = [], [], []
    for a in range(k):
        for b in range(k):
            xs.append(x_vals[a])
            ys.append(x_vals[b])
            ws.append(e[a, b])
    x, y, w = map(np.asarray, (xs, ys, ws))
    w = w / w.sum()
    mx, my = w @ x, w @ y
    cov = w @ ((x - mx) * (y - my))
    sx = np.sqrt(w @ (x - mx) ** 2)
    sy = np.sqrt(w @ (y - my) ** 2)
    return cov / (sx * sy)


class TestAssignGroups:
    def test_even_split(self):
        table = make_table(20)
        groups = assign_groups(table, k=10)
        sizes = np.bincount(groups.labels)[1:]
        assert list(sizes) == [2] * 10

    def test_remainder_goes_to_lowest_groups(self):
        table = make_table(21)
        groups = assign_groups(table, k=10)
        sizes = np.bincount(groups.labels)[1:]
        assert sizes[0] == 3
        assert list(sizes[1:]) == [2] * 9

    def test_monotone_in_ses(self):
        rng = np.random.default_rng(3)
        table = make_table(30, ses=rng.uniform(0, 100, 30))
        groups = assign_groups(table, k=5)
        order = np.argsort(table.ses)
        labels_sorted = groups.labels[order]
        assert np.all(np.diff(labels_sorted) >= 0)

    def test_ties_resolved_by_id_stable(self):
        # four equal scores straddle the boundary between groups 1 and 2
        ses = [10.0, 50.0, 50.0, 50.0, 50.0, 90.0]
        table = make_table(6, ses=ses)
        g1 = assign_groups(table, k=3)
        g2 = assign_groups(table, k=3)
        assert np.array_equal(g1.labels, g2.labels)
        tied = sorted(nid for nid, s in zip(table.ids, table.ses) if s == 50.0)
        got = [int(g1.labels[g1.nodes.index(nid)]) for nid in tied]
        assert got == sorted(got)  # id order decides within the tie

    def test_descending_flag_flips_ranking(self):
        # a marginalization-style score: higher means poorer
        table = make_table(6, ses=[5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        groups = assign_groups(table, k=3, ses_ascending=False)
        assert int(groups.labels[groups.nodes.index("N00")]) == 1  # highest index = lowest status
        assert int(groups.labels[groups.nodes.index("N05")]) == 3

    def test_too_few_neighborhoods(self):
        with pytest.raises(ValueError):
            assign_groups(make_table(4), k=10)


class TestGroupLabels:
    """A label outside 1..k names no group.  Once cells are formed in a
    small unsigned type it would wrap into another group's cell, so it is
    refused where a grouping is made and where flows are grouped."""

    @pytest.mark.parametrize("labels, bad", [([1, 0], "0"), ([2, 3], "3"), ([-1, 1], "-1")])
    def test_assignment_names_first_label_outside_range(self, labels, bad):
        with pytest.raises(ValueError, match=f"group label {bad} at position .* outside 1..2"):
            GroupAssignment(nodes=["A", "B"], labels=np.array(labels), k=2)

    def test_assignment_refuses_label_count_other_than_node_count(self):
        with pytest.raises(ValueError, match="3 group labels for 2 nodes"):
            GroupAssignment(nodes=["A", "B"], labels=np.array([1, 2, 1]), k=2)

    def test_assignment_refuses_fractional_labels(self):
        with pytest.raises(ValueError, match="integers"):
            GroupAssignment(nodes=["A", "B"], labels=np.array([1.0, 2.5]), k=2)

    def test_group_flows_refuses_label_outside_range(self):
        o, d, w = np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="group label 0 at position 0"):
            group_flows(o, d, w, np.array([0, 3]), 2)

    @pytest.mark.parametrize("k", [2, 10, 16, 17, 256, 257])
    def test_compact_cells_equal_int64_formula_bitwise(self, k):
        """k = 16, 256 and 257 are the last uint8, the last uint16 and the
        first uint32 cell type; every group occurs at both ends."""
        rng = np.random.default_rng(k)
        n, edges = 3 * k, 20 * k
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)])
        o, d = rng.integers(n, size=(2, edges))
        o[:n], d[:n] = np.arange(n), np.arange(n)[::-1]
        w = rng.uniform(0.1, 5.0, size=edges)
        cells = (labels[o] - 1) * k + (labels[d] - 1)
        for weights in (w, None):
            expected = np.bincount(cells, weights=weights, minlength=k * k).reshape(k, k)
            got = group_flows(o, d, weights, labels, k)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("k", [2, 16, 17, 256, 257])
@pytest.mark.parametrize("size", [0, 5000])
def test_cell_sums_equal_bincount_bitwise(k, size):
    """The cell-sum kernel adds in input order, as ``np.bincount`` does, so
    the two agree bit for bit on the uint8 (k <= 16), uint16 and uint32
    cells of every replicate kind, weighted or counted, empty or not.
    Half the terms fall in the last three cells, whose sums then change with
    the order of their terms at every k.  Counts stay int64: the jackknife
    compares them with ``==``.  Sums stay float64 also when there is
    nothing to sum, where ``np.bincount`` gives int64 zeros, of the same
    bytes."""
    rng = np.random.default_rng(size + k)
    cells = np.where(rng.random(size) < 0.5, rng.integers(k * k, size=size),
                     rng.integers(k * k - 3, k * k, size=size))
    cells = cells.astype(np.min_scalar_type(k * k - 1))
    w = rng.uniform(0, 1, size) * 10.0 ** rng.integers(-3, 3, size)
    for weights, dtype in ((w, np.float64), (None, np.int64)):
        expected = np.bincount(cells, weights=weights, minlength=k * k).reshape(k, k)
        got = _cell_sums(cells, weights, k)
        assert got.dtype == dtype
        assert got.tobytes() == expected.tobytes()


class TestMixingMatrix:
    def test_single_edge(self):
        table = make_table(2)
        net = weighted_net([[0, 5], [0, 0]], table)
        mix = mixing_matrix(net, assign_groups(table, k=2))
        assert np.array_equal(mix.M, [[0, 5], [0, 0]])
        assert mix.e[0, 1] == 1.0

    def test_within_group_flows_diagonal(self):
        table = make_table(4)
        groups = assign_groups(table, k=2)
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 3  # both group 1
        W[2, 3] = W[3, 2] = 7  # both group 2
        mix = mixing_matrix(weighted_net(W, table), groups)
        assert np.array_equal(np.diag(mix.M), [6, 14])
        assert mix.M[0, 1] == 0
        assert np.allclose(mix.S, np.eye(2))

    def test_brute_force_oracle_six_nodes_three_groups(self):
        rng = np.random.default_rng(17)
        table = make_table(6, ses=[1, 2, 3, 4, 5, 6])
        groups = assign_groups(table, k=3)
        W = rng.uniform(0, 4, (6, 6))
        mix = mixing_matrix(weighted_net(W, table), groups)
        oracle = np.zeros((3, 3))
        for i in range(6):
            for j in range(6):
                oracle[groups.labels[i] - 1, groups.labels[j] - 1] += W[i, j]
        assert np.allclose(mix.M, oracle, atol=1e-12)
        assert mix.e.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(mix.S.sum(axis=1), 1.0)

    def test_raw_requires_flag(self, table4):
        net = build_purchase_network(purchase_log([purchase("C1", "S1", "N00", "N01")]), table4)
        with pytest.raises(ValueError, match="population-weighted"):
            mixing_matrix(net, assign_groups(table4, k=2))
        mixing_from_matrix(Flows.from_matrix(net.W), assign_groups(table4, k=2))

    def test_zero_network_errors(self, table4):
        with pytest.raises(DegenerateMatrixError, match="no interaction mass"):
            mixing_matrix(weighted_net(np.zeros((4, 4)), table4), assign_groups(table4, k=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_flow_rejected(self, bad):
        # a plain ValueError: replicate loops skip only DegenerateMatrixError
        M = np.array([[3.0, 1.0], [1.0, bad]])
        with pytest.raises(ValueError, match="finite") as info:
            assortativity(MixingMatrix.from_flows(M))
        assert not isinstance(info.value, DegenerateMatrixError)

    def test_zero_row_flagged_not_normalized(self):
        table = make_table(2)
        mix = mixing_matrix(weighted_net([[0, 0], [1, 1]], table), assign_groups(table, k=2))
        assert not mix.S[0].any()


class TestAssortativity:
    def test_diagonal_is_one(self):
        for k in range(2, 11):
            e = np.diag(np.full(k, 1.0 / k))
            mix = mixing_from_matrix(Flows.from_matrix(e), _groups_for(k))
            assert abs(assortativity(mix) - 1.0) <= 1e-12

    def test_product_form_is_zero(self):
        rng = np.random.default_rng(23)
        for k in (2, 4, 7, 10):
            a = rng.dirichlet(np.ones(k))
            b = rng.dirichlet(np.ones(k))
            r = _r_of_e(np.outer(a, b))
            assert abs(r) <= 1e-12

    def test_uniform_e_is_zero(self):
        for k in (2, 5, 10):
            assert abs(_r_of_e(np.full((k, k), 1.0 / k ** 2))) <= 1e-12

    def test_matches_edge_expansion_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            k = rng.integers(2, 11)
            e = rng.uniform(0, 1, (k, k)) ** 2
            e /= e.sum()
            r = _r_of_e(e)
            oracle = expansion_pearson(e, np.arange(1, k + 1, dtype=float))
            assert abs(r - oracle) <= 1e-10

    def test_degenerate_marginals_error(self):
        e = np.zeros((3, 3))
        e[1] = [0.2, 0.3, 0.5]  # single origin group
        with pytest.raises(DegenerateMatrixError, match="degenerate attribute"):
            _r_of_e(e)

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        M = rng.uniform(0, 5, (6, 6))
        r1 = _r_of_e(M / M.sum())
        r2 = _r_of_e((M * 7.3) / (M * 7.3).sum())
        assert abs(r1 - r2) <= 1e-12

    def test_two_by_two_bounds_and_diagonal_condition(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            e = rng.uniform(0.01, 1.0, (2, 2))
            e /= e.sum()
            r = _r_of_e(e)
            assert -1.0 <= r <= 1.0
        e = np.array([[0.4, 0.0], [0.0, 0.6]])
        assert _r_of_e(e) == pytest.approx(1.0, abs=1e-12)
        e = np.array([[0.4, 0.1], [0.0, 0.5]])
        assert _r_of_e(e) < 1.0


def _groups_for(k):
    """One node per group, identity grouping."""
    table = make_table(k, ses=np.arange(k, dtype=float))
    return assign_groups(table, k=k)


def _r_of_e(e):
    k = e.shape[0]
    return assortativity(mixing_from_matrix(Flows.from_matrix(np.asarray(e, float)),
                                            _groups_for(k)))


def _bias_of_e(e):
    k = e.shape[0]
    return asymmetry_bias(mixing_from_matrix(Flows.from_matrix(np.asarray(e, float)),
                                             _groups_for(k)))


class TestAsymmetryBias:
    def test_symmetric_is_zero(self):
        rng = np.random.default_rng(41)
        A = rng.uniform(0, 1, (5, 5))
        assert _bias_of_e(A + A.T) == pytest.approx(0.0, abs=1e-12)

    def test_single_offdiagonal_entry(self):
        e = np.zeros((10, 10))
        e[0, 9] = 0.7
        e[3, 3] = 0.3
        assert _bias_of_e(e) == pytest.approx(0.7)

    def test_hand_summed_three_by_three(self):
        e = np.array([[.2, .2, .1], [.05, .2, .05], [.05, .05, .1]])
        assert _bias_of_e(e) == pytest.approx(0.20, abs=1e-12)

    def test_transpose_antisymmetry(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            e = rng.uniform(0, 1, (6, 6))
            e /= e.sum()
            assert _bias_of_e(e) == pytest.approx(-_bias_of_e(e.T), abs=1e-12)

    def test_label_reversal_flips_bias_keeps_abs_r(self):
        rng = np.random.default_rng(47)
        e = rng.uniform(0, 1, (8, 8))
        e /= e.sum()
        rev = e[::-1, ::-1]
        assert _bias_of_e(rev) == pytest.approx(-_bias_of_e(e), abs=1e-12)
        assert abs(_r_of_e(rev)) == pytest.approx(abs(_r_of_e(e)), abs=1e-12)


def _extremes_fixture():
    """10 nodes, 10 groups, most flow within extreme groups."""
    table = make_table(10, ses=np.arange(10, dtype=float))
    groups = assign_groups(table, k=10)
    W = np.full((10, 10), 0.01)
    W[0, 0] = W[9, 9] = 5.0
    return weighted_net(W, table), groups


class TestExtremesSweep:
    def test_step_one_pure_diagonal(self):
        table = make_table(10, ses=np.arange(10, dtype=float))
        groups = assign_groups(table, k=10)
        W = np.zeros((10, 10))
        W[0, 0] = 2.0
        W[9, 9] = 3.0
        W[4, 5] = 1.0  # keeps middle groups occupied
        steps = extremes_sweep(weighted_net(W, table), groups)
        assert steps[0].value == pytest.approx(1.0, abs=1e-12)

    def test_final_step_equals_full_assortativity(self):
        net, groups = _extremes_fixture()
        steps = extremes_sweep(net, groups)
        full = assortativity(mixing_matrix(net, groups))
        assert steps[-1].value == pytest.approx(full, abs=1e-12)
        assert len(steps) == 5

    def test_manual_submatrix_oracle_three_steps(self):
        rng = np.random.default_rng(53)
        table = make_table(6, ses=np.arange(6, dtype=float))
        groups = assign_groups(table, k=6)
        W = rng.uniform(0.1, 2.0, (6, 6))
        net = weighted_net(W, table)
        steps = extremes_sweep(net, groups)
        M = mixing_matrix(net, groups).M
        for t, step in enumerate(steps, start=1):
            keep = list(range(t)) + list(range(6 - t, 6))
            sub = M[np.ix_(keep, keep)]
            e_sub = sub / sub.sum()
            vals = np.array(keep, dtype=float) + 1
            assert step.value == pytest.approx(expansion_pearson(e_sub, vals), abs=1e-10)

    def test_degenerate_step_flagged_not_raised(self):
        table = make_table(10, ses=np.arange(10, dtype=float))
        groups = assign_groups(table, k=10)
        W = np.zeros((10, 10))
        # only middle groups interact; step 1 has no mass but the full
        # matrix still has attribute variance
        W[3, 4] = W[4, 5] = W[5, 6] = W[6, 3] = 1.0
        steps = extremes_sweep(weighted_net(W, table), groups)
        assert not steps[0].valid
        assert np.isnan(steps[0].value)
        assert steps[-1].valid

    @pytest.mark.parametrize("sweep", [extremes_sweep, asymmetry_sweep])
    def test_network_without_flow_flags_every_step(self, sweep):
        """A network with no edges is scorable: every step is degenerate,
        so flagged invalid; a non-finite flow is still refused."""
        table = make_table(8, ses=np.arange(8, dtype=float))
        groups = assign_groups(table, k=4)
        steps = sweep(weighted_net(np.zeros((8, 8)), table), groups)
        assert len(steps) == 2 and not any(step.valid for step in steps)
        assert all(np.isnan(step.value) for step in steps)
        W = np.zeros((8, 8))
        W[0, 7] = np.nan
        with pytest.raises(ValueError, match="group flows must be finite"):
            sweep(weighted_net(W, table), groups)

    def test_odd_k_rejected(self):
        table = make_table(9, ses=np.arange(9, dtype=float))
        groups = assign_groups(table, k=3)
        with pytest.raises(ValueError, match="even"):
            extremes_sweep(weighted_net(np.ones((9, 9)), table), groups)


class TestAsymmetrySweep:
    def test_bias_per_step_with_oracle(self):
        rng = np.random.default_rng(59)
        table = make_table(6, ses=np.arange(6, dtype=float))
        groups = assign_groups(table, k=6)
        W = rng.uniform(0.1, 2.0, (6, 6))
        net = weighted_net(W, table)
        steps = asymmetry_sweep(net, groups)
        M = mixing_matrix(net, groups).M
        for t, step in enumerate(steps, start=1):
            keep = list(range(t)) + list(range(6 - t, 6))
            sub = M[np.ix_(keep, keep)]
            e_sub = sub / sub.sum()
            oracle = np.triu(e_sub, 1).sum() - np.tril(e_sub, -1).sum()
            assert step.value == pytest.approx(oracle, abs=1e-12)


class TestDistanceSweep:
    def _city(self):
        rng = np.random.default_rng(61)
        table = make_table(12, ses=np.arange(12, dtype=float), spacing_deg=0.03)
        groups = assign_groups(table, k=4)
        W = rng.uniform(0.2, 1.5, (12, 12))
        return weighted_net(W, table), groups, centroid_distances(table)

    def test_max_threshold_within_equals_full(self):
        net, groups, dist = self._city()
        d_max = float(dist.max())
        steps = distance_sweep(net, groups, thresholds=[d_max])
        full = assortativity(mixing_matrix(net, groups))
        within = [s for s in steps if s.descriptor.startswith("within")][0]
        beyond = [s for s in steps if s.descriptor.startswith("beyond")][0]
        assert within.value == pytest.approx(full, abs=1e-12)
        assert not beyond.valid

    def test_tiny_threshold_keeps_only_diagonal(self):
        net, groups, dist = self._city()
        d_min = float(dist[np.triu_indices(len(dist), k=1)].min())
        steps = distance_sweep(net, groups, thresholds=[d_min / 2])
        within = [s for s in steps if s.descriptor.startswith("within")][0]
        # only self-flows remain and they span several groups: perfectly assortative
        assert within.value == pytest.approx(1.0, abs=1e-12)

    def test_percentile_thresholds_match_sort_oracle(self):
        net, groups, dist = self._city()
        steps = distance_sweep(net, groups)
        params = sorted({s.param for s in steps})
        vec = np.sort(dist[np.triu_indices(len(dist), k=1)])

        def percentile(q):
            # linear interpolation on the sorted vector
            pos = (len(vec) - 1) * q / 100.0
            lo, hi = int(np.floor(pos)), int(np.ceil(pos))
            return vec[lo] + (vec[hi] - vec[lo]) * (pos - lo)

        oracle = [percentile(q) for q in (20, 40, 60, 80, 100)]
        assert np.allclose(params, oracle, atol=1e-9)

    @pytest.mark.parametrize("n", [1600, 400], ids=["preset", "coarse"])
    def test_default_thresholds_match_triu_percentiles_bitwise(self, n):
        """Thresholds from row blocks of distances equal, bit for bit, one
        percentile per quintile of the ``triu_indices`` vector of
        ``centroid_distances``, on the preset geometries."""
        table = preset_table(n)
        steps = distance_sweep(sparse_net(table, 5 * n), assign_groups(table))
        pairs = centroid_distances(table)[np.triu_indices(n, k=1)]
        assert [s.param for s in steps[::2]] == [
            float(np.percentile(pairs, q)) for q in (20, 40, 60, 80, 100)]

    def test_default_thresholds_take_each_pair_once_bitwise(self):
        """Each block of rows takes its distances to the columns after its
        first row only, and the quintiles still equal, bit for bit, those of
        the ``triu_indices`` vector: 300 nodes, blocks of 128, 128 and 44."""
        table = preset_table(300)
        pairs = centroid_distances(table)[np.triu_indices(table.n, k=1)]
        assert np.array_equal(default_thresholds(table),
                              np.percentile(pairs, (20, 40, 60, 80, 100)))

    @pytest.mark.parametrize("edges", [3000, 20_000])
    def test_blocked_sweep_equals_whole_edge_formula_bitwise(self, edges):
        """Every step, valid or not, equals bit for bit the sweep that took
        every edge's distance at once and grouped each side's edges in one
        call: one block of edges, and five; with the default thresholds, one
        between two centroid distances and one past the largest."""
        table = preset_table(400)
        net, groups = sparse_net(table, edges), assign_groups(table)
        rng = np.random.default_rng(edges)
        net.flows.weight[:] = rng.random(net.flows.size)
        i, j, w = net.flows
        dist = haversine_km(table.lat[i], table.lon[i], table.lat[j], table.lon[j])
        for thresholds in (None, [float(np.median(dist)), 1e6]):
            steps = distance_sweep(net, groups, thresholds=thresholds)
            params = [float(d) for d in (default_thresholds(table) if thresholds is None
                                         else thresholds)]
            expected = []
            for d in params:
                within = dist <= d
                for mask in (within, ~within):
                    try:
                        mix = MixingMatrix.from_flows(group_flows(
                            i[mask], j[mask], w[mask], groups.labels, groups.k))
                        expected.append((True, assortativity(mix)))
                    except DegenerateMatrixError:
                        expected.append((False, None))
            assert [(s.valid, s.value if s.valid else None) for s in steps] == expected
            assert [s.param for s in steps] == [d for d in params for _ in "wb"]

    def test_mass_partition(self):
        net, groups, dist = self._city()
        for d in np.percentile(dist[np.triu_indices(len(dist), k=1)], [30, 70]):
            within = net.W * (dist <= d)
            beyond = net.W * (dist > d)
            assert np.allclose(within + beyond, net.W)

    def test_threshold_validation(self):
        net, groups, dist = self._city()
        with pytest.raises(ValueError, match="ascending"):
            distance_sweep(net, groups, thresholds=[5.0, 3.0])
        with pytest.raises(ValueError):
            distance_sweep(net, groups, thresholds=[-1.0])


def test_documented_reference_values():
    """City-level coefficients around 0.4 for both channels were reported on
    the original (proprietary) data; they are reference points, not
    reproducible assertions.  Kept here so the numbers live next to code."""
    reference = {"purchase": 0.42, "mention": 0.41}
    assert set(reference) == {"purchase", "mention"}


@pytest.mark.parametrize("q", [(2.5, 97.5), (20, 40, 60, 80, 100), (0, 50, 100)])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 99, 100, 101, 1279])
def test_percentiles_equal_numpy_bit_for_bit(n, q):
    """``_percentiles`` returns the bytes ``np.percentile`` does, on values
    with ties, negatives, signed zeros and a NaN, where the sign of a zero
    bound depends on which of the equal values each partition puts where."""
    rng = np.random.default_rng(n)
    cases = [rng.standard_normal(n),
             rng.integers(-3, 4, n).astype(float),
             rng.choice([-0.0, 0.0], n),
             rng.choice([-0.0, 0.0, -1.0, 1.0, 2.5], n),
             np.where(rng.random(n) < 0.05, np.nan, rng.choice([-0.0, 0.0, 1.0], n))]
    for values in cases:
        want = np.percentile(values, q)
        assert _percentiles(values.copy(), q).tobytes() == want.tobytes()
