"""Invariants of the scoring core over random small tables, networks and
groupings: Newman's r (Mixing patterns in networks, 2003) and the
contracts of the sweeps, the SES-shuffle null and the jackknife.

Each network holds a table of 4-14 neighborhoods near one city, with
distinct SES values (so that the grouping never depends on how ties are
broken by id) and random population-weighted flows.  Sums over edges may
run in another order after a relabeling, so values agree to 1e-12.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segflow.ingest import NeighborhoodTable
from segflow.models import null_shuffle_ses
from segflow.network import Flows, InteractionNetwork, haversine_km, population_weight
from segflow.segregation import (DegenerateMatrixError, GroupAssignment, assign_groups,
                                 assortativity, asymmetry_bias, distance_sweep,
                                 extremes_sweep, mixing_matrix)
from segflow.segregation import group_flows
from segflow.stats import _jackknife_flows, jackknife_assortativity

TOL = 1e-12
EXAMPLES = settings(max_examples=100, deadline=None)


def weighted(table, W):
    """The population-weighted purchase network of flows ``W`` over ``table``:
    the one place these properties build a network."""
    return InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel="purchase",
                              weighting="population_weighted")


def table_of(ids, rng):
    n = len(ids)
    return NeighborhoodTable(list(ids), 40.0 + rng.uniform(-0.3, 0.3, n),
                             -3.0 + rng.uniform(-0.3, 0.3, n), rng.integers(1, 2000, n),
                             rng.permutation(n) * 7.5 + 1.0)


@st.composite
def cities(draw, even_k=False, min_edges=1):
    """(population-weighted network with at least ``min_edges`` edges,
    grouping of its table, rng)."""
    n = draw(st.integers(max(4, int(np.ceil(np.sqrt(min_edges)))), 14))
    k = draw(st.sampled_from([k for k in ((2, 4, 6) if even_k else (2, 3, 4, 5, 6)) if k <= n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.1, 1.0))
    table = table_of([f"N{i:02d}" for i in range(n)], rng)
    W = np.where(rng.random((n, n)) < density, rng.uniform(0.01, 100.0, (n, n)), 0.0)
    if np.count_nonzero(W) < min_edges:
        W[np.unravel_index(rng.permutation(n * n)[:min_edges], W.shape)] += 1.0
    return weighted(table, W), assign_groups(table, k=k), rng


def scored(net, groups):
    """(M, r, bias) of ``net`` over ``groups``; None when degenerate."""
    try:
        mix = mixing_matrix(net, groups)
    except DegenerateMatrixError:
        return None
    try:
        return mix.M, assortativity(mix), asymmetry_bias(mix)
    except DegenerateMatrixError:
        return None


def assert_same_scores(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        np.testing.assert_allclose(a[0], b[0], rtol=TOL, atol=0.0)
        assert a[1] == pytest.approx(b[1], abs=TOL)
        assert a[2] == pytest.approx(b[2], abs=TOL)


@EXAMPLES
@given(cities())
def test_r_bounded_and_unchanged_by_transposing(city):
    net, groups, _ = city
    forward, backward = scored(net, groups), scored(weighted(net.table, net.W.T.copy()), groups)
    if forward is not None:
        assert -1.0 <= forward[1] <= 1.0
    assert (forward is None) == (backward is None)
    if forward is not None:
        assert backward[1] == pytest.approx(forward[1], abs=TOL)


@EXAMPLES
@given(cities())
def test_flow_inside_groups_is_perfectly_assortative(city):
    net, groups, _ = city
    labels = groups.labels
    inside = weighted(net.table, net.W * (labels[:, None] == labels[None, :]))
    carrying = np.unique(labels[np.nonzero(inside.W)[0]])
    result = scored(inside, groups)
    if carrying.size >= 2:
        assert result[1] == pytest.approx(1.0, abs=TOL)
    else:
        assert result is None


@EXAMPLES
@given(cities(), st.data())
def test_relabeling_nodes_leaves_scores_unchanged(city, data):
    """A table whose ids sort the same neighborhoods into another order,
    with W's rows and columns permuted alongside, scores the same."""
    net, groups, rng = city
    n = net.n
    perm = np.array(data.draw(st.permutations(range(n))))   # new row r is old node perm[r]
    ids = [""] * n
    for r, old in enumerate(perm):
        ids[old] = f"R{r:02d}"
    t = net.table
    table = NeighborhoodTable(ids, t.lat, t.lon, t.population, t.ses)
    assert np.array_equal(table.ses, t.ses[perm])
    relabeled = weighted(table, net.W[np.ix_(perm, perm)])
    regrouped = assign_groups(table, k=groups.k)
    assert np.array_equal(regrouped.labels, groups.labels[perm])
    assert_same_scores(scored(relabeled, regrouped), scored(net, groups))


@EXAMPLES
@given(cities(), st.floats(1e-3, 1e3))
def test_scaling_every_weight_leaves_r_unchanged(city, c):
    net, groups, _ = city
    a, b = scored(net, groups), scored(weighted(net.table, net.W * c), groups)
    assert (a is None) == (b is None)
    if a is not None:
        assert b[1] == pytest.approx(a[1], abs=TOL)


@EXAMPLES
@given(cities(), st.sampled_from(["purchase", "mention"]))
def test_weighting_with_users_equal_to_population_is_identity(city, channel):
    net, _, _ = city
    raw = InteractionNetwork(table=net.table, flows=Flows.from_matrix(net.W.copy()),
                             channel=channel, user_counts=net.table.population.copy())
    assert np.array_equal(population_weight(raw).W, net.W)


@EXAMPLES
@given(cities(min_edges=20), st.integers(1, 6), st.integers(0, 1000))
def test_jackknife_without_removal_repeats_the_point(city, replicates, seed):
    net, groups, _ = city
    try:
        est = jackknife_assortativity(net, groups, removal_fraction=0.0,
                                      replicates=replicates, seed=seed)
    except DegenerateMatrixError:
        assert scored(net, groups) is None
        return
    assert est.replicates == replicates and est.discarded == 0
    assert np.all(est.values == est.point)


@EXAMPLES
@given(cities(), st.floats(0.0, 0.9), st.integers(0, 1000))
def test_jackknife_replicates_recount_their_kept_edges(city, fraction, seed):
    """Replicate i of ``_jackknife_flows`` equals ``group_flows`` summed over
    the row-major edges that the stream (seed, i) does not drop, to 1e-12
    of the total flow, and is exactly 0 in a cell that kept no edge."""
    net, groups, _ = city
    W = net.W
    o, d = np.nonzero(W)
    w, labels, k = W[o, d], groups.labels, groups.k
    M, reps = _jackknife_flows(Flows.from_matrix(W), groups, fraction, replicates=4,
                               seed=seed)
    n_remove = int(fraction * len(w))
    for rep, replicate in enumerate(reps):
        kept = np.ones(len(w), dtype=bool)
        if n_remove:
            rng = np.random.default_rng((seed, rep))
            kept[rng.choice(len(w), size=n_remove, replace=False)] = False
        recount = group_flows(o[kept], d[kept], w[kept], labels, k)
        np.testing.assert_allclose(replicate, recount, rtol=0.0, atol=TOL * M.sum())
        assert np.all(replicate[group_flows(o[kept], d[kept], None, labels, k) == 0] == 0.0)


@EXAMPLES
@given(cities(), st.integers(0, 1000))
def test_null_replicates_score_their_permuted_labels(city, seed):
    """Replicate i scores the labels permuted by the stream (seed, i);
    degenerate permutations are discarded in order."""
    net, groups, _ = city
    direct = []
    for rep in range(12):
        labels = groups.labels[np.random.default_rng((seed, rep)).permutation(net.n)]
        result = scored(net, GroupAssignment(nodes=groups.nodes, labels=labels, k=groups.k))
        if result is not None:
            direct.append(result)
    if not direct:
        with pytest.raises(ValueError, match="every null replicate was degenerate"):
            null_shuffle_ses(net, groups, replicates=12, seed=seed)
        return
    null = null_shuffle_ses(net, groups, replicates=12, seed=seed)
    assert null.discarded == 12 - len(direct)
    np.testing.assert_allclose(null.r_values, [r for _, r, _ in direct], rtol=0.0, atol=TOL)
    np.testing.assert_allclose(null.bias_values, [b for _, _, b in direct], rtol=0.0, atol=TOL)


@EXAMPLES
@given(cities(), st.floats(1.0, 3.0))
def test_distance_threshold_past_every_edge_keeps_all_within(city, stretch):
    net, groups, _ = city
    o, d = np.nonzero(net.W)
    t = net.table
    longest = float(haversine_km(t.lat[o], t.lon[o], t.lat[d], t.lon[d]).max(initial=0.0))
    within, beyond = distance_sweep(net, groups, thresholds=[max(longest, 1e-3) * stretch])
    full = scored(net, groups)
    assert within.valid == (full is not None)
    if full is not None:
        assert within.value == pytest.approx(full[1], abs=TOL)
    assert not beyond.valid


@EXAMPLES
@given(cities(even_k=True))
def test_last_extremes_step_is_the_full_r(city):
    net, groups, _ = city
    last = extremes_sweep(net, groups)[-1]
    full = scored(net, groups)
    assert last.valid == (full is not None)
    if full is not None:
        assert last.value == pytest.approx(full[1], abs=TOL)
