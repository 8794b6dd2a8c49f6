"""No step holds n x n temporaries, a network holds only its edges,
diversity holds arrays, not a dict per person, passes over events share
the log's columns or hold a block of them, and the gravity fit and the
distance sweep hold a block of edges, so one bound holds at any edge count.

On the 1600-neighborhood preset geometry one n x n float matrix is 20.5 MB,
and short-lived copies of it, then the dense networks themselves, used to
set the pipeline's peak memory.  Each guard measures, with tracemalloc, the
peak of what one call allocates beyond what was live before it.
"""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from segflow.ingest import CODE_BLOCK, MentionLog, PurchaseLog, filter_active_customers
from segflow.metrics import neighborhood_diversity, purchase_profiles
from segflow.models import (adjust_gravity_amounts, fit_gravity, purchase_arrays,
                            reshuffle_locations, simulate_gravity)
from segflow.network import (_BLOCK_EDGES, _BLOCK_PAIRS, Flows, InteractionNetwork,
                             build_mention_network, build_purchase_network, centroid_distances,
                             population_weight, sampling_rate, write_network)
from segflow.segregation import (_compact_labels, assign_groups, default_thresholds,
                                 distance_sweep, mixing_matrix)
from segflow.stats import (_reshuffle_flows, flows_assortativity, jackknife_statistic,
                           segregation_inequality_report)

from conftest import gravity_net, preset_table, simulated_args, sparse_net

TABLE = preset_table(1600)
MATRIX_BYTES = TABLE.n * TABLE.n * 8


def peak_bytes(call) -> tuple[object, int]:
    """``call()`` and the peak bytes it held above those live at the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_centroid_distances_peak_near_its_result():
    """Whole-matrix broadcasting peaked at 82 MB for a 20.5 MB result."""
    dist, peak = peak_bytes(lambda: centroid_distances(TABLE))
    assert dist.nbytes == MATRIX_BYTES
    assert peak < 1.5 * MATRIX_BYTES


def test_default_sweep_thresholds_hold_less_than_one_matrix():
    """The condensed pair vector is half a matrix; indexing it out through
    ``triu_indices`` held 30.9 MB."""
    net, groups = sparse_net(TABLE, 9000), assign_groups(TABLE)
    steps, peak = peak_bytes(lambda: distance_sweep(net, groups))
    assert len(steps) == 10
    assert peak < MATRIX_BYTES


def test_default_thresholds_hold_their_pairs_and_one_block():
    """The quintiles hold the vector of all n(n-1)/2 pair distances, which
    they partition, and one block of at most ``_BLOCK_PAIRS`` pairs'
    haversine terms, whatever n is: 1.3 MB over the 10.2 MB vector on 1600
    nodes and 1.1 MB over 0.6 MB on 400.  Blocks of 128 rows held 7.7 MB
    over it on 1600 nodes, a block growing with n."""
    for n in (1600, 400):
        table = preset_table(n)
        thresholds, peak = peak_bytes(lambda: default_thresholds(table))
        assert len(thresholds) == 5
        assert peak < 8 * n * (n - 1) // 2 + 64 * _BLOCK_PAIRS


def test_mention_weighting_allocates_only_its_result():
    """Weighting 9,000 mention edges holds about 1.8 times their bytes at
    its peak (their new weights and per-edge scales); an n x n scale
    buffer was 20.5 MB."""
    raw = sparse_net(TABLE, 9000, channel="mention", weighting="raw")
    weighted, peak = peak_bytes(lambda: population_weight(raw))
    f = weighted.flows
    assert f.size == raw.flows.size
    assert peak < 2 * (f.origin.nbytes + f.dest.nbytes + f.weight.nbytes)


def build(channel, events=9000, people=3000):
    """A call that builds a network over the preset table from ``events``
    random events between ``people`` senders and ``people`` receivers
    (customers and stores, or users) with random homes: about one edge an
    event."""
    rng = np.random.default_rng(4)
    src, dst = rng.integers(people, size=(2, events)).tolist()
    home = np.array(TABLE.ids)[rng.integers(TABLE.n, size=2 * people)].tolist()
    if channel == "purchase":
        log = PurchaseLog.from_rows((f"C{c}", f"S{s}", 10.0, home[c], home[people + s])
                                    for c, s in zip(src, dst))
        return lambda: build_purchase_network(log, TABLE)
    log = MentionLog.from_rows((f"U{a}", f"U{people + b}") for a, b in zip(src, dst))
    homes = {f"U{i}": h for i, h in enumerate(home)}
    return lambda: build_mention_network(log, homes, TABLE)


@pytest.mark.parametrize("channel", ["purchase", "mention"])
def test_sparse_network_allocates_its_edges_only(channel):
    """A 9,000-edge network is built, weighted and grouped in under 1 MB;
    a dense count matrix alone was 20.5 MB."""
    call, groups = build(channel), assign_groups(TABLE)
    net = call()
    assert 8900 <= net.flows.size <= 9000
    mix, peak = peak_bytes(lambda: mixing_matrix(population_weight(call()), groups))
    assert mix.M.sum() > 0
    assert peak < 1_000_000


def test_simulated_gravity_peak_near_its_flows():
    """The law is filled into edge arrays a block of origins at a time; the
    dense result was 20.5 MB whatever the masses."""
    params, net = simulated_args()
    users, stores = net.user_counts, net.store_counts
    sim, peak = peak_bytes(lambda: simulate_gravity(params, net))
    f = sim.flows
    held = f.origin.nbytes + f.dest.nbytes + f.weight.nbytes
    assert f.size == np.count_nonzero(users) * np.count_nonzero(stores)
    assert peak < 1.75 * held


def test_simulated_gravity_holds_16_bytes_an_edge():
    """Edges index nodes in int32: 4 + 4 + 8 bytes an edge, not 24."""
    f = simulate_gravity(*simulated_args()).flows
    assert f.origin.dtype == f.dest.dtype == np.int32
    assert f.weight.dtype == np.float64


def random_log(events, customers, stores, seed=5, homes=None, locations=None):
    """``events`` random purchases among ``customers`` and ``stores``, placed
    in random neighborhoods unless ``homes`` and ``locations`` are given,
    with codes numbered first-seen, as the loaders number them."""
    rng = np.random.default_rng(seed)
    ids = np.array(TABLE.ids)
    homes = ids[rng.integers(TABLE.n, size=customers)] if homes is None else homes
    locations = ids[rng.integers(TABLE.n, size=stores)] if locations is None else locations
    log = PurchaseLog([f"C{i}" for i in range(customers)], [f"S{i}" for i in range(stores)],
                      list(homes), list(locations), rng.integers(customers, size=events),
                      rng.integers(stores, size=events), np.full(events, 10.0))
    return log.select(np.ones(events, dtype=bool))


def test_gravity_adjustment_holds_one_key_an_edge():
    """Reading the law at the 9,120 edges of 200,000 or of 400,000 purchases
    among 100 customers and 100 stores, and looking the purchases up among
    those edges by one int64 cell key an edge, holds 0.53 MB at either
    count: two arrays an edge, its key and its scale (the law, divided in
    place by the observed flow), and one block of ``_BLOCK_EDGES`` edges'
    law, about 100 bytes a pair, or events' lookups.  The law and lookups in blocks of 32,768, with
    the law, its scale and the observed flows held apart, held 1.32 MB;
    looking every event up at once 6.75 and 13.35 MB, and reading the law's
    values off its ~1.2M simulated edges 10.15 MB."""
    params, net = simulated_args()
    ids = np.array(TABLE.ids)
    rng = np.random.default_rng(5)
    homes = ids[net.user_counts > 0][rng.integers(np.count_nonzero(net.user_counts), size=100)]
    locs = ids[net.store_counts > 0][rng.integers(np.count_nonzero(net.store_counts), size=100)]
    for events in (200_000, 400_000):
        log = random_log(events, 100, 100, homes=homes, locations=locs)
        emp, arrays = build_purchase_network(log, TABLE), purchase_arrays(log, TABLE)
        revenue, peak = peak_bytes(lambda: adjust_gravity_amounts(arrays, emp, params))
        assert revenue.sum() > 0 and emp.flows.size == 9120
        assert peak < 20 * emp.flows.size + 120 * _BLOCK_EDGES


def test_filter_keeping_everyone_holds_a_flag_an_event():
    """Filtering 200,000 purchases of customers who are all active shares
    the log's columns: it holds 0.42 MB, a keep flag an event and one block
    of codes checked for first-seen order.  Copying the three columns held
    5.23 MB, more than three times one int64 column."""
    events = 200_000
    log = random_log(events, 3000, 3000)
    kept, peak = peak_bytes(lambda: filter_active_customers(log, 10))
    assert len(kept) == events and np.shares_memory(kept.amount, log.amount)
    assert peak < events + 4 * 8 * CODE_BLOCK


def test_purchase_network_shares_the_resolved_log():
    """Building the network of 200,000 purchases, 183,527 edges, with every
    place known holds 6.19 MB, 31 bytes an event: the int64 cell keys,
    sorted in place, and three arrays an edge (run starts, then the edges'
    keys and counts, then their ends).  ``np.unique``'s flattened copy of
    the keys held 7.85 MB, 39 bytes an event, and resolving to a copy of
    the log 12.76 MB, 64."""
    events = 200_000
    log = random_log(events, 3000, 3000)
    net, peak = peak_bytes(lambda: build_purchase_network(log, TABLE))
    assert net.dropped_events == 0
    assert peak < 35 * events


def test_jackknife_holds_one_byte_cells():
    """The jackknife forms each edge's group cell once and keeps it for every
    replicate.  Over the simulated flows it peaks at 12.46 MB, 1.29 times
    8 bytes an edge: the uint8 cells beside the int64 permutation of all
    edges that each replicate's ``rng.choice`` draws its removals from, and
    the reused buffers of the removed edges' cells and weights.  Holding
    the cells as int64 peaked at 20.86 MB, 2.16 times."""
    flows = simulate_gravity(*simulated_args()).flows
    groups = assign_groups(TABLE)
    est, peak = peak_bytes(lambda: jackknife_statistic(flows, flows_assortativity, groups,
                                                       replicates=100, seed=0))
    assert est.replicates + est.discarded == 100
    assert peak < 1.6 * flows.size * 8


def test_report_holds_a_cell_and_a_weight_a_simulated_pair():
    """The report's gravity row simulates 734,440 pairs here.  It weights the
    simulated network in place and keeps each edge's one-byte group cell and
    its weight through the jackknife's draws, whose permutation of all edges
    is another 8 bytes an edge: the report peaks at 20.3 bytes a pair on a
    first call and 18.8 after.  Weighting into a new array and jackknifing
    the edges with their int32 ends held 28.3 and 26.8."""
    params = simulated_args()[0]
    log = random_log(20_000, 1200, 1200)
    net = build_purchase_network(log, TABLE)
    pairs = np.count_nonzero(net.user_counts) * np.count_nonzero(net.store_counts)
    rows, peak = peak_bytes(lambda: segregation_inequality_report(
        log, TABLE, assign_groups(TABLE), gravity_params=params, fractions=(0.5,),
        replicates=2, jackknife_replicates=10))
    assert rows[1].label == "gravity" and pairs == 734_440
    assert peak < 23 * pairs


def test_diversity_holds_arrays_not_dicts():
    """Diversity over 200,000 purchases by 4,500 customers at 2,000 stores,
    197,816 (customer, store) pairs, holds 6.81 MB, 34 bytes an event, at
    its peak: the pairs' keys, counts and first events, and the order that
    sorts them by person and first event.  The pairs' keys are sorted in
    place and each one's first event is looked up a block of events at a
    time; a stable argsort of every event's key, with its sorted copy and
    each intermediate of the pairs held at once, peaked at 47.  Counting the
    pairs with ``np.unique``, whose intermediates are all held at once,
    peaked at 79, and a dict per customer of its store counts, with
    entropies taken customer by customer, at 158."""
    rng = np.random.default_rng(5)
    events, customers, stores = 200_000, 4500, 2000
    ids = np.array(TABLE.ids)
    log = PurchaseLog([f"C{i}" for i in range(customers)], [f"S{i}" for i in range(stores)],
                      ids[rng.integers(TABLE.n, size=customers)].tolist(),
                      ids[rng.integers(TABLE.n, size=stores)].tolist(),
                      rng.integers(customers, size=events), rng.integers(stores, size=events),
                      np.full(events, 10.0))
    result, peak = peak_bytes(lambda: neighborhood_diversity(
        purchase_profiles(log), log.home, "purchase", TABLE))
    assert sum(result.residents.values()) == customers
    assert peak < 39 * events


def test_reshuffle_replicate_holds_a_block_of_events():
    """The k x k flows of one reshuffle replicate of 200,000 or of 400,000
    purchases hold 0.38 MB either way: one block of ``_BLOCK_PAIRS`` events'
    cells and weights, summed into one k x k array.  Forming every event's
    cell and weight at once held 1.79 and 3.50 MB."""
    groups = assign_groups(TABLE)
    lab = _compact_labels(groups.labels, groups.k)
    for events in (200_000, 400_000):
        log = random_log(events, 3000, 3000)
        arrays = purchase_arrays(log, TABLE)
        inv_rate = 1.0 / sampling_rate(build_purchase_network(log, TABLE).user_counts,
                                       TABLE.population)
        rep = reshuffle_locations(arrays, 0.5, replicates=1, seed=0)[0]
        M, peak = peak_bytes(lambda: _reshuffle_flows(arrays, rep, lab, groups.k, inv_rate))
        assert M.sum() > 0
        assert peak < 500_000


def half_filled_net():
    """Random counts of 1 to 5 on half the cells of the 400-neighborhood
    preset geometry, that of the benchmark's ``coarse`` city: 80,250 edges,
    with random masses."""
    rng = np.random.default_rng(9)
    n = 400
    W = np.where(rng.random((n, n)) < 0.5, rng.integers(1, 6, (n, n)), 0).astype(float)
    users, stores = rng.integers(1, 20, size=(2, n))
    return gravity_net(preset_table(n), users, stores, W)


def many_edges_net(edges=330_000):
    """Random counts of 1 to 5 on about ``edges`` random cells of the 1600-node
    preset geometry (309,870 for the default, near the 333,185 purchase
    edges of the 10x event city), with random masses; its edges lie at
    80,469 distinct distances, all that the geometry has."""
    rng = np.random.default_rng(10)
    o, d = np.divmod(np.unique(rng.integers(TABLE.n ** 2, size=edges)), TABLE.n)
    users, stores = rng.integers(1, 20, size=(2, TABLE.n))
    return InteractionNetwork(table=TABLE, flows=Flows(o, d, rng.integers(1, 6, len(o)), TABLE.n),
                              channel="purchase", user_counts=users, store_counts=stores)


def test_gravity_fit_holds_no_grid_of_distances():
    """The fit sums its normal equations a block of ``_BLOCK_EDGES`` edges at
    a time, so one bound holds at 80,250 edges and at 309,870: it peaks at
    1.30 and 3.93 MiB.  What grows is the sums at each distinct distance,
    8,641 and 80,469 of them, which the geometry bounds, not the edges.  The
    edges' own arrays held at once peaked at 4.71 and 19.21 MiB, 62 bytes an
    edge; taking every edge's distance at once too, 104 bytes an edge."""
    for net in (half_filled_net(), many_edges_net()):
        fit, peak = peak_bytes(lambda: fit_gravity(net))
        assert fit.n_pairs == net.flows.size
        assert peak < 4_600_000


def test_distance_sweep_holds_a_block_of_edges():
    """The sweep takes a block of ``_BLOCK_EDGES`` edges' distances and cells
    at a time and adds it into both sides' sums of every threshold, so one
    bound holds at 80,250 edges and at 309,870: it peaks at 0.44 and 0.47 MiB
    with five thresholds.  Every edge's distance at once, with each side's
    edges copied out, peaked at 7.35 and 28.37 MiB."""
    for net in (half_filled_net(), many_edges_net()):
        net, groups = replace(net, weighting="population_weighted"), assign_groups(net.table)
        steps, peak = peak_bytes(lambda: distance_sweep(
            net, groups, thresholds=[1.0, 2.0, 5.0, 10.0, 100.0]))
        assert len(steps) == 10 and all(s.valid for s in steps[::2])
        assert peak < 1_000_000


def test_edge_writer_holds_a_block_of_rows(tmp_path):
    """Writing 80,250 edges with distinct weights peaks at 4.8 MB; through
    ``csv.writer``, with every edge's Python values held, it peaked at 6.44 MB,
    80 bytes an edge.  Each block of rows is formatted, joined and written
    before the next, so no text of the whole file is held."""
    net = half_filled_net()
    weight = np.random.default_rng(3).random(net.flows.size) * 100
    net = replace(net, flows=replace(net.flows, weight=weight))
    edges = tmp_path / "edges.csv"
    _, peak = peak_bytes(lambda: write_network(net, edges, tmp_path / "header.json"))
    assert edges.read_text().count("\n") == net.flows.size + 1
    assert peak < 82 * net.flows.size
