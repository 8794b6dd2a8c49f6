"""No step holds n x n temporaries, and a network holds only its edges.

On the 1600-neighborhood preset geometry one n x n float matrix is 20.5 MB,
and short-lived copies of it, then the dense networks themselves, used to
set the pipeline's peak memory.  Each guard measures, with tracemalloc, the
peak of what one call allocates beyond what was live before it.
"""
import tracemalloc

import numpy as np
import pytest

from segflow.ingest import MentionLog, PurchaseLog
from segflow.models import GravityParams, simulate_gravity
from segflow.network import (build_mention_network, build_purchase_network,
                             centroid_distances, population_weight)
from segflow.segregation import assign_groups, distance_sweep, mixing_matrix

from conftest import gravity_net, preset_table, sparse_net

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


def test_mention_weighting_allocates_only_its_result():
    """The weighted flows are divided into the n x n scale buffer."""
    raw = sparse_net(TABLE, 9000, channel="mention", weighting="raw")
    weighted, peak = peak_bytes(lambda: population_weight(raw))
    assert weighted.W.nbytes == MATRIX_BYTES
    assert peak < 1.1 * MATRIX_BYTES


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
    rng = np.random.default_rng(6)
    users, stores = rng.integers(0, 3, size=(2, TABLE.n))
    net = gravity_net(TABLE, users, stores)
    params = GravityParams(c=0.5, beta1=0.8, beta2=0.7, epsilon=0.5, alpha=0.6)
    sim, peak = peak_bytes(lambda: simulate_gravity(params, net))
    f = sim.flows
    held = f.origin.nbytes + f.dest.nbytes + f.weight.nbytes
    assert f.size == np.count_nonzero(users) * np.count_nonzero(stores)
    assert peak < 1.75 * held
