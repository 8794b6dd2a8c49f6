"""The n x n steps build each dense matrix once, with no full-size temporaries.

On the 1600-neighborhood preset geometry one n x n float matrix is 20.5 MB,
and short-lived copies of it, not the networks, used to set the pipeline's
peak memory.  Each guard measures, with tracemalloc, the peak of what one
call allocates beyond what was live before it.
"""
import tracemalloc

import numpy as np

from segflow.network import centroid_distances, population_weight
from segflow.segregation import assign_groups, distance_sweep

from conftest import preset_table, sparse_net

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
