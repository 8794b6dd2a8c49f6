"""Every analysis scores a network through one guard.

A network that is not population-weighted, or a grouping over other
nodes, is refused with the same message by every public analysis that
takes a network and the ``GroupAssignment`` it scores.  A flow matrix
that is not n x n for the n nodes scored is refused too.  The gravity
model reads its masses, and every analysis its distances, from the
network it models.
"""
import ast
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import segflow
from segflow import models, network, segregation, stats
from segflow.network import Flows, InteractionNetwork
from segflow.segregation import GroupAssignment, assign_groups

from conftest import make_table, purchase, purchase_log

TABLE = make_table(12, ses=np.arange(12.0), spacing_deg=0.03)
GROUPS = assign_groups(TABLE, k=4)
WEIGHTED = InteractionNetwork(
    table=TABLE, flows=Flows.from_matrix(np.random.default_rng(5).uniform(0.2, 1.5, (12, 12))),
    channel="purchase", weighting="population_weighted")
STEPS = segregation.extremes_sweep(WEIGHTED, GROUPS)
GRAVITY = replace(WEIGHTED, weighting="raw", user_counts=np.full(12, 30),
                  store_counts=np.arange(1, 13))

# Every public analysis of (net, groups), with its other arguments filled in.
ANALYSES = {
    "segregation.mixing_matrix": segregation.mixing_matrix,
    "segregation.extremes_sweep": segregation.extremes_sweep,
    "segregation.asymmetry_sweep": segregation.asymmetry_sweep,
    "segregation.distance_sweep": segregation.distance_sweep,
    "models.null_shuffle_ses": lambda net, groups: models.null_shuffle_ses(net, groups, 5),
    "stats.jackknife_assortativity": lambda net, groups: stats.jackknife_assortativity(
        net, groups, replicates=5),
    "stats.jackknife_extremes_sweep": lambda net, groups: stats.jackknife_extremes_sweep(
        net, groups, STEPS, replicates=5),
}
# The report builds its own network from events, so only its grouping can
# be wrong.
REPORT = {"stats.segregation_inequality_report": lambda net, groups: (
    stats.segregation_inequality_report(
        purchase_log([purchase("C1", "S1", "N00", "N01")]), TABLE, groups))}

OTHER_IDS = GroupAssignment(nodes=[f"M{i:02d}" for i in range(12)],
                            labels=GROUPS.labels[::-1].copy(), k=4)
CASES = {
    "raw": (replace(WEIGHTED, weighting="raw"), GROUPS,
            "expected a population-weighted network"),
    "other ids": (WEIGHTED, OTHER_IDS,
                  "network and group assignment cover different node sets"),
}


@pytest.mark.parametrize("name, case", [(name, case) for name in sorted(ANALYSES)
                                        for case in CASES] + [(*REPORT, "other ids")])
def test_refuses_what_it_cannot_score(name, case):
    net, groups, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        {**ANALYSES, **REPORT}[name](net, groups)


def test_every_network_analysis_is_listed():
    """A new public function of ``net`` and ``groups`` joins ANALYSES, so it
    cannot skip the guard unnoticed."""
    found = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
             for module in (segregation, models, stats)
             for name, fn in inspect.getmembers(module, inspect.isfunction)
             if fn.__module__ == module.__name__ and not name.startswith("_")
             and {"net", "groups"} <= set(inspect.signature(fn).parameters)}
    assert found == set(ANALYSES)


def test_no_analysis_takes_what_its_network_carries():
    """Masses and the census come from the network: no public function takes
    counts beside it, or a ``table`` beside a ``net``."""
    for module in (segregation, models, stats):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__ or name.startswith("_"):
                continue
            params = set(inspect.signature(fn).parameters)
            assert not params & {"origin_counts", "dest_counts"}, name
            assert not {"net", "table"} <= params, name


SLICE = WEIGHTED.W[:8, :8]
OFF_SIZE = {
    "segregation.mixing_from_matrix": (lambda: segregation.mixing_from_matrix(SLICE, GROUPS),
                                       "flow matrix is 8x8, not 12x12"),
    "stats.jackknife_statistic": (lambda: stats.jackknife_statistic(
        SLICE, stats.flows_assortativity, GROUPS, replicates=5), "flow matrix is 8x8, not 12x12"),
    "segregation.distance_sweep": (lambda: segregation.distance_sweep(
        replace(WEIGHTED, flows=Flows.from_matrix(SLICE)), GROUPS),
        "flow matrix is 8x8, not 12x12"),
    "models.fit_gravity": (lambda: models.fit_gravity(
        replace(GRAVITY, flows=Flows.from_matrix(SLICE))), "flow matrix is 8x8, not 12x12"),
}


@pytest.mark.parametrize("name", sorted(OFF_SIZE))
def test_matrix_of_other_size_refused(name):
    call, message = OFF_SIZE[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("name", ["segregation.mixing_matrix", "stats.jackknife_assortativity"])
def test_nan_edge_refused(name):
    W = WEIGHTED.W.copy()
    W[0, 1] = np.nan
    with pytest.raises(ValueError, match="group flows must be finite"):
        ANALYSES[name](replace(WEIGHTED, flows=Flows.from_matrix(W)), GROUPS)


def test_no_function_takes_a_distance_matrix():
    """Distances come from the centroids of the network's table, so no
    caller builds an n x n matrix to pass beside the network."""
    takers = [f"{module.__name__}.{name}"
              for module in (network, segregation, models, stats)
              for name, fn in inspect.getmembers(module, inspect.isfunction)
              if fn.__module__ == module.__name__ and not name.startswith("_")
              and "dist" in inspect.signature(fn).parameters]
    assert takers == []


@pytest.mark.parametrize("thresholds", [[np.nan], [1.0, np.inf]], ids=["nan", "inf"])
def test_non_finite_threshold_refused(thresholds):
    with pytest.raises(ValueError, match="^thresholds must be finite, positive and ascending$"):
        segregation.distance_sweep(WEIGHTED, GROUPS, thresholds=thresholds)


def test_no_module_reads_the_dense_view():
    """A network holds its flows as edges; ``net.W`` builds the n x n matrix
    on each read, for inspection and tests, so no module of the package
    reads it."""
    for path in sorted(Path(segflow.__file__).parent.glob("*.py")):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "W"]
        assert lines == [], f"{path.name} reads .W on lines {lines}"
