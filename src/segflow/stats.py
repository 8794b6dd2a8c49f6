"""Edge-removal bands, GINI inequality, and the coupling report.

The band is the spread of a statistic over replicates that each drop a
share of the edges.  It is not a confidence interval: a replicate shares
most of its edges with the full network, so the band is narrower than the
statistic's sampling spread.  On the ``preset`` city, seeds 1-12, the
purchase channel's 95% band holds the 12-seed mean of r in 2 of 12 cities.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .ingest import NeighborhoodTable, PurchaseLog, _write_csv, _write_json
from .network import (Flows, InteractionNetwork, _population_weights, _sized,
                      build_purchase_network, population_weight, sampling_rate)
from .segregation import (DegenerateMatrixError, GroupAssignment, MixingMatrix, SweepStep,
                          _cell_sums, _cells, _compact_labels, _scored, assortativity,
                          extremes_value)
from . import models


@dataclass
class ResampleEstimate:
    """Point estimate plus replicate distribution from edge-removal resampling."""

    point: float
    values: np.ndarray
    ci_low: float
    ci_high: float
    std: float
    replicates: int
    discarded: int
    removal_fraction: float


def _jackknife_flows(W: Flows, groups: GroupAssignment, removal_fraction: float,
                     replicates: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """k x k group flows of W and of each replicate of ``_jackknife_cells``
    over W's edges, each edge's cell formed once from W's ends."""
    return _jackknife_cells(_edge_cells(W, groups), W.weight, groups.k,
                            removal_fraction, replicates, seed)


def _edge_cells(W: Flows, groups: GroupAssignment) -> np.ndarray:
    """The k x k group cell of each edge of W, once W is shown to span
    ``groups``' nodes: one byte an edge for k <= 16."""
    o, d, _ = _sized(W, len(groups.nodes))
    lab = _compact_labels(groups.labels, groups.k)
    return _cells(lab, o, lab, d, groups.k)


def _jackknife_cells(cells: np.ndarray, w: np.ndarray, k: int, removal_fraction: float,
                     replicates: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """k x k sums of the edge weights ``w`` over their ``cells`` and of each
    delete-a-fraction replicate.

    Replicate i drops floor(removal_fraction * E) of the E edges (the
    nonzero entries the mixing matrix sums), drawn from the stream (seed, i)
    in row-major order, by subtracting their flows; a cell that lost all its
    edges is exactly 0.  Only the cells and weights are read, so a caller
    may free the edges' ends before the draws.
    """
    if not 0.0 <= removal_fraction < 1.0:
        raise ValueError("removal_fraction must be in [0, 1)")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    M, counts = _cell_sums(cells, w, k), _cell_sums(cells, None, k)
    n_remove = int(removal_fraction * len(w))
    reps = np.repeat(M[None], replicates, axis=0)
    if n_remove == 0:
        return M, reps
    # the dropped edges are copied into buffers reused by every replicate:
    # fresh copies fragment the block that each draw's index of every edge
    # frees, and preset gini-report then peaked 7.5 MB higher
    lost, lost_w = np.empty(n_remove, cells.dtype), np.empty(n_remove, w.dtype)
    for rep in range(replicates):
        drop = np.random.default_rng((seed, rep)).choice(len(w), size=n_remove, replace=False)
        cells.take(drop, out=lost, mode="clip")
        w.take(drop, out=lost_w, mode="clip")
        reps[rep] -= _cell_sums(lost, lost_w, k)
        reps[rep][counts == _cell_sums(lost, None, k)] = 0.0
    return M, reps


def _estimate(statistic: Callable[[np.ndarray], float], M: np.ndarray,
              reps: np.ndarray, removal_fraction: float) -> ResampleEstimate:
    """Score the full flows and each replicate from ``_jackknife_cells``.

    The interval is the interpolated 2.5/97.5 percentile of the replicate
    values.  Degenerate replicates are discarded; more than 20% is an error.
    """
    point = statistic(M)
    values = []
    for Mr in reps:
        try:
            values.append(statistic(Mr))
        except DegenerateMatrixError:
            pass
    discarded = len(reps) - len(values)
    if discarded > 0.2 * len(reps):
        raise ValueError(f"{discarded}/{len(reps)} resampling replicates were degenerate")
    arr = np.array(values)
    ci_low, ci_high = np.percentile(arr, [2.5, 97.5])
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return ResampleEstimate(point=point, values=arr, ci_low=float(ci_low),
                            ci_high=float(ci_high), std=std,
                            replicates=len(values), discarded=discarded,
                            removal_fraction=removal_fraction)


def jackknife_statistic(
    W: Flows,
    statistic: Callable[[np.ndarray], float],
    groups: GroupAssignment,
    removal_fraction: float = 0.05,
    replicates: int = 100,
    seed: int = 0,
) -> ResampleEstimate:
    """Delete-a-fraction resampling of a statistic of the k x k group flows.

    ``statistic`` maps the flows of W and of each replicate (see
    ``_jackknife_cells``) to a number; the interval is the interpolated
    2.5/97.5 percentile of the replicate values.
    """
    M, reps = _jackknife_flows(W, groups, removal_fraction, replicates, seed)
    return _estimate(statistic, M, reps, removal_fraction)


def flows_assortativity(M: np.ndarray) -> float:
    """Assortativity of a k x k group flow matrix."""
    return assortativity(MixingMatrix.from_flows(M))


def jackknife_assortativity(
    net: InteractionNetwork,
    groups: GroupAssignment,
    removal_fraction: float = 0.05,
    replicates: int = 100,
    seed: int = 0,
) -> ResampleEstimate:
    """Sampling variability of assortativity under random edge removal."""
    flows = _scored(net, groups)
    if flows.size < 20:
        raise ValueError("network has fewer than 20 nonzero edges")
    return jackknife_statistic(flows, flows_assortativity, groups,
                               removal_fraction=removal_fraction,
                               replicates=replicates, seed=seed)


def jackknife_extremes_sweep(
    net: InteractionNetwork,
    groups: GroupAssignment,
    steps: Sequence[SweepStep],
    removal_fraction: float = 0.05,
    replicates: int = 100,
    seed: int = 0,
) -> None:
    """Attach edge-removal intervals to the valid steps of ``extremes_sweep``,
    scoring one shared set of replicates with ``extremes_value``."""
    M, reps = _jackknife_flows(_scored(net, groups), groups, removal_fraction, replicates, seed)
    for t, step in enumerate(steps, start=1):
        if step.valid:
            est = _estimate(partial(extremes_value, t=t), M, reps, removal_fraction)
            step.ci_low, step.ci_high = est.ci_low, est.ci_high
            step.std, step.replicates = est.std, est.replicates


def gini(values) -> float:
    """GINI coefficient of a non-negative distribution.

    Equals sum_ij |v_i - v_j| / (2 n^2 mean(v)); 0 is perfect equality and
    (n-1)/n the maximum for a single concentrated value.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v) & (v >= 0)):
        raise ValueError("values must be finite, non-negative and non-empty")
    total = v.sum()
    if total <= 0:
        raise ValueError("all-zero distribution")
    vs = np.sort(v)
    n = v.size
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks * vs).sum() / (n * total) - (n + 1) / n)


def _reshuffle_flows(arrays: models.PurchaseArrays, rep: models.ReshuffleReplicate,
                     lab: np.ndarray, k: int, inv_rate: np.ndarray) -> np.ndarray:
    """k x k flows of a reshuffle replicate, each event weighted by the
    ``inv_rate`` of its customer's home, from the groups of homes and stores:
    ``lab``, each neighborhood's label as ``_compact_labels`` gives it.  The
    events are summed ``_BLOCK_PAIRS`` at a time into one k x k array, bit
    for bit ``_cell_sums`` over all of them, since ``np.add.at`` adds in
    input order across calls too."""
    home_lab, loc_lab, weight = lab[rep.home], lab[rep.loc], inv_rate[rep.home]
    sums = np.zeros(k * k)
    for start in range(0, len(arrays.ev_customer), models._BLOCK_PAIRS):
        events = slice(start, start + models._BLOCK_PAIRS)
        customer = arrays.ev_customer[events]
        np.add.at(sums, _cells(home_lab, customer, loc_lab, arrays.ev_store[events], k),
                  weight[customer])
    return sums.reshape(k, k)


@dataclass
class InequalityRow:
    label: str
    fraction: float | None
    assortativity_mean: float
    assortativity_std: float
    gini_mean: float
    gini_std: float
    replicates: int
    total_revenue: float
    details: dict = field(default_factory=dict)


def segregation_inequality_report(
    events: PurchaseLog,
    table: NeighborhoodTable,
    groups: GroupAssignment,
    gravity_params: models.GravityParams | None = None,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    replicates: int = 50,
    seed: int = 0,
    eps_grid: Sequence[float] | None = None,
    jackknife_replicates: int = 100,
    removal_fraction: float = 0.05,
) -> list[InequalityRow]:
    """Couple segregation (assortativity) with revenue inequality (GINI).

    Rows: the empirical purchase network, the gravity-model network, and
    location reshuffles at each fraction (mean and std over replicates).
    Revenue per neighborhood is the total transaction amount at its stores;
    store-less neighborhoods enter the GINI as zeros, with the variant that
    excludes them reported in the row details.  Every network is
    population-weighted and scored over ``groups``, a grouping of ``table``.

    For the gravity row, scaling each transaction by observed/fitted flow
    would cancel at the pair level and reproduce the observed revenues, so
    its GINI is the empirical one; ``gini_imposed_flows`` in the row details
    scales each transaction by the fitted law read at its observed pair over
    the observed flow, imposing the model's flows on observed amounts.
    """
    if eps_grid is None:
        # the simulated network must evaluate the zero-distance diagonal,
        # so the fitted offset has to stay strictly positive
        eps_grid = models.DEFAULT_EPS_GRID[1:]
    arrays = models.purchase_arrays(events, table)
    emp_net = build_purchase_network(events, table)
    has_store = emp_net.store_counts > 0
    rows: list[InequalityRow] = []

    rev_emp = arrays.revenue()
    total_emp = float(rev_emp.sum())
    jk_emp = jackknife_statistic(_scored(population_weight(emp_net), groups),
                                 flows_assortativity, groups,
                                 removal_fraction, jackknife_replicates, seed)
    gini_emp = gini(rev_emp)
    rows.append(InequalityRow(
        label="empirical", fraction=None,
        assortativity_mean=jk_emp.point, assortativity_std=jk_emp.std,
        gini_mean=gini_emp, gini_std=0.0, replicates=1, total_revenue=total_emp,
        details={"gini_excluding_storeless": gini(rev_emp[has_store])},
    ))

    params = gravity_params or models.fit_gravity(emp_net, eps_grid=eps_grid)
    rev_imposed = models.adjust_gravity_amounts(arrays, emp_net, params)
    # the jackknife reads each simulated edge's group cell and weight only:
    # the raw weights, held here alone, are population-weighted in place,
    # and the int32 ends go once the cells are formed, before the draws
    sim = models.simulate_gravity(params, emp_net)
    w = _population_weights(sim, out=sim.flows.weight)
    cells = _edge_cells(sim.flows, groups)
    del sim
    M, reps = _jackknife_cells(cells, w, groups.k, removal_fraction, jackknife_replicates, seed)
    del cells, w
    jk_sim = _estimate(flows_assortativity, M, reps, removal_fraction)
    rows.append(InequalityRow(
        label="gravity", fraction=None,
        assortativity_mean=jk_sim.point, assortativity_std=jk_sim.std,
        gini_mean=gini_emp, gini_std=0.0, replicates=1, total_revenue=total_emp,
        details={
            "gini_excluding_storeless": gini(rev_emp[has_store]),
            "gini_imposed_flows": gini(rev_imposed),
            "total_revenue_imposed_flows": float(rev_imposed.sum()),
            "fit": params.as_dict(),
        },
    ))

    # reshuffles keep every neighborhood's customer count, so each event
    # carries its home's population weight whatever home it moves to
    inv_rate = 1.0 / sampling_rate(emp_net.user_counts, table.population)
    k, lab = groups.k, _compact_labels(groups.labels, groups.k)
    for fraction in fractions:
        reps = models.reshuffle_locations(arrays, fraction, replicates=replicates, seed=seed)
        r_vals, g_vals, g_excl, totals = [], [], [], []
        for rep in reps:
            r_vals.append(flows_assortativity(_reshuffle_flows(arrays, rep, lab, k, inv_rate)))
            g_vals.append(gini(rep.revenue))
            g_excl.append(gini(rep.revenue[has_store]))
            totals.append(float(rep.revenue.sum()))
        r_arr = np.array(r_vals)
        g_arr = np.array(g_vals)
        rows.append(InequalityRow(
            label="reshuffle", fraction=float(fraction),
            assortativity_mean=float(r_arr.mean()),
            assortativity_std=float(r_arr.std(ddof=1)) if r_arr.size > 1 else 0.0,
            gini_mean=float(g_arr.mean()),
            gini_std=float(g_arr.std(ddof=1)) if g_arr.size > 1 else 0.0,
            replicates=len(reps), total_revenue=float(np.mean(totals)),
            details={"gini_excluding_storeless_mean": float(np.mean(g_excl))},
        ))
    return rows


def write_report_csv(rows: Sequence[InequalityRow], path) -> None:
    _write_csv(path, ("label", "fraction", "assortativity_mean", "assortativity_std",
                      "gini_mean", "gini_std", "replicates"),
               ((row.label, "" if row.fraction is None else repr(row.fraction),
                 repr(row.assortativity_mean), repr(row.assortativity_std),
                 repr(row.gini_mean), repr(row.gini_std), row.replicates) for row in rows))


def write_report_details(rows: Sequence[InequalityRow], path) -> None:
    payload = [
        {"label": r.label, "fraction": r.fraction, "total_revenue": r.total_revenue,
         "details": r.details}
        for r in rows
    ]
    _write_json(path, payload)
