"""Resampling confidence intervals, GINI inequality, and the coupling report."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .ingest import NeighborhoodTable, PurchaseLog
from .network import (InteractionNetwork, build_purchase_network, centroid_distances,
                      population_weight, sampling_rate)
from .segregation import (DegenerateMatrixError, GroupAssignment, MixingMatrix,
                          SweepStep, assign_groups, assortativity, extremes_value,
                          group_cells, group_flows)
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


def _jackknife_flows(
    W: np.ndarray,
    groups: GroupAssignment,
    removal_fraction: float = 0.05,
    replicates: int = 100,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """k x k group flows of W and of each delete-a-fraction replicate.

    Replicate i drops floor(removal_fraction * E) of the E positive entries
    of W, drawn from the stream (seed, i) in row-major order, by subtracting
    their flows; a cell that lost all its edges is exactly 0.
    """
    if not 0.0 <= removal_fraction < 1.0:
        raise ValueError("removal_fraction must be in [0, 1)")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    o, d = np.nonzero(W > 0)
    w = W[o, d]
    k = groups.k
    cell = group_cells(o, d, groups.labels, k)

    def flows(cells, weights=None):
        return np.bincount(cells, weights=weights, minlength=k * k).reshape(k, k)

    M, counts = flows(cell, w), flows(cell)
    n_remove = int(removal_fraction * len(w))
    reps = np.repeat(M[None], replicates, axis=0)
    if n_remove == 0:
        return M, reps
    for rep in range(replicates):
        drop = np.random.default_rng((seed, rep)).choice(len(w), size=n_remove, replace=False)
        reps[rep] -= flows(cell[drop], w[drop])
        reps[rep][counts == flows(cell[drop])] = 0.0
    return M, reps


def _estimate(statistic: Callable[[np.ndarray], float], M: np.ndarray,
              reps: np.ndarray, removal_fraction: float) -> ResampleEstimate:
    """Score the full flows and each replicate from ``_jackknife_flows``.

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
    W: np.ndarray,
    statistic: Callable[[np.ndarray], float],
    groups: GroupAssignment,
    removal_fraction: float = 0.05,
    replicates: int = 100,
    seed: int = 0,
) -> ResampleEstimate:
    """Delete-a-fraction resampling of a statistic of the k x k group flows.

    ``statistic`` maps the flows of W and of each replicate (see
    ``_jackknife_flows``) to a number; the interval is the interpolated
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
    if int((net.W > 0).sum()) < 20:
        raise ValueError("network has fewer than 20 nonzero edges")
    return jackknife_statistic(net.W, flows_assortativity, groups,
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
    M, reps = _jackknife_flows(net.W, groups, removal_fraction, replicates, seed)
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
    if v.size == 0 or np.any(v < 0):
        raise ValueError("values must be non-negative and non-empty")
    total = v.sum()
    if total <= 0:
        raise ValueError("all-zero distribution")
    vs = np.sort(v)
    n = v.size
    ranks = np.arange(1, n + 1)
    return float(2.0 * (ranks @ vs) / (n * total) - (n + 1) / n)


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
    k: int = 10,
    ses_ascending: bool = True,
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
    excludes them reported in the row details.  All networks are
    population-weighted before assortativity.

    For the gravity row, scaling each transaction by observed/simulated
    flow cancels at the pair level, so its default revenues reproduce the
    observed ones; the variant that imposes the model's flows on observed
    amounts is surfaced in the row details.
    """
    if eps_grid is None:
        # the simulated network must evaluate the zero-distance diagonal,
        # so the fitted offset has to stay strictly positive
        eps_grid = np.round(np.arange(0.01, 2.0 + 1e-9, 0.01), 10)
    arrays = models.purchase_arrays(events, table)
    groups = assign_groups(table, k=k, ses_ascending=ses_ascending)
    emp_net = build_purchase_network(events, table)
    user_counts, store_counts = emp_net.user_counts, emp_net.store_counts
    has_store = store_counts > 0
    rows: list[InequalityRow] = []

    rev_emp = arrays.revenue()
    total_emp = float(rev_emp.sum())
    jk_emp = jackknife_statistic(population_weight(emp_net).W, flows_assortativity, groups,
                                 removal_fraction, jackknife_replicates, seed)
    gini_emp = gini(rev_emp)
    rows.append(InequalityRow(
        label="empirical", fraction=None,
        assortativity_mean=jk_emp.point, assortativity_std=jk_emp.std,
        gini_mean=gini_emp, gini_std=0.0, replicates=1, total_revenue=total_emp,
        details={"gini_excluding_storeless": gini(rev_emp[has_store])},
    ))

    dist = centroid_distances(table)
    params = gravity_params or models.fit_gravity(emp_net, dist, user_counts,
                                                  store_counts, eps_grid=eps_grid)
    sim_net = models.simulate_gravity(params, dist, user_counts, store_counts, table)
    jk_sim = jackknife_statistic(population_weight(sim_net).W, flows_assortativity, groups,
                                 removal_fraction, jackknife_replicates, seed)
    rev_imposed = models.adjust_gravity_amounts(arrays, emp_net, sim_net,
                                                direction="simulated_over_actual")
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
    inv_rate = 1.0 / sampling_rate(user_counts, table.population)
    for fraction in fractions:
        reps = models.reshuffle_locations(arrays, fraction, replicates=replicates, seed=seed)
        r_vals, g_vals, g_excl, totals = [], [], [], []
        for rep in reps:
            i, j = arrays.event_cells(rep.home, rep.loc)
            r_vals.append(flows_assortativity(
                group_flows(i, j, inv_rate[i], groups.labels, groups.k)))
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "fraction", "assortativity_mean", "assortativity_std",
                         "gini_mean", "gini_std", "replicates"])
        for row in rows:
            writer.writerow([
                row.label, "" if row.fraction is None else repr(row.fraction),
                repr(row.assortativity_mean), repr(row.assortativity_std),
                repr(row.gini_mean), repr(row.gini_std), row.replicates,
            ])


def write_report_details(rows: Sequence[InequalityRow], path) -> None:
    payload = [
        {"label": r.label, "fraction": r.fraction, "total_revenue": r.total_revenue,
         "details": r.details}
        for r in rows
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
