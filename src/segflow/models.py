"""Gravity-model fitting and simulation, plus attribute and location nulls.

The gravity law models a flow from i to j as
``c * n_i**beta1 * m_j**beta2 / (T_ij + eps)**alpha`` with origin mass n,
destination mass m, and centroid distance T.  Taking logs makes the fit
linear in (log c, beta1, beta2, alpha) for fixed eps, so eps is found by
grid search over weighted least-squares solves, each observation weighted
by its own flow value.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .ingest import NeighborhoodTable, PurchaseLog
from .network import InteractionNetwork
from .segregation import (DegenerateMatrixError, GroupAssignment, MixingMatrix,
                          assign_groups, asymmetry_bias, assortativity,
                          group_flows)

DEFAULT_EPS_GRID = np.round(np.arange(0.0, 2.0 + 1e-9, 0.01), 10)


@dataclass
class GravityParams:
    """Fitted or planted constants for one interaction channel."""

    c: float
    beta1: float
    beta2: float
    epsilon: float
    alpha: float
    channel: str = "purchase"
    r2_weighted: float | None = None
    residual_norm: float | None = None
    n_pairs: int | None = None
    zero_pairs_excluded: int | None = None
    linear_distance: bool = False

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

    def as_dict(self) -> dict:
        return asdict(self)


def fit_gravity(
    net: InteractionNetwork,
    dist: np.ndarray,
    origin_counts: Sequence[float],
    dest_counts: Sequence[float],
    eps_grid: Sequence[float] | None = None,
    weight_matrix: np.ndarray | None = None,
    linear_distance: bool = False,
) -> GravityParams:
    """Weighted least-squares fit of the gravity law to observed flows.

    Zero flows are excluded (their log is undefined) and each remaining
    observation is weighted by its own raw flow value unless an explicit
    ``weight_matrix`` is given.  ``linear_distance`` switches the distance
    regressor from -log(T+eps) to -T, in which case eps is not separately
    identifiable and is reported as 0.
    """
    W = net.W
    n_o = np.asarray(origin_counts, dtype=float)
    n_d = np.asarray(dest_counts, dtype=float)
    mask = W > 0
    n_pos = int(mask.sum())
    if n_pos < 20:
        raise ValueError(f"too few positive flow entries to fit: {n_pos} < 20")
    rows, cols = np.nonzero(mask)
    if np.any(n_o[rows] <= 0) or np.any(n_d[cols] <= 0):
        raise ValueError("positive flow from/to a neighborhood with zero mass count")
    y = np.log(W[mask])
    w = (weight_matrix[mask] if weight_matrix is not None else W[mask]).astype(float)
    if np.any(w <= 0):
        raise ValueError("fit weights must be positive on fitted pairs")
    T = dist[mask]
    A = np.column_stack([np.ones(n_pos), np.log(n_o[rows]), np.log(n_d[cols])])

    # eps-independent blocks of the weighted normal equations
    Aw = A * w[:, None]
    K11 = Aw.T @ A
    v1 = A.T @ (w * y)
    sw_yy = float(w @ (y ** 2))
    y_bar = float((w @ y) / w.sum())
    tss = float(w @ (y - y_bar) ** 2)

    def solve_for(d_col: np.ndarray):
        K = np.empty((4, 4))
        K[:3, :3] = K11
        k12 = A.T @ (w * d_col)
        K[:3, 3] = k12
        K[3, :3] = k12
        K[3, 3] = float(w @ (d_col ** 2))
        v = np.append(v1, float(w @ (d_col * y)))
        cond = np.linalg.cond(K)
        if not np.isfinite(cond) or cond > 1e12:
            raise np.linalg.LinAlgError(f"singular normal equations (cond={cond:.3e})")
        beta = np.linalg.solve(K, v)
        rss = max(0.0, sw_yy - 2.0 * float(beta @ v) + float(beta @ K @ beta))
        return beta, rss

    if linear_distance:
        try:
            beta, rss = solve_for(-T)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"collinear regressors: {exc}") from exc
        best = (0.0, beta, rss)
    else:
        grid = DEFAULT_EPS_GRID if eps_grid is None else np.asarray(eps_grid, dtype=float)
        best = None
        last_err = None
        for eps in grid:
            shifted = T + eps
            if np.any(shifted <= 0):
                continue
            try:
                beta, rss = solve_for(-np.log(shifted))
            except np.linalg.LinAlgError as exc:
                last_err = exc
                continue
            if best is None or rss < best[2]:
                best = (float(eps), beta, rss)
        if best is None:
            raise ValueError(f"collinear regressors at every eps: {last_err}")

    eps_hat, beta, rss = best
    return GravityParams(
        c=float(np.exp(beta[0])), beta1=float(beta[1]), beta2=float(beta[2]),
        epsilon=eps_hat, alpha=float(beta[3]), channel=net.channel,
        r2_weighted=(1.0 - rss / tss) if tss > 0 else None,
        residual_norm=float(np.sqrt(rss)), n_pairs=n_pos,
        zero_pairs_excluded=int(W.size - n_pos), linear_distance=linear_distance,
    )


def simulate_gravity(
    params: GravityParams,
    dist: np.ndarray,
    origin_counts: Sequence[float],
    dest_counts: Sequence[float],
    table: NeighborhoodTable,
) -> InteractionNetwork:
    """Evaluate the gravity law on a geometry, giving a simulated network.

    The result is real-valued and strictly positive wherever both masses
    are positive.  eps = 0 is rejected when any pair sits at distance 0.
    """
    if params.epsilon == 0 and not params.linear_distance and np.any(dist == 0):
        raise ValueError("distance singularity: eps = 0 with zero distances")
    n_o = np.asarray(origin_counts, dtype=float)
    n_d = np.asarray(dest_counts, dtype=float)
    if np.any(n_o < 0) or np.any(n_d < 0):
        raise ValueError("mass counts must be non-negative")
    if params.linear_distance:
        kernel = np.exp(-params.alpha * (dist + params.epsilon))
    else:
        kernel = (dist + params.epsilon) ** (-params.alpha)
    W = params.c * np.outer(n_o ** params.beta1, n_d ** params.beta2) * kernel
    return InteractionNetwork(
        nodes=list(table.ids), W=W, channel=params.channel, weighting="raw",
        population=table.population.copy(), ses=table.ses.copy(),
        user_counts=np.asarray(origin_counts, dtype=np.int64),
        store_counts=np.asarray(dest_counts, dtype=np.int64),
        simulated=True,
    )


@dataclass
class NullDistribution:
    """Assortativity and bias under random permutation of SES groups."""

    r_values: np.ndarray
    bias_values: np.ndarray
    seed: int
    discarded: int = 0

    @property
    def r_mean(self) -> float:
        return float(self.r_values.mean())

    @property
    def r_std(self) -> float:
        return float(self.r_values.std(ddof=1))

    @property
    def bias_mean(self) -> float:
        return float(self.bias_values.mean())

    @property
    def bias_std(self) -> float:
        return float(self.bias_values.std(ddof=1))


def null_shuffle_ses(
    net: InteractionNetwork,
    table: NeighborhoodTable,
    replicates: int = 100,
    seed: int = 0,
    k: int = 10,
    ses_ascending: bool = True,
    groups: GroupAssignment | None = None,
) -> NullDistribution:
    """Recompute r and bias after randomly permuting neighborhood status.

    Edge weights stay exactly as observed; only the node attribute moves.
    Replicate i draws its permutation from a stream derived from (seed, i),
    so results are reproducible and order-independent.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if groups is None:
        groups = assign_groups(table, k=k, ses_ascending=ses_ascending)
    if net.nodes != groups.nodes:
        raise ValueError("network and group assignment cover different node sets")
    o, d = np.nonzero(net.W)
    w = net.W[o, d]
    r_vals, bias_vals = [], []
    for rep in range(replicates):
        rng = np.random.default_rng((seed, rep))
        labels = groups.labels[rng.permutation(net.n)]
        try:
            mix = MixingMatrix.from_flows(group_flows(o, d, w, labels, groups.k), net.channel)
            r_vals.append(assortativity(mix))
            bias_vals.append(asymmetry_bias(mix))
        except DegenerateMatrixError:
            pass
    if not r_vals:
        raise ValueError("every null replicate was degenerate")
    return NullDistribution(r_values=np.array(r_vals), bias_values=np.array(bias_vals),
                            seed=seed, discarded=replicates - len(r_vals))


@dataclass
class PurchaseArrays:
    """The resolved events of a purchase log, as table indices, for fast
    reshuffling."""

    home_of_customer: np.ndarray
    loc_of_store: np.ndarray
    ev_customer: np.ndarray
    ev_store: np.ndarray
    ev_amount: np.ndarray
    n_neighborhoods: int

    def event_cells(self, home=None, loc=None) -> tuple[np.ndarray, np.ndarray]:
        """Home and store neighborhood index of every event."""
        home = self.home_of_customer if home is None else home
        loc = self.loc_of_store if loc is None else loc
        return home[self.ev_customer], loc[self.ev_store]

    def revenue(self, loc=None) -> np.ndarray:
        loc = self.loc_of_store if loc is None else loc
        return np.bincount(loc[self.ev_store], weights=self.ev_amount,
                           minlength=self.n_neighborhoods)


def purchase_arrays(events: PurchaseLog, table: NeighborhoodTable) -> PurchaseArrays:
    """Index customers, stores, and events against the neighborhood table.

    Events with an unknown home or store neighborhood are dropped, as in
    the network builder.
    """
    log, home, loc = events.resolved(table)
    if not len(log):
        raise ValueError("no resolvable purchase events")
    return PurchaseArrays(home_of_customer=home, loc_of_store=loc, ev_customer=log.customer,
                          ev_store=log.store, ev_amount=log.amount, n_neighborhoods=table.n)


@dataclass
class ReshuffleReplicate:
    """One relocation: every customer's home and every store's neighborhood."""

    arrays: PurchaseArrays = field(repr=False)
    home: np.ndarray
    loc: np.ndarray
    revenue: np.ndarray

    @property
    def W(self) -> np.ndarray:
        """Dense flow matrix, built on demand."""
        i, j = self.arrays.event_cells(self.home, self.loc)
        n = self.arrays.n_neighborhoods
        return np.bincount(i * n + j, minlength=n * n).reshape(n, n).astype(float)


def reshuffle_locations(
    arrays: PurchaseArrays,
    fraction: float,
    replicates: int = 50,
    seed: int = 0,
) -> list[ReshuffleReplicate]:
    """Randomly relocate a fraction of stores and customers, repeatedly.

    A replicate selects floor(fraction * count) stores and customers and
    permutes the selected stores' neighborhoods among themselves, likewise
    the selected customers' homes.  Per-neighborhood store and customer
    counts and every transaction amount are untouched; only the pairing of
    flows with places is broken.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    n_stores = arrays.loc_of_store.size
    n_cust = arrays.home_of_customer.size
    reps = []
    for rep in range(replicates):
        rng = np.random.default_rng((seed, int(round(fraction * 1000)), rep))
        loc = arrays.loc_of_store.copy()
        home = arrays.home_of_customer.copy()
        sel_s = rng.choice(n_stores, size=int(fraction * n_stores), replace=False)
        loc[sel_s] = loc[sel_s][rng.permutation(sel_s.size)]
        sel_c = rng.choice(n_cust, size=int(fraction * n_cust), replace=False)
        home[sel_c] = home[sel_c][rng.permutation(sel_c.size)]
        reps.append(ReshuffleReplicate(arrays=arrays, home=home, loc=loc,
                                       revenue=arrays.revenue(loc=loc)))
    return reps


def adjust_gravity_amounts(
    arrays: PurchaseArrays,
    empirical_net: InteractionNetwork,
    simulated_net: InteractionNetwork,
    direction: str = "actual_over_simulated",
) -> np.ndarray:
    """Rescale each transaction amount by a per-pair flow ratio.

    ``actual_over_simulated`` multiplies amounts on pair (i, j) by
    w_ij / w_hat_ij; ``simulated_over_actual`` imposes the model's flow
    level on the observed amounts instead.  Returns the adjusted revenue
    aggregated by store neighborhood.
    """
    if direction not in ("actual_over_simulated", "simulated_over_actual"):
        raise ValueError(f"unknown direction {direction!r}")
    W_emp = empirical_net.W
    W_sim = simulated_net.W
    if np.any(W_sim[W_emp > 0] <= 0):
        raise ValueError("simulated flow is zero on a pair with observed flow")
    i, j = arrays.event_cells()
    emp, sim = W_emp[i, j], W_sim[i, j]
    if np.any(emp <= 0):
        raise ValueError("event on a pair with zero empirical flow")
    ratio = emp / sim if direction == "actual_over_simulated" else sim / emp
    return np.bincount(j, weights=arrays.ev_amount * ratio, minlength=arrays.n_neighborhoods)
