"""Gravity-model fitting and simulation, plus attribute and location nulls.

The gravity law models a flow from i to j as
``c * n_i**beta1 * m_j**beta2 / (T_ij + eps)**alpha`` with origin mass n,
destination mass m, and centroid distance T.  Taking logs makes the fit
linear in (log c, beta1, beta2, alpha) for fixed eps, a weighted
least-squares solve with each observation weighted by its own flow value.
eps is chosen from a grid: the normal equations of every grid value are
scanned from sums over the distinct distances, and the exact solve over
the edges decides among the few values that the scan cannot rule out.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .ingest import NeighborhoodTable, PurchaseLog
from .network import Flows, InteractionNetwork, _sized, haversine_km
from .segregation import (DegenerateMatrixError, GroupAssignment, MixingMatrix, _cell_sums,
                          _cells, _compact_labels, _scored, asymmetry_bias, assortativity)

log = logging.getLogger(__name__)

DEFAULT_EPS_GRID = np.round(np.arange(0.0, 2.0 + 1e-9, 0.01), 10)
_BLOCK_PAIRS = 1 << 15   # (origin, destination) pairs of the law evaluated at a time
_BLOCK_VALUES = 1 << 16  # (distinct distance, eps) values of the grid scan at a time
_COND_LIMIT = 1e12       # normal equations above this condition number are singular
_RSS_MARGIN = 1e-9       # scanned residuals this share of sum(w*y**2) above the least may win


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


def _masses(net: InteractionNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Origin and destination mass of the gravity law on ``net``: users at
    the origin, and stores (purchases) or users (mentions) at the destination."""
    dest = net.store_counts if net.channel == "purchase" else net.user_counts
    if net.user_counts is None or dest is None:
        raise ValueError("the gravity model needs the network's user counts "
                         "and, for purchases, its store counts")
    return np.asarray(net.user_counts, dtype=float), np.asarray(dest, dtype=float)


def fit_gravity(
    net: InteractionNetwork,
    eps_grid: Sequence[float] | None = None,
    linear_distance: bool = False,
) -> GravityParams:
    """Weighted least-squares fit of the gravity law to the flows of ``net``,
    with the masses it carries (see ``_masses``).

    Each edge of ``net.flows`` is an observation weighted by its own raw
    flow value; an explicit zero edge (it has no log) is refused, as is a
    negative or non-finite flow or eps.  ``linear_distance`` switches the
    distance regressor from -log(T+eps) to -T, in which case eps is not
    separately identifiable and is reported as 0.
    """
    grid = DEFAULT_EPS_GRID if eps_grid is None else np.asarray(eps_grid, dtype=float)
    if not np.all(np.isfinite(grid) & (grid >= 0)):
        raise ValueError("eps_grid values must be finite and non-negative")
    n_o, n_d = _masses(net)
    rows, cols, w = net.flows
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("flows must be finite and positive")
    n_pos = len(w)
    if n_pos < 20:
        raise ValueError(f"too few positive flow entries to fit: {n_pos} < 20")
    if np.any(n_o[rows] <= 0) or np.any(n_d[cols] <= 0):
        raise ValueError("positive flow from/to a neighborhood with zero mass count")
    y = np.log(w)
    lat, lon = net.table.lat, net.table.lon
    T = haversine_km(lat[rows], lon[rows], lat[cols], lon[cols])
    if not linear_distance:     # taken before A, while few edge arrays are held
        u, at = np.unique(T, return_inverse=True)
        G = np.stack([np.bincount(at, weights=col, minlength=len(u)) for col in (
            w, w * np.log(n_o[rows]), w * np.log(n_d[cols]), w * y)])
        del at
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
        if not np.isfinite(cond) or cond > _COND_LIMIT:
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
        best = None
        last_err = None
        # the exact solves decide among the scan's candidates, or else over the whole grid
        for eps_set in (_eps_candidates(u, G, K11, v1, sw_yy, grid), grid):
            for eps in eps_set:
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
            if best is not None:
                break
        if best is None:
            raise ValueError(f"collinear regressors at every eps: {last_err}")
        if best[0] in (grid[0], grid[-1]):
            log.info("gravity fit of %s flows: eps %g is at an end of its grid %g..%g",
                     net.channel, best[0], grid[0], grid[-1])

    eps_hat, beta, rss = best
    return GravityParams(
        c=float(np.exp(beta[0])), beta1=float(beta[1]), beta2=float(beta[2]),
        epsilon=eps_hat, alpha=float(beta[3]), channel=net.channel,
        r2_weighted=(1.0 - rss / tss) if tss > 0 else None,
        residual_norm=float(np.sqrt(rss)), n_pairs=n_pos,
        zero_pairs_excluded=net.n ** 2 - n_pos, linear_distance=linear_distance,
    )


def _eps_candidates(u, G, K11, v1, sw_yy: float, grid: np.ndarray) -> np.ndarray:
    """The values of ``grid``, in grid order, at which the exact fit may be
    best.  The scan builds the 4 x 4 normal equations of each eps from
    ``G``, the sums of w * (1, log n_o, log n_d, log w) over the edges at
    each distinct distance ``u`` (ascending), taking -log(u + eps) for a
    block of eps values at a time, and solves them together.  A candidate
    is a value whose condition number lies within 100x of ``_COND_LIMIT``,
    where the scan cannot tell whether the exact solve succeeds, or a
    better-conditioned one whose residual is within ``_RSS_MARGIN * sw_yy``
    of the least of those."""
    eps = grid[u[0] + grid > 0]     # eps 0 beside a zero distance has no log
    K = np.empty((len(eps), 4, 4))
    K[:, :3, :3] = K11
    v = np.empty((len(eps), 4))
    v[:, :3] = v1
    step = max(1, _BLOCK_VALUES // len(u))
    for start in range(0, len(eps), step):
        block = slice(start, start + step)
        log_d = np.log(eps[block, None] + u)       # minus the distance column, an eps a row
        kv = log_d @ G.T
        K[block, :3, 3] = K[block, 3, :3] = -kv[:, :3]
        v[block, 3] = -kv[:, 3]
        log_d *= log_d
        K[block, 3, 3] = log_d @ G[0]
    finite = np.isfinite(K).all(axis=(1, 2))
    K[~finite] = np.eye(4)          # svd refuses them, and the exact solve finds them singular
    U, sv, Vh = np.linalg.svd(K)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(finite, sv[:, 0] / sv[:, -1], np.nan)
        beta = np.einsum("bj,bji->bi", np.einsum("bji,bj->bi", U, v) / sv, Vh)
        rss = np.maximum(0.0, sw_yy - 2.0 * np.einsum("bi,bi->b", beta, v)
                         + np.einsum("bi,bij,bj->b", beta, K, beta))
    safe = (cond < _COND_LIMIT / 100) & np.isfinite(rss)
    near_least = safe & (rss <= rss[safe].min(initial=np.inf) + _RSS_MARGIN * sw_yy)
    return eps[near_least | (~safe & (cond <= _COND_LIMIT * 100))]


def _law(params: GravityParams, net: InteractionNetwork, o, d) -> np.ndarray:
    """The law's flow from nodes ``o`` to nodes ``d``, index arrays that
    broadcast against each other, on the masses (see ``_masses``) and
    centroids of ``net``.  Negative masses are refused, and so is eps = 0
    unless the distance is linear: each node is 0 km from itself."""
    if params.epsilon == 0 and not params.linear_distance:
        raise ValueError("distance singularity: eps = 0 with zero distances")
    n_o, n_d = _masses(net)
    if np.any(n_o < 0) or np.any(n_d < 0):
        raise ValueError("mass counts must be non-negative")
    lat, lon = net.table.lat, net.table.lon
    t = haversine_km(lat[o], lon[o], lat[d], lon[d]) + params.epsilon
    kernel = np.exp(-params.alpha * t) if params.linear_distance else t ** (-params.alpha)
    return params.c * ((n_o ** params.beta1)[o] * (n_d ** params.beta2)[d]) * kernel


def simulate_gravity(params: GravityParams, net: InteractionNetwork) -> InteractionNetwork:
    """Evaluate the gravity law (``_law``) on the masses and centroids of ``net``.

    The result is ``net`` with real-valued raw flows, strictly positive
    wherever both masses are positive and zero elsewhere; table and counts
    are kept.  The law is evaluated only on pairs with both masses nonzero,
    a block of origins of at most ``_BLOCK_PAIRS`` pairs at a time, into
    edge arrays sized for those pairs.
    """
    n_o, n_d = _masses(net)
    origins, dests = np.flatnonzero(n_o), np.flatnonzero(n_d)
    size = len(origins) * len(dests)
    o_out, d_out, w_out = np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size)
    end, rows = 0, max(1, _BLOCK_PAIRS // max(len(dests), 1))
    for start in range(0, max(len(origins), 1), rows):   # _law's rules hold for any masses
        o = origins[start:start + rows]
        flow = _law(params, net, o[:, None], dests)
        keep = flow != 0          # row-major, as np.nonzero; NaN is kept
        stop = end + np.count_nonzero(keep)
        w_out[end:stop] = flow[keep]
        o_out[end:stop] = np.repeat(o, np.count_nonzero(keep, axis=1))
        d_out[end:stop] = np.broadcast_to(dests, flow.shape)[keep]
        end = stop
    flows = Flows(o_out[:end], d_out[:end], w_out[:end], net.n)
    return replace(net, flows=flows, weighting="raw", dropped_events=0, simulated=True)


@dataclass
class NullDistribution:
    """Assortativity and bias under random permutation of SES groups."""

    r_values: np.ndarray
    bias_values: np.ndarray
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
    groups: GroupAssignment,
    replicates: int = 100,
    seed: int = 0,
) -> NullDistribution:
    """Recompute r and bias after randomly permuting the status groups.

    Edge weights stay exactly as observed; only the node attribute moves.
    Replicate i draws its permutation from a stream derived from (seed, i),
    so results are reproducible and order-independent.
    """
    o, d, w = _scored(net, groups)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    k, lab = groups.k, _compact_labels(groups.labels, groups.k)
    o, d = o.astype(np.intp), d.astype(np.intp)   # gathered by every replicate
    r_vals, bias_vals = [], []
    for rep in range(replicates):
        rng = np.random.default_rng((seed, rep))
        labels = lab[rng.permutation(net.n)]
        try:
            mix = MixingMatrix.from_flows(_cell_sums(_cells(labels, o, labels, d, k), w, k))
            r_vals.append(assortativity(mix))
            bias_vals.append(asymmetry_bias(mix))
        except DegenerateMatrixError:
            pass
    if not r_vals:
        raise ValueError("every null replicate was degenerate")
    discarded = replicates - len(r_vals)
    log.info("SES-shuffle null: discarded %d of %d replicates as degenerate", discarded, replicates)
    return NullDistribution(r_values=np.array(r_vals), bias_values=np.array(bias_vals),
                            discarded=discarded)


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
    store_amount: np.ndarray    # each store's total amount, summed once

    def event_cells(self, home=None, loc=None) -> tuple[np.ndarray, np.ndarray]:
        """Home and store neighborhood index of every event."""
        home = self.home_of_customer if home is None else home
        loc = self.loc_of_store if loc is None else loc
        return home[self.ev_customer], loc[self.ev_store]

    def revenue(self, loc=None) -> np.ndarray:
        """Total amount at the stores of each neighborhood, stores placed by
        ``loc``: a sum over stores, not events."""
        loc = self.loc_of_store if loc is None else loc
        return np.bincount(loc, weights=self.store_amount, minlength=self.n_neighborhoods)


def purchase_arrays(events: PurchaseLog, table: NeighborhoodTable) -> PurchaseArrays:
    """Index customers, stores, and events against the neighborhood table.

    Events with an unknown home or store neighborhood are dropped, as in
    the network builder.
    """
    log, home, loc = events.resolved(table)
    if not len(log):
        raise ValueError("no resolvable purchase events")
    return PurchaseArrays(home_of_customer=home, loc_of_store=loc, ev_customer=log.customer,
                          ev_store=log.store, ev_amount=log.amount, n_neighborhoods=table.n,
                          store_amount=np.bincount(log.store, weights=log.amount,
                                                   minlength=loc.size))


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
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
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
    params: GravityParams,
) -> np.ndarray:
    """Rescale each transaction amount on pair (i, j) by w_hat_ij / w_ij,
    the fitted law (``_law``) over the observed flow of ``empirical_net``,
    imposing the model's flow level on the observed amounts.  Returns the
    adjusted revenue aggregated by store neighborhood.
    """
    n = arrays.n_neighborhoods
    emp = _sized(empirical_net.flows, n)
    w_hat = _law(params, empirical_net, emp.origin, emp.dest)
    if np.any(w_hat[emp.weight > 0] <= 0):
        raise ValueError("simulated flow is zero on a pair with observed flow")
    # each edge's and event's cell, origin * n + dest, ascending for the
    # row-major edges; int64, as the int32 edge indices overflow once n > 46,340
    keys = emp.origin.astype(np.int64)
    keys *= n
    keys += emp.dest
    cells, j = arrays.event_cells()
    cells *= n
    cells += j
    edge = np.searchsorted(keys, cells)
    if len(keys):
        edge[keys.take(edge, mode="clip") != cells] = len(keys)    # not an edge
    del cells
    if np.any(np.append(emp.weight, 0.0)[edge] <= 0):
        raise ValueError("event on a pair with zero empirical flow")
    return np.bincount(j, weights=(w_hat / emp.weight)[edge] * arrays.ev_amount, minlength=n)
