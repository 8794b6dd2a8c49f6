"""Gravity-model fitting and simulation, plus attribute and location nulls.

The gravity law models a flow from i to j as
``c * n_i**beta1 * m_j**beta2 / (T_ij + eps)**alpha`` with origin mass n,
destination mass m, and centroid distance T.  Taking logs makes the fit
linear in (log c, beta1, beta2, alpha) for fixed eps, a weighted
least-squares solve with each observation weighted by its own flow value.
eps is chosen from a grid: the normal equations of every grid value are
built from sums over the edges at each distinct distance and solved
together, and the first of least residual wins.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .ingest import NeighborhoodTable, PurchaseLog, _run_starts
from .network import (_BLOCK_EDGES, _BLOCK_PAIRS, Flows, InteractionNetwork, _edge_km,
                      _row_blocks, _sized)
from .segregation import (DegenerateMatrixError, GroupAssignment, MixingMatrix, _cell_sums,
                          _cells, _compact_labels, _scored, asymmetry_bias, assortativity)

log = logging.getLogger(__name__)

DEFAULT_EPS_GRID = np.round(np.arange(0.0, 2.0 + 1e-9, 0.01), 10)
_COND_LIMIT = 1e12       # normal equations above this condition number are singular
_JACOBI_SWEEPS = 30      # a backstop: a 4 x 4 stack meets rounding level in about 6


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
        if not 0 < self.c < np.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be non-negative and finite, got {self.epsilon}")

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
    separately identifiable and is reported as 0.  Each eps has its own
    normal equations, built from sums over the edges at each distinct
    distance, so a grid picks what fitting each of its values alone does:
    the first of least residual among those whose condition number is at
    most ``_COND_LIMIT``.

    The sums are taken ``_BLOCK_EDGES`` edges at a time, so the fit holds a
    block of edges and the sums at each distinct distance, not arrays an
    edge.  Adding block by block rounds differently from one pass over all
    edges: the parameters agree with a one-pass solve to within 1e-9
    relative, and chose the same eps on the benchmark cities.  The sums,
    the solves and the condition numbers are numpy elementwise products and
    reductions, with no BLAS or LAPACK call, so the fit does not depend on
    the kernel or thread count OpenBLAS runs with.
    """
    grid = DEFAULT_EPS_GRID if eps_grid is None else np.asarray(eps_grid, dtype=float)
    if not np.all(np.isfinite(grid) & (grid >= 0)):
        raise ValueError("eps_grid values must be finite and non-negative")
    if not grid.size:
        raise ValueError("empty eps grid")
    n_o, n_d = _masses(net)
    rows, cols, w = net.flows
    if len(w) and not (w.min() > 0 and w.max() < np.inf):     # NaN fails both
        raise ValueError("flows must be finite and positive")
    n_pos = len(w)
    if n_pos < 20:
        raise ValueError(f"too few positive flow entries to fit: {n_pos} < 20")
    with np.errstate(divide="ignore", invalid="ignore"):    # a massless end is refused below
        log_o, log_d = np.log(n_o), np.log(n_d)
    massless_o, massless_d, km = n_o <= 0, n_d <= 0, _edge_km(net.table)

    def blocks():
        """Each block of edges: its ends, flows, log flows and centroid distances."""
        for start in range(0, n_pos, _BLOCK_EDGES):
            edges = slice(start, start + _BLOCK_EDGES)
            o, d = rows[edges].astype(np.intp), cols[edges].astype(np.intp)  # gathered by many
            yield o, d, w[edges], np.log(w[edges]), km(o, d)

    # pass 1: the distinct distances u, each block's merged into them once
    # a batch of _BLOCK_PAIRS has gathered, and the weighted mean log flow
    u, batch, w_sum, wy_sum = np.empty(0), [], 0.0, 0.0
    for o, d, wb, y, dist in blocks():
        if massless_o[o].any() or massless_d[d].any():
            raise ValueError("positive flow from/to a neighborhood with zero mass count")
        batch.append(_distinct(dist))
        if sum(map(len, batch)) >= _BLOCK_PAIRS:
            u, batch = _distinct(np.concatenate([u, *batch])), []
        w_sum += wb.sum()
        wy_sum += (wb * y).sum()
    u = _distinct(np.concatenate([u, *batch]))
    y_bar = wy_sum / w_sum
    # pass 2: the sums of the normal equations over the regressors
    # (1, log n_o, log n_d), and G, which sums w * (1, log n_o, log n_d, log w)
    # over the edges at each distinct distance, in edge order, as one bincount
    # over all edges does
    K3, v3, G = np.zeros((3, 3)), np.zeros(3), np.zeros((4, len(u)))
    wyy = tss = 0.0
    for o, d, wb, y, dist in blocks():
        lo, ld = log_o[o], log_d[d]
        wx = (wb, wb * lo, wb * ld, wb * y)
        for i in range(3):
            K3[i] += wx[i].sum(), (wx[i] * lo).sum(), (wx[i] * ld).sum()
            v3[i] += (wx[i] * y).sum()
        wyy += (wx[3] * y).sum()
        tss += (wb * (y - y_bar) ** 2).sum()
        by_dist = np.argsort(dist)          # sorted, the distances are found faster
        at = np.empty(len(dist), np.intp)
        at[by_dist] = np.searchsorted(u, dist[by_dist])
        for sums, col in zip(G, wx):
            np.add.at(sums, at, col)

    # the weighted normal equations K beta = v of every eps, over the three
    # regressors and the distance column d
    eps = np.zeros(1) if linear_distance else grid[u[0] + grid > 0]  # 0 km + eps 0 has no log
    if not len(eps):
        raise ValueError("no eps to fit: the grid holds only eps 0, and an edge has centroid "
                         "distance 0 km (a self-flow), where -log(distance + eps) is undefined")
    K = np.empty((len(eps), 4, 4))
    K[:, :3, :3] = K3
    v = np.empty((len(eps), 4))
    v[:, :3] = v3
    d, gd = -u, np.empty_like(u)   # gd: one row of G times d at a time, not a second G
    for i, e in enumerate(eps):
        if not linear_distance:
            np.negative(np.log(np.add(u, e, out=d), out=d), out=d)
        K[i, 1, 3], K[i, 2, 3], v[i, 3] = (np.multiply(row, d, out=gd).sum() for row in G[1:])
        K[i, 0, 3] = np.multiply(G[0], d, out=gd).sum()
        K[i, 3, 3] = np.multiply(gd, d, out=gd).sum()
        K[i, 3, :3] = K[i, :3, 3]
    # every system is solved: a singular one meets a zero pivot, and is refused below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta = _solve(K, v)
        rss = np.maximum(0.0, float(wyy) - 2.0 * (beta * v).sum(axis=1)
                         + ((K * beta[:, None, :]).sum(axis=2) * beta).sum(axis=1))
    # the first of least residual whose condition number passes; a system's
    # number does not depend on the rest of the stack, so only the systems
    # up to that one are conditioned, in stable residual order, NaN last
    for best in np.argsort(rss, kind="stable"):
        if _condition(K[best:best + 1])[0] <= _COND_LIMIT:
            break
    else:
        raise ValueError("collinear regressors at every eps: singular normal equations")
    eps_hat, beta, rss = float(eps[best]), beta[best], float(rss[best])
    if not linear_distance and eps_hat in (grid[0], grid[-1]):
        log.info("gravity fit of %s flows: eps %g is at an end of its grid %g..%g",
                 net.channel, eps_hat, grid[0], grid[-1])
    with np.errstate(over="ignore"):
        c = float(np.exp(beta[0]))
    if not np.isfinite(c):
        raise ValueError(f"the fitted log c, {beta[0]:.6g}, overflows c")
    return GravityParams(
        c=c, beta1=float(beta[1]), beta2=float(beta[2]),
        epsilon=eps_hat, alpha=float(beta[3]), channel=net.channel,
        r2_weighted=float(1.0 - rss / tss) if tss > 0 else None,
        residual_norm=float(np.sqrt(rss)), n_pairs=n_pos,
        zero_pairs_excluded=net.n ** 2 - n_pos, linear_distance=linear_distance,
    )


def _solve(K: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x with K x = v for each square matrix of the stack ``K`` and row of
    ``v``, by Gaussian elimination with partial pivoting; each system is
    solved on its own, in elementwise products and short sums."""
    n = K.shape[-1]
    A = np.concatenate([K, v[:, :, None]], axis=2)   # each system augmented by its v
    stack = np.arange(len(A))
    for col in range(n):
        pivot = col + np.argmax(np.abs(A[:, col:, col]), axis=1)
        A[stack, col], A[stack, pivot] = A[stack, pivot], A[stack, col]
        factor = A[:, col + 1:, col] / A[:, col, col, None]
        A[:, col + 1:, col:] -= factor[:, :, None] * A[:, None, col, col:]
    x = np.empty_like(v)
    for row in reversed(range(n)):
        rest = (A[:, row, row + 1:n] * x[:, row + 1:]).sum(axis=1)
        x[:, row] = (A[:, row, n] - rest) / A[:, row, row]
    return x


def _condition(K: np.ndarray) -> np.ndarray:
    """The 2-norm condition number of each symmetric matrix of the stack
    ``K``, read from its upper triangle: its largest over its smallest
    absolute eigenvalue, inf or NaN when that is 0.  The eigenvalues are
    the diagonal that cyclic Jacobi rotations leave once every off-diagonal
    entry is at rounding level beside its two diagonal entries, or after
    ``_JACOBI_SWEEPS`` sweeps.  A matrix stops rotating once it is there,
    so its number does not depend on the others in the stack."""
    n = K.shape[-1]
    A = np.triu(K) + np.triu(K, 1).transpose(0, 2, 1)
    diag, off = np.arange(n), ~np.eye(n, dtype=bool)
    for _ in range(_JACOBI_SWEEPS):
        scale = np.sqrt(np.abs(A[:, diag, diag]))
        level = np.finfo(float).eps * scale[:, :, None] * scale[:, None, :]
        active = (np.abs(A) > level)[:, off].any(axis=1)
        if not active.any():
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                # the rotation by the angle of tangent t that zeroes A[p, q]
                apq = A[:, p, q]
                with np.errstate(divide="ignore", invalid="ignore"):
                    theta = (A[:, q, q] - A[:, p, p]) / (2.0 * apq)
                    t = np.where(theta < 0, -1.0, 1.0) / (np.abs(theta) + np.hypot(theta, 1.0))
                t = np.where(active & (apq != 0), t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s, c = (t * c)[:, None], c[:, None]
                row_p, row_q = A[:, p], A[:, q]
                A[:, p], A[:, q] = c * row_p - s * row_q, s * row_p + c * row_q
                col_p, col_q = A[:, :, p], A[:, :, q]
                A[:, :, p], A[:, :, q] = c * col_p - s * col_q, s * col_p + c * col_q
                rotated = t != 0
                A[rotated, p, q] = A[rotated, q, p] = 0.0
    eig = np.abs(A[:, diag, diag])
    with np.errstate(divide="ignore", invalid="ignore"):
        return eig.max(axis=1) / eig.min(axis=1)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, sorted in place, ascending: what
    ``np.unique`` gives, without its copy of them."""
    values.sort()
    return values[_run_starts(values)]


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
    t = _edge_km(net.table)(o, d) + params.epsilon
    kernel = np.exp(-params.alpha * t) if params.linear_distance else t ** (-params.alpha)
    return params.c * ((n_o ** params.beta1)[o] * (n_d ** params.beta2)[d]) * kernel


def simulate_gravity(params: GravityParams, net: InteractionNetwork) -> InteractionNetwork:
    """Evaluate the gravity law (``_law``) on the masses and centroids of ``net``.

    The result is ``net`` with real-valued raw flows, strictly positive
    wherever both masses are positive and zero elsewhere; table and counts
    are kept.  The law is evaluated only on pairs with both masses nonzero,
    a block of origins of at most ``_BLOCK_PAIRS`` pairs at a time
    (``_row_blocks``), into edge arrays sized for those pairs.
    """
    n_o, n_d = _masses(net)
    origins, dests = np.flatnonzero(n_o), np.flatnonzero(n_d)
    size, end = len(origins) * len(dests), 0
    o_out, d_out, w_out = np.empty(size, np.int32), np.empty(size, np.int32), np.empty(size)
    for rows in _row_blocks(len(origins), len(dests)):   # _law's rules hold for any masses
        o = origins[rows]
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
    adjusted revenue aggregated by store neighborhood.  Two arrays an edge
    are held, its cell key and its scale; the law is read and the events
    are looked up ``_BLOCK_EDGES`` at a time.
    """
    n = arrays.n_neighborhoods
    emp = _sized(empirical_net.flows, n)
    scale = np.empty(emp.size)       # the law at each edge, then over its observed flow
    for start in range(0, max(emp.size, 1), _BLOCK_EDGES):   # _law's rules hold for no edges
        edges = slice(start, start + _BLOCK_EDGES)
        scale[edges] = _law(params, empirical_net, emp.origin[edges], emp.dest[edges])
        if np.any(scale[edges][emp.weight[edges] > 0] <= 0):
            raise ValueError("simulated flow is zero on a pair with observed flow")
    scale /= emp.weight
    # each edge's and event's cell, origin * n + dest, ascending for the
    # row-major edges; int64, as the int32 edge indices overflow once n > 46,340
    keys = emp.origin.astype(np.int64)
    keys *= n
    keys += emp.dest
    # np.add.at adds in input order, as a bincount over all events would
    revenue = np.zeros(n)
    for start in range(0, len(arrays.ev_amount), _BLOCK_EDGES):
        events = slice(start, start + _BLOCK_EDGES)
        cells = arrays.home_of_customer[arrays.ev_customer[events]]
        j = arrays.loc_of_store[arrays.ev_store[events]]
        cells *= n
        cells += j
        edge = np.searchsorted(keys, cells)
        if (not len(keys) or np.any(keys.take(edge, mode="clip") != cells)
                or np.any(emp.weight[edge] <= 0)):
            raise ValueError("event on a pair with zero empirical flow")
        np.add.at(revenue, j, scale[edge] * arrays.ev_amount[events])
    return revenue
