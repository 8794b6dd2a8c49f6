"""Socio-economic grouping, mixing matrices, assortativity, and sweeps.

Neighborhoods are ranked into k equally sized status groups; flows are
aggregated into k x k mixing matrices; segregation is the assortative
mixing coefficient of the globally normalized matrix (Newman, Mixing
patterns in networks, Phys. Rev. E 67, 026126, 2003).  Sweeps re-run the
coefficient on extreme-group submatrices and on distance-pruned networks,
and the asymmetry bias measures the poor-to-rich excess of flow mass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import NeighborhoodTable, _run_starts, _write_csv
from .network import (_BLOCK_EDGES, Flows, InteractionNetwork, _edge_km, _row_blocks, _sized,
                      haversine_km)


class DegenerateMatrixError(ValueError):
    """A mixing matrix has no mass or no attribute variance."""


@dataclass
class GroupAssignment:
    """Map from neighborhood to status group 1..k, ascending in SES."""

    nodes: list[str]
    labels: np.ndarray
    k: int

    def __post_init__(self):
        if len(self.labels) != len(self.nodes):
            raise ValueError(f"{len(self.labels)} group labels for {len(self.nodes)} nodes")
        _compact_labels(self.labels, self.k)


def assign_groups(table: NeighborhoodTable, k: int = 10, ses_ascending: bool = True) -> GroupAssignment:
    """Split neighborhoods into k contiguous SES blocks of near-equal size.

    Sorting is by (score, neighborhood_id) so ties are stable across runs.
    When n is not divisible by k, the lowest-status groups take the extra
    member.  ``ses_ascending=False`` negates the score first, for indices
    where larger means poorer.
    """
    n = table.n
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"need at least k={k} neighborhoods, got {n}")
    score = table.ses if ses_ascending else -table.ses
    order = np.lexsort((np.asarray(table.ids, dtype=object), score))
    base, extra = divmod(n, k)
    labels = np.zeros(n, dtype=np.int64)
    labels[order] = np.repeat(np.arange(1, k + 1), base + (np.arange(1, k + 1) <= extra))
    return GroupAssignment(nodes=list(table.ids), labels=labels, k=k)


@dataclass
class MixingMatrix:
    """k x k aggregate flows with stochastic and globally normalized views."""

    M: np.ndarray
    S: np.ndarray
    e: np.ndarray
    group_values: np.ndarray

    @classmethod
    def from_flows(cls, M: np.ndarray) -> "MixingMatrix":
        """Stochastic and normalized views of a k x k group flow matrix.
        Non-finite flows are a plain ValueError, which no replicate loop skips."""
        if not np.isfinite(M).all():
            raise ValueError("group flows must be finite")
        total = M.sum()
        if total <= 0:
            raise DegenerateMatrixError("no interaction mass")
        row_sums = M.sum(axis=1, keepdims=True)
        S = np.divide(M, row_sums, out=np.zeros_like(M), where=row_sums > 0)
        return cls(M=M, S=S, e=M / total,
                   group_values=np.arange(1, M.shape[0] + 1, dtype=float))


def _compact_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """Group labels 1..k as 0..k-1, in the smallest unsigned type that holds
    every cell index up to k*k - 1 (uint8 for k <= 16).  A label outside
    1..k is refused: its cell would wrap, not fail."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"group labels must be integers, not {labels.dtype}")
    bad = np.flatnonzero((labels < 1) | (labels > k))
    if bad.size:
        raise ValueError(f"group label {labels[bad[0]]} at position {bad[0]} is outside 1..{k}")
    return (labels - 1).astype(np.min_scalar_type(k * k - 1))


def _cells(lab_o: np.ndarray, o: np.ndarray, lab_d: np.ndarray, d: np.ndarray,
           k: int) -> np.ndarray:
    """The k x k cell, ``lab_o[o] * k + lab_d[d]``, of each edge or event,
    from compact labels (``_compact_labels``) of its two ends, in their type."""
    cells = (lab_o * k)[o]
    cells += lab_d[d]
    return cells


def _cell_sums(cells: np.ndarray, w: np.ndarray | None, k: int) -> np.ndarray:
    """k x k sums of ``w`` over ``cells``, float64; ``w=None`` counts, in
    int64.  Bit for bit ``np.bincount`` (both add in input order), without
    the intp copy of the cells that it makes."""
    sums = np.zeros(k * k, dtype=np.int64 if w is None else float)
    np.add.at(sums, cells, 1 if w is None else w)
    return sums.reshape(k, k)


def group_flows(o: np.ndarray, d: np.ndarray, w: np.ndarray | None,
                labels: np.ndarray, k: int) -> np.ndarray:
    """k x k edge weight sums by (origin, destination) group 1..k; ``w=None`` counts."""
    lab = _compact_labels(labels, k)
    return _cell_sums(_cells(lab, o, lab, d, k), w, k)


def _scored(net: InteractionNetwork, groups: GroupAssignment) -> Flows:
    """The flows of ``net``, once it is shown fit to score over ``groups``:
    population-weighted and over the same nodes.  Every analysis of a
    network calls this first."""
    if net.weighting != "population_weighted":
        raise ValueError("expected a population-weighted network")
    if net.nodes != groups.nodes:
        raise ValueError("network and group assignment cover different node sets")
    return net.flows


def mixing_from_matrix(W: Flows, groups: GroupAssignment) -> MixingMatrix:
    """Aggregate the edges of n x n flows, raw or weighted, into group space."""
    o, d, w = _sized(W, len(groups.nodes))
    return MixingMatrix.from_flows(group_flows(o, d, w, groups.labels, groups.k))


def mixing_matrix(net: InteractionNetwork, groups: GroupAssignment) -> MixingMatrix:
    """Aggregate a population-weighted network's flows by status group."""
    return mixing_from_matrix(_scored(net, groups), groups)


def _assortativity_e(e: np.ndarray, x: np.ndarray) -> float:
    a = e.sum(axis=1)
    b = e.sum(axis=0)
    mean_a = float((x * a).sum())
    mean_b = float((x * b).sum())
    var_a = float((x ** 2 * a).sum() - mean_a ** 2)
    var_b = float((x ** 2 * b).sum() - mean_b ** 2)
    # mass on a single group has zero variance, whatever rounding leaves
    if var_a <= 0 or var_b <= 0 or np.count_nonzero(a) < 2 or np.count_nonzero(b) < 2:
        raise DegenerateMatrixError("degenerate attribute distribution")
    cov = float((x[:, None] * e * x).sum() - mean_a * mean_b)
    return min(1.0, max(-1.0, cov / float(np.sqrt(var_a * var_b))))


def assortativity(mix: MixingMatrix) -> float:
    """Assortative mixing coefficient of the globally normalized matrix.

    This is the Pearson correlation of the group attribute across the two
    endpoints of every unit of edge weight: with marginals a_x (out) and
    b_y (in) of e, r = sum_xy x*y*(e_xy - a_x*b_y) / (sigma_a * sigma_b).
    1 is perfectly assortative, 0 is random mixing.
    """
    return _assortativity_e(mix.e, mix.group_values)


def asymmetry_bias(mix: MixingMatrix) -> float:
    """Excess of flow mass from lower- to higher-status groups.

    With rows ordered by ascending origin status, this is the upper
    triangle of e minus the lower triangle, diagonal excluded; positive
    means poorer areas direct more interaction toward richer ones than
    the other way around.
    """
    e = mix.e
    return float(np.triu(e, 1).sum() - np.tril(e, -1).sum())


@dataclass
class SweepStep:
    descriptor: str
    param: float
    value: float
    valid: bool = True
    std: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    replicates: int | None = None


def extremes_value(M: np.ndarray, t: int, statistic: str = "assortativity") -> float:
    """Assortativity (or ``"bias"``) of k x k flows restricted to the t lowest
    and t highest status groups and renormalized; attribute values are the
    original group labels.
    """
    k = M.shape[0]
    keep = np.r_[0:t, k - t:k]
    mix = MixingMatrix.from_flows(M[np.ix_(keep, keep)])
    if statistic != "assortativity":
        return asymmetry_bias(mix)
    return _assortativity_e(mix.e, keep + 1.0)


def extremes_sweep(
    net: InteractionNetwork,
    groups: GroupAssignment,
    statistic: str = "assortativity",
) -> list[SweepStep]:
    """Assortativity over nested extreme-group submatrices.

    Step t keeps the t lowest and t highest status groups (see
    ``extremes_value``).  The final step equals the full-matrix
    statistic.  Degenerate steps are flagged invalid, not raised: on a
    network with no flow, every step.
    """
    if groups.k % 2 != 0:
        raise ValueError("extremes sweep needs an even number of groups")
    k = groups.k
    try:
        M = mixing_matrix(net, groups).M
    except DegenerateMatrixError:
        M = np.zeros((k, k))
    steps = []
    for t in range(1, k // 2 + 1):
        desc = f"groups=1..{t},{k - t + 1}..{k}" if t > 1 else f"groups=1,{k}"
        try:
            value = extremes_value(M, t, statistic)
            steps.append(SweepStep(descriptor=desc, param=float(t), value=value))
        except DegenerateMatrixError:
            steps.append(SweepStep(descriptor=desc, param=float(t), value=float("nan"), valid=False))
    return steps


def asymmetry_sweep(net: InteractionNetwork, groups: GroupAssignment) -> list[SweepStep]:
    """Poor-to-rich bias over the same nested extreme-group submatrices."""
    return extremes_sweep(net, groups, statistic="bias")


def _distance_blocks(table: NeighborhoodTable):
    """The distances in km from each block of rows to the columns after its
    first row: the upper triangle of the centroid distance matrix, and the
    block's own lower part."""
    lat, lon = table.lat, table.lon
    for rows in _row_blocks(table.n, table.n):
        after = slice(rows.start + 1, None)
        yield haversine_km(lat[rows, None], lon[rows, None], lat[after], lon[after])


def default_thresholds(table: NeighborhoodTable) -> np.ndarray:
    """The quintiles of all pairwise centroid distances of ``table``: the
    thresholds ``distance_sweep`` uses when given none."""
    # the upper triangle, row by row (the order of triu_indices), filled
    # into one vector that the percentile may partition
    pairs, end = np.empty(table.n * (table.n - 1) // 2), 0
    for block in _distance_blocks(table):
        for r, row in enumerate(block):
            pairs[end:end + len(row) - r] = row[r:]
            end += len(row) - r
    return _percentiles(pairs, (20, 40, 60, 80, 100))


def _percentiles(values: np.ndarray, q) -> np.ndarray:
    """``np.percentile(values, q)`` with its default linear method, bit for
    bit, for a 1-d float array, which is partitioned in place.

    It partitions at every index numpy does, the first and last among
    them, since which of two equal values (-0.0 and 0.0) lands at an index
    depends on all of them, and interpolates as numpy's lerp does.  numpy
    takes those indices from a bare ``np.unique``, which imports
    ``numpy.ma`` (about 1.3 MB of pages); here a sort does.  An index at or
    past n - 1 reads the last order statistic as index -1, with numpy's
    weight ``at + 1``, which decides the sign of a zero there."""
    n = len(values)
    at = (n - 1) * np.true_divide(q, 100)
    lo = np.floor(at).astype(np.intp)
    hi, last = lo + 1, at >= n - 1
    lo[last] = hi[last] = -1
    kth = np.sort(np.concatenate(([0, -1], lo, hi)))
    values.partition(kth[_run_starts(kth)])
    a, b = values[lo], values[hi]
    g = at - lo
    out = a + (b - a) * g
    np.subtract(b, (b - a) * (1 - g), out=out, where=g >= 0.5)
    if np.isnan(values[-1]):            # a NaN sorts last, and makes every percentile NaN
        out[:] = values[-1]
    return out


def distance_sweep(
    net: InteractionNetwork,
    groups: GroupAssignment,
    thresholds: Sequence[float] | None = None,
) -> list[SweepStep]:
    """Assortativity of short- versus long-distance interactions.

    For each threshold d the network is split into a "within" part
    (pairs at distance <= d, which always includes the diagonal) and a
    "beyond" part (pairs at distance > d); each part is aggregated,
    renormalized, and scored separately.  Thresholds default to
    ``default_thresholds(net.table)``.
    A side with no remaining mass or no variance is flagged invalid.
    The edges are taken ``_BLOCK_EDGES`` at a time: each block's distances
    and group cells, and its weights added into both sides' k x k sums of
    every threshold, bit for bit the sums over all edges at once, since
    ``np.add.at`` adds in input order across calls too.
    """
    i, j, w = _scored(net, groups)
    if thresholds is None:
        thresholds = default_thresholds(net.table)
    thresholds = [float(d) for d in thresholds]
    if (not all(0 < d < np.inf for d in thresholds)
            or any(b <= a for a, b in zip(thresholds, thresholds[1:]))):
        raise ValueError("thresholds must be finite, positive and ascending")
    k, lab, km = groups.k, _compact_labels(groups.labels, groups.k), _edge_km(net.table)
    sums = np.zeros((len(thresholds), 2, k * k))       # (threshold, within | beyond, cell)
    for start in range(0, len(w), _BLOCK_EDGES):
        edges = slice(start, start + _BLOCK_EDGES)
        o, d = i[edges].astype(np.intp), j[edges].astype(np.intp)
        dist, cells, wb = km(o, d), _cells(lab, o, lab, d, k), w[edges]
        for side, d_max in zip(sums, thresholds):
            within = dist <= d_max
            for M, keep in zip(side, (within, ~within)):
                np.add.at(M, cells[keep], wb[keep])
    steps = []
    for d, side in zip(thresholds, sums):
        for name, M in zip(("within", "beyond"), side):
            desc = f"{name}:{d:.6g}km"
            try:
                mix = MixingMatrix.from_flows(M.reshape(k, k))
                steps.append(SweepStep(descriptor=desc, param=d, value=assortativity(mix)))
            except DegenerateMatrixError:
                steps.append(SweepStep(descriptor=desc, param=d, value=float("nan"), valid=False))
    return steps


def write_sweep_csv(steps: Sequence[SweepStep], path) -> None:
    _write_csv(path, ("step", "param", "r_or_bias", "ci_low", "ci_high", "valid"),
               ((idx, s.descriptor, repr(s.value) if s.valid else "",
                 "" if s.ci_low is None else repr(s.ci_low),
                 "" if s.ci_high is None else repr(s.ci_high), int(s.valid))
                for idx, s in enumerate(steps, start=1)))


def write_mixing_csv(mix: MixingMatrix, path, view: str = "e") -> None:
    """Write one view (M, S, or e) of a mixing matrix as a labeled grid."""
    matrix = np.asarray(getattr(mix, view), dtype=float)
    labels = [str(int(v)) for v in mix.group_values]
    _write_csv(path, ["group", *labels],
               ([name, *map(repr, row)] for name, row in zip(labels, matrix.tolist())))
