"""Socio-economic grouping, mixing matrices, assortativity, and sweeps.

Neighborhoods are ranked into k equally sized status groups; flows are
aggregated into k x k mixing matrices; segregation is the assortative
mixing coefficient of the globally normalized matrix (Newman, Mixing
patterns in networks, Phys. Rev. E 67, 026126, 2003).  Sweeps re-run the
coefficient on extreme-group submatrices and on distance-pruned networks,
and the asymmetry bias measures the poor-to-rich excess of flow mass.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ingest import NeighborhoodTable
from .network import Flows, InteractionNetwork, _distance_blocks, _edges, haversine_km


class DegenerateMatrixError(ValueError):
    """A mixing matrix has no mass or no attribute variance."""


@dataclass
class GroupAssignment:
    """Map from neighborhood to status group 1..k, ascending in SES."""

    nodes: list[str]
    labels: np.ndarray
    k: int

    def label_of(self, neighborhood_id: str) -> int:
        return int(self.labels[self.nodes.index(neighborhood_id)])


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
    zero_rows: list[int] = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.M.shape[0]

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
        zero_rows = [int(i) for i in np.nonzero(row_sums[:, 0] == 0)[0]]
        return cls(M=M, S=S, e=M / total,
                   group_values=np.arange(1, M.shape[0] + 1, dtype=float),
                   zero_rows=zero_rows)


def group_flows(o: np.ndarray, d: np.ndarray, w: np.ndarray | None,
                labels: np.ndarray, k: int) -> np.ndarray:
    """k x k edge weight sums by (origin, destination) group 1..k; ``w=None`` counts."""
    cells = (labels[o] - 1) * k + (labels[d] - 1)
    return np.bincount(cells, weights=w, minlength=k * k).reshape(k, k)


def _scored(net: InteractionNetwork, groups: GroupAssignment) -> Flows:
    """The flows of ``net``, once it is shown fit to score over ``groups``:
    population-weighted and over the same nodes.  Every analysis of a
    network calls this first."""
    if net.weighting != "population_weighted":
        raise ValueError("expected a population-weighted network")
    if net.nodes != groups.nodes:
        raise ValueError("network and group assignment cover different node sets")
    return net.flows


def mixing_from_matrix(W: Flows | np.ndarray, groups: GroupAssignment) -> MixingMatrix:
    """Aggregate n x n flows, raw or weighted, edges or a dense matrix, into
    group space."""
    o, d, w = _edges(W, len(groups.nodes))
    return MixingMatrix.from_flows(group_flows(o, d, w, groups.labels, groups.k))


def mixing_matrix(net: InteractionNetwork, groups: GroupAssignment) -> MixingMatrix:
    """Aggregate a population-weighted network's flows by status group."""
    return mixing_from_matrix(_scored(net, groups), groups)


def _assortativity_e(e: np.ndarray, x: np.ndarray) -> float:
    a = e.sum(axis=1)
    b = e.sum(axis=0)
    mean_a = float(x @ a)
    mean_b = float(x @ b)
    var_a = float((x ** 2) @ a - mean_a ** 2)
    var_b = float((x ** 2) @ b - mean_b ** 2)
    # mass on a single group has zero variance, whatever rounding leaves
    if var_a <= 0 or var_b <= 0 or np.count_nonzero(a) < 2 or np.count_nonzero(b) < 2:
        raise DegenerateMatrixError("degenerate attribute distribution")
    cov = float(x @ e @ x - mean_a * mean_b)
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


def distance_sweep(
    net: InteractionNetwork,
    groups: GroupAssignment,
    thresholds: Sequence[float] | None = None,
) -> list[SweepStep]:
    """Assortativity of short- versus long-distance interactions.

    For each threshold d the network is split into a "within" part
    (pairs at distance <= d, which always includes the diagonal) and a
    "beyond" part (pairs at distance > d); each part is aggregated,
    renormalized, and scored separately.  Thresholds default to the
    quintiles of the vector of all pairwise centroid distances.
    A side with no remaining mass or no variance is flagged invalid.
    """
    i, j, w = _edges(_scored(net, groups), net.n)
    if thresholds is None:
        # the upper triangle, row by row (the order of triu_indices), filled
        # from row blocks into one vector that the percentile may partition
        n = net.n
        pairs, end = np.empty(n * (n - 1) // 2), 0
        for rows, block in _distance_blocks(net.table):
            for r, row in enumerate(block, start=rows.start):
                pairs[end:end + n - r - 1] = row[r + 1:]
                end += n - r - 1
        thresholds = np.percentile(pairs, (20, 40, 60, 80, 100), overwrite_input=True)
    thresholds = [float(d) for d in thresholds]
    if (not all(0 < d < np.inf for d in thresholds)
            or any(b <= a for a, b in zip(thresholds, thresholds[1:]))):
        raise ValueError("thresholds must be finite, positive and ascending")
    lat, lon = net.table.lat, net.table.lon
    edge_dist = haversine_km(lat[i], lon[i], lat[j], lon[j])
    steps = []
    for d in thresholds:
        within = edge_dist <= d
        for side, mask in (("within", within), ("beyond", ~within)):
            desc = f"{side}:{d:.6g}km"
            try:
                mix = MixingMatrix.from_flows(
                    group_flows(i[mask], j[mask], w[mask], groups.labels, groups.k))
                steps.append(SweepStep(descriptor=desc, param=d, value=assortativity(mix)))
            except DegenerateMatrixError:
                steps.append(SweepStep(descriptor=desc, param=d, value=float("nan"), valid=False))
    return steps


def write_sweep_csv(steps: Sequence[SweepStep], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "param", "r_or_bias", "ci_low", "ci_high", "valid"])
        for idx, s in enumerate(steps, start=1):
            writer.writerow([
                idx, s.descriptor, repr(s.value) if s.valid else "",
                "" if s.ci_low is None else repr(s.ci_low),
                "" if s.ci_high is None else repr(s.ci_high),
                int(s.valid),
            ])


def write_mixing_csv(mix: MixingMatrix, path, view: str = "e") -> None:
    """Write one view (M, S, or e) of a mixing matrix as a labeled grid."""
    matrix = getattr(mix, view)
    labels = [str(int(v)) for v in mix.group_values]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group"] + labels)
        for name, row in zip(labels, matrix):
            writer.writerow([name] + [repr(float(v)) for v in row])
