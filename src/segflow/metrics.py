"""Diversity entropies and plain correlation statistics.

An individual's behavioral diversity is the Shannon entropy (in nats) of
the distribution of their activity over targets: stores for purchases,
peers for mentions.  Neighborhood scores are arithmetic means over the
residents of each neighborhood.
"""
from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .ingest import MentionLog, NeighborhoodTable, PurchaseLog


def individual_diversity(counts) -> float:
    """Shannon entropy, natural log, of one activity-count distribution.

    ``counts`` is a mapping target -> count or a sequence of counts.
    Zero counts contribute nothing; an all-zero distribution is an error.
    """
    if isinstance(counts, Mapping):
        values = list(counts.values())
    else:
        values = list(counts)
    c = np.asarray(values, dtype=float)
    if c.size == 0 or not np.all(np.isfinite(c) & (c >= 0)):
        raise ValueError("counts must be finite, non-negative and non-empty")
    total = c.sum()
    if total <= 0:
        raise ValueError("empty activity")
    p = c[c > 0] / total
    # abs() folds the -0.0 produced by a single-target distribution
    return abs(float((p * np.log(p)).sum()))


def purchase_profiles(events: PurchaseLog) -> dict[str, dict[str, int]]:
    """Per-customer store visit counts, customers and their stores in
    first-seen order."""
    return _profiles(events.customer, events.store, events.customer_ids, events.store_ids)


def mention_profiles(mentions: MentionLog) -> dict[str, dict[str, int]]:
    """Per-user mention-target counts, users and targets in first-seen order."""
    return _profiles(mentions.source, mentions.target, mentions.user_ids, mentions.user_ids)


def _profiles(person: np.ndarray, target: np.ndarray, person_ids: Sequence[str],
              target_ids: Sequence[str]) -> dict[str, dict[str, int]]:
    """Each person's count per target, persons and each one's targets in
    first-seen order, which fixes the order of every float sum over them."""
    pairs, first, counts = np.unique(person * len(target_ids) + target,
                                     return_index=True, return_counts=True)
    order = np.argsort(first)
    person, target = np.divmod(pairs[order], len(target_ids))
    profiles: dict[str, dict[str, int]] = {}
    for p, t, count in zip(person.tolist(), target.tolist(), counts[order].tolist()):
        profiles.setdefault(person_ids[p], {})[target_ids[t]] = count
    return profiles


@dataclass
class NeighborhoodDiversity:
    """Mean resident diversity per neighborhood for one channel."""

    channel: str
    mean: dict[str, float]
    residents: dict[str, int]
    skipped: int = 0
    undefined: list[str] = field(default_factory=list)


def neighborhood_diversity(
    profiles: Mapping[str, Mapping[str, int]],
    homes: Mapping[str, str],
    channel: str,
    table: NeighborhoodTable | None = None,
) -> NeighborhoodDiversity:
    """Average individual diversity over the residents of each neighborhood.

    Individuals without a home assignment are skipped and counted.  When a
    table is supplied, neighborhoods with zero profiled residents are
    flagged as undefined rather than reported as zero.
    """
    sums: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    skipped = 0
    for person, target_counts in profiles.items():
        home = homes.get(person)
        if home is None:
            skipped += 1
            continue
        sums[home] += individual_diversity(target_counts)
        counts[home] += 1
    mean = {nid: sums[nid] / counts[nid] for nid in counts}
    undefined = []
    if table is not None:
        undefined = [nid for nid in table.ids if nid not in counts]
    return NeighborhoodDiversity(channel=channel, mean=mean,
                                 residents=dict(counts), skipped=skipped,
                                 undefined=undefined)


def pearson(x, y, weights=None) -> float:
    """Pearson correlation, optionally weighted by non-negative weights."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("x and y must have equal length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    if weights is None:
        w = np.ones_like(x)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != x.shape or not np.all(np.isfinite(w) & (w >= 0)) or w.sum() <= 0:
            raise ValueError("weights must be finite and non-negative with positive total")
    w = w / w.sum()
    mx = float(w @ x)
    my = float(w @ y)
    vx = float(w @ (x - mx) ** 2)
    vy = float(w @ (y - my) ** 2)
    if vx <= 0 or vy <= 0:
        raise ValueError("degenerate correlation")
    cov = float(w @ ((x - mx) * (y - my)))
    return min(1.0, max(-1.0, cov / np.sqrt(vx * vy)))


def write_diversity_csv(results: Sequence[NeighborhoodDiversity], path) -> None:
    """Emit the plot-ready table: neighborhood_id,channel,mean_diversity,resident_count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["neighborhood_id", "channel", "mean_diversity", "resident_count"])
        for res in results:
            for nid in sorted(res.mean):
                writer.writerow([nid, res.channel, repr(res.mean[nid]), res.residents[nid]])
