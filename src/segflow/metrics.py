"""Diversity entropies and plain correlation statistics.

An individual's behavioral diversity is the Shannon entropy (in nats) of
the distribution of their activity over targets: stores for purchases,
peers for mentions.  Neighborhood scores are arithmetic means over the
residents of each neighborhood.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .ingest import MentionLog, NeighborhoodTable, PurchaseLog, _run_starts, _write_csv
from .models import _BLOCK_PAIRS


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


@dataclass(eq=False)
class Profiles:
    """Each person's count per target, one entry per (person, target) pair,
    as codes into ``person_ids`` and ``target_ids``.  Pairs are grouped by
    person, persons and each one's targets in first-seen order, which fixes
    the order of every float sum over them."""

    person_ids: Sequence[str]
    target_ids: Sequence[str]
    person: np.ndarray
    target: np.ndarray
    count: np.ndarray


def purchase_profiles(events: PurchaseLog) -> Profiles:
    """Per-customer store visit counts."""
    return _profiles(events.customer, events.store, events.customer_ids, events.store_ids)


def mention_profiles(mentions: MentionLog) -> Profiles:
    """Per-user mention-target counts."""
    return _profiles(mentions.source, mentions.target, mentions.user_ids, mentions.user_ids)


def _profiles(person: np.ndarray, target: np.ndarray, person_ids: Sequence[str],
              target_ids: Sequence[str]) -> Profiles:
    # each pair's key, person * targets + target, sorted in place and
    # counted by runs, as ``Flows.counted`` counts cells
    n_t, n_events = len(target_ids), len(person)
    key = person * n_t
    key += target
    key.sort()
    starts = _run_starts(key)
    pairs = key[starts]
    del key
    count = np.diff(starts, append=n_events)
    del starts
    # each pair's first event: the events' keys looked up among the pairs
    # a block at a time
    first = np.full(len(pairs), n_events)
    for start in range(0, n_events, _BLOCK_PAIRS):
        key = person[start:start + _BLOCK_PAIRS] * n_t
        key += target[start:start + _BLOCK_PAIRS]
        np.minimum.at(first, np.searchsorted(pairs, key), np.arange(start, start + len(key)))
    # pairs are grouped by person code, which need not be first-seen among
    # persons (a mention's target is interned before it is ever a source):
    # persons go in the order of their first events, each one's pairs in
    # the order of theirs
    runs = _run_starts(pairs // n_t)
    rank = np.empty(len(runs), np.min_scalar_type(len(runs)))
    rank[np.argsort(np.minimum.reduceat(first, runs))] = np.arange(len(runs))
    order = np.lexsort((first, np.repeat(rank, np.diff(runs, append=len(pairs)))))
    del first, rank, runs
    pairs = pairs[order]
    count = count[order]
    del order
    person, target = np.divmod(pairs, n_t)
    return Profiles(person_ids, target_ids, person, target, count)


@dataclass
class NeighborhoodDiversity:
    """Mean resident diversity per neighborhood for one channel."""

    channel: str
    mean: dict[str, float]
    residents: dict[str, int]
    skipped: int = 0
    undefined: list[str] = field(default_factory=list)


def neighborhood_diversity(
    profiles: Profiles,
    homes: Sequence[str | None],
    channel: str,
    table: NeighborhoodTable,
) -> NeighborhoodDiversity:
    """Average individual diversity over the residents of each neighborhood.

    ``homes`` gives the home neighborhood id of each of
    ``profiles.person_ids``.  Profiled persons whose home is None or not in
    ``table`` are skipped and counted.  Neighborhoods with zero profiled
    residents are flagged as undefined rather than reported as zero.
    """
    starts = _run_starts(profiles.person)
    sizes = np.diff(starts, append=len(profiles.person))
    # each pair's share p of its person's count, then its term p log p, in
    # one array: the log is taken a block at a time
    terms = np.repeat(np.add.reduceat(profiles.count, starts).astype(float), sizes)
    np.divide(profiles.count, terms, out=terms)
    for start in range(0, len(terms), _BLOCK_PAIRS):
        p = terms[start:start + _BLOCK_PAIRS]
        p *= np.log(p)
    # each entropy equals ``individual_diversity`` bit for bit: the terms of
    # the persons with m targets are summed as the rows of (persons, m)
    # blocks of at most _BLOCK_PAIRS terms, pairwise per row as numpy sums
    # one person's terms; abs folds -0.0
    entropy = np.empty(len(starts))
    for m in np.flatnonzero(np.bincount(sizes)).tolist():      # the distinct sizes
        which = np.flatnonzero(sizes == m)
        for rows in np.array_split(which, -(-len(which) * m // _BLOCK_PAIRS)):
            entropy[rows] = np.abs(terms[starts[rows, None] + np.arange(m)].sum(axis=1))
    row = table.rows(homes)[profiles.person[starts]]
    placed = row >= 0
    residents = np.bincount(row[placed], minlength=table.n)
    sums = np.bincount(row[placed], weights=entropy[placed], minlength=table.n)
    homed = np.flatnonzero(residents)
    ids = [table.ids[i] for i in homed.tolist()]
    return NeighborhoodDiversity(
        channel=channel, mean=dict(zip(ids, (sums[homed] / residents[homed]).tolist())),
        residents=dict(zip(ids, residents[homed].tolist())), skipped=int((~placed).sum()),
        undefined=[table.ids[i] for i in np.flatnonzero(residents == 0).tolist()])


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
    mx = float((w * x).sum())
    my = float((w * y).sum())
    vx = float((w * (x - mx) ** 2).sum())
    vy = float((w * (y - my) ** 2).sum())
    if vx <= 0 or vy <= 0:
        raise ValueError("degenerate correlation")
    cov = float((w * (x - mx) * (y - my)).sum())
    return min(1.0, max(-1.0, cov / np.sqrt(vx * vy)))


def write_diversity_csv(results: Sequence[NeighborhoodDiversity], path) -> None:
    """Emit the plot-ready table: neighborhood_id,channel,mean_diversity,resident_count."""
    _write_csv(path, ("neighborhood_id", "channel", "mean_diversity", "resident_count"),
               ((nid, res.channel, repr(res.mean[nid]), res.residents[nid])
                for res in results for nid in sorted(res.mean)))
