import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segflow import metrics, network
from segflow.ingest import NeighborhoodTable
from segflow.metrics import (Profiles, individual_diversity, mention_profiles,
                             neighborhood_diversity, pearson,
                             purchase_profiles)

import ingest_reference as reference
from conftest import make_table, mention, mention_log, profile_dict, purchase, purchase_log

counts_strategy = st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12)


class TestIndividualDiversity:
    def test_single_target_zero(self):
        assert individual_diversity({"A": 5}) == 0.0

    def test_uniform_is_log_n(self):
        d = individual_diversity({"A": 1, "B": 1, "C": 1, "D": 1})
        assert abs(d - math.log(4)) < 1e-12

    def test_hand_computed_three_one(self):
        d = individual_diversity({"A": 3, "B": 1})
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert abs(d - 0.5623351446188083) < 1e-12
        assert abs(d - expected) < 1e-15

    def test_zero_counts_ignored(self):
        assert individual_diversity({"A": 3, "B": 1, "C": 0}) == individual_diversity({"A": 3, "B": 1})

    def test_empty_activity_errors(self):
        with pytest.raises(ValueError, match="empty activity"):
            individual_diversity({"A": 0, "B": 0})
        with pytest.raises(ValueError):
            individual_diversity({})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_count_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            individual_diversity({"A": 3, "B": bad})

    @given(counts_strategy)
    def test_permutation_invariant(self, counts):
        shuffled = list(reversed(counts))
        assert individual_diversity(counts) == pytest.approx(
            individual_diversity(shuffled), abs=1e-12)

    @given(counts_strategy, st.integers(min_value=1, max_value=9))
    def test_scaling_invariant(self, counts, factor):
        scaled = [c * factor for c in counts]
        assert individual_diversity(counts) == pytest.approx(
            individual_diversity(scaled), abs=1e-9)

    def test_bounded_by_log_support(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = rng.integers(1, 40, rng.integers(1, 15))
            d = individual_diversity(counts)
            assert -1e-12 <= d <= math.log(len(counts)) + 1e-12

    def test_merging_targets_never_increases(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            counts = list(rng.integers(1, 30, rng.integers(2, 12)))
            merged = [counts[0] + counts[1]] + counts[2:]
            assert individual_diversity(merged) <= individual_diversity(counts) + 1e-12


class TestProfiles:
    def test_purchase_profiles(self):
        events = [purchase("C1", "S1", "N00", "N01"), purchase("C1", "S1", "N00", "N01"),
                  purchase("C1", "S2", "N00", "N01"), purchase("C2", "S3", "N01", "N00")]
        profiles = profile_dict(purchase_profiles(purchase_log(events)))
        assert profiles["C1"] == {"S1": 2, "S2": 1}
        assert profiles["C2"] == {"S3": 1}

    def test_purchase_profiles_match_event_loop(self):
        # reference: one Counter per customer, filled event by event
        rng = np.random.default_rng(4)
        events = [purchase(f"C{c}", f"S{s}", "N00", "N01")
                  for c, s in zip(rng.integers(0, 15, 300), rng.integers(0, 25, 300))]
        oracle = {}
        for e in events:
            oracle.setdefault(e.customer_id, Counter())[e.store_id] += 1
        profiles = profile_dict(purchase_profiles(purchase_log(events)))
        assert list(profiles) == list(oracle)
        for customer, counts in oracle.items():
            assert list(profiles[customer].items()) == list(counts.items())

    def test_mention_profiles(self):
        events = [mention("u1", "u2"), mention("u1", "u2"), mention("u1", "u3")]
        assert profile_dict(mention_profiles(mention_log(events)))["u1"] == {"u2": 2, "u3": 1}


def argsort_profiles(person, target, n_t):
    """(person, target, count) of each pair from a stable argsort of every
    event's pair key, its first event read off the sorted order."""
    key = person * n_t + target
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    at = np.flatnonzero(np.diff(key, prepend=-1))
    pairs, first, count = key[at], by_key[at], np.diff(at, append=len(person))
    starts = np.flatnonzero(np.diff(pairs // n_t, prepend=-1))
    seen = np.repeat(np.minimum.reduceat(first, starts), np.diff(starts, append=len(pairs)))
    order = np.lexsort((first, seen))
    return (*np.divmod(pairs[order], n_t), count[order])


@pytest.mark.parametrize("block", [1000, 1 << 15])
@pytest.mark.parametrize("first_seen", [True, False], ids=["purchases", "mentions"])
def test_profiles_equal_the_argsort_formula_bitwise(first_seen, block, monkeypatch):
    """Pairs counted by runs of their sorted keys, each one's first event
    looked up a block of events at a time, give the argsort formula's
    arrays: persons coded first-seen, as purchases are, or not, as a
    mention's source may be; 5,000 events in blocks of 1,000, and in one."""
    monkeypatch.setattr(metrics, "_BLOCK_PAIRS", block)
    rng = np.random.default_rng(8)
    person, target = rng.integers(0, 60, 5000), rng.integers(0, 90, 5000)
    if first_seen:
        person = np.unique(person, return_inverse=True)[1]
        order = np.full(person.max() + 1, len(person))
        np.minimum.at(order, person, np.arange(len(person)))
        person = np.argsort(np.argsort(order))[person]
    got = metrics._profiles(person, target, [f"p{i}" for i in range(60)],
                            [f"t{i}" for i in range(90)])
    for array, expected in zip((got.person, got.target, got.count),
                               argsort_profiles(person, target, 90)):
        assert array.dtype == np.int64 and np.array_equal(array, expected)


def test_profiles_keep_the_range_of_a_pair_key():
    """Only the pair key person * targets + target must stay below 2**63:
    here it reaches 3 * 2**61 with 2**21 persons and 3 * 2**40 targets,
    where a key of a pair and its event index would overflow."""
    n_t, last = 3 << 40, (1 << 21) - 1
    person = np.array([5, last, 5, last, 7, 5])
    target = np.array([n_t - 1, 2, n_t - 1, n_t - 2, 0, 3])
    got = metrics._profiles(person, target, range(last + 1), range(n_t))
    assert got.person.tolist() == [5, 5, last, last, 7]
    assert got.target.tolist() == [n_t - 1, 3, 2, n_t - 2, 0]
    assert got.count.tolist() == [2, 1, 1, 1, 1]


def test_entropies_in_blocks_of_rows_equal_the_dict_path_bitwise(monkeypatch):
    """Persons with the same number of targets are summed in blocks of rows
    of at most ``_BLOCK_PAIRS`` terms; with blocks of 64 terms, each entropy
    is still ``individual_diversity``'s, bit for bit."""
    monkeypatch.setattr(metrics, "_BLOCK_PAIRS", 64)     # the p log p terms
    monkeypatch.setattr(network, "_BLOCK_PAIRS", 64)     # the rows of terms (``_row_blocks``)
    rng = np.random.default_rng(9)
    view = {f"p{i}": {f"t{t}": int(c) for t, c in zip(rng.choice(40, m, replace=False),
                                                        rng.integers(1, 9, m))}
            for i, m in enumerate(rng.choice([1, 7, 30], 200))}
    homes = {person: f"N0{i % 3}" for i, person in enumerate(view)}
    table = make_table(3)
    got = diversity(view, homes, table)
    mean, residents, _, _ = reference_diversity(view, homes, table)
    assert {nid: v.hex() for nid, v in got.mean.items()} == {
        nid: v.hex() for nid, v in mean.items()}
    assert got.residents == residents


def table_of(ids) -> NeighborhoodTable:
    n = len(ids)
    return NeighborhoodTable(list(ids), np.zeros(n), np.zeros(n), np.full(n, 1000), np.zeros(n))


def diversity(view, homes, table=None):
    """``neighborhood_diversity`` of person -> {target: count} profiles and a
    person -> home dict, over ``table`` or one of the homes named."""
    targets = list(dict.fromkeys(t for counts in view.values() for t in counts))
    pairs = [(p, targets.index(t), c)
             for p, counts in enumerate(view.values()) for t, c in counts.items()]
    person, target, count = np.array(pairs, dtype=np.int64).reshape(-1, 3).T
    if table is None:
        table = table_of(sorted(set(homes.values())))
    return neighborhood_diversity(Profiles(list(view), targets, person, target, count),
                                  [homes.get(p) for p in view], "purchase", table)


def reference_diversity(view, homes, table):
    """The dict path: each placed person's ``individual_diversity``, summed
    per home in person order, then divided by the home's residents."""
    sums, counts, skipped = {}, {}, 0
    for person, target_counts in view.items():
        home = homes.get(person)
        if home not in table.index:
            skipped += 1
            continue
        sums[home] = sums.get(home, 0.0) + individual_diversity(target_counts)
        counts[home] = counts.get(home, 0) + 1
    return ({nid: sums[nid] / counts[nid] for nid in counts}, counts, skipped,
            [nid for nid in table.ids if nid not in counts])


@st.composite
def mention_cities(draw):
    """Mention rows whose 1 to 6 sources each reach 1 to 9 or 120 to 300
    distinct users, in shuffled order, so a source is often first seen as
    another's target; and each source's home: a table neighborhood, "N99"
    (outside the table) or none."""
    sizes = draw(st.lists(st.one_of(st.integers(1, 9), st.integers(120, 300)),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for source, m in enumerate(sizes):
        targets = rng.choice(np.delete(np.arange(400), source), m, replace=False)
        rows += [(f"u{source}", f"u{t}") for t in np.repeat(targets, rng.integers(1, 6, m))]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    places = ["N00", "N01", "N02", "N99", None]
    homes = {f"u{source}": places[i] for source, i in enumerate(rng.integers(5, size=len(sizes)))
             if places[i]}
    return rows, homes


@given(mention_cities())
@settings(max_examples=60, deadline=None)
def test_neighborhood_diversity_equals_dict_path_bitwise(city):
    rows, homes = city
    table = make_table(3)
    log = mention_log(rows)
    got = neighborhood_diversity(mention_profiles(log), [homes.get(u) for u in log.user_ids],
                                 "mention", table)
    mean, residents, skipped, undefined = reference_diversity(
        reference.mention_profiles(rows), homes, table)
    assert {nid: v.hex() for nid, v in got.mean.items()} == {
        nid: v.hex() for nid, v in mean.items()}
    assert got.residents == residents
    assert (got.skipped, got.undefined) == (skipped, undefined)


class TestNeighborhoodDiversity:
    def test_arithmetic_mean(self):
        # entropies: uniform over 2 -> ln 2; compose residents with known values
        profiles = {"p1": {"A": 1, "B": 1}, "p2": {"A": 1}}
        homes = {"p1": "N00", "p2": "N00"}
        result = diversity(profiles, homes)
        assert result.mean["N00"] == pytest.approx(math.log(2) / 2)
        assert result.residents["N00"] == 2

    def test_zero_residents_flagged_not_zero(self):
        table = make_table(3)
        result = diversity({"p1": {"A": 1}}, {"p1": "N00"}, table)
        assert "N01" in result.undefined and "N02" in result.undefined
        assert "N01" not in result.mean

    def test_missing_home_skipped_and_counted(self):
        result = diversity({"p1": {"A": 1}, "p2": {"B": 1}}, {"p1": "N00"})
        assert result.skipped == 1

    def test_three_by_two_fixture_matches_oracle(self):
        profiles = {
            "a1": {"s1": 2, "s2": 2}, "a2": {"s1": 1},
            "b1": {"s1": 1, "s2": 1, "s3": 2}, "b2": {"s1": 3, "s2": 1},
            "c1": {"s1": 4}, "c2": {"s2": 1, "s3": 3},
        }
        homes = {"a1": "NA", "a2": "NA", "b1": "NB", "b2": "NB", "c1": "NC", "c2": "NC"}
        result = diversity(profiles, homes)

        def entropy(counts):
            p = np.array(counts, float)
            p = p / p.sum()
            return float(-(p * np.log(p)).sum())

        assert result.mean["NA"] == pytest.approx((entropy([2, 2]) + 0.0) / 2, abs=1e-12)
        assert result.mean["NB"] == pytest.approx(
            (entropy([1, 1, 2]) + entropy([3, 1])) / 2, abs=1e-12)
        assert result.mean["NC"] == pytest.approx((0.0 + entropy([1, 3])) / 2, abs=1e-12)


class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversal(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10)
        y = 0.4 * x + rng.normal(size=10)
        mx, my = x.mean(), y.mean()
        oracle = ((x - mx) * (y - my)).sum() / np.sqrt(
            ((x - mx) ** 2).sum() * ((y - my) ** 2).sum())
        assert pearson(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_weighted_matches_expansion(self):
        # integer weights equal replicating each sample point
        x = np.array([1.0, 2.0, 5.0])
        y = np.array([2.0, 1.0, 4.0])
        w = np.array([3, 1, 2])
        xr = np.repeat(x, w)
        yr = np.repeat(y, w)
        assert pearson(x, y, w) == pytest.approx(pearson(xr, yr), abs=1e-12)

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="degenerate"):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("x, y, w", [
        ([1, 2, np.nan], [1, 2, 3], None), ([1, 2, 3], [1, np.inf, 3], None),
        ([1, 2, 3], [1, 2, 4], [1, np.nan, 1])])
    def test_non_finite_rejected(self, x, y, w):
        # min(1, max(-1, nan)) would clip the NaN to -1.0
        with pytest.raises(ValueError, match="finite"):
            pearson(x, y, w)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            pearson([1], [1])
