import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from segflow.metrics import (individual_diversity, mention_profiles,
                             neighborhood_diversity, pearson,
                             purchase_profiles)

from conftest import make_table, mention, purchase, purchase_log

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
        profiles = purchase_profiles(purchase_log(events))
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
        profiles = purchase_profiles(purchase_log(events))
        assert list(profiles) == list(oracle)
        for customer, counts in oracle.items():
            assert list(profiles[customer].items()) == list(counts.items())

    def test_mention_profiles(self):
        events = [mention("u1", "u2"), mention("u1", "u2"), mention("u1", "u3")]
        assert mention_profiles(events)["u1"] == {"u2": 2, "u3": 1}


class TestNeighborhoodDiversity:
    def test_arithmetic_mean(self):
        # entropies: uniform over 2 -> ln 2; compose residents with known values
        profiles = {"p1": {"A": 1, "B": 1}, "p2": {"A": 1}}
        homes = {"p1": "N00", "p2": "N00"}
        result = neighborhood_diversity(profiles, homes, "purchase")
        assert result.mean["N00"] == pytest.approx(math.log(2) / 2)
        assert result.residents["N00"] == 2

    def test_zero_residents_flagged_not_zero(self):
        table = make_table(3)
        result = neighborhood_diversity({"p1": {"A": 1}}, {"p1": "N00"}, "purchase", table)
        assert "N01" in result.undefined and "N02" in result.undefined
        assert "N01" not in result.mean

    def test_missing_home_skipped_and_counted(self):
        result = neighborhood_diversity({"p1": {"A": 1}, "p2": {"B": 1}},
                                        {"p1": "N00"}, "purchase")
        assert result.skipped == 1

    def test_three_by_two_fixture_matches_oracle(self):
        profiles = {
            "a1": {"s1": 2, "s2": 2}, "a2": {"s1": 1},
            "b1": {"s1": 1, "s2": 1, "s3": 2}, "b2": {"s1": 3, "s2": 1},
            "c1": {"s1": 4}, "c2": {"s2": 1, "s3": 3},
        }
        homes = {"a1": "NA", "a2": "NA", "b1": "NB", "b2": "NB", "c1": "NC", "c2": "NC"}
        result = neighborhood_diversity(profiles, homes, "purchase")

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

    def test_length_validation(self):
        with pytest.raises(ValueError):
            pearson([1], [1])
