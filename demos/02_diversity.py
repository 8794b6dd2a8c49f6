"""Behavioral diversity: entropy of each individual's activity profile.

Richer synthetic residents explore more stores, so mean neighborhood
diversity should rise with socio-economic status.
"""
import math

from segflow import (filter_active_customers, individual_diversity,
                     neighborhood_diversity, pearson, purchase_profiles,
                     synth)

print("=== entropy basics ===")
print(f"one store only          -> {individual_diversity({'s1': 12}):.4f}")
print(f"four stores, uniform    -> {individual_diversity({c: 3 for c in 'abcd'}):.4f}"
      f"  (ln 4 = {math.log(4):.4f})")
print(f"skewed 3:1 over two     -> {individual_diversity({'a': 3, 'b': 1}):.4f}")

print()
print("=== neighborhood means on a synthetic city ===")
cfg = synth.preset("neutral", seed=1, n_neighborhoods=100,
                   n_purchase_events=30000, n_mention_events=500,
                   n_customers=900, n_stores=600, n_twitter_users=120)
cfg.exploration = 2.5  # status strongly tied to exploration
city = synth.generate_city(cfg)
events = filter_active_customers(city.purchases, 10)
profiles = purchase_profiles(events)
result = neighborhood_diversity(profiles, events.home, "purchase", city.table)
print(f"{len(result.mean)} neighborhoods with residents, "
      f"{len(result.undefined)} without")

ids = [nid for nid in city.table.ids if nid in result.mean]
ses = [city.table.ses[city.table.index[nid]] for nid in ids]
div = [result.mean[nid] for nid in ids]
print(f"correlation(mean diversity, ses) = {pearson(ses, div):.3f}  "
      "(positive: wealthier areas explore more)")
