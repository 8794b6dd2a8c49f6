"""From event logs to mixing matrices and the assortativity coefficient.

Flows are counted between home and store neighborhoods, re-weighted by
census population over sampled users, aggregated into ten status groups,
and scored with the assortative mixing coefficient: 1 means perfectly
segregated interaction, 0 random mixing.
"""
import numpy as np

from segflow import (assign_groups, assortativity, asymmetry_bias,
                     build_purchase_network, filter_active_customers,
                     mixing_matrix, population_weight, synth)

city = synth.generate_city(synth.preset("homophilous", seed=7))
events = filter_active_customers(city.purchases, 10)

print("=== build and weight the purchase network ===")
net = build_purchase_network(events, city.table)
print(f"{net.n} nodes, {net.flows.size} nonzero flows (edges held, not a "
      f"{net.n}x{net.n} matrix), {net.dropped_events} events dropped")
weighted = population_weight(net)
print(f"raw total {net.total_weight():.0f} -> weighted total "
      f"{weighted.total_weight():.0f}")

print()
print("=== ten status groups and the mixing matrix ===")
groups = assign_groups(city.table, k=10)
mix = mixing_matrix(weighted, groups)
np.set_printoptions(precision=3, suppress=True, linewidth=120)
print("row-stochastic view (each row: where a group's flow goes):")
print(mix.S)

print()
r = assortativity(mix)
bias = asymmetry_bias(mix)
print(f"assortativity r = {r:.3f}   (planted homophily makes this large)")
print(f"poor-to-rich bias = {bias:+.4f} (no tilt planted; compare against the")
print("                              SES-shuffle null band, see demo 04)")
diag = float(np.trace(mix.e))
print(f"within-group share of all interaction mass = {diag:.2f}")
