"""Where does segregation live: extreme groups, distance, and baselines.

The extremes sweep starts from the poorest and richest decile and works
inward; the distance sweep splits flows into short- and long-range parts;
the SES-shuffle null and the edge-removal jackknife calibrate what the
coefficient would do by chance and how stable it is.
"""
import math

from segflow import (assign_groups, assortativity, asymmetry_sweep,
                     build_purchase_network,
                     distance_sweep, extremes_sweep, filter_active_customers,
                     jackknife_assortativity, mixing_matrix, null_shuffle_ses,
                     population_weight, synth)

city = synth.generate_city(synth.preset("homophilous", seed=7))
events = filter_active_customers(city.purchases, 10)
weighted = population_weight(build_purchase_network(events, city.table))
groups = assign_groups(city.table, k=10)

print("=== extremes sweep: percent of neighborhoods considered vs r ===")
for step in extremes_sweep(weighted, groups):
    pct = 100 * 2 * int(step.param) // groups.k
    print(f"  {pct:3d}% ({step.descriptor:22s})  r = {step.value:.3f}")

print()
print("=== distance sweep: short-range vs long-range interactions ===")
# distances run between the centroids of the table the network holds
steps = distance_sweep(weighted, groups)
for step in steps:
    value = f"{step.value:.3f}" if step.valid else "  (no mass)"
    print(f"  {step.descriptor:22s}  r = {value}")

print()
print("=== asymmetry bias along the same sweep ===")
for step in asymmetry_sweep(weighted, groups):
    print(f"  {step.descriptor:22s}  bias = {step.value:+.4f}")

print()
print("=== baselines ===")
r = assortativity(mixing_matrix(weighted, groups))
null = null_shuffle_ses(weighted, groups, replicates=200, seed=1)
jack = jackknife_assortativity(weighted, groups, replicates=100, seed=1)
print(f"empirical r = {r:.3f}")
print(f"SES-shuffle null: mean {null.r_mean:+.4f}, std {null.r_std:.4f} "
      f"(empirical sits {abs(r - null.r_mean) / null.r_std:.0f} sigma above)")
print(f"jackknife 95% interval: [{jack.ci_low:.3f}, {jack.ci_high:.3f}] "
      f"around point {jack.point:.3f}")
