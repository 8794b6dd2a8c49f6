"""Gravity baseline and the segregation-inequality coupling report.

A gravity law fitted to the observed flows predicts how much interaction
geography alone would produce; reshuffling store and customer locations
destroys segregation entirely.  The report couples the assortativity of
each network with the GINI inequality of neighborhood sales revenue.
"""
import numpy as np

from segflow import (assign_groups, build_purchase_network,
                     filter_active_customers, fit_gravity,
                     segregation_inequality_report, synth)

city = synth.generate_city(synth.preset("homophilous", seed=7))
events = filter_active_customers(city.purchases, 10)

print("=== fit the gravity law to observed flows ===")
net = build_purchase_network(events, city.table)
# the masses come from the network: users at each origin, stores at each
# destination; other masses go in through dataclasses.replace(net, ...).
# Distances run between the centroids of the table the network holds.
fit = fit_gravity(net, eps_grid=np.round(np.arange(0.01, 1.0, 0.01), 10))
print(f"flow ~ c * n_i^b1 * m_j^b2 / (T_ij + eps)^alpha")
print(f"c = {fit.c:.3f}  b1 = {fit.beta1:.3f}  b2 = {fit.beta2:.3f}  "
      f"eps = {fit.epsilon:.2f} km  alpha = {fit.alpha:.3f}")
print(f"weighted R^2 = {fit.r2_weighted:.3f} on {fit.n_pairs} positive pairs")

print()
print("=== segregation vs revenue inequality ===")
groups = assign_groups(city.table, k=10)
rows = segregation_inequality_report(events, city.table, groups, gravity_params=fit,
                                     replicates=25, seed=3,
                                     jackknife_replicates=25)
print(f"{'network':<16} {'fraction':>8} {'r':>8} {'gini':>8} {'total':>12}")
for row in rows:
    frac = "" if row.fraction is None else f"{row.fraction:.1f}"
    print(f"{row.label:<16} {frac:>8} {row.assortativity_mean:8.3f} "
          f"{row.gini_mean:8.3f} {row.total_revenue:12.0f}")
imposed = rows[1].details["gini_imposed_flows"]
print()
print("reshuffling locations kills segregation while the total revenue is")
print("conserved row for row; the gravity variant that imposes model flows")
print(f"on observed amounts gives gini = {imposed:.3f}")
