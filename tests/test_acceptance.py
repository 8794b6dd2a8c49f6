"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion log.
The published city-level coefficients (assortativity 0.42/0.41, diversity
correlations 0.45/0.38, the fitted constants on the real transaction and
mention data) depend on proprietary inputs and are documented reference
points only; everything here is property-based or synthetic-ground-truth
recovery.
"""
import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from segflow import (Flows, GravityParams, assign_groups, assortativity,
                     asymmetry_bias, asymmetry_sweep,
                     build_purchase_network,
                     distance_sweep, extremes_sweep, filter_active_customers,
                     fit_gravity, gini, individual_diversity, mixing_matrix,
                     null_shuffle_ses, population_weight,
                     segregation_inequality_report, simulate_gravity, synth)
from segflow.cli import main as cli_main
from segflow.segregation import mixing_from_matrix

from conftest import gravity_net, make_table, purchase, purchase_log

REFERENCE_FITS = {
    "european_purchase": (0.249, 0.762, 0.598, 0.233, 0.918),
    "european_mention": (0.119, 0.594, 0.541, 0.029, 0.582),
    "latin_american_purchase": (0.231, 0.681, 0.824, 1.026, 1.058),
    "latin_american_mention": (0.085, 0.493, 0.829, 0.298, 0.633),
    "north_american_mention": (7.941, 0.276, 0.353, 0.330, 0.837),
}


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def expansion_pearson(e, vals):
    k = e.shape[0]
    x = np.repeat(vals, k)
    y = np.tile(vals, k)
    w = e.ravel() / e.sum()
    mx, my = w @ x, w @ y
    cov = w @ ((x - mx) * (y - my))
    sx = math.sqrt(w @ (x - mx) ** 2)
    sy = math.sqrt(w @ (y - my) ** 2)
    return cov / (sx * sy)


def groups_for_k(k):
    return assign_groups(make_table(k, ses=np.arange(k, dtype=float)), k=k)


def r_of_e(e):
    mix = mixing_from_matrix(Flows.from_matrix(np.asarray(e, float)), groups_for_k(e.shape[0]))
    return assortativity(mix)


@pytest.fixture(scope="module")
def homophilous():
    city = synth.generate_city(synth.preset("homophilous", seed=7))
    events = filter_active_customers(city.purchases, 10)
    net = build_purchase_network(events, city.table)
    weighted = population_weight(net)
    groups = assign_groups(city.table, k=10)
    return city, events, net, weighted, groups


@pytest.fixture(scope="module")
def neutral():
    city = synth.generate_city(synth.preset("neutral", seed=5))
    events = filter_active_customers(city.purchases, 10)
    weighted = population_weight(build_purchase_network(events, city.table))
    groups = assign_groups(city.table, k=10)
    return city, weighted, groups


@pytest.fixture(scope="module")
def tilted():
    city = synth.generate_city(synth.preset("tilted", seed=11))
    events = filter_active_customers(city.purchases, 10)
    weighted = population_weight(build_purchase_network(events, city.table))
    groups = assign_groups(city.table, k=10)
    return city, weighted, groups


def test_criterion_01_assortativity_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 11))
        e = rng.uniform(0.0, 1.0, (k, k)) ** 2
        e /= e.sum()
        r = r_of_e(e)
        oracle = expansion_pearson(e, np.arange(1, k + 1, dtype=float))
        worst = max(worst, abs(r - oracle))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-10 and elapsed < 5.0,
           f"500 random mixing matrices, max |r - oracle| = {worst:.2e}, "
           f"{elapsed:.2f}s (< 5s)")


def test_criterion_02_assortativity_edge_cases():
    rng = np.random.default_rng(102)
    worst_diag = max(abs(r_of_e(np.diag(rng.uniform(0.5, 2.0, k))) - 1.0)
                     for k in range(2, 11))
    worst_prod = 0.0
    for k in range(2, 11):
        a = rng.dirichlet(np.ones(k))
        b = rng.dirichlet(np.ones(k))
        worst_prod = max(worst_prod, abs(r_of_e(np.outer(a, b))))
    report(2, worst_diag <= 1e-12 and worst_prod <= 1e-12,
           f"diagonal |r-1| = {worst_diag:.2e}, product-form |r| = {worst_prod:.2e} "
           f"(both <= 1e-12)")


def test_criterion_03_gravity_round_trip():
    table, _ = synth.synthetic_geometry(100, extent_km=30.0, seed=0)
    rng = np.random.default_rng(42)
    n_o = rng.integers(20, 200, 100)
    n_d = rng.integers(10, 120, 100)
    start = time.perf_counter()

    fine_grid = np.round(np.arange(0.0, 2.0 + 1e-9, 0.001), 10)
    worst_noiseless = 0.0
    for c, b1, b2, eps, alpha in REFERENCE_FITS.values():
        planted = GravityParams(c=c, beta1=b1, beta2=b2, epsilon=eps, alpha=alpha)
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        fit = fit_gravity(sim, eps_grid=fine_grid)
        worst_noiseless = max(
            worst_noiseless,
            abs(fit.c / c - 1), abs(fit.beta1 / b1 - 1), abs(fit.beta2 / b2 - 1),
            abs(fit.epsilon / eps - 1), abs(fit.alpha / alpha - 1))

    worst_noisy = 0.0
    noisy_sets = ("european_purchase", "latin_american_purchase", "north_american_mention")
    for name in noisy_sets:
        c, b1, b2, eps, alpha = REFERENCE_FITS[name]
        planted = GravityParams(c=c, beta1=b1, beta2=b2, epsilon=eps, alpha=alpha)
        sim = simulate_gravity(planted, gravity_net(table, n_o, n_d))
        for seed in range(20):
            noise = np.exp(0.1 * np.random.default_rng((103, seed)).standard_normal(sim.W.shape))
            noisy = replace(sim, flows=Flows.from_matrix(sim.W * noise))
            fit = fit_gravity(noisy)
            worst_noisy = max(worst_noisy, abs(fit.beta1 / b1 - 1),
                              abs(fit.beta2 / b2 - 1), abs(fit.alpha / alpha - 1))
    elapsed = time.perf_counter() - start
    report(3, worst_noiseless <= 0.01 and worst_noisy <= 0.05 and elapsed < 60.0,
           f"noiseless max rel err {worst_noiseless:.2e} (<= 1%), noisy exponents "
           f"max rel err {worst_noisy:.3f} (<= 5% over 20 seeds), {elapsed:.1f}s (< 60s)")


def test_criterion_04_null_model_centering(homophilous):
    _, _, _, weighted, groups = homophilous
    start = time.perf_counter()
    null = null_shuffle_ses(weighted, groups, replicates=200, seed=1)
    elapsed = time.perf_counter() - start
    r_band = 3.0 * null.r_std / math.sqrt(200)
    b_band = 3.0 * null.bias_std / math.sqrt(200)
    ok = (abs(null.r_mean) <= r_band and abs(null.bias_mean) <= b_band
          and elapsed < 30.0)
    report(4, ok,
           f"200 SES shuffles: |mean r| = {abs(null.r_mean):.5f} <= {r_band:.5f}, "
           f"|mean bias| = {abs(null.bias_mean):.5f} <= {b_band:.5f}, {elapsed:.1f}s (< 30s)")


def test_criterion_05_extremes_sweep_shape(homophilous):
    _, _, _, weighted, groups = homophilous
    steps_a = extremes_sweep(weighted, groups)
    steps_b = extremes_sweep(weighted, groups)
    deterministic = all(a.value == b.value for a, b in zip(steps_a, steps_b))
    ok = steps_a[0].valid and steps_a[-1].valid and \
        steps_a[0].value > steps_a[-1].value and deterministic
    report(5, ok,
           f"extreme-group r = {steps_a[0].value:.3f} > full-matrix r = "
           f"{steps_a[-1].value:.3f}, deterministic rerun")


def test_criterion_06_distance_sweep_shape(homophilous):
    city, _, _, weighted, groups = homophilous
    steps = distance_sweep(weighted, groups)
    within = {s.param: s for s in steps if s.descriptor.startswith("within")}
    beyond = {s.param: s for s in steps if s.descriptor.startswith("beyond")}
    thresholds = sorted(within)
    ordered = all(within[d].value >= beyond[d].value
                  for d in thresholds if beyond[d].valid)
    # the 100th-percentile threshold keeps everything: its beyond side is
    # empty and its within side must equal the full network
    full = assortativity(mixing_matrix(weighted, groups))
    top = thresholds[-1]
    consistent = (not beyond[top].valid
                  and abs(within[top].value - full) <= 1e-12)
    valid_beyond = sum(beyond[d].valid for d in thresholds)
    report(6, ordered and consistent and valid_beyond == len(thresholds) - 1,
           f"within >= beyond at all {valid_beyond} comparable thresholds; "
           f"within@max == full to 1e-12")


def test_criterion_07_asymmetry_sign(tilted, neutral):
    _, weighted_t, groups_t = tilted
    city_t = tilted[0]
    steps = asymmetry_sweep(weighted_t, groups_t)
    all_positive = all(s.valid and s.value > 0 for s in steps)

    _, weighted_n, groups_n = neutral
    bias_n = asymmetry_bias(mixing_matrix(weighted_n, groups_n))
    null_n = null_shuffle_ses(weighted_n, groups_n, replicates=100, seed=2)
    in_band = abs(bias_n - null_n.bias_mean) <= 3.0 * null_n.bias_std
    report(7, all_positive and in_band,
           f"tilted bias positive at every step (min {min(s.value for s in steps):.3f}); "
           f"neutral bias {bias_n:+.4f} within 3 null std ({3 * null_n.bias_std:.4f})")


def test_criterion_08_gini_properties():
    rng = np.random.default_rng(108)
    ok_equal = abs(gini([5.0, 5.0, 5.0, 5.0])) <= 1e-12
    ok_concentrated = abs(gini([0.0, 0.0, 0.0, 1.0]) - 0.75) <= 1e-12
    worst_scale = 0.0
    worst_rep = 0.0
    for _ in range(50):
        v = rng.uniform(0.0, 10.0, rng.integers(2, 25))
        worst_scale = max(worst_scale, abs(gini(v * 7.3) - gini(v)))
        worst_rep = max(worst_rep, abs(gini(np.concatenate([v, v])) - gini(v)))
    ok = ok_equal and ok_concentrated and worst_scale <= 1e-12 and worst_rep <= 1e-9
    report(8, ok,
           f"gini(equal) = 0, gini(0,0,0,1) = 0.75, scale err {worst_scale:.1e} "
           f"(<= 1e-12), replication err {worst_rep:.1e} (<= 1e-9)")


def test_criterion_09_reshuffle_inequality_report(homophilous):
    city, events, _, _, groups = homophilous
    rows = segregation_inequality_report(events, city.table, groups,
                                         fractions=(0.2, 0.4, 0.6, 0.8, 1.0),
                                         replicates=50, seed=9,
                                         jackknife_replicates=50)
    by_label = {(r.label, r.fraction): r for r in rows}
    emp = by_label[("empirical", None)]
    full = by_label[("reshuffle", 1.0)]
    totals = [r.total_revenue for r in rows]
    conserve = max(abs(t / totals[0] - 1.0) for t in totals)
    ok = (abs(full.assortativity_mean) <= 3.0 * full.assortativity_std
          and emp.assortativity_mean > 0.3
          and conserve <= 1e-9)
    report(9, ok,
           f"f=1.0 reshuffle |mean r| = {abs(full.assortativity_mean):.4f} <= "
           f"3 std = {3 * full.assortativity_std:.4f}; empirical r = "
           f"{emp.assortativity_mean:.3f} > 0.3; revenue conserved to {conserve:.1e}")


def test_criterion_10_entropy_checks():
    rng = np.random.default_rng(110)
    single = individual_diversity({"only": 9})
    worst_uniform = max(abs(individual_diversity([1] * n) - math.log(n))
                        for n in range(2, 40))
    monotone = True
    for _ in range(100):
        counts = list(rng.integers(1, 30, rng.integers(2, 12)))
        merged = [counts[0] + counts[1]] + counts[2:]
        if individual_diversity(merged) > individual_diversity(counts) + 1e-12:
            monotone = False
    ok = single == 0.0 and worst_uniform <= 1e-12 and monotone
    report(10, ok,
           f"single-target D = {single}, uniform |D - ln N| max {worst_uniform:.1e} "
           f"(<= 1e-12), merge-monotone on 100 random fixtures")


def test_criterion_11_cli_determinism(tmp_path):
    synth_args = ["--preset", "homophilous", "--seed", "3",
                  "--n-neighborhoods", "144", "--n-purchase-events", "12000",
                  "--n-mention-events", "6000", "--n-customers", "600",
                  "--n-stores", "400", "--n-twitter-users", "300"]

    def tree(root: Path) -> dict[str, str]:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.iterdir()) if p.is_file()}

    # generating twice with the same config and seed gives identical data
    data_a, data_b = tmp_path / "data_a", tmp_path / "data_b"
    assert cli_main(["synth", "--out", str(data_a)] + synth_args) == 0
    assert cli_main(["synth", "--out", str(data_b)] + synth_args) == 0
    synth_identical = tree(data_a) == tree(data_b)

    # rerunning each analysis with identical config (same inputs, same
    # seed) reproduces every artifact byte for byte, manifest included
    digests = []
    for tag in ("run1", "run2"):
        base = tmp_path / tag
        assert cli_main(["mixing", "--data", str(data_a),
                         "--out", str(base / "mixing")]) == 0
        assert cli_main(["sweep", "--data", str(data_a),
                         "--out", str(base / "sweep"),
                         "--jackknife-replicates", "20", "--seed", "4"]) == 0
        assert cli_main(["null", "--data", str(data_a),
                         "--out", str(base / "null"),
                         "--replicates", "30", "--seed", "4"]) == 0
        digests.append({f"{sub}/{name}": digest
                        for sub in ("mixing", "sweep", "null")
                        for name, digest in tree(base / sub).items()})
    ok = synth_identical and digests[0] == digests[1]
    report(11, ok, f"synth rerun identical; mixing+sweep+null rerun produced "
                   f"byte-identical artifacts ({len(digests[0])} files)")


def test_criterion_12_population_weighting_invariance():
    rng = np.random.default_rng(112)
    table = make_table(30, ses=rng.uniform(0, 100, 30), population=[1000] * 30)
    events = []
    for k in range(900):
        s, h, loc = rng.integers(80), rng.integers(30), rng.integers(30)
        events.append(purchase(f"C{k % 60}-N{h}", f"S{s}-N{loc}", f"N{h:02d}", f"N{loc:02d}"))
    net = build_purchase_network(purchase_log(events), table)
    groups = assign_groups(table, k=10)
    r_raw = assortativity(mixing_from_matrix(Flows.from_matrix(net.W), groups))
    uniform_users = np.full(30, 25)  # m_i / p_i identical everywhere
    weighted = population_weight(replace(net, user_counts=uniform_users))
    r_weighted = assortativity(mixing_matrix(weighted, groups))
    diff = abs(r_raw - r_weighted)
    report(12, diff <= 1e-12,
           f"uniform sampling ratio changed r by {diff:.2e} (<= 1e-12)")
