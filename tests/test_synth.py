import hashlib
from dataclasses import replace

import numpy as np
import pytest

from segflow import (assign_groups, assign_points_to_neighborhoods,
                     assortativity, build_purchase_network,
                     filter_active_customers, infer_home, load_geometry,
                     load_mentions, load_neighborhoods, load_purchases,
                     mention_profiles, mixing_matrix, neighborhood_diversity,
                     pearson, population_weight, purchase_profiles)
from segflow import synth
from segflow.cli import main
from segflow.synth import SynthConfig, generate_city, preset, write_city

from test_golden import SYNTH_ARGS


def tiny_cfg(seed=0, **overrides):
    defaults = dict(n_neighborhoods=36, extent_km=12.0, n_stores=120,
                    n_customers=200, n_twitter_users=80,
                    n_purchase_events=6000, n_mention_events=2000, seed=seed)
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        for run in ("a", "b"):
            write_city(generate_city(tiny_cfg(seed=4)), tmp_path / run)
        for name in ("neighborhoods.csv", "geometry.json", "purchases.csv",
                     "mentions.csv", "geoposts.csv", "truth.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_different_seed_differs(self, tmp_path):
        write_city(generate_city(tiny_cfg(seed=1)), tmp_path / "a")
        write_city(generate_city(tiny_cfg(seed=2)), tmp_path / "b")
        assert ((tmp_path / "a" / "purchases.csv").read_bytes()
                != (tmp_path / "b" / "purchases.csv").read_bytes())


class TestEventVolumes:
    def test_poisson_concentration(self):
        for seed in range(3):
            city = generate_city(tiny_cfg(seed=seed))
            n = len(city.purchases)
            assert abs(n - 6000) <= 3 * np.sqrt(6000)

    def test_every_neighborhood_has_mass(self):
        city = generate_city(tiny_cfg(seed=0))
        assert all(v >= 1 for v in city.truth["customer_counts"])
        assert all(v >= 1 for v in city.truth["store_counts"])
        assert sum(city.truth["store_counts"]) == 120


class TestPlantedStructure:
    def test_homophily_ordering_over_seeds(self):
        means = {}
        for h in (0.0, 3.0):
            vals = []
            for seed in range(10):
                city = generate_city(tiny_cfg(seed=seed, homophily=h,
                                              self_flow_scale=0.0))
                net = build_purchase_network(city.purchases, city.table)
                weighted = population_weight(net)
                groups = assign_groups(city.table, k=6)
                vals.append(assortativity(mixing_matrix(weighted, groups)))
            means[h] = np.mean(vals)
        assert means[3.0] > means[0.0]

    def test_tilt_produces_positive_bias(self):
        from segflow import asymmetry_bias
        city = generate_city(tiny_cfg(seed=5, tilt=1.5, self_flow_scale=0.0))
        net = population_weight(build_purchase_network(city.purchases, city.table))
        mix = mixing_matrix(net, assign_groups(city.table, k=6))
        assert asymmetry_bias(mix) > 0

    def test_gravity_round_trip_at_scale(self):
        # h = 0, tau = 0: fitting the generated flows recovers the planted
        # law within 5% at 1e5 events, using the generator's mass counts
        from segflow import fit_gravity
        from segflow.network import centroid_distances
        cfg = tiny_cfg(seed=9, n_neighborhoods=36, extent_km=15.0,
                       n_stores=200, n_customers=900, n_twitter_users=40,
                       n_purchase_events=100000, n_mention_events=100,
                       exploration=0.0, self_flow_scale=1.0)
        city = generate_city(cfg)
        net = build_purchase_network(city.purchases, city.table)
        dist = centroid_distances(city.table)
        net = replace(net, user_counts=np.array(city.truth["customer_counts"]),
                      store_counts=np.array(city.truth["store_counts"]))
        fit = fit_gravity(net, dist, eps_grid=np.round(np.arange(0.3, 0.8, 0.01), 10))
        g = cfg.purchase_gravity
        assert abs(fit.beta1 / g.beta1 - 1) < 0.05
        assert abs(fit.beta2 / g.beta2 - 1) < 0.05
        assert abs(fit.alpha / g.alpha - 1) < 0.05
        # eps and c trade off along a nearly flat residual ridge at finite
        # counts; only the exponents are sharply identified here
        assert abs(fit.epsilon / g.epsilon - 1) < 0.20
        assert abs(fit.c / city.truth["effective_c_purchase"] - 1) < 0.20

    def test_exploration_links_diversity_to_ses(self):
        city = generate_city(tiny_cfg(seed=11, exploration=2.5,
                                      n_purchase_events=20000))
        profiles = purchase_profiles(city.purchases)
        nd = neighborhood_diversity(profiles, city.customer_homes,
                                    "purchase", city.table)
        ids = [nid for nid in city.table.ids if nid in nd.mean]
        ses = [city.table.ses[city.table.index[nid]] for nid in ids]
        div = [nd.mean[nid] for nid in ids]
        assert pearson(ses, div) > 0.2


class TestPlantedTruth:
    def test_expectation_records(self):
        neutral = synth.planted_truth(preset("neutral"))
        homophilous = synth.planted_truth(preset("homophilous"))
        tilted = synth.planted_truth(preset("tilted"))
        assert neutral["expectations"]["assortativity"]["kind"] == "null_band"
        assert neutral["expectations"]["bias"]["kind"] == "null_band"
        assert homophilous["expectations"]["assortativity"]["kind"] == "min"
        assert tilted["expectations"]["bias"]["kind"] == "positive"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("utopia")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            generate_city(tiny_cfg(n_stores=3))
        with pytest.raises(ValueError):
            generate_city(tiny_cfg(homophily=-1.0))
        with pytest.raises(ValueError):
            generate_city(tiny_cfg(ses_field="hexagonal"))


class TestIngestLoop:
    def test_written_city_loads_back(self, tmp_path):
        from segflow import load_geoposts
        city = generate_city(tiny_cfg(seed=6))
        paths = write_city(city, tmp_path)
        table = load_neighborhoods(paths["neighborhoods"])
        assert table.ids == city.table.ids
        purchases = load_purchases(paths["purchases"])
        assert len(purchases) == len(city.purchases)
        mentions = load_mentions(paths["mentions"])
        assert len(mentions) == len(city.mentions)
        geometry = load_geometry(paths["geometry"])
        assert set(geometry) == set(table.ids)
        posts = load_geoposts(paths["geoposts"])
        assert len(posts) == len(city.geoposts)
        assert posts.lat[0] == pytest.approx(city.geoposts.lat[0], abs=1e-12)

    def test_home_inference_recovers_planted_homes(self, tmp_path):
        city = generate_city(tiny_cfg(seed=8))
        place, dropped = assign_points_to_neighborhoods(city.geoposts, city.geometry)
        assert dropped == 0
        homes, unassigned = infer_home(city.geoposts, place, sorted(city.geometry))
        assert unassigned == []
        agree = sum(homes[u] == city.user_homes[u] for u in homes)
        assert agree / len(homes) >= 0.95

    def test_filter_keeps_most_active_customers(self):
        city = generate_city(tiny_cfg(seed=3))
        kept = filter_active_customers(city.purchases, 10)
        assert len(kept) > 0.5 * len(city.purchases)


SMALL_PRESET = ["--seed", "3", "--n-neighborhoods", "49", "--n-purchase-events", "3000",
                "--n-mention-events", "2000", "--n-customers", "150",
                "--n-stores", "100", "--n-twitter-users", "120"]

# sha256 of the five data files, recorded with the generator that the
# golden outputs and the benchmark reference were measured on; truth.json
# is left out, since its config block lists SynthConfig's fields
RECORDED = {
    "smoke": {
        "neighborhoods.csv": "3ac59f8a016966b04d0c820dc84808465cf7b75f66ae6a594dfc73f812c5cd55",
        "geometry.json": "1c03c73fb953536d8aaddd7a05653e89f1af5f18970407338d1b0ef1d4d4163b",
        "purchases.csv": "6f0ed61eec96b04da322ea5b6f4782ec087b1f17b813e014088b7ca1f2df4c9b",
        "mentions.csv": "c7ad0c7eb78e612f88e3d06e30e785509c764d847b87be49c38833016407b6b9",
        "geoposts.csv": "b4ffb8cd71e512c5eda429390867b61d1baa3ff54365cb0a5fa3a5f4309570fe",
    },
    "neutral": {
        "neighborhoods.csv": "a2877720c5337ddf074e580d7f9a39d159a3ae9a3fba293bd9d800cf35740fa2",
        "geometry.json": "d53cfdfacceb3e52b8da257cba802fcab7fa06791dbb3820d252747f1b72bd48",
        "purchases.csv": "3b3bb14f6dcce5c49c1ba52a3be95fd3bd1c4b9b2486194c8ea15a75d01bb470",
        "mentions.csv": "3d9d3e1c53a12f692017ef5101c396f2f6ecc605e4ae1fdbd767be808a01edbf",
        "geoposts.csv": "c7fa484430dc783179b9186253d758bcaebca3c9ff1e0e09dcf5703e0db3b0f7",
    },
    "tilted": {
        "neighborhoods.csv": "63908e5a5c8d51e5440c6a23b81c3c21ebf3c520da9aa5d231d325ad0e5d8260",
        "geometry.json": "d53cfdfacceb3e52b8da257cba802fcab7fa06791dbb3820d252747f1b72bd48",
        "purchases.csv": "8a3ac419bd40fd952aa3c42b33be89c1ac6fdfbacd4a62dfd686f8ebbfdd9154",
        "mentions.csv": "3ecd033ba94370f54cf07eb261d3f826a8119e9139aac997982f34bfad0004b8",
        "geoposts.csv": "9c6552b496c098c4200b5c4da7d55a310ef6fdbd062ab3297adffbc1165a8854",
    },
}


@pytest.mark.parametrize("name, args", [
    ("smoke", SYNTH_ARGS),
    ("neutral", ["--preset", "neutral", *SMALL_PRESET]),
    ("tilted", ["--preset", "tilted", *SMALL_PRESET]),
])
def test_data_files_match_recorded_digests(tmp_path, name, args):
    """The generator still writes the cities that the golden outputs and
    perfbench/reference.json were recorded on: the golden smoke city and a
    small neutral and tilted city keep their bytes."""
    assert main(["synth", "--out", str(tmp_path)] + args) == 0
    digests = {file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
               for file in RECORDED[name]}
    assert digests == RECORDED[name]
