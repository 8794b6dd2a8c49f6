"""Behavioral segregation analytics on neighborhood interaction networks.

The pipeline runs from raw purchase/mention event logs to diversity
entropies, population-weighted interaction networks, mixing-matrix
assortativity sweeps, asymmetry bias, gravity and shuffle baselines,
jackknife confidence intervals, and the segregation-inequality report,
all verifiable end to end on a built-in synthetic-city generator.
"""

from .ingest import (GeoPost, MentionEvent, NeighborhoodTable, PurchaseLog,
                     ValidationError, assign_points_to_neighborhoods,
                     filter_active_customers, infer_home, load_geometry,
                     load_geoposts, load_mentions, load_neighborhoods,
                     load_purchases)
from .metrics import (NeighborhoodDiversity, individual_diversity,
                      mention_profiles, neighborhood_diversity, pearson,
                      purchase_profiles)
from .network import (InteractionNetwork, build_mention_network,
                      build_purchase_network, centroid_distances,
                      haversine_km, population_weight, read_network,
                      write_network)
from .segregation import (DegenerateMatrixError, GroupAssignment,
                          MixingMatrix, SweepStep, assign_groups,
                          assortativity, asymmetry_bias, asymmetry_sweep,
                          distance_sweep, extremes_sweep, mixing_from_matrix,
                          mixing_matrix, pairwise_distance_vector)
from .models import (GravityParams, NullDistribution, PurchaseArrays,
                     ReshuffleReplicate, adjust_gravity_amounts, fit_gravity,
                     null_shuffle_ses, purchase_arrays, reshuffle_locations,
                     simulate_gravity)
from .stats import (InequalityRow, ResampleEstimate, gini,
                    jackknife_assortativity, jackknife_statistic,
                    segregation_inequality_report)
from .synth import (SynthCity, SynthConfig, generate_city, planted_truth,
                    preset, write_city)

__version__ = "0.1.0"
