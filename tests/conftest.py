from typing import NamedTuple

import numpy as np
import pytest

from segflow.ingest import (GeoPostLog, MentionLog, NeighborhoodTable, PurchaseLog,
                            assign_points_to_neighborhoods, infer_home)
from segflow import synth
from segflow.network import Flows, InteractionNetwork


def make_table(n=4, ses=None, population=None, spacing_deg=0.05):
    """Small table with ids N00..N{n-1} on a line of centroids."""
    ids = [f"N{i:02d}" for i in range(n)]
    lat = np.full(n, 40.0)
    lon = -3.0 + spacing_deg * np.arange(n)
    pop = np.asarray(population if population is not None else [1000] * n)
    s = np.asarray(ses if ses is not None else np.linspace(10.0, 90.0, n))
    return NeighborhoodTable(ids, lat, lon, pop, s)


def preset_table(n):
    """The centroid table of the homophilous preset city, seed 7, with n
    neighborhoods: the geometry the benchmark runs on."""
    cfg = synth.preset("homophilous", seed=7, n_neighborhoods=n)
    return synth._grid_layout(cfg, np.random.default_rng(cfg.seed))[0]


def sparse_net(table, nnz, channel="purchase", weighting="population_weighted"):
    """A network over ``table`` with ``nnz`` random unit flows (repeats
    collapse), sampled users in every neighborhood, and the census."""
    rng = np.random.default_rng(0)
    W = np.zeros((table.n, table.n))
    W[rng.integers(table.n, size=nnz), rng.integers(table.n, size=nnz)] = 1.0
    return InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel=channel,
                              weighting=weighting,
                              user_counts=np.maximum(table.population // 50, 1))


def gravity_net(table, user_counts, store_counts, W=None, channel="purchase"):
    """A raw network over ``table`` carrying the gravity masses it models:
    ``user_counts`` at origins, ``store_counts`` at purchase destinations.
    Its flows are ``W``, or zero."""
    W = np.zeros((table.n, table.n)) if W is None else np.asarray(W, float)
    return InteractionNetwork(table=table, flows=Flows.from_matrix(W), channel=channel,
                              user_counts=user_counts, store_counts=store_counts)


class Purchase(NamedTuple):
    """One purchases.csv row, in the column order of ``PurchaseLog.from_rows``."""

    customer_id: str
    store_id: str
    amount: float
    customer_home: str | None
    store_neighborhood: str | None


def purchase(cust, store, home, loc, amount=10.0):
    return Purchase(cust, store, amount, home, loc)


def purchase_log(events):
    return PurchaseLog.from_rows(events)


class Mention(NamedTuple):
    """One mentions.csv row, in the column order of ``MentionLog.from_rows``."""

    source_user: str
    target_user: str


def mention(src, dst):
    return Mention(src, dst)


def mention_log(events):
    return MentionLog.from_rows(events)


def post(user, lon, lat, hour=22):
    """One geoposts.csv row, in the column order of ``GeoPostLog.from_rows``."""
    return (user, lat, lon, hour)


def localize(posts: GeoPostLog, geometry):
    """``assign_points_to_neighborhoods`` as (user, neighborhood_id, hour) of
    each post inside a polygon, and the count of the others."""
    place, dropped = assign_points_to_neighborhoods(posts, geometry)
    ids = sorted(geometry)
    return [(posts.user_ids[u], ids[p], h) for u, p, h in
            zip(posts.user.tolist(), place.tolist(), posts.hour.tolist()) if p >= 0], dropped


def homes_of(localized, **window):
    """``infer_home`` on (user, neighborhood_id, hour) posts; a neighborhood
    of None stands for a post outside every polygon."""
    ids = sorted({nid for _, nid, _ in localized} - {None})
    posts = GeoPostLog.from_rows((user, 0.0, 0.0, hour) for user, _, hour in localized)
    place = np.array([-1 if nid is None else ids.index(nid) for _, nid, _ in localized],
                     dtype=np.int64)
    return infer_home(posts, place, ids, **window)


@pytest.fixture
def table4():
    return make_table(4)
