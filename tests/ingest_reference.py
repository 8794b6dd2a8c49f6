"""Row-at-a-time reference implementations of the chunked loaders and of
point-in-polygon, for equivalence tests.  They accept valid input only."""
import csv
from datetime import datetime

import numpy as np


def _rows(path):
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def _intern(index, places, key, place):
    code = index.setdefault(key, len(index))
    if code == len(places):
        places.append(place)
    elif places[code] is None:
        places[code] = place
    return code


def load_purchases(path):
    """The PurchaseLog fields of a valid purchases.csv, as a dict."""
    customers, stores, homes, locations = {}, {}, [], []
    customer, store, amount = [], [], []
    for row in _rows(path):
        customer.append(_intern(customers, homes, row["customer_id"],
                                row.get("customer_home") or None))
        store.append(_intern(stores, locations, row["store_id"],
                             row.get("store_neighborhood") or None))
        amount.append(float(row["amount"]))
    return {"customer_ids": list(customers), "store_ids": list(stores), "home": homes,
            "location": locations, "customer": customer, "store": store, "amount": amount}


def load_mentions(path):
    return [(row["source_user"], row["target_user"], datetime.fromisoformat(row["timestamp"]))
            for row in _rows(path) if row["source_user"] != row["target_user"]]


def load_geoposts(path):
    return [(row["user_id"], float(row["lat"]), float(row["lon"]),
             datetime.fromisoformat(row["timestamp"])) for row in _rows(path)]


def points_in_ring(px, py, ring):
    """Even-odd ray casting, boundary-inclusive, vectorized over points."""
    inside = np.zeros(px.shape, dtype=bool)
    on_edge = np.zeros(px.shape, dtype=bool)
    eps = 1e-9
    for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        scale = abs(x2 - x1) + abs(y2 - y1) + 1e-30
        within = ((px >= min(x1, x2) - eps) & (px <= max(x1, x2) + eps)
                  & (py >= min(y1, y2) - eps) & (py <= max(y1, y2) + eps))
        on_edge |= (np.abs(cross) <= eps * scale) & within
        if y1 != y2:
            crosses = ((y1 > py) != (y2 > py)) & (px < (x2 - x1) * (py - y1) / (y2 - y1) + x1)
            inside ^= crosses
    return inside | on_edge


def assign_points(posts, geometry):
    """(localized, dropped) as ``assign_points_to_neighborhoods`` returns
    them, testing polygons one at a time in sorted id order."""
    px = np.array([p.lon for p in posts])
    py = np.array([p.lat for p in posts])
    assigned = np.full(len(posts), -1, dtype=np.int64)
    ordered = sorted(geometry)
    for pos, nid in enumerate(ordered):
        pending = assigned < 0
        if not pending.any():
            break
        hit = np.zeros(len(posts), dtype=bool)
        for ring in geometry[nid]:
            hit[pending] |= points_in_ring(px[pending], py[pending], ring)
            pending = pending & ~hit
        assigned[hit] = pos
    localized = [(posts[i].user_id, ordered[assigned[i]], posts[i].timestamp)
                 for i in range(len(posts)) if assigned[i] >= 0]
    return localized, int((assigned < 0).sum())
