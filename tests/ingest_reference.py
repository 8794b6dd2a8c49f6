"""Row-at-a-time reference implementations of the chunked loaders, of
point-in-polygon and of the per-event home inference, mention network and
mention profiles, for equivalence tests.  They accept valid input only."""
import csv
from collections import Counter, defaultdict
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
    """The MentionLog fields of a valid mentions.csv, as a dict."""
    users, source, target = {}, [], []
    for row in _rows(path):
        if row["source_user"] != row["target_user"]:
            datetime.fromisoformat(row["timestamp"])
            source.append(users.setdefault(row["source_user"], len(users)))
            target.append(users.setdefault(row["target_user"], len(users)))
    return {"user_ids": list(users), "source": source, "target": target}


def load_geoposts(path):
    """The GeoPostLog fields of a valid geoposts.csv, as a dict."""
    users, user, lat, lon, hour = {}, [], [], [], []
    for row in _rows(path):
        user.append(users.setdefault(row["user_id"], len(users)))
        lat.append(float(row["lat"]))
        lon.append(float(row["lon"]))
        hour.append(datetime.fromisoformat(row["timestamp"]).hour)
    return {"user_ids": list(users), "user": user, "lat": lat, "lon": lon, "hour": hour}


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
    """The (user, neighborhood_id, hour) of each of the GeoPostLog ``posts``
    inside a polygon, and the count of the others, testing polygons one at a
    time in sorted id order."""
    px, py = posts.lon, posts.lat
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
    localized = [(posts.user_ids[posts.user[i]], ordered[assigned[i]], int(posts.hour[i]))
                 for i in range(len(posts)) if assigned[i] >= 0]
    return localized, int((assigned < 0).sum())


def infer_home(localized, night_start=20, night_end=6):
    """``infer_home`` on (user, neighborhood_id, hour) posts, by Counters."""
    def is_night(hour: int) -> bool:
        if night_start <= night_end:
            return night_start <= hour < night_end
        return hour >= night_start or hour < night_end

    night_counts = defaultdict(Counter)
    total_counts = defaultdict(Counter)
    for user, nid, hour in localized:
        total_counts[user][nid] += 1
        if is_night(hour):
            night_counts[user][nid] += 1

    homes = {}
    unassigned = []
    for user in sorted(total_counts):
        nights = night_counts.get(user)
        if not nights:
            unassigned.append(user)
            continue
        totals = total_counts[user]
        homes[user] = min(nights, key=lambda nid: (-nights[nid], -totals[nid], nid))
    return homes, unassigned


def build_mention_network(mentions, homes, table):
    """(W, user_counts, dropped_events) of ``build_mention_network`` on
    (source, target) pairs, one mention at a time."""
    n = table.n
    W = np.zeros((n, n))
    dropped = 0
    for source, target in mentions:
        i = table.index.get(homes.get(source))
        j = table.index.get(homes.get(target))
        if i is None or j is None:
            dropped += 1
            continue
        W[i, j] += 1
    user_counts = np.zeros(n, dtype=np.int64)
    for nid in homes.values():
        pos = table.index.get(nid)
        if pos is not None:
            user_counts[pos] += 1
    return W, user_counts, dropped


def mention_profiles(mentions):
    """Per-user mention-target Counters of (source, target) pairs."""
    profiles = defaultdict(Counter)
    for source, target in mentions:
        profiles[source][target] += 1
    return dict(profiles)
