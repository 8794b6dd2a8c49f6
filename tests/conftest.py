from datetime import datetime
from typing import NamedTuple

import numpy as np
import pytest

from segflow.ingest import MentionEvent, NeighborhoodTable, PurchaseLog


def make_table(n=4, ses=None, population=None, spacing_deg=0.05):
    """Small table with ids N00..N{n-1} on a line of centroids."""
    ids = [f"N{i:02d}" for i in range(n)]
    lat = np.full(n, 40.0)
    lon = -3.0 + spacing_deg * np.arange(n)
    pop = np.asarray(population if population is not None else [1000] * n)
    s = np.asarray(ses if ses is not None else np.linspace(10.0, 90.0, n))
    return NeighborhoodTable(ids, lat, lon, pop, s)


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


def mention(src, dst, ts="2013-05-01T12:00:00"):
    return MentionEvent(source_user=src, target_user=dst,
                        timestamp=datetime.fromisoformat(ts))


@pytest.fixture
def table4():
    return make_table(4)
