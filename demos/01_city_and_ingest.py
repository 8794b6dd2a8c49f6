"""Generate a synthetic city, write it to disk, and run the ingest loop.

The generator plants a known segregation structure; the ingest layer
reads the files back into columnar logs (ids interned once, one code per
event), filters inactive customers, and infers each social-media user's
home neighborhood from night-time posts.
"""
import tempfile
from pathlib import Path

from segflow import (assign_points_to_neighborhoods, filter_active_customers,
                     infer_home, load_geometry, load_geoposts, load_mentions,
                     load_neighborhoods, load_purchases, synth)

outdir = Path(tempfile.mkdtemp(prefix="segflow_demo_"))

print("=== 1. generate a homophilous city (small desk-scale config) ===")
cfg = synth.preset("homophilous", seed=42, n_neighborhoods=100,
                   n_purchase_events=15000, n_mention_events=8000,
                   n_customers=800, n_stores=400, n_twitter_users=400)
city = synth.generate_city(cfg)
paths = synth.write_city(city, outdir)
print(f"wrote {len(paths)} files to {outdir}")
print(f"  {len(city.purchases)} purchases, {len(city.mentions)} mentions, "
      f"{len(city.geoposts)} geo posts")

print()
print("=== 2. load everything back ===")
table = load_neighborhoods(paths["neighborhoods"])
purchases = load_purchases(paths["purchases"])
mentions = load_mentions(paths["mentions"])
posts = load_geoposts(paths["geoposts"])
geometry = load_geometry(paths["geometry"])
print(f"{table.n} neighborhoods, ses range "
      f"{table.ses.min():.1f}..{table.ses.max():.1f}")
print(f"{len(mentions)} mentions among {len(mentions.user_ids)} users; "
      f"{len(posts)} geo posts by {len(posts.user_ids)} users")

print()
print("=== 3. keep only customers with at least ten transactions ===")
active = filter_active_customers(purchases, min_tx=10)
print(f"{len(purchases)} events -> {len(active)} from active customers")

print()
print("=== 4. infer homes from night posts (8pm-6am window) ===")
place, outside = assign_points_to_neighborhoods(posts, geometry)  # index into sorted(geometry)
homes, unassigned = infer_home(posts, place, sorted(geometry))
agree = sum(homes[u] == city.user_homes[u] for u in homes)
print(f"{len(posts) - outside} posts localized ({outside} outside every polygon)")
print(f"{len(homes)} users homed, {len(unassigned)} without night posts")
print(f"inferred home matches the planted one for {agree}/{len(homes)} users")
