"""Seeded end-to-end and per-layer benchmark of kneegp; see run.py."""
