"""Extraction benchmark for ray-extract; run it with ``run.py``."""
