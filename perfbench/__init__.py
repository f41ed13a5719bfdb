"""End-to-end and per-module benchmark for convexloc; run ``perfbench/run.py``."""
