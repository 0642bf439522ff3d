"""Exact-arithmetic toolkit for toric vector bundles given by (M, D) data."""

__version__ = "0.1.0"
