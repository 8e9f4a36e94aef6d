"""Verification engine for minimal translation surfaces with respect to
semi-symmetric metric and non-metric connections in Euclidean and Minkowski
3-space."""

__version__ = "0.1.0"
