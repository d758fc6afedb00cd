"""Exact Temperley-Lieb diagram calculus at desk scale.

The package implements the diagram algebra on n strands over the ring
of integer Laurent polynomials, the induced black box modules, the
augmented chain complex of planar injective words with its boundary
maps, and the combinatorics that the complex's invariants land on:
Catalan and Fine numbers, first-peak counts of Dyck paths, two-column
standard Young tableaux, and Jacobsthal numbers and elements.

All arithmetic is exact.  Boundary ranks are read off a chain-homotopy
certificate: where it holds, the complex is exact below the top degree
and every rank is a closed form, with no elimination.  Where it fails,
the homology checks fail with it; no rank is taken in its place.
"""

__version__ = "0.1.0"
