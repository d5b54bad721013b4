"""Dehn-twist generator combinatorics with verifiable fixed-point certificates.

The package models the union of the standard twist generator curves on a
closed orientable surface as a ribbon graph, classifies the enclosing
subsurface of every connected subset, and derives/re-checks certificates
that the whole twist group fixes a point whenever it acts in dimension
below the genus.  Each layer is imported from its own module, such as
``twistcert.bootstrap``; importing the package alone loads none of them.
"""

__version__ = "0.5.0"
