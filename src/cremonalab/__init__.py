"""Verification laboratory for finite-group and surface-configuration claims.

The package builds small finite groups explicitly (Cayley tables), measures
their minimal abelian-normal index, reproduces an order-12n^2 family with
that index equal to 12, enumerates boundary-cycle configurations with their
dihedral symmetries, checks rational invariant lines in a 6-dimensional
permutation representation, and stress-tests a fiber-swap index bound.

Every name is imported from the submodule that defines it, and importing the
package imports none of them: ``conic_fibers``, ``pole_cycles``, ``report``
and ``rational`` load without numpy.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
