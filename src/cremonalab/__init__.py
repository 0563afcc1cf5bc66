"""Verification laboratory for finite-group and surface-configuration claims.

The package builds small finite groups explicitly (Cayley tables), measures
their minimal abelian-normal index, reproduces an order-12n^2 family with
that index equal to 12, enumerates boundary-cycle configurations with their
dihedral symmetries, checks rational invariant lines in a 6-dimensional
permutation representation, and stress-tests a fiber-swap index bound.

Only the entry points the demos use and ``run_suite`` are re-exported here;
everything else is imported from its submodule.
"""

from .conic_fibers import (
    SwapFailure,
    construct_no_swap_subgroup,
    greedy_selection,
    make_model,
    simulate,
)
from .corpus import small_group_corpus
from .dp5 import dp5_suite, s5_representation, verify_homomorphism
from .jordan import jordan_index, normal_subgroups
from .pole_cycles import configuration_rows, max_symmetry_by_degree
from .semidirect import build_action_data, verify_lemma52
from .suites import run_suite

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SwapFailure",
    "build_action_data",
    "configuration_rows",
    "construct_no_swap_subgroup",
    "dp5_suite",
    "greedy_selection",
    "jordan_index",
    "make_model",
    "max_symmetry_by_degree",
    "normal_subgroups",
    "run_suite",
    "s5_representation",
    "simulate",
    "small_group_corpus",
    "verify_homomorphism",
    "verify_lemma52",
]
