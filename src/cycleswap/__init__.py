"""Statistic-swapping combinatorics on S_kn and the generalized symmetric
group: the factorization of a permutation into n k-cycles plus a group
element, its inverse, the induced involution, and verification tools."""

from .forward import block_leaders, factor, standardize
from .gsg import GsgElement, count_fixed_points
from .harness import (
    Distribution,
    VerificationReport,
    fixed_point_distribution,
    k_cycle_distribution,
    sample_empirical,
    verify_distribution_identity,
)
from .inverse import recover_shifts, unfactor
from .involution import InvolutionPair, involute
from .permutations import CapacityError, count_k_cycles, stanley_hat
from .textio import ParseError, format_gsg, format_permutation, parse_permutation

__all__ = [
    "CapacityError",
    "Distribution",
    "GsgElement",
    "InvolutionPair",
    "ParseError",
    "VerificationReport",
    "block_leaders",
    "count_fixed_points",
    "count_k_cycles",
    "factor",
    "fixed_point_distribution",
    "format_gsg",
    "format_permutation",
    "involute",
    "k_cycle_distribution",
    "parse_permutation",
    "recover_shifts",
    "sample_empirical",
    "standardize",
    "stanley_hat",
    "unfactor",
    "verify_distribution_identity",
]
