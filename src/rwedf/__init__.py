"""Exact combinatorics of disjoint difference families over small finite groups.

The central invariant: for a family A_1..A_m and a non-identity shift delta,
N_i(delta) counts the ordered pairs (a, b) with a in A_i, b in another set,
and left difference a * b^-1 = delta.  The package classifies families by the
behaviour of these counts, constructs the classical examples, enumerates
families exhaustively, and validates the analytic rates by simulation.
"""

from .classify import (
    ClassificationReport,
    check_difference_set,
    check_edf,
    check_gsedf,
    check_partial_difference_set,
    check_rwedf,
    check_sedf,
    check_wedf,
    classify,
    classify_many,
    m2_ell_bound_holds,
    m2_ell_bound_tight,
)
from .constructions import (
    complement_pair,
    cyclotomic_squares,
    desarguesian_star_partition,
    f21_difference_set,
    f21_fixture,
    f21_group,
    heisenberg_partition,
    m2_edf,
    m2_gsedf,
    m2_sedf,
    nonzero_singletons,
    singletons_from_difference_set,
    subgroup_star_family,
    trivial_families,
    two_prime_power_construction,
)
from .errors import (
    BadDescriptor,
    BadResidueClass,
    BadWeight,
    BudgetExceeded,
    GroupTooLarge,
    IdentityDelta,
    IdentityNotZero,
    InfeasibleParameters,
    NotADifferenceSet,
    NotAGroup,
    NotPrimePower,
    OverlappingSubgroups,
    PartitionFailure,
    ProfileTooLarge,
)
from .family import (
    BimodalVerdict,
    DifferenceProfile,
    DisjointFamily,
    difference_profile,
    difference_profiles,
    e_delta,
    e_hat,
    internal_difference_group,
    internal_differences,
    is_bimodal,
    r_bound,
    weighted_sum,
)
from .files import (
    family_from_dict,
    family_to_dict,
    family_to_jsonl_line,
    frac_str,
    parse_frac,
    profile_to_csv,
    read_families_jsonl,
    read_family,
    write_families_jsonl,
    write_family,
)
from .gf import FieldGF, prime_power_factor
from .groups import (
    CayleyTableGroup,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    ElementaryAbelianGroup,
    FiniteGroup,
    HeisenbergGroup,
    MAX_ORDER,
    Subgroup,
    closure,
    enumerate_subgroups,
    group_from_descriptor,
    left_cosets,
)
from .census import CensusStats, rwedf_census
from .search import (
    SearchResult,
    SearchSpec,
    SearchStats,
    enumerate_families,
    enumerate_star_partitions,
    naive_enumerate,
)
from .simulate import GameResult, play, play_best_response, play_random_delta

__version__ = "0.1.0"
