"""Cone polynomials of finite posets: transverse partitions, cycle
bijections, multiset factorizations, and the disjoint-chain generating
function."""

from .errors import (
    CycleDetected,
    DegreeExceeded,
    IndexOutOfRange,
    NotDisjointChains,
    NotLinearExtension,
    NotNaturallyLabeled,
    NotTransverse,
    ParseError,
    PosetconesError,
    SupportMismatch,
    WidthExceeded,
    ZeroPolynomial,
)
from .polynomials import IntPolynomial, count_real_roots, poly_from_machine, stirling_first_kind_row
from .posets import (
    ChainDecomposition,
    Poset,
    antichain,
    chain,
    chain_cover_width2,
    count_linear_extensions,
    disjoint_chain_lengths,
    grid,
    is_antichain,
    is_linear_extension,
    linear_extensions,
    opposite,
    ordinal_sum,
    parse_poset,
    poset_from_relations,
    poset_to_text,
    random_poset,
    union_of_chains,
    width,
)
from .partitions import (
    SetPartition,
    enumerate_transverse,
    is_transverse,
    parse_partition,
    partition_to_text,
    transverse_poly_coeffs,
)
from .bijections import (
    LeveledExtension,
    Permutation,
    des_p1p2,
    level_decompose,
    levels_of_permutation,
    lrmax_count,
    omega,
    omega_inv,
    parse_permutation,
    permutation_to_text,
    phi,
    psi,
    transverse_permutations,
)
from .foata import (
    MultisetPermutation,
    dependence_poset,
    enumerate_multiset_perms,
    factorization_count,
    fcyc,
    fcyc_distribution,
    foata_phi,
    foata_phi_inv,
    intercalation,
    is_prime,
    multiset_decode,
    multiset_encode,
    multiset_perm_to_text,
    parse_multiset_perm,
    prime_decompose,
)
from .genfun import (
    TruncatedSeries,
    chains_gf_rhs,
    falling_bracket,
    mmt_bracket,
    tmmt_rhs,
)
from .whitney import (
    p_eulerian,
    poincare,
    poincare_via_foata,
    poincare_via_lrmax,
    poincare_via_transverse,
    poincare_via_width2,
    stirling_row_check,
    verify_chains_gf,
    whitney_numbers,
)

__version__ = "0.1.0"
