"""Separability certificates and exact arithmetic for amalgamated free
products of finite groups, with generator-image machinery for free factors."""

from .amalgam import (
    AmalgamElement,
    AmalgamPresentation,
    CyclicMembership,
    build_amalgam,
    cyclic_member,
    cyclically_reduce,
    element_order,
    extract_root,
    invert,
    is_p_prime_isolated,
    isolated_closure,
    multiply,
    normalize,
    power,
    syllable_length,
)
from .compat import (
    CompatiblePair,
    FamilyVerdict,
    FreeAmalgamDescription,
    QuotientAmalgam,
    build_free_quotient_amalgam,
    build_quotient_amalgam,
    enumerate_compatible_pairs,
    family_separability,
    is_compatible,
    is_p_compatible,
    presentation_residually_p,
)
from .engine import (
    CaseStudyReport,
    WitnessReport,
    enumerate_quotient_homs,
    run_case_study,
    separate_from_cyclic,
)
from .fingrp import (
    FiniteGroup,
    Homomorphism,
    NormalChain,
    Subgroup,
    construct_group,
    enumerate_normal_subgroups,
    find_p_chain,
    is_p_prime_isolated_cyclic_finite,
    quotient_with_projection,
    separating_core,
    subgroup_generated,
)
from .freegrp import (
    FreeWord,
    GenImages,
    SubgroupGraph,
    fold_subgroup,
    graph_member,
    reduce_word,
)

__version__ = "0.1.0"
