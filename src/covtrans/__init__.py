"""Randomized covering-set constructions over finite groups and quotient towers."""

from .covering import (
    CoveringCertificate,
    GreedyShrinkResult,
    IntersectingFamily,
    VerificationRecord,
    construct_intersecting_family,
    construct_k_covering,
    covering_condition,
    covering_condition_value,
    covering_number_bounds,
    exact_covering_number,
    greedy_shrink_intersection,
    intersecting_family_feasible,
    member_size_cap,
    parse_mode,
    sample_probability,
    verify_intersecting,
    verify_k_covering,
)
from .errors import (
    BudgetExceededError,
    ConstructionError,
    CovtransError,
    FeasibilityError,
    IntegrityError,
    SoundnessError,
)
from .groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    ElementaryAbelianGroup,
    Epimorphism,
    FiniteGroup,
    SymmetricGroup,
    group_from_descriptor,
)
from .subsets import GroupSubset, random_subset, translate_into
from .tower import (
    FactoredSubset,
    StageAdmissibility,
    ThinSet,
    Tower,
    TowerSpec,
    TowerStage,
    build_tower,
    dimension_estimate,
    extend_covering,
    make_thin_set,
    parse_tower_descriptor,
    sample_thin_set,
    thin_bound,
    tower_from_document,
    translate_thin,
)

__version__ = "0.1.0"
