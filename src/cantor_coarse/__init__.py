"""Self-similar Cantor-type invariant sets of the quadratic map, their
clopen partitions, coarse-graining hierarchies and dendrite quotients,
together with machine verification of the checkable claims."""

from .clopen_partition import Partition, build_partition, flatten_refinement, refine_block
from .coarse_graining import (
    Fiber,
    HierarchyLevel,
    HierarchyPolicy,
    QuotientSpace,
    QuotientSpec,
    SelfSimilarityReport,
    SymbolicSystem,
    base_system,
    build_hierarchy,
    build_quotient,
    check_conjugation,
    check_isometry,
    conjugate_system,
    default_representatives,
    merged_representatives,
    quotient_map,
    quotient_metric,
    verify_self_similarity,
)
from .code_space import (
    Address,
    ClopenSet,
    Cylinder,
    FULL_SPACE,
    clopen_complement,
    clopen_union,
    code_distance,
    complete_prefix_code,
    embed_cmts,
    map_clopen,
    prepend_map,
    recode_between,
    recode_homeomorphism,
)
from .dendrite import (
    DendriteFiber,
    DendriteGraph,
    DendritePoint,
    binary_expansion,
    check_continuity_modulus,
    check_surjectivity,
    dendrite_map,
    fiber_of,
    lift_to_level,
)
from .quadratic_system import (
    IntervalCover,
    PointEstimate,
    QuadraticParams,
    StatementReport,
    WeakContractionSystem,
    hausdorff_distance,
    invariant_cover,
    inverse_branches,
    itinerary_point,
    logistic,
    modulus_sum_threshold,
    verify_statement_conditions,
)

__version__ = "0.1.0"
