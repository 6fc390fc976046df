"""Self-similar Cantor-type invariant sets of the quadratic map, their
clopen partitions, coarse-graining hierarchies and dendrite quotients,
together with machine verification of the checkable claims.

Every public name resolves on first access (PEP 562), so ``import
cantor_coarse`` loads no submodule and each command loads only the
modules it runs; ``from cantor_coarse import build_hierarchy`` works as a
plain import would.

The package root also holds ``_Value``, the immutable base of the value
types of several submodules, so a module that defines such a type loads
only the package root for it.
"""

import importlib


class _Value:
    """Base of the value types: ``__init__`` sets each field once, and
    assigning or deleting a field afterwards raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__


# public name -> the submodule that defines it
_SUBMODULE_OF = {
    **dict.fromkeys(
        ("Partition", "build_partition", "flatten_refinement", "refine_block"),
        "clopen_partition",
    ),
    **dict.fromkeys(
        (
            "Fiber",
            "HierarchyLevel",
            "QuotientSpec",
            "SelfSimilarityReport",
            "base_system",
            "build_hierarchy",
            "check_conjugation",
            "check_isometry",
            "conjugate_system",
            "default_representatives",
            "merged_representatives",
            "verify_self_similarity",
        ),
        "coarse_graining",
    ),
    **dict.fromkeys(
        (
            "Address",
            "ClopenSet",
            "FULL_SPACE",
            "clopen_union",
            "code_distance",
            "complete_prefix_code",
            "embed_cmts",
            "map_clopen",
            "prepend_map",
            "recode_between",
            "recode_homeomorphism",
        ),
        "code_space",
    ),
    **dict.fromkeys(
        (
            "DendriteFiber",
            "DendriteGraph",
            "DendritePoint",
            "binary_expansion",
            "check_continuity_modulus",
            "check_surjectivity",
            "check_tour_conservation",
            "dendrite_map",
            "fiber_of",
        ),
        "dendrite",
    ),
    **dict.fromkeys(
        (
            "IntervalCover",
            "PointEstimate",
            "StatementReport",
            "WeakContractionSystem",
            "hausdorff_distance",
            "invariant_cover",
            "inverse_branches",
            "itinerary_point",
            "logistic",
            "verify_statement_conditions",
        ),
        "quadratic_system",
    ),
}

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached here: the import system already caches the submodule
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
