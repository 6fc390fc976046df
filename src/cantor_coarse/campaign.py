"""The verification campaign's check families, which only ``verify`` runs.

Each family returns records of the report's ``checks`` list, built by
``_check``: the statement conditions, the cover identity and nesting, the
partition laws, the tower's quotient, conjugation, coverage and ratio,
and the dendrite's tour and fiber records.  ``cli.run_campaign`` imports
them when it runs and calls them in that order, so no other command
compiles this module.  Each family imports the layers it checks when it
runs, as ``cli`` does.
"""

from __future__ import annotations

import math
from operator import le

from .cli import MAX_DOCUMENT_DEPTH, MAX_ENUMERATED_DEPTH, _capped, _cover_chain, _info

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .cli import RunConfig
    from .dendrite import DendriteGraph
    from .quadratic_system import IntervalCover, WeakContractionSystem

# verify reads the ground's contraction ratio on the deepest cover with
# alpha**(3n) >= this, whose intervals stay far above their rounding error
RATIO_RESOLUTION = 2.0**-30


def _check(check_id: str, location: str, measured: object, bound: object, passed: bool) -> dict:
    """One entry of the report's ``checks`` list."""
    return {"id": check_id, "location": location, "measured": measured, "bound": bound, "passed": passed}


def _finite(distance: float) -> float | None:
    """``distance``, or None for an infinite one, which JSON cannot hold."""
    return distance if distance < math.inf else None


def _statement_checks(cfg: RunConfig, sys_: WeakContractionSystem) -> list[dict]:
    from .quadratic_system import verify_statement_conditions

    report = verify_statement_conditions(sys_)
    return [
        _check("statement.i.injective", f"mu={cfg.mu}", report.injective, True, report.injective),
        _check(
            "statement.ii.fixed_points",
            f"mu={cfg.mu}",
            {"points": list(report.fixed_points), "residual": report.fixed_point_residual},
            cfg.tolerance,
            report.not_singleton and report.fixed_point_residual <= cfg.tolerance,
        ),
        _check(
            "statement.iii.modulus_sum",
            f"mu={cfg.mu}",
            report.modulus_sum,
            1.0,
            report.modulus_sum_below_one,
        ),
    ]


def _coverage_checks(
    cfg: RunConfig, sys_: WeakContractionSystem
) -> tuple[list[dict], list[IntervalCover], list[float]]:
    """The forward-map identity and nesting records along one cover chain
    of ``sys_``, and for each n = 0..min(depth, MAX_ENUMERATED_DEPTH), by
    n, the depth-n cover and the identity's distance there.  The forward
    map is the quadratic map at ``cfg.mu``.  The chain may stop short at
    the deepest cover double precision separates, and then so do both.

    Nesting is read from the chain's structure: the depth-n interval i
    holds exactly the depth-(n + 1) intervals 2i and 2i + 1, so the finer
    cover has twice the intervals, and each pair's outer ends lie inside
    its parent.  A cover's intervals are sorted and disjoint, so the
    inner ends follow, and a refinement that drops or doubles a child
    fails where a containment test would pass it."""
    from .quadratic_system import forward_distance

    records = []
    distances = []
    top = _capped(cfg.depth, MAX_ENUMERATED_DEPTH, "MAX_ENUMERATED_DEPTH")
    covers = _cover_chain(sys_, top + 1)
    for n, (cover, finer) in enumerate(zip(covers, covers[1:])):
        dist = forward_distance(cfg.mu, finer, cover)
        ends, fine = cover.ends, finer.ends
        nested = (
            len(fine) == 2 * len(ends)
            and all(map(le, ends[::2], fine[::4]))
            and all(map(le, fine[3::4], ends[1::2]))
        )
        records.append(
            _check("cover.identity", f"n={n}", _finite(dist), cfg.tolerance, dist <= cfg.tolerance)
        )
        records.append(_check("cover.nested", f"n={n}", nested, True, nested))
        distances.append(dist)
    return records, covers[:-1], distances


def _partition_chain(top: int):
    """``build_partition(FULL_SPACE, n)`` for n = 1..top, in order.

    The induction step of ``build_partition``: splitting the last block of
    the validated n-block partition gives the (n + 1)-block one.
    """
    from .clopen_partition import build_partition, flatten_refinement, refine_block
    from .code_space import FULL_SPACE

    p = build_partition(FULL_SPACE, 1)
    yield p
    while p.size < top:
        p = flatten_refinement(p, p.size, refine_block(p, p.size, 2))
        yield p


def _partition_checks(cfg: RunConfig) -> list[dict]:
    from .clopen_partition import build_partition, flatten_refinement, refine_block
    from .code_space import FULL_SPACE

    records = []
    # worst: the largest n reached before a step fails or adds other than one block
    worst = 0
    try:
        for p in _partition_chain(64):
            if p.size != worst + 1:
                break
            worst = p.size
    except Exception:  # noqa: BLE001 - any failure fails the check
        _info("partition.laws: the step after n=%d raised", worst, exc_info=True)
    records.append(_check("partition.laws", "n=1..64", worst, 64, worst == 64))
    try:
        p = build_partition(FULL_SPACE, 3)
        flat = flatten_refinement(p, 1, refine_block(p, 1, 3))
        refined = flatten_refinement(flat, 2, refine_block(flat, 2, 2)).size
    except Exception:  # noqa: BLE001 - any failure fails the check
        _info("partition.refine: a step raised", exc_info=True)
        refined = None
    records.append(_check("partition.refine", "depth=3", refined, 6, refined == 6))
    return records


def _hierarchy_checks(
    cfg: RunConfig, sys_: WeakContractionSystem, covers: list[IntervalCover], identity_distances: list[float]
) -> list[dict]:
    """Quotient, conjugation and self-similarity records of every floor of
    the configured tower.  ``sys_`` is the ground's realization, which has
    passed the statement checks, and its modulus bounds every floor's ratio.

    ``covers`` and ``identity_distances`` are the coverage leg's covers and
    forward-map identity distances by n.  Every floor realizes to the same
    covers, so each floor's coverage record reads the distance at the
    verification depth, or the chain's deepest.  The contraction ratio is
    read once, on the ground floor, from one cover's endpoints in the real
    metric.  Each higher floor's ratio record cites it, and passes when the
    ground's does and the floor intertwines with the ground, which gives
    the floor the ground's ratio at every pair.

    When the tower cannot be built, each floor gets one failing
    ``quotient.nontrivial`` record that measures nothing.
    """
    from .coarse_graining import (
        RATIO_SLACK,
        build_hierarchy,
        check_conjugation,
        check_coverage,
        check_intertwining,
        check_isometry,
    )

    try:
        tower = build_hierarchy(cfg.levels, cfg.partition_n, cfg.representatives, cfg.explicit_representatives)
    except Exception:  # noqa: BLE001 - any failure fails the check
        _info("quotient.nontrivial: build_hierarchy raised", exc_info=True)
        return [_check("quotient.nontrivial", f"k={k}", None, ">=1", False) for k in range(1, cfg.levels + 1)]
    records = []
    # the coverage leg measured n = 0..min(depth, MAX_ENUMERATED_DEPTH), or up
    # to where its chain stopped; MAX_DOCUMENT_DEPTH <= MAX_ENUMERATED_DEPTH
    verify_depth = min(_capped(cfg.depth, MAX_DOCUMENT_DEPTH, "MAX_DOCUMENT_DEPTH"), len(identity_distances) - 1)
    hausdorff = identity_distances[verify_depth]
    for level in tower[1:]:
        multi = level.quotient.multi_fibers
        expected = cfg.partition_n - 1 if cfg.representatives == "distinct" else None
        nontrivial = bool(multi)
        records.append(
            _check("quotient.nontrivial", f"k={level.level}", len(multi), ">=1", nontrivial)
        )
        if expected is not None:
            records.append(
                _check(
                    "quotient.multi_fiber_count",
                    f"k={level.level}",
                    len(multi),
                    expected,
                    len(multi) == expected,
                )
            )
        prev = tower[level.level - 1]
        iso = check_isometry(level, prev)
        records.append(_check("quotient.isometry", f"k={level.level}", iso, True, iso))
        conj = check_conjugation(level, prev)
        records.append(_check("hierarchy.conjugation", f"k={level.level}", conj, True, conj))
    ground = tower[0]
    # |f_j(hi) - f_j(lo)| / (hi - lo) over the intervals of the deepest cover
    # with alpha**(3n) >= RATIO_RESOLUTION: each endpoint is f_w(0) or f_w(1),
    # a point of the invariant set, so each quotient is a pair ratio in the
    # metric alpha bounds, including the pairs at y = 1, where |f_j'| peaks
    alpha = max(sys_.modulus_inf)
    n = len(covers) - 1
    while n and alpha ** (3 * n) < RATIO_RESOLUTION:
        n -= 1
    ends = covers[n].ends
    ratio = max(abs(f(hi) - f(lo)) / (hi - lo) for f in sys_.branches for lo, hi in zip(ends[::2], ends[1::2]))
    bound = alpha + RATIO_SLACK
    for level in tower:
        exact = check_coverage(level)
        records.append(
            _check(
                "hierarchy.coverage",
                f"k={level.level} depth={verify_depth}",
                {"exact": exact, "hausdorff": _finite(hausdorff)},
                cfg.tolerance,
                exact and hausdorff <= cfg.tolerance,
            )
        )
        holds = ratio <= bound and (level is ground or check_intertwining(level, ground))
        records.append(_check("hierarchy.ratio", f"k={level.level}", ratio, bound, holds))
    return records


def _dendrite_checks(cfg: RunConfig) -> list[dict]:
    from .dendrite import DendriteGraph, check_continuity_modulus, check_surjectivity, check_tour_conservation

    tree = DendriteGraph(cfg.dendrite_depth)
    records = []
    for check_id, check in (
        ("dendrite.tour_conservation", check_tour_conservation),
        ("dendrite.surjectivity", check_surjectivity),
        ("dendrite.continuity", check_continuity_modulus),
    ):
        holds = check(tree)
        records.append(_check(check_id, f"L={cfg.dendrite_depth}", holds, True, holds))
    depth = 2 * cfg.dendrite_depth + 4
    try:
        sound = _fiber_soundness(tree, depth)
    except Exception:  # noqa: BLE001 - any failure fails the check
        _info("dendrite.fiber_soundness: measuring a witness raised", exc_info=True)
        sound = None
    records.append(
        _check("dendrite.fiber_soundness", f"depth={depth}", sound, 1e-9, sound is not None and sound <= 1e-9)
    )
    return records


def _fiber_soundness(tree: DendriteGraph, depth: int) -> float:
    from fractions import Fraction

    from .dendrite import dendrite_map, fiber_of

    worst = Fraction(0)
    for v in tree.vertices:
        p = tree.vertex_point(v)
        for wit in fiber_of(tree, p, depth).witnesses:
            worst = max(worst, tree.distance(dendrite_map(tree, wit), p))
    return float(worst)
