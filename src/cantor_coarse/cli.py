"""Command-line front end: verification campaigns, hierarchy documents and
SVG renderings.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  ``verify`` draws no random number, and the hierarchy document's
sampled ratios draw from the configured seed.  Reports carry no
timestamps, and the SVG builders format every number with fixed
precision, so repeated runs with one configuration are byte-identical.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error, 3 output
I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .code_space import Address
    from .dendrite import DendriteGraph
    from .quadratic_system import IntervalCover, WeakContractionSystem

__all__ = ["RunConfig", "main", "run_campaign"]

log = logging.getLogger("cantor_coarse")

# full covers double per depth step; past this the verification legs that
# enumerate them are capped (the config may still ask for depth up to 30)
MAX_ENUMERATED_DEPTH = 14
MAX_DOCUMENT_DEPTH = 10
# the interval cover a hierarchy document lists
MAX_COVER_DEPTH = 8
# verify reads the ground's contraction ratio on the deepest cover with
# alpha**(3n) >= this, whose intervals stay far above their rounding error
RATIO_RESOLUTION = 2.0**-30

_POLICIES = ("distinct", "merged", "explicit")


def _capped(depth: int, cap: int, name: str) -> int:
    """``min(depth, cap)``, logged at INFO when the cap clips ``depth``."""
    if depth > cap:
        log.info("%s=%d caps depth %d to %d", name, cap, depth, cap)
    return min(depth, cap)


def _cover_chain(sys_: WeakContractionSystem, depth: int) -> list[IntervalCover]:
    """``cover_chain(sys_, depth)``, logged at INFO like ``_capped`` when
    double precision ends it short of ``depth``."""
    from .quadratic_system import cover_chain

    covers = cover_chain(sys_, depth)
    if len(covers) <= depth:
        log.info("double precision caps cover depth %d to %d", depth, len(covers) - 1)
    return covers


# RunConfig's fields and their defaults, in the order the reports' ``config`` lists them
_DEFAULTS = {
    "mu": 5.0, "depth": 12, "partition_n": 2, "levels": 2, "dendrite_depth": 4, "representatives": "distinct",
    "explicit_representatives": None, "tolerance": 1e-12, "seed": 0, "out": ".",
}


class RunConfig:
    """One verification campaign's worth of knobs: the fields of
    ``_DEFAULTS``, each given by keyword or taking its default."""

    __slots__ = tuple(_DEFAULTS)

    def __init__(self, **fields) -> None:
        for key, default in _DEFAULTS.items():
            setattr(self, key, fields.pop(key, default))
        if fields:
            raise TypeError(f"RunConfig got unexpected keyword arguments {sorted(fields)}")

    def validate(self) -> None:
        # a JSON true, string or null would reach the bound tests below
        if isinstance(self.mu, bool) or not isinstance(self.mu, (int, float)):
            raise ValueError(f"mu must be a number, got {self.mu!r}")
        if not self.mu > 4:
            raise ValueError("mu must exceed 4")
        # nan and -inf fail the bound above; an integer mu too large for a
        # float, which a JSON config can give, overflows math.isfinite
        try:
            finite = math.isfinite(self.mu)
        except OverflowError:
            raise ValueError("mu is too large for a float") from None
        if not finite:
            raise ValueError("mu must be finite")
        for name in ("depth", "partition_n", "levels", "dendrite_depth", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.depth <= 30:
            raise ValueError("depth must lie in 0..30")
        if not 1 <= self.partition_n <= 64:
            raise ValueError("partition block count must lie in 1..64")
        if not 0 <= self.levels <= 8:
            raise ValueError("levels must lie in 0..8")
        if not 0 <= self.dendrite_depth <= 8:
            raise ValueError("dendrite depth must lie in 0..8")
        # a JSON true passes a bound test, and an infinite tolerance passes
        # every check and is written as Infinity, which is not JSON
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, (int, float)):
            raise ValueError(f"tolerance must be a number, got {self.tolerance!r}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a string, got {self.out!r}")
        if self.representatives not in _POLICIES:
            raise ValueError(f"representative policy must be one of {_POLICIES}")
        # another policy would ignore the lists, and every report would echo them
        if self.representatives != "explicit" and self.explicit_representatives is not None:
            raise ValueError(
                f"explicit_representatives is given, but representatives is {self.representatives!r}, not 'explicit'"
            )
        if self.representatives == "explicit":
            reps = self.explicit_representatives
            if reps is None:
                raise ValueError("the explicit policy needs explicit_representatives")
            if len(reps) < self.levels:
                raise ValueError(f"explicit_representatives has {len(reps)} lists for {self.levels} levels")
            from .clopen_partition import build_partition
            from .code_space import FULL_SPACE

            # each floor partitions the previous floor's first block
            carrier = FULL_SPACE
            for k, level in enumerate(reps[: self.levels], start=1):
                if len(level) != self.partition_n - 1:
                    raise ValueError(f"level {k} needs {self.partition_n - 1} representatives, got {len(level)}")
                carrier = build_partition(carrier, self.partition_n).blocks[0]
                for q in level:
                    if not carrier.contains(q):
                        raise ValueError(f"level {k}: representative {q} lies outside the first block")

    def as_json(self) -> dict:
        data = {key: getattr(self, key) for key in _DEFAULTS}
        if self.explicit_representatives is not None:
            data["explicit_representatives"] = [
                [{"prefix": a.prefix, "tail": a.tail} for a in level]
                for level in self.explicit_representatives
            ]
        return data


def _representatives_from_json(levels: object) -> tuple[tuple[Address, ...], ...]:
    """A config file's ``explicit_representatives``: a list of lists of
    ``{"prefix": <string>, "tail": <string>}`` objects, one list per floor."""
    from .code_space import Address

    if not isinstance(levels, list) or not all(isinstance(level, list) for level in levels):
        raise ValueError(f"explicit_representatives must be a list of lists, got {levels!r}")
    for level in levels:
        for a in level:
            fields = isinstance(a, dict) and a.keys() == {"prefix", "tail"}
            if not (fields and all(isinstance(v, str) for v in a.values())):
                raise ValueError(
                    "explicit_representatives: a representative must be an object with exactly"
                    f" the string fields prefix and tail, got {a!r}"
                )
    return tuple(tuple(Address(a["prefix"], a["tail"]) for a in level) for level in levels)


def load_config(config_path: str | None, **overrides) -> RunConfig:
    """Merge a JSON config file with flag overrides; flags win."""
    data: dict = {}
    if config_path is not None:
        data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = set(data).difference(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if data.get("explicit_representatives") is not None:
            data["explicit_representatives"] = _representatives_from_json(data["explicit_representatives"])
    merged = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def _check(check_id: str, location: str, measured: object, bound: object, passed: bool) -> dict:
    """One entry of the report's ``checks`` list."""
    return {"id": check_id, "location": location, "measured": measured, "bound": bound, "passed": passed}


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
    the deepest cover double precision separates, and then so do both."""
    from .quadratic_system import forward_distance

    records = []
    distances = []
    top = _capped(cfg.depth, MAX_ENUMERATED_DEPTH, "MAX_ENUMERATED_DEPTH")
    covers = _cover_chain(sys_, top + 1)
    for n, (cover, finer) in enumerate(zip(covers, covers[1:])):
        dist = forward_distance(cfg.mu, finer, cover)
        nested = finer.subset_of(cover)
        records.append(
            _check("cover.identity", f"n={n}", dist, cfg.tolerance, dist <= cfg.tolerance)
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
        log.info("partition.laws: the step after n=%d raised", worst, exc_info=True)
    records.append(_check("partition.laws", "n=1..64", worst, 64, worst == 64))
    try:
        p = build_partition(FULL_SPACE, 3)
        flat = flatten_refinement(p, 1, refine_block(p, 1, 3))
        refined = flatten_refinement(flat, 2, refine_block(flat, 2, 2)).size
    except Exception:  # noqa: BLE001 - any failure fails the check
        log.info("partition.refine: a step raised", exc_info=True)
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
        log.info("quotient.nontrivial: build_hierarchy raised", exc_info=True)
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
                {"exact": exact, "hausdorff": hausdorff},
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
        log.info("dendrite.fiber_soundness: measuring a witness raised", exc_info=True)
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


def run_campaign(cfg: RunConfig) -> dict:
    """Run every verification family and assemble the JSON-ready report."""
    from .quadratic_system import inverse_branches

    records: list[dict] = []
    sys_ = inverse_branches(cfg.mu)
    statement = _statement_checks(cfg, sys_)
    statement_ok = all(r["passed"] for r in statement)
    records.extend(statement)
    coverage, covers, identity_distances = _coverage_checks(cfg, sys_)
    records.extend(coverage)
    records.extend(_partition_checks(cfg))
    if statement_ok and cfg.levels >= 1:
        records.extend(_hierarchy_checks(cfg, sys_, covers, identity_distances))
    elif not statement_ok:
        log.info("statement conditions failed; skipping hierarchy checks")
    records.extend(_dendrite_checks(cfg))
    passed = sum(1 for r in records if r["passed"])
    return {
        "schema": "verification-report/1",
        "config": cfg.as_json(),
        "checks": records,
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
            "all_passed": passed == len(records),
        },
    }


def _floor_name(k: int) -> str:
    """The name of floor ``k`` of the tower: S, D1, D2, ..."""
    return f"D{k}" if k else "S"


def hierarchy_document(cfg: RunConfig) -> dict:
    """Serialize the tower: carriers, homeomorphism rules, moduli, distances.

    The tower is symbolic, so every configured floor is written at every
    valid ``mu``; only ``verify`` judges the contraction conditions.  Each
    floor's ``modulus_bound`` is the ground branches' modulus, which bounds
    every floor's ratio.
    """
    from .coarse_graining import build_hierarchy, verify_self_similarity
    from .quadratic_system import forward_distance, inverse_branches

    sys_ = inverse_branches(cfg.mu)
    modulus = list(sys_.modulus_inf)
    tower = build_hierarchy(cfg.levels, cfg.partition_n, cfg.representatives, cfg.explicit_representatives)
    doc_depth = _capped(cfg.depth, MAX_DOCUMENT_DEPTH, "MAX_DOCUMENT_DEPTH")
    covers = _cover_chain(sys_, doc_depth + 1)
    # MAX_COVER_DEPTH <= MAX_DOCUMENT_DEPTH, so only the chain's end clips it
    cover = covers[min(_capped(cfg.depth, MAX_COVER_DEPTH, "MAX_COVER_DEPTH"), len(covers) - 1)]
    # the realized point set is the same at every floor: labels pull back to
    # ground addresses, and those realize to these covers
    hausdorff = forward_distance(cfg.mu, covers[-1], covers[-2])
    levels: dict[str, dict] = {}
    for level in tower:
        base_len = max((len(w) for w in level.carrier.words), default=0)
        rep = verify_self_similarity(level, samples=100, seed=cfg.seed)
        entry: dict = {
            "carrier": list(level.carrier.words),
            "cylinders": list(level.carrier.refine(base_len + doc_depth)),
            "interval_cover": {"depth": cover.depth, "intervals": [list(iv) for iv in cover.intervals]},
            "modulus_bound": modulus,
            "coverage_exact": rep.coverage_exact,
            "coverage_hausdorff": hausdorff,
            "max_contraction_ratio": list(rep.max_ratio),
        }
        if level.quotient is not None:
            entry["homeomorphism"] = [
                {"rules": [[src, dst] for src, dst in stage.rules]}
                for stage in level.hom.stages
            ]
            entry["fiber_labels"] = [
                {"prefix": f.label.prefix, "tail": f.label.tail, "blocks": list(f.block_indices)}
                for f in level.quotient.multi_fibers
            ]
            entry["representatives"] = [
                {"prefix": q.prefix, "tail": q.tail} for q in level.quotient.representatives
            ]
        levels[_floor_name(level.level)] = entry
    return {
        "schema": "hierarchy-document/1",
        "config": cfg.as_json(),
        "level_names": [_floor_name(k) for k in range(cfg.levels + 1)],
        "levels": levels,
    }


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        sys.exit(3)


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _config_file(value: str) -> str:
    """``--config`` names a readable file that exists."""
    path = Path(value)
    if not path.exists():
        raise argparse.ArgumentTypeError(f"file {value!r} does not exist")
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"file {value!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {value!r} is not readable")
    return value


def _out_dir(value: str) -> str:
    """``--out`` names a directory, which need not exist yet."""
    if Path(value).is_file():
        raise argparse.ArgumentTypeError(f"directory {value!r} is a file")
    return value


# the options every command takes: flag, add_argument keywords
_OPTIONS = (
    ("--mu", {"type": float, "help": "rate constant, must exceed 4"}),
    ("--depth", {"type": int, "help": "interval cover depth (0..30)"}),
    ("--n", {"dest": "partition_n", "metavar": "N", "type": int, "help": "partition blocks per level"}),
    ("--levels", {"type": int, "help": "coarse-graining levels (0..8)"}),
    ("--dendrite-depth", {"type": int, "help": "dendrite tree depth (0..8)"}),
    ("--tolerance", {"type": float, "help": "identity tolerance"}),
    ("--seed", {"type": int, "help": "seed for the hierarchy document's sampled ratios; no verify check reads it"}),
    ("--representatives", {"choices": _POLICIES}),
    ("--config", {"dest": "config_path", "metavar": "PATH", "type": _config_file, "help": "JSON config file"}),
    ("--out", {"type": _out_dir, "help": "output directory"}),
)
_FLAGS = frozenset(flag for flag, _ in _OPTIONS)


def verify(cfg: RunConfig) -> None:
    """Run the full verification campaign and write the JSON report."""
    report = run_campaign(cfg)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"{status} {check['id']} [{check['location']}]")
    out = Path(cfg.out) / "verification_report.json"
    _write_text(out, _dump(report))
    print(f"report: {out}")
    if not report["summary"]["all_passed"]:
        for check in report["checks"]:
            if not check["passed"]:
                print(
                    f"failed: {check['id']} [{check['location']}] measured "
                    f"{json.dumps(check['measured'])}, bound {json.dumps(check['bound'])}",
                    file=sys.stderr,
                )
        sys.exit(1)


def hierarchy(cfg: RunConfig) -> None:
    """Write the hierarchy document for the configured tower."""
    doc = hierarchy_document(cfg)
    out = Path(cfg.out) / "hierarchy.json"
    _write_text(out, _dump(doc))
    print(f"document: {out}")


def _fiber_counts(tree: DendriteGraph, depth: int) -> dict[int, int]:
    """The cylinder count of each vertex's fiber, at ``depth`` capped to
    MAX_DOCUMENT_DEPTH."""
    from .dendrite import fiber_of

    depth = _capped(depth, MAX_DOCUMENT_DEPTH, "MAX_DOCUMENT_DEPTH")
    return {v: len(fiber_of(tree, tree.vertex_point(v), depth).cylinders) for v in tree.vertices}


def render(cfg: RunConfig) -> None:
    """Write the Cantor-bar, hierarchy and dendrite SVG renderings."""
    from .dendrite import DendriteGraph
    from .quadratic_system import inverse_branches
    from .svg import cantor_bars_svg, dendrite_svg, hierarchy_svg

    sys_ = inverse_branches(cfg.mu)
    bar_depth = _capped(cfg.depth, MAX_ENUMERATED_DEPTH, "MAX_ENUMERATED_DEPTH")
    out_dir = Path(cfg.out)
    _write_text(out_dir / "cantor_bars.svg", cantor_bars_svg(_cover_chain(sys_, bar_depth)))

    # the tower is symbolic: every floor has the ground's branches and modulus
    names = [_floor_name(k) for k in range(cfg.levels + 1)]
    _write_text(out_dir / "hierarchy.svg", hierarchy_svg(names, max(sys_.modulus_inf)))

    tree = DendriteGraph(cfg.dendrite_depth)
    _write_text(out_dir / "dendrite.svg", dendrite_svg(tree, _fiber_counts(tree, cfg.depth)))
    print(f"renderings: {out_dir}")


def partition(cfg: RunConfig) -> None:
    """Write the clopen partition of the full space into n blocks."""
    from .clopen_partition import build_partition
    from .code_space import FULL_SPACE

    p = build_partition(FULL_SPACE, cfg.partition_n)
    doc = {
        "schema": "partition-document/1",
        "config": cfg.as_json(),
        "carrier": list(p.carrier.words),
        "blocks": [list(b.words) for b in p.blocks],
    }
    out = Path(cfg.out) / "partition.json"
    _write_text(out, _dump(doc))
    print(f"document: {out}")


def dendrite(cfg: RunConfig) -> None:
    """Write the dendrite structure and per-vertex fiber counts."""
    from .dendrite import DendriteGraph

    tree = DendriteGraph(cfg.dendrite_depth)
    doc = {
        "schema": "dendrite-document/1",
        "config": cfg.as_json(),
        "vertex_count": tree.vertex_count,
        "edges": [
            {"parent": tree.parent(v), "child": v, "length": str(tree.edge_length(v))}
            for v in range(2, tree.vertex_count + 1)
        ],
        "tour_length": str(tree.tour_length),
        "fiber_cylinder_counts": {str(v): n for v, n in _fiber_counts(tree, cfg.depth).items()},
    }
    out = Path(cfg.out) / "dendrite.json"
    _write_text(out, _dump(doc))
    print(f"document: {out}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantor-coarse",
        description="Construct and machine-verify self-similar coarse grainings of the "
        "Cantor-type invariant set of the quadratic map.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for run in (verify, hierarchy, render, partition, dendrite):
        doc = run.__doc__.strip()
        sub = commands.add_parser(run.__name__, help=doc, description=doc, allow_abbrev=False)
        for flag, kwargs in _OPTIONS:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=run, fail=sub.error)
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Pass an option whose value begins with '-' as ``--flag=value``.

    The value is the token after the flag whatever it looks like
    (``--mu -inf``), where argparse would read a token such as ``-inf`` as
    an unknown flag.
    """
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _FLAGS else None
        if value is None:
            out.append(token)
        elif value.startswith("-"):
            out.append(f"{token}={value}")
        else:
            out.extend((token, value))
    return out


def main(argv: list[str] | None = None) -> None:
    """Run one command on ``argv`` (default: ``sys.argv[1:]``)."""
    args = vars(_parser().parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv)))
    run, fail = args.pop("run"), args.pop("fail")
    level_name = os.environ.get("CANTOR_COARSE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))
    try:
        cfg = load_config(args.pop("config_path"), **args)
    except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        fail(f"invalid configuration: {exc}")
    run(cfg)


if __name__ == "__main__":
    main()
