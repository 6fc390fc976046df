"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

from cantor_coarse.cli import main
from cantor_coarse.clopen_partition import build_partition, flatten_refinement, refine_block
from cantor_coarse.code_space import Address, FULL_SPACE, clopen_union, code_distance, random_address
from cantor_coarse.coarse_graining import (
    build_hierarchy,
    build_quotient,
    check_isometry,
    default_representatives,
    verify_self_similarity,
    QuotientSpec,
)
from cantor_coarse.dendrite import DendriteGraph, check_continuity_modulus, fiber_of
from cantor_coarse.quadratic_system import (
    QuadraticParams,
    hausdorff_distance,
    invariant_cover,
    inverse_branches,
    refine_cover,
    verify_statement_conditions,
)

MU5 = QuadraticParams(5.0)
SYS5 = inverse_branches(MU5)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_statement_conditions():
    start = time.perf_counter()
    rep5 = verify_statement_conditions(inverse_branches(MU5))
    ok = rep5.injective
    ok &= rep5.not_singleton and rep5.fixed_point_residual <= 1e-12
    ok &= sorted(rep5.fixed_points) == [0.0, 0.8]
    ok &= abs(rep5.modulus_sum - 2.0 / math.sqrt(5.0)) <= 1e-9 and rep5.modulus_sum < 1.0
    rep45 = verify_statement_conditions(inverse_branches(QuadraticParams(4.5)))
    ok &= not rep45.modulus_sum_below_one
    ok &= abs(rep45.modulus_sum - 4.0 / 3.0) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(
        "criterion 1 (statement conditions)",
        ok,
        f"mu=5 sum={rep5.modulus_sum:.10f}, mu=4.5 sum={rep45.modulus_sum:.4f}, {elapsed:.2f}s",
    )


def test_criterion_2_self_similarity_coverage():
    start = time.perf_counter()
    sys5 = inverse_branches(MU5)
    worst = 0.0
    ok = True
    cover = invariant_cover(sys5, 0)
    for n in range(15):
        nxt = invariant_cover(sys5, n + 1)
        dist = hausdorff_distance(refine_cover(sys5, cover), nxt)
        worst = max(worst, dist)
        ok &= dist < 1e-12
        ok &= nxt.subset_of(cover)
        cover = nxt
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(
        "criterion 2 (coverage identity, n<=14)",
        ok,
        f"max Hausdorff={worst:.2e}, nesting holds, {elapsed:.2f}s",
    )


def test_criterion_3_partition_laws():
    start = time.perf_counter()
    ok = True
    for n in range(1, 65):
        p = build_partition(FULL_SPACE, n)
        ok &= p.size == n
        ok &= all(not b.is_empty for b in p.blocks)
        ok &= clopen_union(*p.blocks) == FULL_SPACE
        for i, b in enumerate(p.blocks):
            for other in p.blocks[i + 1:]:
                ok &= all(cb.disjoint(co) for cb in b.cylinders for co in other.cylinders)
    p = build_partition(FULL_SPACE, 3)
    for _ in range(3):  # three nested refinement rounds
        sub = refine_block(p, 1, 3)
        p = flatten_refinement(p, 1, sub)
    ok &= p.size == 9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report("criterion 3 (partition laws, n<=64)", ok, f"refined size={p.size}, {elapsed:.2f}s")


def test_criterion_4_quotient_isometry():
    ground, floor = build_hierarchy(SYS5, 1)
    rng = random.Random(0)
    ok = True
    for _ in range(1000):
        x1 = random_address(rng, 12)
        x2 = random_address(rng, 12)
        ok &= floor.metric(floor.hom(x1), floor.hom(x2)) == code_distance(x1, x2)
    ok &= check_isometry(floor, ground)
    report("criterion 4 (quotient isometry)", ok, "1000 pairs, exact rational equality")


def test_criterion_5_conjugation_at_all_levels():
    start = time.perf_counter()
    tower = build_hierarchy(SYS5, 3)
    bound = 1.0 / math.sqrt(5.0) + 1e-9
    ok = True
    worst_ratio = 0.0
    for level in tower:
        rep = verify_self_similarity(level, samples=400, seed=0)
        ok &= rep.coverage_exact
        worst_ratio = max(worst_ratio, *rep.max_ratio)
        ok &= all(r <= bound for r in rep.max_ratio)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(
        "criterion 5 (conjugation, k<=3)",
        ok,
        f"coverage exact at all levels, max ratio={worst_ratio:.6f} <= {bound:.6f}, {elapsed:.2f}s",
    )


def test_criterion_6_nontriviality():
    ok = True
    for n in (2, 3, 5, 8):
        partition = build_partition(FULL_SPACE, n)
        spec = QuotientSpec(partition, default_representatives(partition))
        space = build_quotient(spec)
        multi = [f for f in space.multi_fibers if not f.is_singleton]
        ok &= len(multi) >= 1
        ok &= len(multi) == n - 1
    report("criterion 6 (nontriviality)", ok, "n-1 multi-point fibers for n in {2,3,5,8}")


def test_criterion_7_dendrite_surjection():
    start = time.perf_counter()
    tree = DendriteGraph(4)
    depth = 12
    points = [tree.vertex_point(v) for v in tree.vertices]
    points += [tree.point(v, tree.edge_length(v) / 2) for v in range(2, tree.vertex_count + 1)]
    ok = all(fiber_of(tree, p, depth).cylinders for p in points)
    # decided on the tour's segment table, so it bounds every pair of
    # addresses, not a sample of them
    ok &= check_continuity_modulus(tree)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(
        "criterion 7 (dendrite surjection, L=4)",
        ok,
        f"{len(points)} targets at depth {depth}, continuity on every pair, {elapsed:.2f}s",
    )


def test_criterion_8_determinism_and_interfaces(tmp_path):
    runner = CliRunner()
    fast = ["--depth", "6", "--levels", "1", "--dendrite-depth", "2"]
    ok = True

    out = tmp_path / "verify"
    assert runner.invoke(main, ["verify", *fast, "--out", str(out)]).exit_code == 0
    first = (out / "verification_report.json").read_bytes()
    assert runner.invoke(main, ["verify", *fast, "--out", str(out)]).exit_code == 0
    ok &= (out / "verification_report.json").read_bytes() == first

    out_h = tmp_path / "hier"
    runner.invoke(main, ["hierarchy", *fast, "--out", str(out_h)])
    first_h = (out_h / "hierarchy.json").read_bytes()
    runner.invoke(main, ["hierarchy", *fast, "--out", str(out_h)])
    ok &= (out_h / "hierarchy.json").read_bytes() == first_h

    out_r = tmp_path / "render"
    runner.invoke(main, ["render", *fast, "--out", str(out_r)])
    blobs = {p.name: p.read_bytes() for p in out_r.iterdir()}
    runner.invoke(main, ["render", *fast, "--out", str(out_r)])
    ok &= {p.name: p.read_bytes() for p in out_r.iterdir()} == blobs
    ok &= set(blobs) == {"cantor_bars.svg", "hierarchy.svg", "dendrite.svg"}

    # exit-status contract on the three example classes
    ok &= runner.invoke(main, ["verify", *fast, "--out", str(tmp_path / "a")]).exit_code == 0
    ok &= runner.invoke(main, ["verify", "--mu", "4.5", *fast, "--out", str(tmp_path / "b")]).exit_code == 1
    ok &= runner.invoke(main, ["verify", "--mu", "3.9", "--out", str(tmp_path / "c")]).exit_code == 2
    report("criterion 8 (determinism and interfaces)", ok, "byte-identical reruns, exit codes 0/1/2")
