"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here; nothing is deferred to later calibration.
"""

from __future__ import annotations

import json
import math
import random
import time
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

from cantor_coarse.clopen_partition import build_partition, flatten_refinement, refine_block
from cantor_coarse.code_space import Address, FULL_SPACE, clopen_union, code_distance, random_address
from cantor_coarse.coarse_graining import (
    build_hierarchy,
    check_isometry,
    default_representatives,
    verify_self_similarity,
    QuotientSpec,
)
from cantor_coarse.dendrite import DendriteGraph, check_continuity_modulus, fiber_of
from cantor_coarse.quadratic_system import (
    cover_chain,
    forward_distance,
    inverse_branches,
    logistic,
    verify_statement_conditions,
)
from conftest import invoke, subset_of

MU5 = 5.0


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
    rep45 = verify_statement_conditions(inverse_branches(4.5))
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
    # the forward map mu*x*(1-x) takes every depth-(n+1) interval onto a
    # depth-n interval, and each depth-n interval is hit once from each
    # side of the critical point 1/2
    start = time.perf_counter()
    covers = cover_chain(inverse_branches(MU5), 15)
    worst = 0.0
    ok = True
    for cover, finer in zip(covers, covers[1:]):
        starts = [lo for lo, _ in cover.intervals]
        hits = [0] * len(cover)
        moved = 0.0
        for lo, hi in finer.intervals:
            a, b = sorted((logistic(MU5, lo), logistic(MU5, hi)))
            i = bisect_right(starts, 0.5 * (a + b)) - 1  # the interval holding the image's midpoint
            hits[i] += 1
            moved = max(moved, abs(a - cover.intervals[i][0]), abs(b - cover.intervals[i][1]))
        dist = forward_distance(MU5, finer, cover)
        worst = max(worst, moved)
        ok &= moved < 1e-12 and hits == [2] * len(cover)
        ok &= dist == moved  # the gaps are wide, so the distance is the largest move
        ok &= subset_of(finer, cover)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(
        "criterion 2 (forward-map coverage identity, n<=14)",
        ok,
        f"max endpoint move={worst:.2e}, each interval hit twice, nesting holds, {elapsed:.2f}s",
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
                ok &= all(not (u.startswith(v) or v.startswith(u)) for u in b.words for v in other.words)
    p = build_partition(FULL_SPACE, 3)
    for _ in range(3):  # three nested refinement rounds
        sub = refine_block(p, 1, 3)
        p = flatten_refinement(p, 1, sub)
    ok &= p.size == 9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report("criterion 3 (partition laws, n<=64)", ok, f"refined size={p.size}, {elapsed:.2f}s")


def test_criterion_4_quotient_isometry():
    ground, floor = build_hierarchy(1)
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
    tower = build_hierarchy(3)
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
        multi = spec.multi_fibers
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
    fast = ["--depth", "6", "--levels", "1", "--dendrite-depth", "2"]
    ok = True

    out = tmp_path / "verify"
    assert invoke(["verify", *fast, "--out", str(out)]).exit_code == 0
    first = (out / "verification_report.json").read_bytes()
    assert invoke(["verify", *fast, "--out", str(out)]).exit_code == 0
    ok &= (out / "verification_report.json").read_bytes() == first

    out_h = tmp_path / "hier"
    invoke(["hierarchy", *fast, "--out", str(out_h)])
    first_h = (out_h / "hierarchy.json").read_bytes()
    invoke(["hierarchy", *fast, "--out", str(out_h)])
    ok &= (out_h / "hierarchy.json").read_bytes() == first_h

    out_r = tmp_path / "render"
    invoke(["render", *fast, "--out", str(out_r)])
    blobs = {p.name: p.read_bytes() for p in out_r.iterdir()}
    invoke(["render", *fast, "--out", str(out_r)])
    ok &= {p.name: p.read_bytes() for p in out_r.iterdir()} == blobs
    ok &= set(blobs) == {"cantor_bars.svg", "hierarchy.svg", "dendrite.svg"}

    # exit-status contract on the three example classes
    ok &= invoke(["verify", *fast, "--out", str(tmp_path / "a")]).exit_code == 0
    ok &= invoke(["verify", "--mu", "4.5", *fast, "--out", str(tmp_path / "b")]).exit_code == 1
    ok &= invoke(["verify", "--mu", "3.9", "--out", str(tmp_path / "c")]).exit_code == 2
    report("criterion 8 (determinism and interfaces)", ok, "byte-identical reruns, exit codes 0/1/2")
