"""Tests of the benchmark itself: oracle, workload generation, tracer.

    python -m pytest -q bench

The tracer tests spawn the real CLI at the default config (about a
minute in all).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer

REPO = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
# not reachable from any CLI command at the seed commit
UNREACHED = {"quadratic_system.itinerary_point"}


def _validators():
    return oracle.load_validators(REPO / "src" / "cantor_coarse" / "schemas")


def _report(passed: bool, failing=()):
    checks = [{"id": i, "location": "k=1", "measured": 0.5, "bound": 0.4, "passed": False} for i in failing]
    checks.append({"id": "statement.i.injective", "location": "mu=5", "measured": True, "bound": True, "passed": True})
    failed = len(failing)
    doc = {
        "schema": "verification-report/1",
        "config": {},
        "checks": checks,
        "summary": {"total": len(checks), "passed": len(checks) - failed, "failed": failed, "all_passed": passed},
    }
    return {"verification_report.json": json.dumps(doc).encode()}


CFG = {"mu": 12.0, "depth": 4, "n": 3, "levels": 1, "dendrite_depth": 5, "seed": 0}


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]


def test_known_verify_answers():
    assert oracle.expected_verify_exit({**CFG, "mu": 4.8}) == 1
    assert oracle.expected_verify_exit({**CFG, "mu": 4.9}) == 0
    assert oracle.expected_verify_exit({**CFG, "mu": 4.9, "n": 1, "levels": 0}) == 0
    assert oracle.expected_verify_exit({**CFG, "mu": 4.9, "n": 1}) is None


def test_judge_failure_classes():
    v = _validators()
    assert oracle.judge("verify", CFG, 0, "", _report(True), v) is None
    tb = oracle.judge("verify", CFG, 1, "Traceback (most recent call last):\n  x\nValueError: trivial quotient\n", {}, v)
    assert (tb.cls, tb.detail) == ("traceback", "ValueError: trivial quotient")
    assert oracle.judge("verify", CFG, -9, "", {}, v).cls == "exit_code"
    assert oracle.judge("partition", CFG, 2, "", {}, v).cls == "exit_code"
    assert oracle.judge("dendrite", CFG, 0, "", {}, v).cls == "schema"
    assert oracle.judge("partition", CFG, 0, "", {"partition.json": b'{"schema": 1}'}, v).cls == "schema"
    assert oracle.judge("render", CFG, 0, "", {"cantor_bars.svg": b"<svg>"}, v).cls == "schema"
    wrong = oracle.judge("verify", CFG, 1, "", _report(False, ["hierarchy.ratio"]), v)
    assert (wrong.cls, wrong.failing_checks) == ("wrong_verdict", ("hierarchy.ratio",))
    assert oracle.judge("verify", CFG, 0, "", _report(False, ["x"]), v).cls == "wrong_verdict"


def test_known_defects_match_only_their_failure():
    ratio = oracle.Failure("wrong_verdict", "", ("hierarchy.ratio",))
    assert oracle.known_defect("verify", CFG, ratio) == "ratio-check-false-above-2+sqrt13"
    assert oracle.known_defect("verify", {**CFG, "mu": 5.2}, ratio) is None
    other = oracle.Failure("wrong_verdict", "", ("hierarchy.ratio", "quotient.isometry"))
    assert oracle.known_defect("verify", CFG, other) is None
    quotient = oracle.Failure("traceback", "ValueError: trivial quotient")
    assert oracle.known_defect("hierarchy", {**CFG, "n": 1}, quotient) == "trivial-quotient-traceback-at-n1"
    assert oracle.known_defect("hierarchy", CFG, quotient) is None
    assert oracle.known_defect("verify", CFG, oracle.Failure("traceback", "KeyError: 'x'")) is None
    modulus = oracle.Failure("traceback", "ValueError: branch 0: modulus 1.09 at eta=0.5 not in (0, 1)")
    assert oracle.known_defect("partition", {**CFG, "mu": 4.2}, modulus) == "modulus-traceback-below-2+sqrt5"
    assert oracle.known_defect("partition", {**CFG, "mu": 4.3}, modulus) is None
    open_set = oracle.Failure("traceback", "ValueError: open set condition violated")
    assert oracle.known_defect("verify", {**CFG, "mu": 400.0, "depth": 8}, open_set) == "open-set-traceback-at-large-mu"
    assert oracle.known_defect("verify", {**CFG, "depth": 8}, open_set) is None
    assert oracle.known_defect("verify", {**CFG, "mu": 400.0}, open_set) is None


@pytest.mark.parametrize("seed", range(40))
def test_mu_sweep_anchors_every_seed(seed):
    configs = run.mu_sweep_configs(random.Random(f"mu-sweep/{seed}"))
    assert configs == run.mu_sweep_configs(random.Random(f"mu-sweep/{seed}"))
    lowest, low, between, above, large, one_block, clean = configs
    assert 4 < lowest["mu"] <= oracle.MODULUS_THRESHOLD
    assert oracle.MODULUS_THRESHOLD < low["mu"] <= oracle.SUM_THRESHOLD
    assert oracle.SUM_THRESHOLD < between["mu"] < oracle.RATIO_THRESHOLD
    assert above["mu"] > oracle.RATIO_THRESHOLD and above["levels"] == 1 and above["n"] >= 2
    assert large["mu"] >= 200 and large["depth"] == 8
    assert one_block["n"] == 1 and one_block["levels"] == 1 and one_block["mu"] > oracle.SUM_THRESHOLD
    assert oracle.RATIO_THRESHOLD < clean["mu"] < oracle.OPEN_SET_MU and clean["levels"] == 0 and clean["n"] >= 2
    for cfg in configs:
        assert 4 < cfg["mu"] <= 1000 and 1 <= cfg["n"] <= 64 and 0 <= cfg["levels"] <= 1
        assert 0 <= cfg["depth"] <= 8 and 5 <= cfg["dendrite_depth"] <= 8
    # the cost-setting parameters do not move with the seed
    base = run.mu_sweep_configs(random.Random("mu-sweep/0"))
    fixed = ("depth", "dendrite_depth", "levels")
    assert [[c[k] for k in fixed] for c in configs] == [[c[k] for k in fixed] for c in base]


def _run(wall, failure=None, digest="a"):
    return {
        "wall": wall, "cpu": wall, "ref": 1, "exit": 0, "failure": failure,
        "sha256": {"f": digest}, "bytes": 1, "checks": (0, 0),
    }


def test_failed_counts_operations_not_runs():
    ops = [(cmd, {**CFG, "seed": 0}) for cmd in ("partition", "verify", "hierarchy", "render")]
    tb = oracle.Failure("traceback", "KeyError: 'x'")

    def one_pass(verify_digest, render_wall):
        runs = {0: _run(1.0, tb), 1: _run(1.0, digest=verify_digest), 2: _run(1.0), 3: _run(render_wall)}
        return {"ops": runs, "wall": 4.0, "cpu": 4.0}

    warmup, first, second = one_pass("a", 1.0), one_pass("a", 1.0), one_pass("b", 3.0)
    history = [(warmup, False), (first, False), (second, False)]
    refs = [run.REF_NOMINAL_S, run.REF_NOMINAL_S]  # a steady host: times stay as measured
    result = run._summarize("unit", 0, 1, False, ops, [0.01], [(0.3, 1)], history, [first, second], [], 1024, refs)
    # partition fails on every run, verify on one: two of four operations
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 2, False)
    record = json.loads((run.OUT / "results" / "unit-seed0-trace0.json").read_text())
    assert record["failed_runs"] == 4 and record["failure_classes"]["nondeterminism"] == 1
    # emit_s: each pass's mean over its successful emitters (1.0, then 3.0), median over passes
    assert result["metrics"]["emit_s"]["value"] == 2.0
    assert result["metrics"]["correct_share"]["value"] == 0.5


def test_times_scale_with_the_reference_around_them():
    nominal = run.REF_NOMINAL_S
    refs = [nominal, nominal, 2 * nominal, 2 * nominal, 4 * nominal]
    # after 3 timings: the window is refs[1:5], on average 2.25x slower
    assert run.REF_WINDOW == 2
    assert run.scaled(9.0, 3, refs) == pytest.approx(4.0)
    # at the start of the run the window is clipped to refs[0:3]
    assert run.scaled(5.0, 1, refs) == pytest.approx(3.75)


def test_install_patches_every_namespace():
    code = (
        "import sys, importlib, tracer\n"
        "mods = [importlib.import_module('cantor_coarse.' + m) for m, _ in tracer.ENTRY_POINTS]\n"
        "originals = {id(getattr(sys.modules['cantor_coarse.' + m], a)) for m, a in tracer.ENTRY_POINTS if '.' not in a}\n"
        "tracer.Tracer().install()\n"
        "left = [(n, k) for n, m in sys.modules.items() if n.startswith('cantor_coarse')\n"
        "        for k, v in vars(m).items() if id(v) in originals]\n"
        "assert not left, left\n"
        "import cantor_coarse.code_space as cs, cantor_coarse.dendrite as d\n"
        "assert cs.ClopenSet.__post_init__.__wrapped__ and cs.ComposedMap.__call__.__wrapped__\n"
        "assert d.DendriteGraph.tour_point.__wrapped__\n"
    )
    env = {**ENV, "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO / 'bench'}"}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_every_entry_point_called_on_default(tmp_path):
    calls: dict[str, int] = {}
    for command in run.COMMANDS:
        out = tmp_path / command
        out.mkdir()
        args = run.cli_args(command, {**run.DEFAULT_CONFIG, "seed": 0})
        subprocess.run([sys.executable, str(REPO / "bench" / "tracer.py"), str(out / "t.json"), *args],
                       cwd=out, env=ENV, check=True, capture_output=True)
        for name, stat in json.loads((out / "t.json").read_text())["stats"].items():
            calls[name] = calls.get(name, 0) + stat["calls"]
    wrapped = {tracer.span_name(m, a) for m, a in tracer.ENTRY_POINTS}
    assert set(calls) == wrapped
    assert {name for name, n in calls.items() if n == 0} <= UNREACHED


def test_traced_run_keeps_bytes_and_counts(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and (result["attempted"], result["failed"]) == (5, 0)
    assert set(result["metrics"]) == set(run.layer_units())
    record = json.loads((run.OUT / "results" / "default-seed3-trace1.json").read_text())
    assert record["layer_counts_repeat"] and len(record["passes"]) >= 2
    assert record["failure_classes"]["trace_changed_output"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
