"""cantor-coarse benchmark: time to a correct verdict, end to end and per layer.

    python3 bench/run.py --workload default --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout.  Every operation is one
``python -m cantor_coarse <command>`` process against the checkout's
``src/``, spawned by a single closed-loop client that starts the next
process only after the previous one exits.  A run warms up on the
commands of the workload's first config (discarded from the timings),
then repeats the whole pass, alternating the order of operations, at
least twice and for about ``--seconds``: it starts another pass only
while at least half an average pass still fits.  Set-up spawns are
spread over the run, between passes.  Every run of an operation is
judged by ``oracle.judge``, and every rerun must write the same bytes as
the first run of that operation.  Children run with one BLAS thread.

Every reported time is scaled by a reference workload that the client
times between operations (see ``REF_NOMINAL_S``), because the shared
host's speed drifts by up to 2x over minutes; the unscaled metrics are in
the run record.

An operation is one (command, config) case of the workload, so a run's
``attempted`` is the number of cases and ``failed`` the number of cases
of which any run failed: both depend on the workload and seed only, not
on how many passes fitted in the time.  Every failing run is listed in
the run record.

With ``--trace 1`` each timed pass is a pair instead: the same operations
run once untraced and once under ``bench/tracer.py``, and the per-layer
metrics are reported, with ``trace.overhead`` the median traced/untraced
wall-time ratio over the pairs.  The traced outputs must equal the
untraced ones byte for byte, and the per-layer counts must repeat
exactly between the traced passes.  The
``tower-deep`` workload is not in ``BENCHMARK.json`` (see NOTES.md) but
runs the same way on request.

The last line of standard output is the JSON result; a per-run record
(failures by class, sha256 of every output, drift indicator, quartiles)
goes to ``bench/out/results/``, and a traced run's per-operation traces
to ``bench/out/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("default", "tower-deep", "mu-sweep")
COMMANDS = ("verify", "hierarchy", "render", "dendrite", "partition")
EMITTERS = ("render", "dendrite", "partition")
# spawns of ``--help`` (set-up time) and of ``python -c pass`` (drift
# indicator) before the warm-up, and again after every timed pass
SETUP_SPAWNS = 2
DRIFT_SPAWNS = 1
# A fixed pure-Python workload (Fraction sums, tuple keys in a dict, the
# program's own kind of work) that the client times between operations,
# at most every REF_EVERY_S seconds.  The shared host's speed drifts by up
# to 2x over minutes, for wall and CPU time alike; every reported time is
# scaled by REF_NOMINAL_S over the mean of the REF_WINDOW reference
# timings before and the REF_WINDOW after it, so it reads as seconds on a
# host where the reference takes REF_NOMINAL_S.  Unscaled values are kept
# in the record.
REF_ITERATIONS = 25_000
REF_NOMINAL_S = 0.12
REF_EVERY_S = 1.5
REF_WINDOW = 2
# a run must exit within 180 s; an operation still running at this point
# of the run is killed and the run aborts without a result
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "verify_s": "s",
    "hierarchy_s": "s",
    "emit_s": "s",
    "verdicts_per_min": "1/min",
    "correct_share": "ratio",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: (span name, fields); units follow the field name
LAYER_FIELDS = (
    ("code_space.ClopenSet", ("calls", "self_s", "words_in", "words_out")),
    ("code_space.push_word", ("calls", "self_s", "refinements")),
    ("code_space.ComposedMap", ("calls", "self_s", "stages_applied")),
    ("code_space.embed_cmts", ("calls", "self_s")),
    ("code_space.random_address", ("calls", "self_s")),
    ("code_space.code_distance", ("calls",)),
    ("code_space.map_clopen", ("calls", "self_s")),
    ("quadratic_system.invariant_cover", ("calls", "self_s", "intervals", "distinct_ratio")),
    ("quadratic_system.verify_statement_conditions", ("calls", "self_s")),
    ("quadratic_system.refine_cover", ("calls", "self_s")),
    ("quadratic_system.hausdorff_distance", ("calls", "self_s")),
    ("quadratic_system.itinerary_point", ("calls", "self_s")),
    ("clopen_partition.build_partition", ("calls", "self_s", "blocks")),
    ("clopen_partition.flatten_refinement", ("calls", "self_s")),
    ("coarse_graining.build_hierarchy", ("calls", "self_s", "floors")),
    ("coarse_graining.verify_self_similarity", ("calls", "self_s", "cylinders_enumerated", "ratio_samples")),
    ("coarse_graining.check_isometry", ("calls", "self_s")),
    ("coarse_graining.check_conjugation", ("calls", "self_s")),
    ("coarse_graining.conjugate_system", ("calls", "self_s")),
    ("dendrite.binary_expansion", ("calls", "self_s")),
    ("dendrite.dendrite_map", ("calls", "self_s")),
    ("dendrite.tour_point", ("calls", "self_s")),
    ("dendrite.fiber_of", ("calls", "self_s", "cylinders")),
    ("dendrite.check_surjectivity", ("self_s",)),
    ("dendrite.check_continuity_modulus", ("self_s",)),
    ("cli.run_campaign", ("self_s",)),
    ("cli.hierarchy_document", ("self_s",)),
    ("svg.cantor_bars_svg", ("self_s", "bytes")),
    ("svg.dendrite_svg", ("self_s",)),
    ("svg.hierarchy_svg", ("self_s",)),
)
LEGS = ("statement", "coverage", "partition", "hierarchy", "dendrite")


def layer_units() -> dict[str, str]:
    units = {}
    for span, fields in LAYER_FIELDS:
        for field in fields:
            unit = {"self_s": "s", "distinct_ratio": "ratio", "bytes": "B"}.get(field, "count")
            units[f"{span}.{field}"] = unit
    units.update({f"cli.leg.{leg}_s": "s" for leg in LEGS})
    units.update({"cli.checks_total": "count", "cli.checks_failed": "count", "cli.output_bytes": "B"})
    units["trace.overhead"] = "ratio"
    return units


# -- workloads ---------------------------------------------------------------

DEFAULT_CONFIG = {"mu": 5.0, "depth": 12, "n": 2, "levels": 2, "dendrite_depth": 4}
TOWER_CONFIG = {"mu": 5.0, "depth": 12, "n": 5, "levels": 6, "dendrite_depth": 4}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(lo * (hi / lo) ** rng.random(), 4)


def mu_sweep_configs(rng: random.Random) -> list[dict]:
    """Six anchors that pin the known answers and defects on every seed,
    then one config that no known defect reaches.

    The seed moves each config's ``mu`` and ``n`` within a range where its
    outcome is fixed; its ``depth``, ``dendrite_depth`` and ``levels``,
    which set most of a command's cost, are fixed per config and together
    span their ranges.  So seeds differ in inputs but not in how much work
    a pass is, nor in which operations fail.
    """

    def draw(mu, depth, dendrite_depth, n=None, levels=1):
        return {
            "mu": mu,
            "depth": depth,
            "n": rng.randint(2, 64) if n is None else n,
            "levels": levels,
            "dendrite_depth": dendrite_depth,
        }

    return [
        draw(round(rng.uniform(4.001, 4.236), 4), 6, 5),  # mu <= 2+sqrt5: branch modulus >= 1
        draw(round(rng.uniform(4.24, 4.82), 4), 8, 6),  # mu <= 2+2*sqrt2: statement iii fails
        draw(round(rng.uniform(4.84, 5.60), 4), 4, 7),  # ratio bound above 1/3
        draw(_log_uniform(rng, 5.62, 99.0), 2, 8),  # ratio bound below 1/3
        # covers below double resolution; from mu 200 on, render fails too
        draw(_log_uniform(rng, 200.0, 1000.0), 8, 5, levels=0),
        draw(_log_uniform(rng, 4.84, 99.0), 5, 7, n=1),  # one-block partition
        draw(_log_uniform(rng, 5.62, 95.0), 0, 8, levels=0),  # no tower, no deep cover: all pass
    ]


def workload_ops(workload: str, seed: int) -> list[tuple[str, dict]]:
    """One pass: (command, config) operations in their forward order."""
    if workload == "default":
        configs = [DEFAULT_CONFIG]
    elif workload == "tower-deep":
        configs = [TOWER_CONFIG]
    elif workload == "mu-sweep":
        configs = mu_sweep_configs(random.Random(f"mu-sweep/{seed}"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(cmd, {**cfg, "seed": seed}) for cfg in configs for cmd in COMMANDS]


def cli_args(command: str, cfg: dict) -> list[str]:
    return [
        command,
        "--mu", repr(cfg["mu"]),
        "--depth", str(cfg["depth"]),
        "--n", str(cfg["n"]),
        "--levels", str(cfg["levels"]),
        "--dendrite-depth", str(cfg["dendrite_depth"]),
        "--seed", str(cfg["seed"]),
        "--out", ".",
    ]


def op_key(command: str, cfg: dict) -> str:
    return " ".join(cli_args(command, cfg)[:-2])


# -- processes -----------------------------------------------------------------


class Deadline(Exception):
    pass


class Client:
    """Closed-loop spawner: one child at a time, rusage from ``os.wait4``."""

    def __init__(self) -> None:
        self.start = time.monotonic()
        # numpy's OpenBLAS otherwise starts a second thread in every process,
        # which spins at start-up; on two vCPUs what that costs depends on
        # whatever else runs on the other one
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        self.peak_rss_kb = 0
        self.refs: list[float] = []  # reference timings, in the order taken
        self.last_ref = -math.inf

    def reference(self, force: bool = True) -> int:
        """Time the reference workload when forced or due; return how many
        reference timings precede whatever runs next."""
        if force or time.perf_counter() - self.last_ref >= REF_EVERY_S:
            self.refs.append(reference_s())
            self.last_ref = time.perf_counter()
        return len(self.refs)

    def spawn(self, argv: list[str], cwd: Path, stdout, stderr) -> tuple[float, int, float]:
        """Run one child to completion: (wall s, exit code, user+sys CPU s)."""
        remaining = HARD_LIMIT_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise Deadline("run time limit reached")
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=stdout, stderr=stderr, start_new_session=True)
        watchdog = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and time.monotonic() - self.start >= HARD_LIMIT_S:
            raise Deadline(f"killed {' '.join(argv[1:4])} at the run time limit")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return wall, proc.returncode, usage.ru_utime + usage.ru_stime

    def timed(self, argv: list[str], count: int, cwd: Path) -> list[tuple[float, int]]:
        """Spawn ``argv`` ``count`` times: (wall s, reference index) each."""
        samples = []
        for _ in range(count):
            k = self.reference(force=False)
            samples.append((self.spawn(argv, cwd, subprocess.DEVNULL, subprocess.DEVNULL)[0], k))
        self.reference()
        return samples


def reference_s() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    counts: dict[tuple, int] = {}
    for i in range(1, REF_ITERATIONS):
        total += Fraction(i % 97, i % 89 + 1)
        word = tuple((i * j) % 7 for j in range(8))
        counts[word] = counts.get(word, 0) + 1
    return time.perf_counter() - t0


def scaled(seconds: float, k: int, refs: list[float]) -> float:
    """``seconds`` measured after ``k`` reference timings, in seconds on a
    host where the reference takes REF_NOMINAL_S."""
    around = refs[max(0, k - REF_WINDOW) : k + REF_WINDOW]
    return seconds * REF_NOMINAL_S / statistics.fmean(around)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them, the
    definition the benchmark's spread check uses."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- one pass --------------------------------------------------------------------


def run_pass(client: Client, ops, order, work: Path, trace_dir: Path | None, validators) -> dict:
    """Run the operations once, in ``order``; judge each and hash its outputs."""
    results = {}
    pass_start = time.perf_counter()
    cpu = 0.0
    for i in order:
        ref = client.reference(force=False)
        command, cfg = ops[i]
        op_dir = work / f"op{i}"
        op_dir.mkdir(parents=True)
        if trace_dir is None:
            argv = [sys.executable, "-m", "cantor_coarse", *cli_args(command, cfg)]
        else:
            trace_file = trace_dir / f"op{i}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(trace_file), *cli_args(command, cfg)]
        with open(work / f"op{i}.out", "wb") as out, open(work / f"op{i}.err", "wb") as err:
            wall, code, op_cpu = client.spawn(argv, op_dir, out, err)
        cpu += op_cpu
        files = {p.name: p.read_bytes() for p in sorted(op_dir.iterdir()) if p.is_file()}
        stderr = (work / f"op{i}.err").read_text(encoding="utf-8", errors="replace")
        failure = oracle.judge(command, cfg, code, stderr, files, validators)
        results[i] = {
            "wall": wall,
            "cpu": op_cpu,
            "ref": ref,
            "exit": code,
            "failure": failure,
            "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()},
            "bytes": sum(len(data) for data in files.values()),
            "checks": _verify_counts(command, files) if failure is None else (0, 0),
        }
    client.reference()  # every operation has a reference timing after it
    shutil.rmtree(work)
    return {"ops": results, "wall": time.perf_counter() - pass_start, "cpu": cpu}


def _verify_counts(command: str, files: dict[str, bytes]) -> tuple[int, int]:
    if command != "verify":
        return (0, 0)
    summary = json.loads(files["verification_report.json"])["summary"]
    return (summary["total"], summary["failed"])


# -- the run ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "cantor_coarse" / "__init__.py").is_file():
        raise SystemExit(f"no cantor_coarse sources under {SRC}; run from the root of a checkout")
    validators = oracle.load_validators(SRC / "cantor_coarse" / "schemas")
    ops = workload_ops(workload, seed)
    run_dir = OUT / "work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    trace_root = OUT / "traces" / f"{workload}-seed{seed}"
    if trace:
        shutil.rmtree(trace_root, ignore_errors=True)
    client = Client()
    drift: list[float] = []
    setup: list[tuple[float, int]] = []

    def spawn_probes() -> None:
        drift.extend(wall for wall, _ in client.timed([sys.executable, "-c", "pass"], DRIFT_SPAWNS, run_dir))
        if not trace:
            setup.extend(client.timed([sys.executable, "-m", "cantor_coarse", "--help"], SETUP_SPAWNS, run_dir))

    try:
        spawn_probes()
        forward = list(range(len(ops)))
        warmup_order = [i for i in forward if ops[i][1] == ops[0][1]]
        warmup = run_pass(client, ops, warmup_order, run_dir / "warmup", None, validators)
        history = [(warmup, False)]  # every pass in the order it ran, for the byte check
        passes = []  # the timed passes; traced ones under --trace 1
        plain = []  # under --trace 1, the untraced pass paired with each traced one
        timed_start = time.perf_counter()
        # at least two passes, so every run has a rerun and two samples;
        # then another only while at least half an average pass still fits
        while len(passes) < 2 or (time.perf_counter() - timed_start) * (1 + 0.5 / len(passes)) < seconds:
            k = len(passes)
            order = forward[::-1] if k % 2 == 0 else forward
            if not trace:
                passes.append(run_pass(client, ops, order, run_dir / f"pass{k}", None, validators))
                history.append((passes[-1], False))
                spawn_probes()
                continue
            # an untraced and a traced pass in the same order, alternating
            # which runs first, so their ratio is the tracer's cost
            trace_dir = trace_root / f"pass{k}"
            trace_dir.mkdir(parents=True)
            pair = {}
            for traced in (False, True) if k % 2 == 0 else (True, False):
                pair[traced] = run_pass(
                    client, ops, order, run_dir / f"pass{k}-{int(traced)}", trace_dir if traced else None, validators
                )
                history.append((pair[traced], traced))
            pair[True]["layers"] = _layer_values(trace_dir, pair[True])
            pair[True]["overhead"] = pair[True]["wall"] / pair[False]["wall"]
            passes.append(pair[True])
            plain.append(pair[False])
            spawn_probes()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return _summarize(
        workload, seed, seconds, trace, ops, drift, setup, history, passes, plain, client.peak_rss_kb, client.refs
    )


def _layer_values(trace_dir: Path, p: dict) -> dict[str, float]:
    """Per-layer totals over one traced pass."""
    totals: dict[str, dict] = {}
    legs = dict.fromkeys(LEGS, 0.0)
    for path in sorted(trace_dir.glob("op*.json")):
        snap = json.loads(path.read_text(encoding="utf-8"))
        for name, stat in snap["stats"].items():
            acc = totals.setdefault(name, {})
            for field, value in stat.items():
                acc[field] = acc.get(field, 0) + value
        for leg, seconds in snap["legs"].items():
            legs[leg] += seconds
    values: dict[str, float] = {}
    for span, fields in LAYER_FIELDS:
        stat = totals.get(span, {})
        for field in fields:
            if field == "distinct_ratio":
                calls = stat.get("calls", 0)
                values[f"{span}.{field}"] = stat.get("distinct", 0) / calls if calls else 0.0
            else:
                values[f"{span}.{field}"] = stat.get(field, 0)
    for leg in LEGS:
        values[f"cli.leg.{leg}_s"] = legs[leg]
    values["cli.checks_total"] = sum(r["checks"][0] for r in p["ops"].values())
    values["cli.checks_failed"] = sum(r["checks"][1] for r in p["ops"].values())
    values["cli.output_bytes"] = sum(r["bytes"] for r in p["ops"].values())
    return values


def _summarize(workload, seed, seconds, trace, ops, drift, setup, history, passes, plain, peak_rss_kb, refs) -> dict:
    failures = []
    reference: dict[int, dict] = {}  # each operation's first run
    failed_ops: set[int] = set()
    for k, (p, traced) in enumerate(history):
        for i, r in p["ops"].items():
            command, cfg = ops[i]
            first = reference.setdefault(i, r)
            failure = r["failure"]
            if failure is None and r["sha256"] != first["sha256"]:
                cls = "trace_changed_output" if traced else "nondeterminism"
                failure = oracle.Failure(cls, f"outputs differ from the first run: {sorted(r['sha256'])}")
                r["failure"] = failure
            if failure is not None:
                failed_ops.add(i)
                failures.append(
                    {
                        "pass": k,
                        "traced": traced,
                        "op": op_key(command, cfg),
                        "class": failure.cls,
                        "detail": failure.detail,
                        "failing_checks": list(failure.failing_checks),
                        "known_defect": oracle.known_defect(command, cfg, failure),
                    }
                )
    unexpected = [f for f in failures if f["known_defect"] is None]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_facts(),
        "drift_python_pass_s": statistics.median(drift),
        "reference_s": refs,
        "passes": [
            {
                "wall_s": p["wall"],
                "cpu_s": p["cpu"],
                "op_wall_s": {op_key(*ops[i]): r["wall"] for i, r in p["ops"].items()},
                "op_reference_index": {op_key(*ops[i]): r["ref"] for i, r in p["ops"].items()},
            }
            for p in passes
        ],
        "untraced_pass_wall_s": [p["wall"] for p in plain],
        "warmup_wall_s": history[0][0]["wall"],
        "attempted": len(ops),
        "failed": len(failed_ops),
        "runs": sum(len(p["ops"]) for p, _ in history),
        "failed_runs": len(failures),
        "failure_classes": {c: sum(f["class"] == c for f in failures) for c in oracle.FAILURE_CLASSES},
        "known_defects": {d: sum(f["known_defect"] == d for f in failures) for d, _ in oracle.KNOWN_DEFECTS},
        "failures": failures,
        "sha256": {op_key(*ops[i]): reference[i]["sha256"] for i in sorted(reference)},
    }
    correct = not unexpected
    if trace:
        metrics, detail, repeat_ok = _layer_metrics(passes)
        correct = correct and repeat_ok
        record["layer_counts_repeat"] = repeat_ok
    else:
        detail = _end_to_end(ops, passes, setup, failed_ops, peak_rss_kb, refs)
        metrics = {name: {"value": d["value"], "unit": END_TO_END_UNITS[name]} for name, d in detail.items()}
        record["unscaled_metrics"] = _end_to_end(ops, passes, setup, failed_ops, peak_rss_kb, [REF_NOMINAL_S] * len(refs))
    record["metrics"] = detail
    record["correct"] = correct
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return {"correct": correct, "attempted": len(ops), "failed": len(failed_ops), "metrics": metrics}


def _stat(values: list[float]) -> dict:
    if not values:
        raise SystemExit("a metric has no successful sample; the workload cannot be measured")
    q1, median, q3 = _quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def _end_to_end(ops, passes, setup, failed_ops, peak_rss_kb, refs) -> dict:
    """Each timing is the median over the timed passes of the pass's mean
    over its successful processes of that kind, every time scaled by the
    reference timings around it."""
    walls: dict[str, list[float]] = {"verify": [], "hierarchy": [], "emit": []}
    cpus = []
    ok = 0
    busy = 0.0
    for p in passes:
        kinds: dict[str, list[float]] = {kind: [] for kind in walls}
        for i, r in p["ops"].items():
            wall = scaled(r["wall"], r["ref"], refs)
            busy += wall
            if r["failure"] is not None:
                continue
            ok += 1
            command = ops[i][0]
            kinds["emit" if command in EMITTERS else command].append(wall)
        for kind, xs in kinds.items():
            if xs:
                walls[kind].append(statistics.fmean(xs))
        cpus.append(sum(scaled(r["cpu"], r["ref"], refs) for r in p["ops"].values()))
    return {
        "verify_s": _stat(walls["verify"]),
        "hierarchy_s": _stat(walls["hierarchy"]),
        "emit_s": _stat(walls["emit"]),
        "verdicts_per_min": {"value": ok / (busy / 60.0), "n": ok},
        "correct_share": {"value": 1 - len(failed_ops) / len(ops), "n": len(ops)},
        "setup_s": _stat([scaled(wall, k, refs) for wall, k in setup]),
        "cpu_s": _stat(cpus),
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "n": 1},
    }


def _layer_metrics(passes) -> tuple[dict, dict, bool]:
    """Counts from the first traced pass (they must repeat), times and the
    traced/untraced wall-time ratio as medians over the passes."""
    units = layer_units()
    first = passes[0]["layers"]
    repeat_ok = all(
        p["layers"][name] == first[name] for p in passes[1:] for name in first if units[name] != "s"
    )
    detail = {}
    for name in first:
        if units[name] == "s":
            detail[name] = _stat([p["layers"][name] for p in passes])
        else:
            detail[name] = {"value": first[name], "n": len(passes)}
    detail["trace.overhead"] = _stat([p["overhead"] for p in passes])
    metrics = {name: {"value": d["value"], "unit": units[name]} for name, d in detail.items()}
    return metrics, detail, repeat_ok


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def _row(workload: str, result: dict) -> str:
    cells = [f"{name}={m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
    return f"{workload:<11} attempted={result['attempted']} failed={result['failed']} correct={result['correct']} " + " ".join(cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(_row(name, results[name]), file=sys.stderr if args.workload != "all" else sys.stdout, flush=True)
    except Deadline as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        # one workload: its metrics; all: metrics keyed by workload
        "metrics": results[names[0]]["metrics"] if len(names) == 1 else {n: r["metrics"] for n, r in results.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
