"""Record the benchmark baseline: every workload on several seeds.

    python3 bench/baseline.py --runs 10 [--workloads default,mu-sweep,tower-deep]

Runs ``bench/run.py`` once per seed and workload for BENCHMARK.json's
``run_seconds``, alternating the workload order between seeds, then one
traced run per workload at seed 0.
For each end-to-end metric it keeps the median of the run values, their
quartiles and the spread (interquartile distance over the median), and it
keeps the seed-0 sha256 manifest and per-layer counts, together with the
machine facts.  Updates the entries of the workloads it ran in
``bench/baseline.json`` and prints one row per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload: str, seed: int, trace: int) -> dict:
    path = run.OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    names = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    outcomes: dict[str, list] = {w: [] for w in names}
    for seed in range(args.runs):
        for workload in names if seed % 2 == 0 else names[::-1]:
            result = _bench(workload, seed, seconds, 0)
            outcomes[workload].append((result["correct"], result["attempted"], result["failed"]))
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    path = BENCH / "baseline.json"
    baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workloads": {}}
    baseline["machine"] = run.machine_facts()
    for workload in names:
        metrics = {}
        for name, xs in values[workload].items():
            q1, median, q3 = run._quartiles(xs)
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                             "unit": run.END_TO_END_UNITS[name], "values": xs}
        traced = _bench(workload, 0, seconds, 1)
        record = _record(workload, 0, 0)
        baseline["workloads"][workload] = {
            "runs": args.runs,
            "seconds": seconds,
            "end_to_end": metrics,
            "correct": [c for c, _, _ in outcomes[workload]],
            "attempted": [a for _, a, _ in outcomes[workload]],
            "failed": [f for _, _, f in outcomes[workload]],
            "seed0_failure_classes": record["failure_classes"],
            "seed0_known_defects": record["known_defects"],
            "seed0_sha256": record["sha256"],
            "seed0_per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "seed0_trace_correct": traced["correct"],
        }
        row = " ".join(f"{n}={m['median']:.4g}{m['unit']}(±{m['spread']:.3f})" for n, m in metrics.items())
        print(f"{workload:<11} {row}", flush=True)
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
