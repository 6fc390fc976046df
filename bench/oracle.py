"""Output oracle: judges one finished cantor-coarse command.

A command fails when it prints a traceback, exits outside {0,1,2,3}, a
document command exits non-zero, an expected output is missing or does
not match the shipped JSON schema, or a ``verify`` verdict differs from
the known answer.  Byte-identity between reruns of one config is judged by
the harness, which sees every pass.

Failures the seed program is known to produce are named in
``KNOWN_DEFECTS``.  They still count as failed operations; matching one
only keeps the run's ``correct`` flag true, so that a new kind of failure
stands out from the recorded ones.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import jsonschema

# mu above which the branch modulus 1/sqrt(mu(mu-4)) drops below 1
MODULUS_THRESHOLD = 2.0 + math.sqrt(5.0)
# mu above which the two branch moduli sum below one (statement iii)
SUM_THRESHOLD = 2.0 + 2.0 * math.sqrt(2.0)
# mu above which the branch modulus 1/sqrt(mu(mu-4)) drops below 1/3
RATIO_THRESHOLD = 2.0 + math.sqrt(13.0)
# least mu and config depth at which a command's invariant covers (built
# up to depth + 1) fall below double resolution; reproduced from mu 95.75
# at depth 8, 181 at depth 7 and 431 at depth 6, never at depth <= 5
OPEN_SET_MU = 95.0
OPEN_SET_DEPTH = 6

EXPECTED_FILES = {
    "verify": ("verification_report.json",),
    "hierarchy": ("hierarchy.json",),
    "render": ("cantor_bars.svg", "dendrite.svg", "hierarchy.svg"),
    "dendrite": ("dendrite.json",),
    "partition": ("partition.json",),
}

SCHEMA_FILES = {
    "verification_report.json": "verification_report.schema.json",
    "hierarchy.json": "hierarchy_document.schema.json",
    "dendrite.json": "dendrite_document.schema.json",
    "partition.json": "partition_document.schema.json",
}

FAILURE_CLASSES = ("wrong_verdict", "traceback", "exit_code", "schema", "nondeterminism", "trace_changed_output")


@dataclass(frozen=True)
class Failure:
    cls: str
    detail: str
    failing_checks: tuple[str, ...] = ()


def load_validators(schema_dir: Path) -> dict:
    validators = {}
    for output, schema_name in SCHEMA_FILES.items():
        schema = json.loads((schema_dir / schema_name).read_text(encoding="utf-8"))
        validators[output] = jsonschema.Draft7Validator(schema)
    return validators


def expected_verify_exit(cfg: dict) -> int | None:
    """Known answer for ``verify`` under the distinct policy, or None."""
    if cfg["mu"] <= SUM_THRESHOLD:
        return 1
    if cfg["levels"] == 0 or cfg["n"] >= 2:
        return 0
    return None


def _traceback_line(stderr: str) -> str | None:
    if "Traceback (most recent call last)" not in stderr:
        return None
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else "traceback"


def judge(command: str, cfg: dict, exit_code: int, stderr: str, files: dict[str, bytes], validators: dict) -> Failure | None:
    """The first failure this command shows, or None when it is correct."""
    tb = _traceback_line(stderr)
    if tb is not None:
        return Failure("traceback", tb)
    if exit_code not in (0, 1, 2, 3):
        return Failure("exit_code", f"exit {exit_code}")
    if command != "verify" and exit_code != 0:
        return Failure("exit_code", f"exit {exit_code} from a document command")
    for name in EXPECTED_FILES[command]:
        if name not in files:
            return Failure("schema", f"missing {name}")
        data = files[name]
        if name.endswith(".svg"):
            try:
                ET.fromstring(data)
            except ET.ParseError as exc:
                return Failure("schema", f"{name}: {exc}")
            continue
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return Failure("schema", f"{name}: {exc}")
        error = jsonschema.exceptions.best_match(validators[name].iter_errors(doc))
        if error is not None:
            return Failure("schema", f"{name}: {error.message}")
    if command == "verify":
        report = json.loads(files["verification_report.json"])
        failing = tuple(sorted({c["id"] for c in report["checks"] if not c["passed"]}))
        if report["summary"]["all_passed"] != (exit_code == 0):
            return Failure("wrong_verdict", f"exit {exit_code} disagrees with the report summary", failing)
        expected = expected_verify_exit(cfg)
        if expected is not None and exit_code != expected:
            return Failure("wrong_verdict", f"exit {exit_code}, known answer {expected}", failing)
    return None


# (id, predicate on command, config and failure): the seed program's
# reproduced defects, each a program fault the benchmark keeps counting
KNOWN_DEFECTS = (
    (
        "ratio-check-false-above-2+sqrt13",
        lambda cmd, cfg, f: cmd == "verify"
        and f.cls == "wrong_verdict"
        and cfg["mu"] > RATIO_THRESHOLD
        and cfg["levels"] >= 1
        and f.failing_checks == ("hierarchy.ratio",),
    ),
    (
        "modulus-traceback-below-2+sqrt5",
        lambda cmd, cfg, f: f.cls == "traceback"
        and "not in (0, 1)" in f.detail
        and cfg["mu"] <= MODULUS_THRESHOLD,
    ),
    (
        "open-set-traceback-at-large-mu",
        lambda cmd, cfg, f: f.cls == "traceback"
        and "open set condition violated" in f.detail
        and cfg["mu"] >= OPEN_SET_MU
        and cfg["depth"] >= OPEN_SET_DEPTH,
    ),
    (
        "trivial-quotient-traceback-at-n1",
        lambda cmd, cfg, f: f.cls == "traceback"
        and "trivial quotient" in f.detail
        and cfg["n"] == 1
        and cfg["levels"] >= 1,
    ),
    (
        "tower-traceback-below-2+2sqrt2",
        lambda cmd, cfg, f: cmd in ("render", "hierarchy")
        and f.cls == "traceback"
        and "fails the contraction conditions" in f.detail
        and cfg["mu"] <= SUM_THRESHOLD,
    ),
)


def known_defect(command: str, cfg: dict, failure: Failure) -> str | None:
    for defect_id, matches in KNOWN_DEFECTS:
        if matches(command, cfg, failure):
            return defect_id
    return None
