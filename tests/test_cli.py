"""Tests for the command-line interface: exit codes, reports, documents,
renderings, schemas and determinism."""

from __future__ import annotations

import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantor_coarse import cli, clopen_partition, coarse_graining, dendrite, quadratic_system
from cantor_coarse.campaign import _partition_chain, _partition_checks
from cantor_coarse.cli import RunConfig, _dump, load_config, run_campaign
from cantor_coarse.clopen_partition import build_partition
from cantor_coarse.code_space import FULL_SPACE, ClopenSet, compose, prepend_map
from cantor_coarse.quadratic_system import IntervalCover
from conftest import invoke, subset_of
from test_coarse_graining import deep_broken

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SCHEMAS = SRC / "cantor_coarse" / "schemas"
DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "hierarchy_golden.json"
# verification reports pinned byte for byte: the default campaign and one
# mu-sweep-shaped campaign (no tower, the deepest dendrite)
VERIFY_GOLDENS = {
    "verification_default_golden.json": RunConfig(),
    "verification_mu10_dendrite8_golden.json": RunConfig(
        mu=10.0, depth=0, levels=0, dendrite_depth=8, partition_n=5
    ),
}

FAST = ["--depth", "6", "--levels", "1", "--dendrite-depth", "2"]


class TestConfig:
    def test_defaults_are_valid(self):
        RunConfig().validate()

    def test_bounds(self):
        with pytest.raises(ValueError, match="mu must exceed 4"):
            RunConfig(mu=3.9).validate()
        with pytest.raises(ValueError, match="depth"):
            RunConfig(depth=31).validate()
        with pytest.raises(ValueError, match="levels"):
            RunConfig(levels=9).validate()
        with pytest.raises(ValueError, match="dendrite"):
            RunConfig(dendrite_depth=9).validate()
        with pytest.raises(ValueError, match="tolerance"):
            RunConfig(tolerance=0.0).validate()

    def test_as_json_lists_the_config_keys_in_order(self):
        assert tuple(RunConfig().as_json()) == tuple(cli._DEFAULTS)
        for name in VERIFY_GOLDENS:
            golden = json.loads((DATA / name).read_text(encoding="utf-8"))
            assert tuple(golden["config"]) == tuple(cli._DEFAULTS)

    def test_file_plus_flag_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"mu": 4.9, "depth": 5, "seed": 3}))
        cfg = load_config(str(cfg_file), mu=5.5, levels=1)
        assert cfg.mu == 5.5  # flag wins
        assert cfg.depth == 5  # file survives
        assert cfg.levels == 1
        assert cfg.seed == 3

    def test_unknown_config_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"mu": 5.0, "bogus": 1}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(str(cfg_file))

    def test_explicit_representatives_parse(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "representatives": "explicit",
                    "explicit_representatives": [[{"prefix": "001", "tail": "0"}]],
                    "levels": 1,
                }
            )
        )
        cfg = load_config(str(cfg_file))
        assert cfg.explicit_representatives[0][0].prefix == "001"

    def test_malformed_config_is_a_usage_error(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps({"representatives": "explicit", "explicit_representatives": [[{"p": "0"}]]})
        )
        result = invoke(["verify", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "invalid configuration" in result.stderr


class TestVerifyCommand:
    def test_all_pass_exit_zero(self, tmp_path):
        result = invoke(["verify", *FAST, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.stderr
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert report["summary"]["all_passed"] is True
        assert report["summary"]["total"] == report["summary"]["passed"]
        assert "PASS statement.iii.modulus_sum" in result.stdout

    def test_failing_condition_exit_one_and_named(self, tmp_path):
        result = invoke(["verify", "--mu", "4.5", *FAST, "--out", str(tmp_path)])
        assert result.exit_code == 1
        report = json.loads((tmp_path / "verification_report.json").read_text())
        failing = [c["id"] for c in report["checks"] if not c["passed"]]
        assert failing == ["statement.iii.modulus_sum"]
        assert "FAIL statement.iii.modulus_sum" in result.stdout

    def test_usage_error_exit_two(self, tmp_path):
        result = invoke(["verify", "--mu", "3.9", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "mu must exceed 4" in result.stderr

    def test_every_check_id_unique(self, tmp_path):
        result = invoke(["verify", *FAST, "--out", str(tmp_path)])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "verification_report.json").read_text())
        keys = [(c["id"], c["location"]) for c in report["checks"]]
        assert len(keys) == len(set(keys))

    def test_report_validates_against_shipped_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        result = invoke(["verify", *FAST, "--out", str(tmp_path)])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "verification_report.json").read_text())
        schema = json.loads((SCHEMAS / "verification_report.schema.json").read_text())
        jsonschema.validate(report, schema)

    @pytest.mark.parametrize("name", sorted(VERIFY_GOLDENS))
    def test_report_matches_golden_bytes(self, name):
        produced = _dump(run_campaign(VERIFY_GOLDENS[name])).encode("utf-8")
        assert produced == (DATA / name).read_bytes()

    def test_truncated_witnesses_fail_fiber_soundness_alone(self, monkeypatch, tmp_path):
        # 8 binary digits put a non-dyadic witness up to tour_length * 2**-12
        # from its target at the default fiber depth 12
        monkeypatch.setattr(dendrite, "WITNESS_DEPTH", 8)
        result = invoke(["verify", "--out", str(tmp_path)])
        assert result.exit_code == 1, result.stderr
        report = json.loads((tmp_path / "verification_report.json").read_text())
        failing = [c for c in report["checks"] if not c["passed"]]
        assert [c["id"] for c in failing] == ["dendrite.fiber_soundness"]
        assert failing[0]["measured"] > 1e-9

    def test_campaign_is_deterministic(self):
        cfg = RunConfig(depth=5, levels=1, dendrite_depth=2, out=".")
        assert run_campaign(cfg) == run_campaign(cfg)

    @pytest.mark.parametrize("args", [[], ["--dendrite-depth", "8"]], ids=["default", "dendrite-depth-8"])
    def test_checks_do_not_depend_on_the_seed(self, tmp_path, args):
        checks = []
        for seed in ("0", "7"):
            out = tmp_path / seed
            result = invoke(["verify", *args, "--seed", seed, "--out", str(out)])
            assert result.exit_code == 0, result.stderr
            checks.append(json.loads((out / "verification_report.json").read_text())["checks"])
        assert checks[0] == checks[1]

    def test_a_tower_that_cannot_be_built_fails_each_floor(self, monkeypatch, tmp_path, caplog):
        def unbuildable(*args, **kwargs):
            raise ValueError("no tower here")

        monkeypatch.setattr(coarse_graining, "build_hierarchy", unbuildable)
        caplog.set_level(logging.INFO, logger="cantor_coarse")
        args = ["--levels", "3", "--depth", "4", "--dendrite-depth", "2"]
        result = invoke(["verify", *args, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert type(result.exception) is SystemExit
        assert "Traceback" not in result.stderr
        report = json.loads((tmp_path / "verification_report.json").read_text())
        failing = [(c["id"], c["location"], c["measured"]) for c in report["checks"] if not c["passed"]]
        assert failing == [("quotient.nontrivial", f"k={k}", None) for k in (1, 2, 3)]
        # logged at INFO, so a default run prints no traceback
        (raised,) = [r for r in caplog.records if "raised" in r.getMessage()]
        assert (raised.getMessage(), raised.levelno) == ("quotient.nontrivial: build_hierarchy raised", logging.INFO)
        assert "no tower here" in str(raised.exc_info[1])
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, json.loads((SCHEMAS / "verification_report.schema.json").read_text()))

    def test_one_block_floors_fail_nontrivial_with_measured_zero(self, tmp_path, caplog):
        # one block per floor collapses nothing: no floor has a multi-point fiber
        caplog.set_level(logging.INFO, logger="cantor_coarse")
        args = ["--n", "1", "--levels", "3", "--depth", "4", "--dendrite-depth", "2"]
        result = invoke(["verify", *args, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert type(result.exception) is SystemExit
        assert "Traceback" not in result.stderr
        report = json.loads((tmp_path / "verification_report.json").read_text())
        failing = [(c["id"], c["location"], c["measured"]) for c in report["checks"] if not c["passed"]]
        assert failing == [("quotient.nontrivial", f"k={k}", 0) for k in (1, 2, 3)]
        assert not [r for r in caplog.records if "raised" in r.getMessage()]
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, json.loads((SCHEMAS / "verification_report.schema.json").read_text()))


class TestCoincidentRepresentatives:
    """An explicit floor 1 whose two representatives coincide: both
    collapsed blocks, [10] and [11], glue onto one fiber at 01(0)^inf."""

    @pytest.fixture
    def config(self, tmp_path):
        rep = {"prefix": "01", "tail": "0"}
        path = tmp_path / "coincident.json"
        path.write_text(
            json.dumps(
                {
                    "representatives": "explicit",
                    "partition_n": 3,
                    "levels": 1,
                    "depth": 4,
                    "dendrite_depth": 2,
                    "explicit_representatives": [[rep, rep]],
                }
            )
        )
        return str(path)

    def test_verify_passes_with_one_multi_fiber(self, tmp_path, config):
        result = invoke(["verify", "--config", config, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.stderr
        report = json.loads((tmp_path / "verification_report.json").read_text())
        quotient = [c for c in report["checks"] if c["id"].startswith("quotient.")]
        assert [(c["id"], c["measured"], c["passed"]) for c in quotient] == [
            ("quotient.nontrivial", 1, True),
            ("quotient.isometry", True, True),
        ]

    def test_hierarchy_lists_one_fiber_with_both_blocks(self, tmp_path, config):
        result = invoke(["hierarchy", "--config", config, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.stderr
        doc = json.loads((tmp_path / "hierarchy.json").read_text())
        assert doc["levels"]["D1"]["fiber_labels"] == [{"prefix": "01", "tail": "0", "blocks": [2, 3]}]
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(doc, json.loads((SCHEMAS / "hierarchy_document.schema.json").read_text()))


class TestPartitionChecks:
    def test_chain_step_n_is_build_partition_n(self):
        chain = list(_partition_chain(64))
        assert len(chain) == 64
        for n, p in enumerate(chain, start=1):
            assert p == build_partition(FULL_SPACE, n), n

    def test_laws_pass_at_64(self):
        laws = _partition_checks(RunConfig())[0]
        assert (laws["id"], laws["measured"], laws["passed"]) == ("partition.laws", 64, True)

    @pytest.mark.parametrize("last", [1, 10, 63])
    def test_failing_step_reports_the_last_n_reached(self, monkeypatch, last):
        flatten = clopen_partition.flatten_refinement

        def failing_after_last(p, index, refinement):
            if p.size == last:
                raise ValueError("blocks overlap")
            return flatten(p, index, refinement)

        monkeypatch.setattr(clopen_partition, "flatten_refinement", failing_after_last)
        laws = _partition_checks(RunConfig())[0]
        assert (laws["measured"], laws["passed"]) == (last, False)

    def test_step_adding_two_blocks_fails(self, monkeypatch):
        refine = clopen_partition.refine_block
        monkeypatch.setattr(clopen_partition, "refine_block", lambda p, i, n: refine(p, i, 3 if p.size == 5 else n))
        laws = _partition_checks(RunConfig())[0]
        assert (laws["measured"], laws["passed"]) == (5, False)

    def test_a_partition_fault_fails_both_records_and_writes_the_report(self, monkeypatch, tmp_path, caplog):
        def gapped(block):
            # [w1·11] is in neither part, so no split covers its block
            first = block.words[0]
            return ClopenSet([first + "0"]), ClopenSet([first + "10"])

        monkeypatch.setattr(clopen_partition, "_split_block", gapped)
        caplog.set_level(logging.INFO, logger="cantor_coarse")
        # the tower splits its carriers with the same function, so no floor
        # is built here: this test is about the partition leg
        result = invoke(["verify", "--levels", "0", "--depth", "4", "--dendrite-depth", "2", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert type(result.exception) is SystemExit
        assert "Traceback" not in result.stderr
        report = json.loads((tmp_path / "verification_report.json").read_text())
        failing = {c["id"]: c for c in report["checks"] if not c["passed"]}
        assert set(failing) == {"partition.laws", "partition.refine"}
        assert failing["partition.laws"]["measured"] == 1
        assert failing["partition.refine"]["measured"] is None
        # each failure is logged at INFO with the error that caused it
        raised = [r for r in caplog.records if "raised" in r.getMessage()]
        assert [r.getMessage() for r in raised] == [
            "partition.laws: the step after n=1 raised",
            "partition.refine: a step raised",
        ]
        assert all("blocks do not cover the carrier" in str(r.exc_info[1]) for r in raised)
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, json.loads((SCHEMAS / "verification_report.schema.json").read_text()))

    def test_refine_measures_the_six_blocks(self):
        refine = _partition_checks(RunConfig())[1]
        assert (refine["id"], refine["measured"], refine["bound"], refine["passed"]) == ("partition.refine", 6, 6, True)


class TestCoverageRecords:
    """Each floor's hierarchy.coverage record: the symbolic identity of the
    floor and the interval identity measured once by the coverage leg."""

    @pytest.mark.parametrize("depth", [0, 3, 10, 12, 20])
    def test_floors_read_the_identity_at_the_verify_depth(self, monkeypatch, depth):
        real = quadratic_system.refine_cover

        def drifting(sys_, cover):
            # off by 1e-11 per depth step: every n measures its own distance
            out = real(sys_, cover)
            shift = 1e-11 * out.depth
            return IntervalCover(out.depth, [(lo + shift, hi + shift) for lo, hi in out.intervals])

        monkeypatch.setattr(quadratic_system, "refine_cover", drifting)
        cfg = RunConfig(depth=depth, dendrite_depth=0)
        checks = run_campaign(cfg)["checks"]
        identity = {c["location"]: c["measured"] for c in checks if c["id"] == "cover.identity"}
        assert len(set(identity.values())) == len(identity)
        want = identity[f"n={min(depth, 10)}"]
        coverage = [c for c in checks if c["id"] == "hierarchy.coverage"]
        assert len(coverage) == cfg.levels + 1
        for c in coverage:
            assert c["measured"] == {"exact": True, "hausdorff": want}
            assert not c["passed"]
        doc = cli.hierarchy_document(cfg)
        assert [e["coverage_hausdorff"] for e in doc["levels"].values()] == [want] * (cfg.levels + 1)

    def test_a_branch_missing_its_image_fails_every_floor(self, monkeypatch):
        real = coarse_graining.base_system

        def broken():
            # the second branch lands inside the first one's image
            ground = real()
            ground.maps = (prepend_map("0"), compose(prepend_map("0"), prepend_map("1")))
            return ground

        monkeypatch.setattr(coarse_graining, "base_system", broken)
        checks = run_campaign(RunConfig(depth=4, dendrite_depth=0))["checks"]
        (identity,) = [c for c in checks if c["id"] == "cover.identity" and c["location"] == "n=4"]
        assert identity["passed"]
        coverage = [c for c in checks if c["id"] == "hierarchy.coverage"]
        assert len(coverage) == 3
        for c in coverage:
            assert c["measured"] == {"exact": False, "hausdorff": identity["measured"]}
            assert not c["passed"]


def _shifted_branches(monkeypatch):
    """Branches built at mu + 1e-9, while the forward map stays at mu."""
    real = quadratic_system.inverse_branches
    monkeypatch.setattr(quadratic_system, "inverse_branches", lambda mu: real(mu + 1e-9))


def _widened_cover(monkeypatch):
    """A refine_cover whose first interval reaches past its parent's."""
    real = quadratic_system.refine_cover

    def widened(sys_, cover):
        out = real(sys_, cover)
        (lo, hi), *rest = out.intervals
        return IntervalCover(out.depth, [(lo - 1e-6, hi), *rest])

    monkeypatch.setattr(quadratic_system, "refine_cover", widened)


def _folded_low_branch(monkeypatch):
    """A low branch with a 3e-4 wide fold at y = 0.3, a little over one
    step of the injectivity grid and inside the depth-1 cover's gap."""
    real = quadratic_system.inverse_branches

    def folded(mu):
        sys_ = real(mu)
        low, high = sys_.branches
        sys_.branches = (lambda y: low(y) - 0.5 * max(0.0, 3e-4 - abs(y - 0.3)), high)
        return sys_

    monkeypatch.setattr(quadratic_system, "inverse_branches", folded)


def _merged_for_distinct(monkeypatch):
    """The distinct policy given the merged policy's representatives."""
    monkeypatch.setattr(coarse_graining, "default_representatives", coarse_graining.merged_representatives)


def _broken_floor_2(part):
    """A plant that breaks floor 2's ``part`` of every tower built, with
    ``deep_broken``."""

    def plant(monkeypatch):
        build = coarse_graining.build_hierarchy

        def broken_at_2(*args, **kwargs):
            tower = build(*args, **kwargs)
            tower[2] = deep_broken(tower[2], part)
            return tower

        monkeypatch.setattr(coarse_graining, "build_hierarchy", broken_at_2)

    return plant


def _understated_modulus(monkeypatch):
    """Branches whose recorded modulus is 0.999 of the real sup|f'|."""
    real = quadratic_system.inverse_branches

    def understated(mu):
        sys_ = real(mu)
        sys_.modulus_inf = tuple(0.999 * m for m in sys_.modulus_inf)
        return sys_

    monkeypatch.setattr(quadratic_system, "inverse_branches", understated)


# every floor cites the ground's ratio, so an understated ground modulus
# fails each floor's ratio record and nothing else; the rows run at the
# default depth, since below depth 5 at mu=5 the ratio reads more than 0.1%
# under alpha and cannot catch the understatement
_EVERY_RATIO = {("hierarchy.ratio", f"k={k}") for k in range(3)}


class TestPlantedFaults:
    """A planted fault makes a check's claim false; every record of the
    check must then fail, and no record of an unbroken claim."""

    @pytest.mark.parametrize(
        ("plant", "knobs", "failing"),
        [
            (_folded_low_branch, {}, {("statement.i.injective", "mu=5.0")}),
            (
                _merged_for_distinct,
                {"partition_n": 3},
                {("quotient.multi_fiber_count", "k=1"), ("quotient.multi_fiber_count", "k=2")},
            ),
            (_broken_floor_2("to_base"), {}, {("quotient.isometry", "k=2"), ("hierarchy.ratio", "k=2")}),
            (_broken_floor_2("branch"), {}, {("hierarchy.conjugation", "k=2"), ("hierarchy.ratio", "k=2")}),
            (_understated_modulus, {"mu": 4.9, "depth": 12}, _EVERY_RATIO),
            (_understated_modulus, {"mu": 5.0, "depth": 12}, _EVERY_RATIO),
            (_understated_modulus, {"mu": 5.5, "depth": 12}, _EVERY_RATIO),
        ],
        ids=[
            "folded-branch",
            "merged-for-distinct",
            "floor-2-to-base",
            "floor-2-branch",
            "understated-modulus-mu4.9",
            "understated-modulus-mu5",
            "understated-modulus-mu5.5",
        ],
    )
    def test_only_the_broken_records_fail(self, monkeypatch, plant, knobs, failing):
        plant(monkeypatch)
        checks = run_campaign(RunConfig(**{"depth": 4, "dendrite_depth": 0, **knobs}))["checks"]
        assert {(c["id"], c["location"]) for c in checks if not c["passed"]} == failing

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_a_refinement_that_drops_an_interval_fails_nesting_from_there(self, monkeypatch, n):
        real = quadratic_system.refine_cover
        pairs = []

        def dropping(sys_, cover):
            out = real(sys_, cover)
            if out.depth == n + 1:
                kept = list(out.intervals)
                del kept[len(kept) // 2]
                out = IntervalCover(out.depth, kept)
            pairs.append((cover, out))
            return out

        monkeypatch.setattr(quadratic_system, "refine_cover", dropping)
        checks = run_campaign(RunConfig(depth=8, levels=0, dendrite_depth=0))["checks"]
        # every later refinement inherits the gap, so nesting fails from n on
        failing = [c["location"] for c in checks if c["id"] == "cover.nested" and not c["passed"]]
        assert failing == [f"n={m}" for m in range(n, 9)]
        # the planted cover's images miss part of its parent; at n = 0 it has
        # no interval right of 1/2, infinitely far, which JSON writes as null
        identity = [(c["location"], c["measured"]) for c in checks if c["id"] == "cover.identity" and not c["passed"]]
        assert [location for location, _ in identity] == [f"n={n}"]
        assert (identity[0][1] is None) == (n == 0)
        # at n, each interval of the plant lies inside one of its parent
        # cover's, so a containment test passes it there
        (planted,) = [(cover, finer) for cover, finer in pairs if finer.depth == n + 1]
        assert subset_of(planted[1], planted[0])

    @pytest.mark.parametrize(
        ("check_id", "plant"),
        [("cover.identity", _shifted_branches), ("cover.nested", _widened_cover)],
    )
    def test_every_record_fails(self, monkeypatch, check_id, plant):
        plant(monkeypatch)
        checks = run_campaign(RunConfig(dendrite_depth=0))["checks"]
        records = [c for c in checks if c["id"] == check_id]
        assert [c["location"] for c in records] == [f"n={n}" for n in range(13)]
        assert not any(c["passed"] for c in records)


class TestDepthCaps:
    """A cap that clips the configured depth says so in one INFO line."""

    def _cap_lines(self, caplog, depth, run=run_campaign):
        caplog.set_level(logging.INFO, logger="cantor_coarse")
        run(RunConfig(depth=depth, levels=1, dendrite_depth=2))
        return [r.getMessage() for r in caplog.records if "caps depth" in r.getMessage()]

    def test_depth_20_hits_both_caps(self, caplog):
        assert self._cap_lines(caplog, 20) == [
            "MAX_ENUMERATED_DEPTH=14 caps depth 20 to 14",
            "MAX_DOCUMENT_DEPTH=10 caps depth 20 to 10",
        ]

    def test_depth_12_hits_the_document_cap(self, caplog):
        assert self._cap_lines(caplog, 12) == ["MAX_DOCUMENT_DEPTH=10 caps depth 12 to 10"]

    def test_depth_10_is_not_capped(self, caplog):
        assert self._cap_lines(caplog, 10) == []

    def test_document_depth_12_hits_the_document_and_cover_caps(self, caplog):
        assert self._cap_lines(caplog, 12, cli.hierarchy_document) == [
            "MAX_DOCUMENT_DEPTH=10 caps depth 12 to 10",
            "MAX_COVER_DEPTH=8 caps depth 12 to 8",
        ]

    def test_document_depth_8_is_not_capped(self, caplog):
        assert self._cap_lines(caplog, 8, cli.hierarchy_document) == []

    @pytest.mark.parametrize(
        "command, read",
        [
            ("dendrite", lambda out: json.loads((out / "dendrite.json").read_text())["fiber_cylinder_counts"]),
            ("render", lambda out: (out / "dendrite.svg").read_bytes()),
        ],
    )
    def test_fiber_counts_cap_once_per_command(self, caplog, tmp_path, command, read):
        caplog.set_level(logging.INFO, logger="cantor_coarse")
        counts = []
        for depth in ("12", "10"):
            out = tmp_path / depth
            result = invoke([command, "--depth", depth, "--levels", "1", "--dendrite-depth", "2", "--out", str(out)])
            assert result.exit_code == 0, result.stderr
            counts.append(read(out))
        lines = [r.getMessage() for r in caplog.records if "caps depth" in r.getMessage()]
        assert lines == ["MAX_DOCUMENT_DEPTH=10 caps depth 12 to 10"]
        assert counts[0] == counts[1]


class TestHierarchyCommand:
    def test_zero_levels(self, tmp_path):
        result = invoke(["hierarchy", "--levels", "0", "--depth", "4", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.stderr
        doc = json.loads((tmp_path / "hierarchy.json").read_text())
        assert doc["level_names"] == ["S"]
        assert set(doc["levels"]) == {"S"}

    def test_depth_zero_keeps_whole_carriers(self, tmp_path):
        result = invoke(["hierarchy", "--levels", "2", "--depth", "0", "--out", str(tmp_path)])
        assert result.exit_code == 0
        doc = json.loads((tmp_path / "hierarchy.json").read_text())
        for entry in doc["levels"].values():
            assert entry["cylinders"] == entry["carrier"]

    def test_matches_golden_document(self, tmp_path):
        result = invoke(
            ["hierarchy", "--mu", "5", "--depth", "6", "--levels", "2",
             "--dendrite-depth", "4", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        produced = json.loads((tmp_path / "hierarchy.json").read_text())
        golden = json.loads(GOLDEN.read_text())
        # the out path is the only configured difference
        golden["config"]["out"] = produced["config"]["out"]
        assert produced == golden

    def test_levels_do_not_depend_on_the_seed(self, tmp_path):
        levels = []
        for seed in ("0", "7"):
            out = tmp_path / seed
            result = invoke(["hierarchy", "--seed", seed, "--out", str(out)])
            assert result.exit_code == 0, result.stderr
            levels.append(json.loads((out / "hierarchy.json").read_text())["levels"])
        assert levels[0] == levels[1]

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_explicit_default_representatives_give_the_distinct_document(self, n, levels):
        # floor k lists the defaults of its own partition, which splits the
        # previous floor's first block, so a list read for the wrong floor shows
        reps, carrier = [], FULL_SPACE
        for _ in range(levels):
            p = build_partition(carrier, n)
            reps.append(coarse_graining.default_representatives(p))
            carrier = p.blocks[0]
        explicit = RunConfig(
            depth=4, partition_n=n, levels=levels, representatives="explicit", explicit_representatives=tuple(reps)
        )
        explicit.validate()
        docs = [cli.hierarchy_document(cfg) for cfg in (RunConfig(depth=4, partition_n=n, levels=levels), explicit)]
        assert [doc.pop("config")["representatives"] for doc in docs] == ["distinct", "explicit"]
        assert docs[0] == docs[1]

    def test_document_validates_against_shipped_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        result = invoke(["hierarchy", "--levels", "2", "--depth", "5", "--out", str(tmp_path)])
        assert result.exit_code == 0
        doc = json.loads((tmp_path / "hierarchy.json").read_text())
        schema = json.loads((SCHEMAS / "hierarchy_document.schema.json").read_text())
        jsonschema.validate(doc, schema)


class TestRenderCommand:
    def test_structural_counts(self, tmp_path):
        result = invoke(
            ["render", "--mu", "5", "--depth", "5", "--levels", "3",
             "--dendrite-depth", "3", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.stderr
        bars = (tmp_path / "cantor_bars.svg").read_text()
        assert bars.count('class="bar-row"') == 6  # rows 0..5
        assert bars.count('class="bar"') == sum(2**n for n in range(6))
        hier = (tmp_path / "hierarchy.svg").read_text()
        assert hier.count('class="level-node"') == 4
        assert hier.count('class="hom-arrow"') == 3
        dend = (tmp_path / "dendrite.svg").read_text()
        assert dend.count('class="vertex"') == 15
        assert dend.count('class="edge"') == 14

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["render", "--depth", "4", "--levels", "2", "--dendrite-depth", "2"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert invoke([*args, "--out", str(out1)]).exit_code == 0
        assert invoke([*args, "--out", str(out2)]).exit_code == 0
        for name in ("cantor_bars.svg", "hierarchy.svg", "dendrite.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def count_calls(monkeypatch, owner, names) -> dict[str, int]:
    """Call counts of the functions ``names`` of module ``owner``, counted
    in every package module that holds one of them."""
    counts = {}
    modules = [m for key, m in sys.modules.items() if key.startswith("cantor_coarse.")]
    for name in names:
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.fixture
def gate_calls(monkeypatch):
    """Call counts of the base system's construction and its contraction check."""
    return count_calls(monkeypatch, quadratic_system, ("inverse_branches", "verify_statement_conditions"))


class TestContractionGate:
    """Each command builds the base system once.  Only verify checks its
    contraction conditions, once; the document commands build the tower
    and write it whether or not the conditions hold."""

    ONCE = {"inverse_branches": 1, "verify_statement_conditions": 1}
    BUILD_ONLY = {"inverse_branches": 1, "verify_statement_conditions": 0}

    @pytest.mark.parametrize("command", ["hierarchy", "render"])
    def test_document_commands_write_a_failing_base_system(self, tmp_path, command):
        result = invoke([command, "--mu", "4.5", *FAST, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.exception
        assert result.exception is None
        _assert_documents(tmp_path, command, levels=1)

    def test_campaign_gates_once(self, gate_calls):
        run_campaign(RunConfig())
        assert gate_calls == self.ONCE

    def test_a_failing_fixed_point_record_skips_the_tower(self, caplog):
        # the fixed points' residual, about 1.1e-16, exceeds the tolerance:
        # every statement record passes but statement.ii.fixed_points
        caplog.set_level(logging.INFO, logger="cantor_coarse")
        checks = run_campaign(RunConfig(mu=6.0, tolerance=1e-300, depth=3))["checks"]
        statement = {c["id"]: c["passed"] for c in checks if c["id"].startswith("statement.")}
        assert statement == {
            "statement.i.injective": True,
            "statement.ii.fixed_points": False,
            "statement.iii.modulus_sum": True,
        }
        assert not [c for c in checks if c["id"].startswith(("quotient.", "hierarchy."))]
        assert "statement conditions failed; skipping hierarchy checks" in caplog.messages

    def test_hierarchy_document_gates_once(self, gate_calls):
        cli.hierarchy_document(RunConfig())
        assert gate_calls == self.BUILD_ONLY

    def test_render_gates_once(self, gate_calls, tmp_path):
        assert invoke(["render", "--out", str(tmp_path)]).exit_code == 0
        assert gate_calls == self.BUILD_ONLY


def _assert_documents(out: Path, command: str, levels: int) -> None:
    """``command`` wrote every file of a ``levels``-floor tower into ``out``:
    hierarchy a schema-valid document, render its three SVGs."""
    if command == "hierarchy":
        jsonschema = pytest.importorskip("jsonschema")
        doc = json.loads((out / "hierarchy.json").read_text())
        jsonschema.validate(doc, json.loads((SCHEMAS / "hierarchy_document.schema.json").read_text()))
        assert doc["level_names"] == ["S", *(f"D{k}" for k in range(1, levels + 1))]
        assert list(doc["levels"]) == doc["level_names"]
    else:
        assert (out / "cantor_bars.svg").exists()
        assert (out / "dendrite.svg").exists()
        assert (out / "hierarchy.svg").read_text().count('class="level-node"') == levels + 1


# mu in (4, 1e4], with mu - 4 log-uniform from 1e-6, so that every decade
# is drawn: past about mu = 13.8 the cover chain stops short of depth 15
ANY_MU = st.floats(min_value=-6.0, max_value=4.0).map(lambda e: min(4.0 + 10.0**e, 1e4))


class TestDocumentsAtAnyMu:
    """The tower is symbolic, so the document commands write every
    configured floor at every valid mu, including below 2+2sqrt2, where
    the contraction conditions fail and only verify says so, and above
    the mu where double precision stops the cover chain."""

    @settings(max_examples=50, deadline=None)
    @given(
        command=st.sampled_from(["hierarchy", "render"]),
        mu=ANY_MU,
        depth=st.integers(0, 30),
        n=st.integers(1, 64),
        levels=st.integers(0, 8),
        dendrite_depth=st.integers(0, 4),
    )
    # the mu-sweep anchors at seed 7, and the default config at mu=4.5:
    # all below 2+2sqrt2
    @example(command="hierarchy", mu=4.111, depth=6, n=19, levels=1, dendrite_depth=4)
    @example(command="render", mu=4.111, depth=6, n=19, levels=1, dendrite_depth=4)
    @example(command="hierarchy", mu=4.3701, depth=8, n=33, levels=1, dendrite_depth=4)
    @example(command="render", mu=4.3701, depth=8, n=33, levels=1, dendrite_depth=4)
    @example(command="hierarchy", mu=4.5, depth=12, n=2, levels=2, dendrite_depth=4)
    @example(command="render", mu=4.5, depth=12, n=2, levels=2, dendrite_depth=4)
    # the default config where the cover chain stops short: these raised
    # "open set condition violated" before the chain stopped there
    @example(command="hierarchy", mu=50.0, depth=12, n=2, levels=2, dendrite_depth=4)
    @example(command="render", mu=300.0, depth=12, n=2, levels=2, dendrite_depth=4)
    @example(command="render", mu=1000.0, depth=8, n=2, levels=2, dendrite_depth=4)
    @example(command="hierarchy", mu=1e4, depth=30, n=64, levels=8, dendrite_depth=4)
    def test_document_commands_answer_any_mu(self, command, mu, depth, n, levels, dendrite_depth):
        with tempfile.TemporaryDirectory() as out:
            result = invoke(
                [command, "--mu", repr(mu), "--depth", str(depth), "--n", str(n), "--levels", str(levels),
                 "--dendrite-depth", str(dendrite_depth), "--out", out]
            )
            assert result.exit_code == 0, result.exception
            assert result.exception is None
            _assert_documents(Path(out), command, levels)
            # every floor cites the ground branches' modulus
            modulus = list(quadratic_system.inverse_branches(mu).modulus_inf)
            if command == "hierarchy":
                doc = json.loads((Path(out) / "hierarchy.json").read_text())
                assert [entry["modulus_bound"] for entry in doc["levels"].values()] == [modulus] * (levels + 1)
            else:
                svg = (Path(out) / "hierarchy.svg").read_text()
                assert svg.count(f"(alpha={max(modulus):.6f})</text>") == levels + 1


class TestGroundRatio:
    """verify reads the contraction ratio on the ground floor only, from
    the coverage leg's cover chain, and every higher floor's
    hierarchy.ratio record cites it when the floor intertwines with the
    ground."""

    def test_no_sampling_per_campaign(self, monkeypatch):
        names = ("verify_self_similarity", "random_address", "check_intertwining")
        calls = count_calls(monkeypatch, coarse_graining, names)
        chains = count_calls(monkeypatch, quadratic_system, ("cover_chain",))
        run_campaign(RunConfig(levels=8, partition_n=5))
        assert calls == {"verify_self_similarity": 0, "random_address": 0, "check_intertwining": 8}
        assert chains == {"cover_chain": 1}

    @pytest.mark.parametrize("part", ["branch", "to_base"])
    def test_a_floor_that_does_not_intertwine_fails_its_ratio(self, monkeypatch, part):
        _broken_floor_2(part)(monkeypatch)
        checks = run_campaign(RunConfig(depth=4, dendrite_depth=0))["checks"]
        ratio = {c["location"]: c for c in checks if c["id"] == "hierarchy.ratio"}
        assert {loc: c["passed"] for loc, c in ratio.items()} == {"k=0": True, "k=1": True, "k=2": False}
        # every floor cites the ground's ratio and bound
        assert {(c["measured"], c["bound"]) for c in ratio.values()} == {(ratio["k=0"]["measured"], ratio["k=0"]["bound"])}


class TestDocumentRatio:
    """The hierarchy document samples the contraction ratio once per
    tower, on the top floor, and every floor that intertwines with the
    ground writes that reading; each floor decides its own coverage."""

    @pytest.mark.parametrize("levels", [0, 2, 8])
    def test_one_reading_per_tower(self, monkeypatch, levels):
        names = ("verify_self_similarity", "check_intertwining", "check_coverage")
        calls = count_calls(monkeypatch, coarse_graining, names)
        cli.hierarchy_document(RunConfig(depth=4, partition_n=5, levels=levels))
        # the ground intertwines with itself, so only the floors above it
        # are checked: the top floor, then each one below it
        assert calls == {"verify_self_similarity": 1, "check_intertwining": levels, "check_coverage": levels + 1}

    @pytest.mark.parametrize("part", ["branch", "to_base"])
    @pytest.mark.parametrize(
        ("levels", "sampled", "line"),
        [
            (3, [3, 2], "D2 does not intertwine with the ground; sampling its ratio on its own"),
            (2, [2, 0, 1], "D2 does not intertwine with the ground; sampling every floor's ratio on its own"),
        ],
        ids=["middle-floor", "top-floor"],
    )
    def test_a_floor_that_does_not_intertwine_is_sampled_on_its_own(
        self, monkeypatch, caplog, part, levels, sampled, line
    ):
        jsonschema = pytest.importorskip("jsonschema")
        cfg = RunConfig(depth=4, levels=levels)
        unbroken = cli.hierarchy_document(cfg)
        _broken_floor_2(part)(monkeypatch)
        floors: list[int] = []
        real = coarse_graining.verify_self_similarity

        def recorded(level, **kwargs):
            floors.append(level.level)
            return real(level, **kwargs)

        monkeypatch.setattr(coarse_graining, "verify_self_similarity", recorded)
        caplog.set_level(logging.INFO, logger="cantor_coarse")
        doc = cli.hierarchy_document(cfg)
        assert floors == sampled
        assert [r.getMessage() for r in caplog.records if "intertwine" in r.getMessage()] == [line]
        jsonschema.validate(doc, json.loads((SCHEMAS / "hierarchy_document.schema.json").read_text()))
        # the fault lies deeper than any sampled pair reaches, so every floor
        # reads as it does on the unbroken tower
        assert doc == unbroken

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 64),
        levels=st.integers(0, 8),
        policy=st.sampled_from(["distinct", "merged"]),
        seed=st.integers(0, 2**32),
    )
    def test_every_floor_reads_as_its_own_sampling(self, n, levels, policy, seed):
        doc = cli.hierarchy_document(
            RunConfig(depth=2, partition_n=n, levels=levels, representatives=policy, seed=seed)
        )
        for level in coarse_graining.build_hierarchy(levels, n, policy):
            own = coarse_graining.verify_self_similarity(level, samples=100, seed=seed)
            entry = doc["levels"][cli._floor_name(level.level)]
            assert entry["max_contraction_ratio"] == list(own.max_ratio), level.level
            assert entry["coverage_exact"] == own.coverage_exact, level.level


class TestVerdictsAcrossTheConfigSpace:
    """verify exits with the known answer over mu in (4, 1e4], every depth,
    block count, floor count and dendrite depth up to 4, under both
    computed policies: 0 exactly when the modulus sum is below one (mu >
    2+2sqrt2) and every floor collapses something (no floors, or n >= 2),
    and 1 otherwise, never with a traceback."""

    @settings(max_examples=50, deadline=None)
    @given(
        mu=ANY_MU,
        depth=st.integers(0, 30),
        n=st.integers(1, 64),
        levels=st.integers(0, 8),
        dendrite_depth=st.integers(0, 4),
        policy=st.sampled_from(["distinct", "merged"]),
    )
    # the default config above 2+sqrt13, where a contraction ratio read in
    # the middle-thirds code metric (1/3) exceeds the modulus bound
    @example(mu=6.0, depth=12, n=2, levels=2, dendrite_depth=4, policy="distinct")
    @example(mu=12.0, depth=12, n=2, levels=2, dendrite_depth=4, policy="distinct")
    # configs whose cover chain stops short of the verify depth: these
    # raised "open set condition violated" before the chain stopped there
    @example(mu=21.0, depth=12, n=2, levels=2, dendrite_depth=4, policy="distinct")
    @example(mu=50.0, depth=12, n=2, levels=2, dendrite_depth=4, policy="distinct")
    @example(mu=95.0, depth=8, n=2, levels=2, dendrite_depth=4, policy="distinct")
    @example(mu=431.0, depth=8, n=17, levels=0, dendrite_depth=4, policy="distinct")  # a mu-sweep anchor
    @example(mu=1000.0, depth=30, n=2, levels=2, dendrite_depth=4, policy="distinct")
    @example(mu=1e4, depth=30, n=64, levels=8, dendrite_depth=4, policy="merged")
    def test_verify_exits_with_the_known_answer(self, mu, depth, n, levels, dendrite_depth, policy):
        expected = 0 if mu > 2 + 2 * math.sqrt(2) and (levels == 0 or n >= 2) else 1
        with tempfile.TemporaryDirectory() as out:
            result = invoke(
                ["verify", "--mu", repr(mu), "--depth", str(depth), "--n", str(n), "--levels", str(levels),
                 "--dendrite-depth", str(dendrite_depth), "--representatives", policy, "--out", out]
            )
        assert not isinstance(result.exception, Exception), result.exception
        assert result.exit_code == expected, result.stderr


class TestOtherCommands:
    def test_partition_document(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        result = invoke(["partition", "--n", "3", "--out", str(tmp_path)])
        assert result.exit_code == 0
        doc = json.loads((tmp_path / "partition.json").read_text())
        assert doc["blocks"] == [["0"], ["10"], ["11"]]
        schema = json.loads((SCHEMAS / "partition_document.schema.json").read_text())
        jsonschema.validate(doc, schema)

    def test_dendrite_document(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        result = invoke(["dendrite", "--dendrite-depth", "3", "--depth", "6", "--out", str(tmp_path)])
        assert result.exit_code == 0
        doc = json.loads((tmp_path / "dendrite.json").read_text())
        assert doc["vertex_count"] == 15
        assert len(doc["edges"]) == 14
        assert doc["fiber_cylinder_counts"]["1"] >= 1
        schema = json.loads((SCHEMAS / "dendrite_document.schema.json").read_text())
        jsonschema.validate(doc, schema)

    def test_env_var_controls_logging(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CANTOR_COARSE_LOG", "DEBUG")
        result = invoke(["partition", "--n", "2", "--out", str(tmp_path)])
        assert result.exit_code == 0


class TestSubprocessHarness:
    """Exit-status contract as seen by an actual process invocation."""

    def _run(self, *args, env=None):
        env = {**os.environ, **(env or {})}
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "cantor_coarse", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    def test_cli_import_leaves_numpy_out(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", "import cantor_coarse.cli, sys; assert 'numpy' not in sys.modules"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_exit_zero_on_pass(self, tmp_path):
        proc = self._run("verify", *FAST, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_exit_one_on_check_failure(self, tmp_path):
        proc = self._run("verify", "--mu", "4.5", *FAST, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert (tmp_path / "verification_report.json").exists()

    def test_exit_one_explains_failures_on_stderr(self, tmp_path):
        proc = self._run("verify", "--mu", "4.5", *FAST, "--out", str(tmp_path))
        assert proc.returncode == 1
        report = json.loads((tmp_path / "verification_report.json").read_text())
        (check,) = [c for c in report["checks"] if not c["passed"]]
        expected = (
            f"failed: statement.iii.modulus_sum [mu=4.5] measured "
            f"{json.dumps(check['measured'])}, bound 1.0"
        )
        assert proc.stderr.splitlines() == [expected]
        # stdout keeps its one line per check plus the report path
        assert "measured" not in proc.stdout
        assert len(proc.stdout.splitlines()) == len(report["checks"]) + 1

    def test_caps_log_only_when_asked(self, tmp_path):
        args = ("verify", "--depth", "20", "--levels", "1", "--dendrite-depth", "2", "--out", str(tmp_path))
        report = tmp_path / "verification_report.json"
        quiet = self._run(*args)
        assert (quiet.returncode, quiet.stderr) == (0, "")
        quiet_report = report.read_bytes()
        loud = self._run(*args, env={"CANTOR_COARSE_LOG": "INFO"})
        assert loud.returncode == 0
        assert "MAX_ENUMERATED_DEPTH=14 caps depth 20 to 14" in loud.stderr
        assert "MAX_DOCUMENT_DEPTH=10 caps depth 20 to 10" in loud.stderr
        assert (loud.stdout, report.read_bytes()) == (quiet.stdout, quiet_report)

    @pytest.mark.parametrize(
        ("args", "failing"),
        [
            (("--n", "1"), ["quotient.nontrivial", "quotient.nontrivial"]),
            (("--mu", "4.1"), ["statement.iii.modulus_sum"]),
            (("--tolerance", "1e-17"), ["cover.identity"] * 13 + ["hierarchy.coverage"] * 3),
        ],
        ids=["n-1", "mu-4.1", "tolerance-1e-17"],
    )
    def test_exit_one_with_a_report_and_no_traceback(self, tmp_path, args, failing):
        proc = self._run("verify", *args, "--out", str(tmp_path))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert [c["id"] for c in report["checks"] if not c["passed"]] == failing
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, json.loads((SCHEMAS / "verification_report.schema.json").read_text()))

    @pytest.mark.parametrize("value", ["basic_format", "raiseExceptions", "Level 5", ""])
    def test_a_log_value_that_names_no_level_is_ignored(self, tmp_path, value):
        args = ("dendrite", "--depth", "12", "--dendrite-depth", "2", "--out", str(tmp_path))
        env = {key: item for key, item in os.environ.items() if key != "CANTOR_COARSE_LOG"}
        runs = []
        for extra in ({}, {"CANTOR_COARSE_LOG": value}):
            proc = subprocess.run(
                [sys.executable, "-m", "cantor_coarse", *args],
                capture_output=True,
                text=True,
                env={**env, **extra, "PYTHONPATH": str(SRC)},
                timeout=300,
            )
            runs.append((proc.returncode, proc.stdout, proc.stderr, (tmp_path / "dendrite.json").read_bytes()))
        assert "Traceback" not in runs[1][2]
        assert runs[1] == runs[0]
        assert runs[0][:3] == (0, f"document: {tmp_path / 'dendrite.json'}\n", "")

    @pytest.mark.parametrize("value", ["info", "DEBUG"])
    def test_a_level_name_in_any_case_logs(self, tmp_path, value):
        proc = self._run("dendrite", "--depth", "12", "--dendrite-depth", "2", "--out", str(tmp_path),
                         env={"CANTOR_COARSE_LOG": value})
        assert proc.returncode == 0
        assert proc.stderr == "INFO:cantor_coarse:MAX_DOCUMENT_DEPTH=10 caps depth 12 to 10\n"

    def test_exit_two_on_usage_error(self, tmp_path):
        proc = self._run("verify", "--mu", "3.9", "--out", str(tmp_path))
        assert proc.returncode == 2

    def test_exit_three_on_unwritable_output(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file")
        proc = self._run("partition", "--n", "2", "--out", str(blocker / "sub"))
        assert proc.returncode == 3

    def test_verify_reports_are_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        self._run("verify", *FAST, "--out", str(out))
        first = (out / "verification_report.json").read_bytes()
        self._run("verify", *FAST, "--out", str(out))
        assert (out / "verification_report.json").read_bytes() == first


COMMANDS = ["verify", "hierarchy", "render", "partition", "dendrite"]
# each flag with values its converter and choices accept, some of which
# look like flags, and which may still give an invalid configuration
GOOD_VALUES = {
    "--mu": ["5", "4.5", "-inf", "nan", "1e-3", " 7 "],
    "--depth": ["0", "4", "-1", "1_0"],
    "--n": ["1", "3", "+2"],
    "--levels": ["0", "1"],
    "--dendrite-depth": ["0", "2"],
    "--tolerance": ["1e-3", "-1e-3", "inf"],
    "--seed": ["0", "-7", "1_0"],
    "--representatives": ["distinct", "merged", "explicit"],
    "--config": ["<file>"],
    "--out": ["out", "", "-", "--depth", "--mu=5", "-h", "a=b", "<dir>", "<missing>"],
}
# values any flag may meet: all of the above, which other flags reject,
# and the end of the options
FLAG_VALUES = sorted({v for values in GOOD_VALUES.values() for v in values} | {"--", "abc", "1.5", "Merged"})
# tokens that are no flag-value pair: help, unknown and abbreviated flags,
# the end of the options, a stray value, a command in the wrong place and
# a flag with no value
STRAY_TOKENS = ["-h", "--help", "--bogus", "--dep", "--dendrite", "--", "-", "5", "verify", "--mu=", *GOOD_VALUES]


@st.composite
def command_lines(draw) -> list[str]:
    """A command name (or, one time in eight, none or another token), then
    flag-value pairs in the separate and the ``=`` form, and one time in
    four a stray token among them."""
    head = [draw(st.sampled_from(COMMANDS))]
    if draw(st.integers(0, 7)) == 0:
        head = draw(st.sampled_from([[], ["frobnicate"], ["-h"]]))
    tokens = []
    for flag in draw(st.lists(st.sampled_from(list(GOOD_VALUES)), max_size=4)):
        value = draw(st.sampled_from(GOOD_VALUES[flag]) | st.sampled_from(FLAG_VALUES))
        tokens.extend(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    if draw(st.integers(0, 3)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(STRAY_TOKENS)))
    return head + tokens


@pytest.fixture(scope="module")
def option_paths(tmp_path_factory) -> dict[str, str]:
    """Stand-ins of ``FLAG_VALUES`` for a config file, a directory and a
    path that does not exist."""
    root = tmp_path_factory.mktemp("options")
    (root / "cfg.json").write_text("{}")
    (root / "a-dir").mkdir()
    return {"<file>": str(root / "cfg.json"), "<dir>": str(root / "a-dir"), "<missing>": str(root / "missing.json")}


class TestCommandLine:
    """The parser's own checks: each is a usage error, exit 2, with its
    message on stderr, no traceback and nothing written."""

    @settings(max_examples=400, deadline=None)
    @given(argv=command_lines())
    @example(argv=["verify", "--mu", "-inf", "--n=3", "--mu", "6"])
    @example(argv=["partition", "--out", "--", "--seed", "1_0"])
    @example(argv=["render", "--out=", "--representatives", "merged"])
    @example(argv=["dendrite", "--out", "--depth", "--depth", "-1"])
    def test_the_table_reads_a_line_as_argparse_does(self, option_paths, argv):
        argv = cli._attach_dash_values([option_paths.get(token, token) for token in argv])
        args = cli._read_options(argv)
        if args is not None:
            expected = vars(cli._parser().parse_args(argv))
            assert expected.pop("run") is cli._COMMANDS[argv[0]]
            del expected["fail"]
            # repr tells 5 from 5.0 and matches nan with nan
            assert {k: repr(v) for k, v in args.items()} == {k: repr(v) for k, v in expected.items()}

    def test_a_well_formed_line_is_read_from_the_table(self):
        argv = ["verify", "--mu", "-inf", "--n=3", "--mu", "6", "--representatives", "merged", "--out", "-h"]
        args = cli._read_options(cli._attach_dash_values(argv))
        assert args == {
            "mu": 6.0, "depth": None, "partition_n": 3, "levels": None, "dendrite_depth": None, "tolerance": None,
            "seed": None, "representatives": "merged", "config_path": None, "out": "-h",
        }

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            ([], "the following arguments are required: COMMAND"),
            (["frobnicate"], "argument COMMAND: invalid choice: 'frobnicate'"),
            (["verify", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
            (["verify", "--dep", "3"], "unrecognized arguments: --dep 3"),
            (["verify", "--mu"], "argument --mu: expected one argument"),
            (["verify", "--mu", "abc"], "argument --mu: invalid float value: 'abc'"),
            (["verify", "--n", "1.5"], "argument --n: invalid int value: '1.5'"),
            (["verify", "--representatives", "x"], "argument --representatives: invalid choice: 'x'"),
            (["verify", "--config", "missing.json"], "argument --config: file 'missing.json' does not exist"),
            (["verify", "--config", "a-dir"], "argument --config: file 'a-dir' is a directory"),
            (["verify", "--out", "a-file"], "argument --out: directory 'a-file' is a file"),
        ],
        ids=[
            "no-arguments",
            "unknown-command",
            "unknown-option",
            "abbreviated-option",
            "missing-value",
            "mu-abc",
            "n-1.5",
            "representatives-x",
            "config-missing",
            "config-directory",
            "out-existing-file",
        ],
    )
    def test_usage_error(self, tmp_path, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a-file").write_text("{}")
        (tmp_path / "a-dir").mkdir()
        result = invoke(args)
        assert result.exit_code == 2
        assert type(result.exception) is SystemExit
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "a-file"]

    def test_unreadable_config(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        monkeypatch.setattr(cli.os, "access", lambda p, mode: False)
        result = invoke(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"argument --config: file {str(path)!r} is not readable" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_a_value_may_begin_with_a_dash(self, tmp_path):
        # the token after a flag is its value, as in --mu -inf
        result = invoke(["partition", "--tolerance", "-1e-3", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "invalid configuration: tolerance must be finite and positive, got -0.001" in result.stderr

    def test_help(self):
        result = invoke(["--help"])
        assert (result.exit_code, result.stderr) == (0, "")
        for command in ("verify", "hierarchy", "render", "partition", "dendrite"):
            assert command in result.stdout

    @pytest.mark.parametrize("command", ["verify", "hierarchy", "render", "partition", "dendrite"])
    def test_command_help_lists_every_option(self, command):
        result = invoke([command, "--help"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(f"usage: cantor-coarse {command} [-h] [--mu MU]")
        for flag in ("--mu", "--depth", "--n", "--levels", "--dendrite-depth", "--tolerance", "--seed",
                     "--representatives", "--config", "--out"):
            assert f"{flag} " in result.stdout
        assert "{distinct,merged,explicit}" in result.stdout


class TestNonFiniteMu:
    """``mu`` ranges over (4, inf): an infinite or NaN ``mu`` is a usage
    error for every command, before any work runs."""

    @pytest.mark.parametrize("command", ["verify", "hierarchy", "render", "partition", "dendrite"])
    @pytest.mark.parametrize(
        "mu, message",
        [("inf", "mu must be finite"), ("-inf", "mu must exceed 4"), ("nan", "mu must exceed 4"), ("3", "mu must exceed 4")],
    )
    def test_usage_error(self, tmp_path, command, mu, message):
        result = invoke([command, "--mu", mu, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert f"invalid configuration: {message}" in result.stderr
        assert not list(tmp_path.iterdir())

    def test_validate_rejects_infinity(self):
        with pytest.raises(ValueError, match="mu must be finite"):
            RunConfig(mu=float("inf")).validate()
        # an integer too large for a float is a ValueError, not an OverflowError
        with pytest.raises(ValueError, match="mu is too large for a float"):
            RunConfig(mu=10**400).validate()

    def test_config_file_infinity(self, tmp_path):
        # JSON reads 1e400 as inf
        config = tmp_path / "cfg.json"
        config.write_text('{"mu": 1e400}')
        result = invoke(["partition", "--config", str(config), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "mu must be finite" in result.stderr


REP = {"prefix": "000", "tail": "0"}
MALFORMED_CONFIGS = {
    "depth-12.5": {"depth": 12.5},
    "levels-1.0": {"levels": 1.0},
    "partition_n-2.0": {"partition_n": 2.0},
    "dendrite_depth-2.0": {"dendrite_depth": 2.0},
    "depth-true": {"depth": True},
    "mu-10**400": {"mu": 10**400},
    "seed-[1]": {"seed": [1]},
    "seed-null": {"seed": None},
    "seed-1.5": {"seed": 1.5},
    "seed-'7'": {"seed": "7"},
    "seed-true": {"seed": True},
    "tolerance-true": {"tolerance": True},
    # json.dumps writes Infinity, which json.loads reads back as inf
    "tolerance-Infinity": {"tolerance": float("inf")},
    "explicit-without-lists": {"representatives": "explicit"},
    "explicit-one-list-for-two-levels": {"representatives": "explicit", "explicit_representatives": [[REP]]},
    "explicit-one-rep-for-three-blocks": {
        "representatives": "explicit",
        "levels": 1,
        "partition_n": 3,
        "explicit_representatives": [[REP]],
    },
    # floor 1 partitions the full space into [0] and [1]
    "explicit-level-1-outside-the-first-block": {
        "representatives": "explicit",
        "levels": 1,
        "explicit_representatives": [[{"prefix": "1", "tail": "0"}]],
    },
    # floor 2 partitions [0] into [00] and [01]; 01(0)^inf would do on floor 1
    "explicit-level-2-outside-the-first-block": {
        "representatives": "explicit",
        "levels": 2,
        "explicit_representatives": [[REP], [{"prefix": "01", "tail": "0"}]],
    },
    # another policy would ignore the lists, so giving them is an error
    "distinct-with-explicit_representatives": {
        "representatives": "distinct",
        "explicit_representatives": [[{"prefix": "1", "tail": "0"}]],
    },
    # the shape is checked under every policy, before the policy is read
    "explicit_representatives-5": {"explicit_representatives": 5},
    "explicit_representatives-['x']": {"explicit_representatives": ["x"]},
    "explicit_representatives-no-tail": {"explicit_representatives": [[{"prefix": "0"}]]},
    "explicit_representatives-[[5]]": {"explicit_representatives": [[5]]},
    "explicit_representatives-integer-prefix": {"explicit_representatives": [[{"prefix": 0, "tail": "0"}]]},
    "explicit_representatives-extra-key": {"explicit_representatives": [[{"prefix": "0", "tail": "0", "x": 1}]]},
    "explicit_representatives-extra-string-key": {
        "explicit_representatives": [[{"prefix": "0", "tail": "0", "note": "x"}]]
    },
    "mu-'5'": {"mu": "5"},
    "mu-null": {"mu": None},
    "mu-true": {"mu": True},
}


class TestMalformedConfig:
    """A config that names a value of the wrong type, or an explicit policy
    without a representative list of the right length for every floor, is a
    usage error for every command, before any work runs."""

    @pytest.mark.parametrize("command", ["verify", "hierarchy", "render", "partition", "dendrite"])
    @pytest.mark.parametrize("config", list(MALFORMED_CONFIGS))
    def test_usage_error(self, tmp_path, command, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MALFORMED_CONFIGS[config]))
        out = tmp_path / "out"
        result = invoke([command, "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.stderr
        assert isinstance(result.exception, SystemExit)  # a usage error, not an escaped exception
        assert "invalid configuration" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", ["null", "5", '"x"', "[]"])
    def test_config_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        result = invoke(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.stderr
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration: the config file must hold a JSON object" in result.stderr

    @pytest.mark.parametrize("command", ["verify", "hierarchy", "render", "partition", "dendrite"])
    def test_config_nested_too_deep_for_the_decoder(self, tmp_path, command):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000)
        out = tmp_path / "out"
        result = invoke([command, "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.stderr
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration: maximum recursion depth exceeded" in result.stderr
        assert not out.exists()

    def test_explicit_flag_without_lists(self, tmp_path):
        result = invoke(["verify", "--representatives", "explicit", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "invalid configuration: the explicit policy needs explicit_representatives" in result.stderr

    @pytest.mark.parametrize("command", ["verify", "hierarchy", "render", "partition", "dendrite"])
    def test_infinite_tolerance_flag(self, tmp_path, command):
        out = tmp_path / "out"
        result = invoke([command, "--tolerance", "inf", "--out", str(out)])
        assert result.exit_code == 2, result.stderr
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration: tolerance must be finite and positive, got inf" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "hierarchy", "render", "partition", "dendrite"])
    def test_out_must_be_a_string(self, tmp_path, monkeypatch, command):
        # without --out the config's out is the output directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"out": 5}')
        result = invoke([command, "--config", "cfg.json"])
        assert result.exit_code == 2, result.stderr
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration: out must be a string, got 5" in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["verify", "hierarchy", "render", "partition", "dendrite"])
    def test_out_must_hold_no_nul(self, tmp_path, monkeypatch, command):
        # no --out, which would override the file's out
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"out": "a\\u0000b"}')
        result = invoke([command, "--config", "cfg.json"])
        assert result.exit_code == 2, result.stderr
        assert isinstance(result.exception, SystemExit)
        assert "invalid configuration: out must not contain a NUL character, got 'a\\x00b'" in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_integer_tolerance_is_valid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"tolerance": 1}')
        result = invoke(["partition", "--config", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert '"tolerance": 1,' in (tmp_path / "partition.json").read_text()

    def test_integer_mu_is_echoed(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mu": 5}')
        result = invoke(["partition", "--config", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert '"mu": 5,' in (tmp_path / "partition.json").read_text()

    @pytest.mark.parametrize(
        "config, message",
        [
            ("seed-[1]", "seed must be an integer, got [1]"),
            ("seed-null", "seed must be an integer, got None"),
            ("tolerance-true", "tolerance must be a number, got True"),
            ("tolerance-Infinity", "tolerance must be finite and positive, got inf"),
            ("explicit-level-1-outside-the-first-block", "level 1: representative 1(0)^inf lies outside the first block"),
            ("explicit-level-2-outside-the-first-block", "level 2: representative 01(0)^inf lies outside the first block"),
            (
                "distinct-with-explicit_representatives",
                "explicit_representatives is given, but representatives is 'distinct', not 'explicit'",
            ),
            ("explicit_representatives-5", "explicit_representatives must be a list of lists, got 5"),
            ("explicit_representatives-['x']", "explicit_representatives must be a list of lists, got ['x']"),
            (
                "explicit_representatives-no-tail",
                "explicit_representatives: a representative must be an object with exactly the string fields"
                " prefix and tail, got {'prefix': '0'}",
            ),
            (
                "explicit_representatives-[[5]]",
                "explicit_representatives: a representative must be an object with exactly the string fields"
                " prefix and tail, got 5",
            ),
            (
                "explicit_representatives-integer-prefix",
                "explicit_representatives: a representative must be an object with exactly the string fields"
                " prefix and tail, got {'prefix': 0, 'tail': '0'}",
            ),
            (
                "explicit_representatives-extra-key",
                "explicit_representatives: a representative must be an object with exactly the string fields"
                " prefix and tail, got {'prefix': '0', 'tail': '0', 'x': 1}",
            ),
            (
                "explicit_representatives-extra-string-key",
                "explicit_representatives: a representative must be an object with exactly the string fields"
                " prefix and tail, got {'prefix': '0', 'tail': '0', 'note': 'x'}",
            ),
            ("mu-'5'", "mu must be a number, got '5'"),
            ("mu-null", "mu must be a number, got None"),
            ("mu-true", "mu must be a number, got True"),
        ],
    )
    def test_message(self, tmp_path, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MALFORMED_CONFIGS[config]))
        result = invoke(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"invalid configuration: {message}" in result.stderr

    @pytest.mark.parametrize("command", ["verify", "hierarchy", "render", "partition", "dendrite"])
    def test_explicit_representatives_in_every_first_block_run(self, tmp_path, command):
        # floor 1 splits the full space into [0], [10], [11]; floor 2 splits
        # [0] into [00], [010], [011]
        reps = [
            [{"prefix": "01", "tail": "0"}, {"prefix": "", "tail": "0"}],
            [{"prefix": "001", "tail": "1"}, {"prefix": "001", "tail": "1"}],
        ]
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {"representatives": "explicit", "partition_n": 3, "levels": 2, "depth": 4, "explicit_representatives": reps}
            )
        )
        result = invoke([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.stderr

    def test_explicit_lists_beyond_the_tower_are_not_checked(self):
        from cantor_coarse.code_space import Address

        reps = ((Address("000", "0"),), ())
        RunConfig(representatives="explicit", explicit_representatives=reps, levels=1).validate()
        with pytest.raises(ValueError, match="level 2 needs 1 representatives, got 0"):
            RunConfig(representatives="explicit", explicit_representatives=reps, levels=2).validate()
