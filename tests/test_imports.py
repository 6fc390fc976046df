"""Tests of what each entry point imports: the lazy package root, and the
``cantor_coarse`` modules each command loads."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cantor_coarse

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# every name the package root exports; it has exported each since it
# imported its submodules eagerly
PUBLIC = set(
    """
    Partition build_partition flatten_refinement refine_block
    Fiber HierarchyLevel HierarchyPolicy QuotientSpace QuotientSpec
    SelfSimilarityReport SymbolicSystem base_system build_hierarchy
    build_quotient check_conjugation check_isometry conjugate_system
    default_representatives merged_representatives quotient_map
    verify_self_similarity
    Address ClopenSet Cylinder FULL_SPACE clopen_union
    code_distance complete_prefix_code embed_cmts map_clopen prepend_map
    recode_between recode_homeomorphism
    DendriteFiber DendriteGraph DendritePoint binary_expansion
    check_continuity_modulus check_surjectivity check_tour_conservation
    dendrite_map fiber_of
    IntervalCover PointEstimate QuadraticParams StatementReport
    WeakContractionSystem hausdorff_distance invariant_cover
    inverse_branches itinerary_point logistic modulus_sum_threshold
    verify_statement_conditions
    """.split()
)
SUBMODULES = ("clopen_partition", "coarse_graining", "code_space", "dendrite", "quadratic_system")

CORE = {"cantor_coarse", "cantor_coarse.cli"}
ALL_MODULES = CORE | {f"cantor_coarse.{m}" for m in (*SUBMODULES, "svg")}
# the cantor_coarse modules each command has loaded when it exits
LOADED = {
    "--help": CORE,
    "partition": CORE | {"cantor_coarse.code_space", "cantor_coarse.clopen_partition"},
    "dendrite": CORE | {"cantor_coarse.code_space", "cantor_coarse.dendrite"},
    "hierarchy": ALL_MODULES - {"cantor_coarse.dendrite", "cantor_coarse.svg"},
    "verify": ALL_MODULES - {"cantor_coarse.svg"},
    "render": ALL_MODULES,
}

_IMPORTED = re.compile(r"^import time:[^|]*\|[^|]*\|\s*(cantor_coarse(?:\.\w+)?)\s*$", re.M)


def _fresh(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True
    ).stdout


class TestPackageRoot:
    def test_all_is_the_public_names(self):
        assert set(cantor_coarse.__all__) == PUBLIC
        assert len(cantor_coarse.__all__) == len(PUBLIC)

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_is_its_submodule_object(self, name):
        owners = [
            m for m in (importlib.import_module(f"cantor_coarse.{s}") for s in SUBMODULES) if name in m.__all__
        ]
        assert len(owners) == 1
        assert getattr(cantor_coarse, name) is getattr(owners[0], name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cantor_coarse.no_such_name  # noqa: B018
        assert not hasattr(cantor_coarse, "no_such_name")

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from cantor_coarse import *", namespace)
        assert PUBLIC <= set(namespace)
        assert namespace["build_hierarchy"] is cantor_coarse.coarse_graining.build_hierarchy

    def test_import_loads_no_submodule(self):
        out = _fresh("import sys, cantor_coarse; print(sorted(m for m in sys.modules if m.startswith('cantor_coarse')))")
        assert out.strip() == "['cantor_coarse']"

    def test_from_import_loads_only_the_defining_submodule(self):
        out = _fresh(
            "import sys\n"
            "from cantor_coarse import DendriteGraph\n"
            "print(sorted(m for m in sys.modules if m.startswith('cantor_coarse')))"
        )
        assert out.strip() == "['cantor_coarse', 'cantor_coarse.code_space', 'cantor_coarse.dendrite']"


@pytest.mark.parametrize("command", sorted(LOADED))
def test_each_command_loads_only_its_modules(tmp_path, command):
    args = [command] if command == "--help" else [command, "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cantor_coarse", *args],
        env=ENV,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(_IMPORTED.findall(proc.stderr)) == LOADED[command]
