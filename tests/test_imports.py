"""Tests of what each entry point imports: the lazy package root, the
``cantor_coarse`` modules each command loads, and nothing from outside the
standard library."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantor_coarse

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
# the commands' environment: logging stays off
QUIET = {key: value for key, value in ENV.items() if key != "CANTOR_COARSE_LOG"}

# every name the package root exports; it has exported each since it
# imported its submodules eagerly
PUBLIC = set(
    """
    Partition build_partition flatten_refinement refine_block
    Fiber HierarchyLevel QuotientSpec
    SelfSimilarityReport base_system build_hierarchy
    check_conjugation check_isometry conjugate_system
    default_representatives merged_representatives
    verify_self_similarity
    Address ClopenSet FULL_SPACE clopen_union
    code_distance complete_prefix_code embed_cmts map_clopen prepend_map
    recode_between recode_homeomorphism
    DendriteFiber DendriteGraph DendritePoint binary_expansion
    check_continuity_modulus check_surjectivity check_tour_conservation
    dendrite_map fiber_of
    IntervalCover PointEstimate StatementReport
    WeakContractionSystem hausdorff_distance invariant_cover
    inverse_branches itinerary_point logistic
    verify_statement_conditions
    """.split()
)
SUBMODULES = ("clopen_partition", "coarse_graining", "code_space", "dendrite", "quadratic_system")

CORE = {"cantor_coarse", "cantor_coarse.cli"}
ALL_MODULES = CORE | {f"cantor_coarse.{m}" for m in (*SUBMODULES, "svg")}
# the cantor_coarse modules each command has loaded when it exits: only
# verify loads ``campaign``, its check families, and the fiber counts of
# render and dendrite need no ``code_space``
LOADED = {
    "--help": CORE,
    "partition": CORE | {"cantor_coarse.code_space", "cantor_coarse.clopen_partition"},
    "dendrite": CORE | {"cantor_coarse.dendrite"},
    "hierarchy": ALL_MODULES - {"cantor_coarse.dendrite", "cantor_coarse.svg"},
    "verify": ALL_MODULES - {"cantor_coarse.svg"} | {"cantor_coarse.campaign"},
    "render": CORE | {"cantor_coarse.quadratic_system", "cantor_coarse.dendrite", "cantor_coarse.svg"},
}
# standard-library modules a command has no use for, each milliseconds of
# start-up: no command loads ``logging`` unless CANTOR_COARSE_LOG is set,
# ``inspect`` comes with ``dataclasses``, a command that writes no JSON
# loads no ``json``, and one that builds no ``Fraction`` no ``fractions``.
# A well-formed command line is read from the option table, so only help
# and usage errors load ``argparse``
UNUSED = {"logging", "dataclasses", "inspect"}
UNUSED_BY = {
    "--help": {"json", "fractions"},
    "verify": {"argparse"},
    "hierarchy": {"argparse"},
    "render": {"argparse", "json"},
    "partition": {"argparse", "fractions"},
    "dendrite": {"argparse"},
}


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
        assert out.strip() == "['cantor_coarse', 'cantor_coarse.dendrite']"


# runs cantor_coarse as ``python -m`` does and writes the names of the
# modules the command loaded, one a line, to the file named by its first
# argument; it imports nothing of its own after the ``before`` snapshot.
# The process entry ends the process with ``os._exit``, which runs no
# ``finally``, so the list is written by a wrapper of ``os._exit``: a
# command that ends any other way writes none
_NEW_MODULES = """
import os, runpy, sys
out, sys.argv = sys.argv[1], ["cantor-coarse", *sys.argv[2:]]
before = set(sys.modules)
exit_ = os._exit

def record_then_exit(status):
    loaded = sorted(set(sys.modules) - before)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(loaded))
    exit_(status)

os._exit = record_then_exit
runpy.run_module("cantor_coarse", run_name="__main__", alter_sys=True)
"""


def _new_modules(tmp_path, args: list[str], *flags: str, env: dict | None = None, code: int = 0) -> list[str]:
    """The modules ``python *flags -m cantor_coarse *args`` loads, with
    CANTOR_COARSE_LOG unset unless ``env`` sets it; it must exit ``code``."""
    loaded = tmp_path / "loaded.txt"
    loaded.unlink(missing_ok=True)  # a command that ends without os._exit writes none
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _NEW_MODULES, str(loaded), *args],
        env={**QUIET, **(env or {})},
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    return loaded.read_text(encoding="utf-8").split()


@pytest.mark.parametrize("command", sorted(LOADED))
def test_each_command_loads_only_its_modules(tmp_path, command):
    args = [command] if command == "--help" else [command, "--out", str(tmp_path)]
    modules = _new_modules(tmp_path, args)
    assert {m for m in modules if m.split(".")[0] == "cantor_coarse"} == LOADED[command]
    assert {m.split(".")[0] for m in modules} - {"cantor_coarse"} <= set(sys.stdlib_module_names)
    assert UNUSED.union(UNUSED_BY[command]).isdisjoint(modules)
    if command == "--help":
        assert "argparse" in modules  # argparse writes the help
    # nor ``typing``; ``site`` may load it or ``logging`` through a ``.pth``
    # file, before the snapshot, so the command runs again without ``site``
    assert {"typing", "logging"}.isdisjoint(_new_modules(tmp_path, args, "-S"))


def test_the_log_variable_loads_logging(tmp_path):
    args = ["partition", "--out", str(tmp_path)]
    assert "logging" in _new_modules(tmp_path, args, env={"CANTOR_COARSE_LOG": "INFO"})


@pytest.mark.parametrize(
    "args",
    [["verify", "--mu", "abc"], ["partition", "--tolerance", "-1e-3"]],
    ids=["argparse-rejects", "invalid-configuration"],
)
def test_a_usage_error_loads_argparse(tmp_path, args):
    # argparse writes every usage error, also that of a line the option
    # table read whose configuration is invalid
    assert "argparse" in _new_modules(tmp_path, args, code=2)
