"""Traced launcher for one cantor-coarse command.

    python bench/tracer.py TRACE_OUT.json <cantor-coarse args...>

Wraps the public entry points of every cantor_coarse module from outside
the package, then runs ``cantor_coarse.cli.main`` exactly as
``python -m cantor_coarse`` does.  Each wrapped call opens a span; the
tracer keeps per-entry-point call counts, self time (span duration minus
the time covered by child spans) and work counters in memory, together
with the spans of the top ``SPAN_DEPTH`` levels (name, start, end,
parent), and writes them to TRACE_OUT.json when the command exits, also
on an exception or ``sys.exit``.  The program's own output is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) of every wrapped entry point; "Class.method" is
# patched on the class, a plain function in every namespace that holds it
ENTRY_POINTS = (
    ("code_space", "ClopenSet.__post_init__"),
    ("code_space", "ComposedMap.__call__"),
    ("code_space", "push_word"),
    ("code_space", "embed_cmts"),
    ("code_space", "random_address"),
    ("code_space", "code_distance"),
    ("code_space", "map_clopen"),
    ("quadratic_system", "inverse_branches"),
    ("quadratic_system", "invariant_cover"),
    ("quadratic_system", "verify_statement_conditions"),
    ("quadratic_system", "refine_cover"),
    ("quadratic_system", "hausdorff_distance"),
    ("quadratic_system", "itinerary_point"),
    ("clopen_partition", "build_partition"),
    ("clopen_partition", "refine_block"),
    ("clopen_partition", "flatten_refinement"),
    ("coarse_graining", "build_hierarchy"),
    ("coarse_graining", "verify_self_similarity"),
    ("coarse_graining", "check_isometry"),
    ("coarse_graining", "check_conjugation"),
    ("coarse_graining", "conjugate_system"),
    ("dendrite", "binary_expansion"),
    ("dendrite", "dendrite_map"),
    ("dendrite", "DendriteGraph.tour_point"),
    ("dendrite", "fiber_of"),
    ("dendrite", "check_surjectivity"),
    ("dendrite", "check_continuity_modulus"),
    ("cli", "run_campaign"),
    ("cli", "hierarchy_document"),
    ("svg", "cantor_bars_svg"),
    ("svg", "dendrite_svg"),
    ("svg", "hierarchy_svg"),
)

# check family of each direct child span of cli.run_campaign
LEG_FAMILIES = {
    "quadratic_system.inverse_branches": "statement",
    "quadratic_system.verify_statement_conditions": "statement",
    "quadratic_system.invariant_cover": "coverage",
    "quadratic_system.refine_cover": "coverage",
    "quadratic_system.hausdorff_distance": "coverage",
    "clopen_partition.build_partition": "partition",
    "clopen_partition.refine_block": "partition",
    "clopen_partition.flatten_refinement": "partition",
    "coarse_graining.build_hierarchy": "hierarchy",
    "coarse_graining.check_isometry": "hierarchy",
    "coarse_graining.check_conjugation": "hierarchy",
    "coarse_graining.verify_self_similarity": "hierarchy",
    "dendrite.check_surjectivity": "dendrite",
    "dendrite.check_continuity_modulus": "dendrite",
    "dendrite.fiber_of": "dendrite",
    "dendrite.dendrite_map": "dendrite",
}

# spans nested deeper than this are folded into the per-name totals only;
# the hot kernels run hundreds of thousands of times per command
SPAN_DEPTH = 2


def span_name(module: str, attr: str) -> str:
    """``code_space.ClopenSet.__post_init__`` -> ``code_space.ClopenSet``."""
    owner, _, method = attr.partition(".")
    if method in ("__post_init__", "__call__"):
        return f"{module}.{owner}"
    return f"{module}.{method or owner}"


def _invariant_cover_key(args, kwargs):
    # the fixed points (0, 1 - 1/mu) identify the system's mu
    n = args[1] if len(args) > 1 else kwargs["n"]
    return (args[0].fixed_points, n)


class Tracer:
    """Per-process span recorder; ``install`` patches the loaded package."""

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self.spans: list[list] = []
        self.legs: dict[str, float] = {}
        self.distinct_covers: set = set()
        self._stack: list[list] = []

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})

    def wrap(self, name: str, fn):
        stat = self._stat(name)
        stack = self._stack
        spans = self.spans
        legs = self.legs
        family = LEG_FAMILIES.get(name)
        count = self._counter(name, stat)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            span = None
            if depth < SPAN_DEPTH:
                parent = stack[-1][1] if stack else None
                span = [name, 0.0, 0.0, parent]
                spans.append(span)
            frame = [0.0, len(spans) - 1 if span is not None else None, name]
            pre = len(args[0].cylinders) if name == "code_space.ClopenSet" else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat["calls"] += 1
                stat["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                    if family is not None and stack[-1][2] == "cli.run_campaign":
                        legs[family] = legs.get(family, 0.0) + elapsed
                if span is not None:
                    span[1], span[2] = start, end
            if count is not None:
                count(pre, args, kwargs, result)
            return result

        return traced

    def _counter(self, name: str, stat: dict):
        """Work counter for one entry point, updated after each return."""

        def add(key, value):
            stat[key] = stat.get(key, 0) + value

        if name == "code_space.ClopenSet":
            return lambda pre, a, k, r: (add("words_in", pre), add("words_out", len(a[0].cylinders)))
        if name == "code_space.push_word":
            return lambda pre, a, k, r: add("refinements", len(r) - 1)
        if name == "code_space.ComposedMap":
            return lambda pre, a, k, r: add("stages_applied", len(a[0].stages))
        if name == "quadratic_system.invariant_cover":
            return lambda pre, a, k, r: (
                add("intervals", len(r)),
                self.distinct_covers.add(_invariant_cover_key(a, k)),
            )
        if name == "clopen_partition.build_partition":
            return lambda pre, a, k, r: add("blocks", r.size)
        if name == "coarse_graining.build_hierarchy":
            return lambda pre, a, k, r: add("floors", len(r))
        if name == "coarse_graining.verify_self_similarity":
            return lambda pre, a, k, r: (
                add("cylinders_enumerated", r.cylinders_enumerated),
                add("ratio_samples", r.ratio_samples),
            )
        if name == "dendrite.fiber_of":
            return lambda pre, a, k, r: add("cylinders", len(r.cylinders))
        if name == "svg.cantor_bars_svg":
            return lambda pre, a, k, r: add("bytes", len(r.encode()))
        return None

    def install(self) -> None:
        """Patch every entry point wherever the package holds a reference.

        The package imports with ``from .x import f``, so one function can
        sit in several module namespaces (``push_word`` in ``code_space``
        and ``coarse_graining``, most names also in the package root); each
        of them gets the same wrapper.
        """
        for module_name, _ in ENTRY_POINTS:
            importlib.import_module(f"cantor_coarse.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "cantor_coarse" or n.startswith("cantor_coarse.")]
        for module_name, attr in ENTRY_POINTS:
            module = sys.modules[f"cantor_coarse.{module_name}"]
            name = span_name(module_name, attr)
            owner, _, method = attr.partition(".")
            if method:
                cls = getattr(module, owner)
                setattr(cls, method, self.wrap(name, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def snapshot(self) -> dict:
        stats = {name: dict(stat) for name, stat in self.stats.items()}
        stats["quadratic_system.invariant_cover"]["distinct"] = len(self.distinct_covers)
        return {"stats": stats, "legs": dict(self.legs), "spans": self.spans}


def main(argv: list[str]) -> None:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from cantor_coarse.cli import main as cli_main

    sys.argv = ["cantor-coarse", *cli_args]
    try:
        cli_main()
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    main(sys.argv[1:])
