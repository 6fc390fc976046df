"""Command-line front end: verification campaigns, hierarchy documents and
SVG renderings.

Configuration comes from an optional JSON file plus flag overrides (flags
win).  ``verify`` draws no random number, and the hierarchy document
samples its contraction ratio once per tower, on the top floor, from the
configured seed.  Reports carry no timestamps, and the SVG builders
format every number with fixed precision, so repeated runs with one
configuration are byte-identical.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error, 3 output
I/O error, also a stdout that refuses the command's lines, such as a pipe
whose reader has gone.

``python -m cantor_coarse`` and the ``cantor-coarse`` script run ``main``
through ``entry``, which ends the process with ``os._exit`` once stdout
and stderr are flushed, skipping interpreter teardown: ``atexit`` hooks
do not run in that process.  ``main`` itself returns or raises, as any
function does.

``_OPTIONS`` is the one table of options.  ``main`` reads a command line
that is a command name and then known ``--flag value`` or
``--flag=value`` pairs straight from it, with each option's converter and
choices; argparse parses every other line, and so writes all help and
every usage error.  A well-formed command line loads no ``argparse``.

Set ``CANTOR_COARSE_LOG`` to a level name (``INFO``) to see the depth
caps and the faults behind failed checks on stderr; a value that names
no level is ignored.  The process imports ``logging`` only when the
variable is set, and each command imports ``json`` and the package's
modules only where it uses them: ``verify``'s check families live in
``campaign``, which ``run_campaign`` imports when it runs, and ``render``
and ``dendrite`` count fiber cylinders on integers, without loading
``code_space``.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse
    from typing import NoReturn

    from .code_space import Address
    from .dendrite import DendriteGraph
    from .quadratic_system import IntervalCover, WeakContractionSystem

__all__ = ["RunConfig", "entry", "main", "run_campaign"]


def _info(msg: str, *args: object, exc_info: bool = False) -> None:
    """Log ``msg % args`` at INFO on the ``cantor_coarse`` logger.

    The record is dropped when no module has imported ``logging``: then no
    level or handler can have been set that lets an INFO record through, so
    a command need not pay the milliseconds of start-up the import costs.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("cantor_coarse").info(msg, *args, exc_info=exc_info, stacklevel=2)


# full covers double per depth step; past this the verification legs that
# enumerate them are capped (the config may still ask for depth up to 30)
MAX_ENUMERATED_DEPTH = 14
MAX_DOCUMENT_DEPTH = 10
# the interval cover a hierarchy document lists
MAX_COVER_DEPTH = 8

_POLICIES = ("distinct", "merged", "explicit")


def _capped(depth: int, cap: int, name: str) -> int:
    """``min(depth, cap)``, logged at INFO when the cap clips ``depth``."""
    if depth > cap:
        _info("%s=%d caps depth %d to %d", name, cap, depth, cap)
    return min(depth, cap)


def _cover_chain(sys_: WeakContractionSystem, depth: int) -> list[IntervalCover]:
    """``cover_chain(sys_, depth)``, logged at INFO like ``_capped`` when
    double precision ends it short of ``depth``."""
    from .quadratic_system import cover_chain

    covers = cover_chain(sys_, depth)
    if len(covers) <= depth:
        _info("double precision caps cover depth %d to %d", depth, len(covers) - 1)
    return covers


# RunConfig's fields and their defaults, in the order the reports' ``config`` lists them
_DEFAULTS = {
    "mu": 5.0, "depth": 12, "partition_n": 2, "levels": 2, "dendrite_depth": 4, "representatives": "distinct",
    "explicit_representatives": None, "tolerance": 1e-12, "seed": 0, "out": ".",
}


class RunConfig:
    """One verification campaign's worth of knobs: the fields of
    ``_DEFAULTS``, each given by keyword or taking its default."""

    __slots__ = tuple(_DEFAULTS)

    def __init__(self, **fields) -> None:
        for key, default in _DEFAULTS.items():
            setattr(self, key, fields.pop(key, default))
        if fields:
            raise TypeError(f"RunConfig got unexpected keyword arguments {sorted(fields)}")

    def validate(self) -> None:
        # a JSON true, string or null would reach the bound tests below
        if isinstance(self.mu, bool) or not isinstance(self.mu, (int, float)):
            raise ValueError(f"mu must be a number, got {self.mu!r}")
        if not self.mu > 4:
            raise ValueError("mu must exceed 4")
        # nan and -inf fail the bound above; an integer mu too large for a
        # float, which a JSON config can give, overflows math.isfinite
        try:
            finite = math.isfinite(self.mu)
        except OverflowError:
            raise ValueError("mu is too large for a float") from None
        if not finite:
            raise ValueError("mu must be finite")
        for name in ("depth", "partition_n", "levels", "dendrite_depth", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.depth <= 30:
            raise ValueError("depth must lie in 0..30")
        if not 1 <= self.partition_n <= 64:
            raise ValueError("partition block count must lie in 1..64")
        if not 0 <= self.levels <= 8:
            raise ValueError("levels must lie in 0..8")
        if not 0 <= self.dendrite_depth <= 8:
            raise ValueError("dendrite depth must lie in 0..8")
        # a JSON true passes a bound test, and an infinite tolerance passes
        # every check and is written as Infinity, which is not JSON
        if isinstance(self.tolerance, bool) or not isinstance(self.tolerance, (int, float)):
            raise ValueError(f"tolerance must be a number, got {self.tolerance!r}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a string, got {self.out!r}")
        # no file system takes a path with a NUL in it; pathlib raises
        # ValueError at the first write
        if "\0" in self.out:
            raise ValueError(f"out must not contain a NUL character, got {self.out!r}")
        if self.representatives not in _POLICIES:
            raise ValueError(f"representative policy must be one of {_POLICIES}")
        # another policy would ignore the lists, and every report would echo them
        if self.representatives != "explicit" and self.explicit_representatives is not None:
            raise ValueError(
                f"explicit_representatives is given, but representatives is {self.representatives!r}, not 'explicit'"
            )
        if self.representatives == "explicit":
            reps = self.explicit_representatives
            if reps is None:
                raise ValueError("the explicit policy needs explicit_representatives")
            if len(reps) < self.levels:
                raise ValueError(f"explicit_representatives has {len(reps)} lists for {self.levels} levels")
            from .clopen_partition import build_partition
            from .code_space import FULL_SPACE

            # each floor partitions the previous floor's first block
            carrier = FULL_SPACE
            for k, level in enumerate(reps[: self.levels], start=1):
                if len(level) != self.partition_n - 1:
                    raise ValueError(f"level {k} needs {self.partition_n - 1} representatives, got {len(level)}")
                carrier = build_partition(carrier, self.partition_n).blocks[0]
                for q in level:
                    if not carrier.contains(q):
                        raise ValueError(f"level {k}: representative {q} lies outside the first block")

    def as_json(self) -> dict:
        data = {key: getattr(self, key) for key in _DEFAULTS}
        if self.explicit_representatives is not None:
            data["explicit_representatives"] = [
                [{"prefix": a.prefix, "tail": a.tail} for a in level]
                for level in self.explicit_representatives
            ]
        return data


def _representatives_from_json(levels: object) -> tuple[tuple[Address, ...], ...]:
    """A config file's ``explicit_representatives``: a list of lists of
    ``{"prefix": <string>, "tail": <string>}`` objects, one list per floor."""
    from .code_space import Address

    if not isinstance(levels, list) or not all(isinstance(level, list) for level in levels):
        raise ValueError(f"explicit_representatives must be a list of lists, got {levels!r}")
    for level in levels:
        for a in level:
            fields = isinstance(a, dict) and a.keys() == {"prefix", "tail"}
            if not (fields and all(isinstance(v, str) for v in a.values())):
                raise ValueError(
                    "explicit_representatives: a representative must be an object with exactly"
                    f" the string fields prefix and tail, got {a!r}"
                )
    return tuple(tuple(Address(a["prefix"], a["tail"]) for a in level) for level in levels)


def load_config(config_path: str | None, **overrides) -> RunConfig:
    """Merge a JSON config file with flag overrides; flags win."""
    data: dict = {}
    if config_path is not None:
        import json

        data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = set(data).difference(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if data.get("explicit_representatives") is not None:
            data["explicit_representatives"] = _representatives_from_json(data["explicit_representatives"])
    merged = {**data, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


def run_campaign(cfg: RunConfig) -> dict:
    """Run every verification family and assemble the JSON-ready report."""
    from .campaign import _coverage_checks, _dendrite_checks, _hierarchy_checks, _partition_checks, _statement_checks
    from .quadratic_system import inverse_branches

    records: list[dict] = []
    sys_ = inverse_branches(cfg.mu)
    statement = _statement_checks(cfg, sys_)
    statement_ok = all(r["passed"] for r in statement)
    records.extend(statement)
    coverage, covers, identity_distances = _coverage_checks(cfg, sys_)
    records.extend(coverage)
    records.extend(_partition_checks(cfg))
    if statement_ok and cfg.levels >= 1:
        records.extend(_hierarchy_checks(cfg, sys_, covers, identity_distances))
    elif not statement_ok:
        _info("statement conditions failed; skipping hierarchy checks")
    records.extend(_dendrite_checks(cfg))
    passed = sum(1 for r in records if r["passed"])
    return {
        "schema": "verification-report/1",
        "config": cfg.as_json(),
        "checks": records,
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
            "all_passed": passed == len(records),
        },
    }


def _floor_name(k: int) -> str:
    """The name of floor ``k`` of the tower: S, D1, D2, ..."""
    return f"D{k}" if k else "S"


def hierarchy_document(cfg: RunConfig) -> dict:
    """Serialize the tower: carriers, homeomorphism rules, moduli, distances.

    The tower is symbolic, so every configured floor is written at every
    valid ``mu``; only ``verify`` judges the contraction conditions.  Each
    floor's ``modulus_bound`` is the ground branches' modulus, which bounds
    every floor's ratio.

    A floor that intertwines with the ground has the ground's contraction
    ratio, so the ratio is sampled once, on the top floor, whose maps
    compose every recoding below it, and each floor that intertwines writes
    that reading; any other floor, or every floor when the top one does not
    intertwine, is sampled on its own.  Each floor decides its own coverage.
    """
    from .coarse_graining import build_hierarchy, check_coverage, check_intertwining, verify_self_similarity
    from .quadratic_system import forward_distance, inverse_branches

    sys_ = inverse_branches(cfg.mu)
    modulus = list(sys_.modulus_inf)
    tower = build_hierarchy(cfg.levels, cfg.partition_n, cfg.representatives, cfg.explicit_representatives)
    doc_depth = _capped(cfg.depth, MAX_DOCUMENT_DEPTH, "MAX_DOCUMENT_DEPTH")
    covers = _cover_chain(sys_, doc_depth + 1)
    # MAX_COVER_DEPTH <= MAX_DOCUMENT_DEPTH, so only the chain's end clips it
    cover = covers[min(_capped(cfg.depth, MAX_COVER_DEPTH, "MAX_COVER_DEPTH"), len(covers) - 1)]
    interval_cover = {"depth": cover.depth, "intervals": [list(iv) for iv in cover.intervals]}
    # the realized point set is the same at every floor: labels pull back to
    # ground addresses, and those realize to these covers
    hausdorff = forward_distance(cfg.mu, covers[-1], covers[-2])
    ground, top = tower[0], tower[-1]
    reading = verify_self_similarity(top, samples=100, seed=cfg.seed)
    top_ratio = list(reading.max_ratio)
    # the ground intertwines with itself
    shared = top is ground or check_intertwining(top, ground)
    if not shared:
        _info("%s does not intertwine with the ground; sampling every floor's ratio on its own", _floor_name(top.level))
    levels: dict[str, dict] = {}
    for level in tower:
        base_len = max((len(w) for w in level.carrier.words), default=0)
        if level is top:
            coverage_exact, ratio = reading.coverage_exact, top_ratio
        elif shared and (level is ground or check_intertwining(level, ground)):
            coverage_exact, ratio = check_coverage(level), top_ratio
        else:
            if shared:
                _info("%s does not intertwine with the ground; sampling its ratio on its own", _floor_name(level.level))
            rep = verify_self_similarity(level, samples=100, seed=cfg.seed)
            coverage_exact, ratio = rep.coverage_exact, list(rep.max_ratio)
        entry: dict = {
            "carrier": list(level.carrier.words),
            "cylinders": list(level.carrier.refine(base_len + doc_depth)),
            "interval_cover": interval_cover,
            "modulus_bound": modulus,
            "coverage_exact": coverage_exact,
            "coverage_hausdorff": hausdorff,
            "max_contraction_ratio": ratio,
        }
        if level.quotient is not None:
            entry["homeomorphism"] = [
                {"rules": [[src, dst] for src, dst in stage.rules]}
                for stage in level.hom.stages
            ]
            entry["fiber_labels"] = [
                {"prefix": f.label.prefix, "tail": f.label.tail, "blocks": list(f.block_indices)}
                for f in level.quotient.multi_fibers
            ]
            entry["representatives"] = [
                {"prefix": q.prefix, "tail": q.tail} for q in level.quotient.representatives
            ]
        levels[_floor_name(level.level)] = entry
    return {
        "schema": "hierarchy-document/1",
        "config": cfg.as_json(),
        "level_names": [_floor_name(k) for k in range(cfg.levels + 1)],
        "levels": levels,
    }


def _cannot_write(target: object, exc: OSError) -> int:
    """Report an output I/O error on stderr; return its exit status, 3."""
    print(f"cannot write {target}: {exc}", file=sys.stderr)
    return 3


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        sys.exit(_cannot_write(path, exc))


def _say(line: str, end: str = "\n") -> None:
    """Print ``line`` on stdout, then ``end``.  A stream that refuses it,
    such as a pipe whose reader has gone, is an output I/O error (exit 3)."""
    try:
        print(line, end=end)
    except OSError as exc:
        sys.exit(_cannot_write("standard output", exc))


def _dump(doc: dict) -> str:
    import json

    return json.dumps(doc, indent=2) + "\n"


def _rejected(message: str) -> Exception:
    """argparse's ``ArgumentTypeError`` with ``message``: a converter loads
    argparse only for a value it rejects, and argparse reports it."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _config_file(value: str) -> str:
    """``--config`` names a readable file that exists."""
    path = Path(value)
    if not path.exists():
        raise _rejected(f"file {value!r} does not exist")
    if path.is_dir():
        raise _rejected(f"file {value!r} is a directory")
    if not os.access(path, os.R_OK):
        raise _rejected(f"file {value!r} is not readable")
    return value


def _out_dir(value: str) -> str:
    """``--out`` names a directory, which need not exist yet."""
    if Path(value).is_file():
        raise _rejected(f"directory {value!r} is a file")
    return value


# the options every command takes: flag, add_argument keywords
_OPTIONS = (
    ("--mu", {"type": float, "help": "rate constant, must exceed 4"}),
    ("--depth", {"type": int, "help": "interval cover depth (0..30)"}),
    ("--n", {"dest": "partition_n", "metavar": "N", "type": int, "help": "partition blocks per level"}),
    ("--levels", {"type": int, "help": "coarse-graining levels (0..8)"}),
    ("--dendrite-depth", {"type": int, "help": "dendrite tree depth (0..8)"}),
    ("--tolerance", {"type": float, "help": "identity tolerance"}),
    ("--seed", {"type": int, "help": "seed for the hierarchy document's sampled ratios; no verify check reads it"}),
    ("--representatives", {"choices": _POLICIES}),
    ("--config", {"dest": "config_path", "metavar": "PATH", "type": _config_file, "help": "JSON config file"}),
    ("--out", {"type": _out_dir, "help": "output directory"}),
)
# each flag's destination, converter and choices, as argparse reads them
_READERS = {
    flag: (kwargs.get("dest", flag[2:].replace("-", "_")), kwargs.get("type", str), kwargs.get("choices"))
    for flag, kwargs in _OPTIONS
}


def verify(cfg: RunConfig) -> None:
    """Run the full verification campaign and write the JSON report."""
    report = run_campaign(cfg)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        _say(f"{status} {check['id']} [{check['location']}]")
    out = Path(cfg.out) / "verification_report.json"
    _write_text(out, _dump(report))
    _say(f"report: {out}")
    if not report["summary"]["all_passed"]:
        import json

        for check in report["checks"]:
            if not check["passed"]:
                print(
                    f"failed: {check['id']} [{check['location']}] measured "
                    f"{json.dumps(check['measured'])}, bound {json.dumps(check['bound'])}",
                    file=sys.stderr,
                )
        sys.exit(1)


def hierarchy(cfg: RunConfig) -> None:
    """Write the hierarchy document for the configured tower."""
    doc = hierarchy_document(cfg)
    out = Path(cfg.out) / "hierarchy.json"
    _write_text(out, _dump(doc))
    _say(f"document: {out}")


def _fiber_counts(tree: DendriteGraph, depth: int) -> dict[int, int]:
    """The cylinder count of each vertex's fiber, at ``depth`` capped to
    MAX_DOCUMENT_DEPTH."""
    from .dendrite import _cylinder_counts

    return _cylinder_counts(tree, _capped(depth, MAX_DOCUMENT_DEPTH, "MAX_DOCUMENT_DEPTH"))


def render(cfg: RunConfig) -> None:
    """Write the Cantor-bar, hierarchy and dendrite SVG renderings."""
    from .dendrite import DendriteGraph
    from .quadratic_system import inverse_branches
    from .svg import cantor_bars_svg, dendrite_svg, hierarchy_svg

    sys_ = inverse_branches(cfg.mu)
    bar_depth = _capped(cfg.depth, MAX_ENUMERATED_DEPTH, "MAX_ENUMERATED_DEPTH")
    out_dir = Path(cfg.out)
    _write_text(out_dir / "cantor_bars.svg", cantor_bars_svg(_cover_chain(sys_, bar_depth)))

    # the tower is symbolic: every floor has the ground's branches and modulus
    names = [_floor_name(k) for k in range(cfg.levels + 1)]
    _write_text(out_dir / "hierarchy.svg", hierarchy_svg(names, max(sys_.modulus_inf)))

    tree = DendriteGraph(cfg.dendrite_depth)
    _write_text(out_dir / "dendrite.svg", dendrite_svg(tree, _fiber_counts(tree, cfg.depth)))
    _say(f"renderings: {out_dir}")


def partition(cfg: RunConfig) -> None:
    """Write the clopen partition of the full space into n blocks."""
    from .clopen_partition import build_partition
    from .code_space import FULL_SPACE

    p = build_partition(FULL_SPACE, cfg.partition_n)
    doc = {
        "schema": "partition-document/1",
        "config": cfg.as_json(),
        "carrier": list(p.carrier.words),
        "blocks": [list(b.words) for b in p.blocks],
    }
    out = Path(cfg.out) / "partition.json"
    _write_text(out, _dump(doc))
    _say(f"document: {out}")


def dendrite(cfg: RunConfig) -> None:
    """Write the dendrite structure and per-vertex fiber counts."""
    from .dendrite import DendriteGraph

    tree = DendriteGraph(cfg.dendrite_depth)
    doc = {
        "schema": "dendrite-document/1",
        "config": cfg.as_json(),
        "vertex_count": tree.vertex_count,
        "edges": [
            {"parent": tree.parent(v), "child": v, "length": str(tree.edge_length(v))}
            for v in range(2, tree.vertex_count + 1)
        ],
        "tour_length": str(tree.tour_length),
        "fiber_cylinder_counts": {str(v): n for v, n in _fiber_counts(tree, cfg.depth).items()},
    }
    out = Path(cfg.out) / "dendrite.json"
    _write_text(out, _dump(doc))
    _say(f"document: {out}")


_COMMANDS = {run.__name__: run for run in (verify, hierarchy, render, partition, dendrite)}


def _parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        """Writes its help on stdout through ``_say``: argparse drops a
        help text that stdout refuses and exits 0."""

        def print_help(self, file=None) -> None:
            if file is not None:
                return super().print_help(file)
            _say(self.format_help(), end="")

    parser = Parser(
        prog="cantor-coarse",
        description="Construct and machine-verify self-similar coarse grainings of the "
        "Cantor-type invariant set of the quadratic map.",
        allow_abbrev=False,
    )
    # every command takes the same options: added once, shared by each
    options = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _OPTIONS:
        options.add_argument(flag, **kwargs)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for run in _COMMANDS.values():
        doc = run.__doc__.strip()
        sub = commands.add_parser(run.__name__, help=doc, description=doc, allow_abbrev=False, parents=[options])
        sub.set_defaults(run=run, fail=sub.error)
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Pass an option whose value begins with '-' as ``--flag=value``.

    The value is the token after the flag whatever it looks like
    (``--mu -inf``), where argparse would read a token such as ``-inf`` as
    an unknown flag.
    """
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _READERS else None
        if value is None:
            out.append(token)
        elif value.startswith("-"):
            out.append(f"{token}={value}")
        else:
            out.extend((token, value))
    return out


def _read_options(argv: list[str]) -> dict | None:
    """The options of a command line that is one command name and then
    known ``--flag value`` or ``--flag=value`` pairs, read from
    ``_OPTIONS`` as argparse reads them: ``dest`` to value, None for a
    flag not given, and a repeated flag's last value.  None for any other
    line, and for a value that its converter or choices reject, so that
    argparse parses the line and reports its help or error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    args = dict.fromkeys(dest for dest, _, _ in _READERS.values())
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        reader = _READERS.get(flag)
        if reader is None:
            return None
        if not equals:
            value = next(tokens, None)
        # argparse drops a value of "--" as the end of the options
        if value is None or value == "--":
            return None
        dest, convert, choices = reader
        try:
            value = convert(value)
        except Exception as exc:
            import argparse

            # argparse converts a rejected value again and reports it; any
            # other exception escapes, as it would from argparse
            if isinstance(exc, (argparse.ArgumentTypeError, TypeError, ValueError)):
                return None
            raise
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    return args


def main(argv: list[str] | None = None) -> None:
    """Run one command on ``argv`` (default: ``sys.argv[1:]``).

    A well-formed command line is read from the option table; argparse
    parses every other one, for help and usage errors.
    """
    argv = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    args = _read_options(argv)
    if args is None:
        args = vars(_parser().parse_args(argv))
        run, fail = args.pop("run"), args.pop("fail")
    else:
        run = _COMMANDS[argv[0]]

        def fail(message: str) -> None:
            # the command's own parser reports the error, as it would have
            vars(_parser().parse_args(argv))["fail"](message)

    level_name = os.environ.get("CANTOR_COARSE_LOG")
    if level_name is not None:
        import logging

        # a value that names no level, such as ``basic_format``, is ignored
        level = logging.getLevelName(level_name.upper())
        if isinstance(level, int):
            logging.basicConfig(level=level)
    try:
        cfg = load_config(args.pop("config_path"), **args)
    # a file that is not JSON raises json.JSONDecodeError, a ValueError, and
    # one nested too deep for the decoder RecursionError
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        fail(f"invalid configuration: {exc}")
    run(cfg)


def entry() -> NoReturn:
    """Run ``main`` as the whole process, and end the process with
    ``os._exit`` once its outputs are flushed.

    ``python -m cantor_coarse`` and the ``cantor-coarse`` script both
    start here.  Interpreter teardown would only free what the process is
    about to drop, and ``_write_text`` has closed every output file, so
    skipping it loses nothing.  The status is the one Python gives: 0 when
    ``main`` returns; for a ``SystemExit``, 0 for a code of None, an int
    code as it is, and 1 for any other code, which is printed on stderr.
    Any other exception escapes, with Python's own traceback and exit 1.
    A stdout that refuses the last flush is an output I/O error (exit 3).
    """
    try:
        main()
        status = 0
    except SystemExit as exc:
        if exc.code is None:
            status = 0
        elif isinstance(exc.code, int):
            status = exc.code
        else:
            print(exc.code, file=sys.stderr)
            status = 1
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.shutdown()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        status = _cannot_write("standard output", exc)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # no stream is left to say so
    os._exit(status)


if __name__ == "__main__":
    entry()
