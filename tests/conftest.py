"""Shared test helpers."""

from __future__ import annotations

import io
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from cantor_coarse.cli import main


@dataclass(frozen=True)
class Result:
    """One in-process command run: its exit code, what it wrote to each
    stream, and the exception that escaped ``main``, if any (a
    ``SystemExit`` for an explicit exit)."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None


def invoke(args: list[str]) -> Result:
    """Run ``cantor-coarse args`` in this process, as the console script
    would: an exception that escapes exits 1."""
    out, err = io.StringIO(), io.StringIO()
    exception: BaseException | None = None
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            exception = exc
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # noqa: BLE001 - reported to the test
            exception = exc
            code = 1
    return Result(code, out.getvalue(), err.getvalue(), exception)


def subset_of(cover, other) -> bool:
    """Whether every interval of the ``IntervalCover`` ``cover`` lies in a
    single interval of ``other``: the tests' nesting oracle.  For each
    interval, ``bisect_right`` over other's starts finds the last interval
    of other that starts at or left of it, and its stop is read."""
    starts = [lo for lo, _ in other.intervals]
    for lo, hi in cover.intervals:
        i = bisect_right(starts, lo) - 1
        if i < 0 or hi > other.intervals[i][1]:
            return False
    return True
