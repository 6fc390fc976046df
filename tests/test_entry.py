"""Tests of the process entry ``cli.entry``: ``python -m cantor_coarse``
and the ``cantor-coarse`` script run ``main`` in it, and it ends the
process with ``os._exit`` once the outputs are flushed."""

from __future__ import annotations

import errno
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cantor_coarse import cli
from conftest import invoke

ROOT = Path(__file__).resolve().parents[1]
# a pipe whose reader has gone refuses every write
EPIPE_LINE = f"cannot write standard output: {BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))}\n"
COMMANDS = ["verify", "hierarchy", "render", "partition", "dendrite"]


def _env(**extra: str) -> dict:
    """The environment of a child process: the sources on the path, help
    at a fixed width, logging off and stdout as this process has it,
    unless ``extra`` sets them."""
    env = {k: v for k, v in os.environ.items() if k not in ("CANTOR_COARSE_LOG", "PYTHONUNBUFFERED")}
    return {**env, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80", **extra}


def _run(args: list[str], cwd: Path, stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cantor_coarse", *args],
        cwd=cwd,
        env=_env(**env),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


def test_the_script_and_python_m_share_the_entry():
    assert 'cantor-coarse = "cantor_coarse.cli:entry"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "entry()" in (ROOT / "src" / "cantor_coarse" / "__main__.py").read_text(encoding="utf-8")


class TestProcessMatchesInvoke:
    """A process writes what ``main`` writes in-process, and exits with
    the status ``conftest.invoke`` reads."""

    @pytest.mark.parametrize(
        ("args", "code"),
        [
            (["verify"], 0),
            (["verify", "--mu", "4.5"], 1),
            (["verify", "--mu", "abc"], 2),
            (["partition", "--out", "{file}/sub"], 3),
            (["--help"], 0),
        ],
        ids=["pass", "check-failed", "usage-error", "io-error", "help"],
    )
    def test_status_and_streams(self, tmp_path, monkeypatch, args, code):
        (tmp_path / "file").write_text("a plain file")
        args = [arg.format(file=tmp_path / "file") for arg in args]
        if args[0] == "verify":
            args += ["--out", str(tmp_path / "out")]
        proc = _run(args, tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        result = invoke(args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (result.exit_code, result.stdout, result.stderr)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", [*COMMANDS, "--help"])
def test_a_closed_stdout_is_an_output_error(tmp_path, command, buffered):
    # unbuffered, the first print fails in the command, or the help text's
    # write; buffered, the entry's flush fails.  Either way: exit 3, one
    # line, no traceback
    read, write = os.pipe()
    os.close(read)
    args = [command] if command == "--help" else [command, "--out", str(tmp_path)]
    try:
        proc = _run(args, tmp_path, stdout=write, **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (3, EPIPE_LINE)


class _Exited(Exception):
    """What the stand-in for ``os._exit`` raises, with the status."""


class TestEntry:
    """``entry`` in this process, with ``main``, ``os._exit`` and
    ``logging.shutdown`` stood in for."""

    @pytest.fixture
    def shutdowns(self, monkeypatch) -> list[None]:
        def exit_(status: int) -> None:
            raise _Exited(status)

        calls: list[None] = []
        monkeypatch.setattr(os, "_exit", exit_)
        monkeypatch.setattr(logging, "shutdown", lambda: calls.append(None))
        return calls

    def _status(self, monkeypatch, run) -> int:
        monkeypatch.setattr(cli, "main", run)
        with pytest.raises(_Exited) as exited:
            cli.entry()
        return exited.value.args[0]

    @staticmethod
    def _exits(code: object):
        def run() -> None:
            raise SystemExit(code)

        return run

    def test_a_return_is_status_zero(self, monkeypatch, shutdowns, capsys):
        assert self._status(monkeypatch, lambda: None) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(("code", "status"), [(None, 0), (0, 0), (2, 2), (3, 3), (True, True)])
    def test_an_exit_code_none_or_int_is_the_status(self, monkeypatch, shutdowns, capsys, code, status):
        assert self._status(monkeypatch, self._exits(code)) == status
        assert capsys.readouterr().err == ""

    def test_any_other_exit_code_is_printed_and_status_one(self, monkeypatch, shutdowns, capsys):
        assert self._status(monkeypatch, self._exits("no such thing")) == 1
        assert capsys.readouterr().err == "no such thing\n"

    def test_another_exception_escapes(self, monkeypatch, shutdowns):
        def run() -> None:
            raise ValueError("boom")

        monkeypatch.setattr(cli, "main", run)
        with pytest.raises(ValueError, match="boom"):
            cli.entry()
        assert shutdowns == []

    def test_logging_shuts_down_only_when_loaded(self, monkeypatch, shutdowns):
        self._status(monkeypatch, lambda: None)
        assert shutdowns == [None]
        monkeypatch.delitem(sys.modules, "logging")
        self._status(monkeypatch, lambda: None)
        assert shutdowns == [None]

    class _Refusing:
        """A stdout whose flush fails as a pipe without a reader does."""

        def flush(self) -> None:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    @pytest.mark.parametrize("code", [None, 1, 2])
    def test_a_refused_flush_is_status_three(self, monkeypatch, shutdowns, capsys, code):
        monkeypatch.setattr(sys, "stdout", self._Refusing())
        assert self._status(monkeypatch, self._exits(code)) == 3
        assert capsys.readouterr().err == EPIPE_LINE

    def test_a_refused_flush_after_an_unwritable_file_says_both(self, monkeypatch, shutdowns, capsys):
        def run() -> None:
            sys.exit(cli._cannot_write("out/report.json", IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))))

        monkeypatch.setattr(sys, "stdout", self._Refusing())
        assert self._status(monkeypatch, run) == 3
        assert capsys.readouterr().err == f"cannot write out/report.json: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}\n" + EPIPE_LINE
