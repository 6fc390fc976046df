"""Tests pinning the bytes of ``render``: the chained bar covers and the
Cantor-bar SVG against the per-depth covers and the per-bar formatter they
replaced, and the exit of ``render`` at the large-mu defect."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from cantor_coarse.cli import main
from cantor_coarse.quadratic_system import QuadraticParams, invariant_cover, inverse_branches, refine_cover
from cantor_coarse.svg import cantor_bars_svg

SRC = Path(__file__).resolve().parents[1] / "src"
TOP = 14  # the cli's MAX_ENUMERATED_DEPTH
# mu and the deepest bar row drawn for it: past depth 9 the mu = 90 branch
# images overlap in floating point
BARS = [(5.0, TOP), (10.0, TOP), (90.0, 9)]


def _f(x: float) -> str:
    return f"{x:.4f}"


def reference_cantor_bars_svg(covers) -> str:
    """The Cantor-bar SVG formatted bar by bar, four ``_f`` calls each."""
    _W = 1000.0
    row_h, gap, margin = 26.0, 10.0, 20.0
    height = margin * 2 + len(covers) * (row_h + gap) - gap
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_W + 2 * margin)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(_W + 2 * margin)} {_f(height)}">',
        f'<rect width="{_f(_W + 2 * margin)}" height="{_f(height)}" fill="white"/>',
    ]
    for n, cover in enumerate(covers):
        y = margin + n * (row_h + gap)
        lines.append(f'<g class="bar-row" data-depth="{cover.depth}">')
        for lo, hi in cover.intervals:
            x = margin + lo * _W
            w = max((hi - lo) * _W, 0.35)
            lines.append(
                f'<rect class="bar" x="{_f(x)}" y="{_f(y)}" '
                f'width="{_f(w)}" height="{_f(row_h)}" fill="#1f4e79"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def chained_covers(mu: float, top: int):
    sys_ = inverse_branches(QuadraticParams(mu))
    covers = [invariant_cover(sys_, 0)]
    for _ in range(top):
        covers.append(refine_cover(sys_, covers[-1]))
    return covers


@pytest.mark.parametrize("mu, top", BARS)
def test_chain_is_the_per_depth_covers(mu, top):
    sys_ = inverse_branches(QuadraticParams(mu))
    for n, cover in enumerate(chained_covers(mu, top)):
        direct = invariant_cover(sys_, n)
        assert cover.depth == direct.depth == n
        assert cover.intervals == direct.intervals


@pytest.mark.parametrize("mu, top", BARS)
def test_bars_match_the_per_bar_formatter(mu, top):
    covers = chained_covers(mu, top)
    for n in range(top + 1):
        assert cantor_bars_svg(covers[: n + 1]) == reference_cantor_bars_svg(covers[: n + 1])
    # the deep rows are narrower than a bar is drawn
    assert 'width="0.3500"' in cantor_bars_svg(covers)


@pytest.mark.parametrize("mu, top", BARS)
def test_render_writes_the_per_depth_bars(tmp_path, mu, top):
    args = ["--mu", str(mu), "--depth", str(top), "--levels", "1", "--dendrite-depth", "2", "--out", str(tmp_path)]
    result = CliRunner().invoke(main, ["render", *args])
    assert result.exit_code == 0, result.output
    sys_ = inverse_branches(QuadraticParams(mu))
    want = reference_cantor_bars_svg([invariant_cover(sys_, n) for n in range(top + 1)])
    assert (tmp_path / "cantor_bars.svg").read_text(encoding="utf-8") == want


@pytest.mark.parametrize("mu", ["200", "500", "1000"])
def test_render_at_large_mu_fails_on_the_open_set_condition(tmp_path, mu):
    # a known defect: from about mu = 200 on, the branch images overlap in
    # floating point before depth 8
    proc = subprocess.run(
        [sys.executable, "-m", "cantor_coarse", "render", "--mu", mu, "--depth", "8", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ValueError: open set condition violated"
