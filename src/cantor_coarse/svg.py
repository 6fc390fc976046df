"""Hand-rolled SVG renderings: byte-stable for a fixed configuration.

No plotting library is involved; every coordinate is formatted with a
fixed precision, so identical inputs produce identical bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .dendrite import DendriteGraph
    from .quadratic_system import IntervalCover

__all__ = ["cantor_bars_svg", "dendrite_svg", "hierarchy_svg"]

_W = 1000.0


def _f(x: float) -> str:
    return f"{x:.4f}"


def cantor_bars_svg(covers: list[IntervalCover]) -> str:
    """One row per cover depth, one bar per interval."""
    row_h, gap, margin = 26.0, 10.0, 20.0
    height = margin * 2 + len(covers) * (row_h + gap) - gap
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_W + 2 * margin)}" '
        f'height="{_f(height)}" viewBox="0 0 {_f(_W + 2 * margin)} {_f(height)}">',
        f'<rect width="{_f(_W + 2 * margin)}" height="{_f(height)}" fill="white"/>',
    ]
    bar_h = _f(row_h)
    for n, cover in enumerate(covers):
        y = _f(margin + n * (row_h + gap))
        lines.append(f'<g class="bar-row" data-depth="{cover.depth}">')
        # 2**n bars a row: x and width formatted inline, with _f's spec
        ends = cover.ends
        lines.extend(
            f'<rect class="bar" x="{margin + lo * _W:.4f}" y="{y}" '
            f'width="{max((hi - lo) * _W, 0.35):.4f}" height="{bar_h}" fill="#1f4e79"/>'
            for lo, hi in zip(ends[::2], ends[1::2])
        )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def hierarchy_svg(level_names: list[str], moduli: list[float], branch_count: int) -> str:
    """Level nodes in a row, homeomorphism arrows between them, and a
    self-map loop per level for the branch system."""
    spacing, r, y = 220.0, 46.0, 130.0
    width = spacing * len(level_names) + 60.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" height="260" '
        f'viewBox="0 0 {_f(width)} 260">',
        f'<rect width="{_f(width)}" height="260" fill="white"/>',
    ]
    centers = [60.0 + r + i * spacing for i in range(len(level_names))]
    for i, (name, cx) in enumerate(zip(level_names, centers)):
        lines.append(f'<g class="level-node" data-level="{i}">')
        lines.append(f'<circle cx="{_f(cx)}" cy="{_f(y)}" r="{_f(r)}" fill="#eef3fa" stroke="#1f4e79" stroke-width="2"/>')
        lines.append(f'<text x="{_f(cx)}" y="{_f(y + 6)}" text-anchor="middle" font-size="24">{name}</text>')
        loop = (
            f"M {_f(cx - 18)} {_f(y - r)} C {_f(cx - 42)} {_f(y - r - 58)}, "
            f"{_f(cx + 42)} {_f(y - r - 58)}, {_f(cx + 18)} {_f(y - r)}"
        )
        lines.append(f'<path class="selfmap-loop" d="{loop}" fill="none" stroke="#888888" stroke-width="1.5"/>')
        branch_label = ",".join(f"f{j + 1}^{i}" if i else f"f{j + 1}" for j in range(branch_count))
        lines.append(
            f'<text x="{_f(cx)}" y="{_f(y - r - 46)}" text-anchor="middle" font-size="14" '
            f'fill="#555555">{branch_label} (alpha={moduli[i]:.6f})</text>'
        )
        lines.append("</g>")
    for i in range(len(level_names) - 1):
        x1 = centers[i] + r
        x2 = centers[i + 1] - r
        lines.append(
            f'<path class="hom-arrow" d="M {_f(x1)} {_f(y)} L {_f(x2 - 10)} {_f(y)}" '
            f'stroke="#1f4e79" stroke-width="2" fill="none"/>'
        )
        lines.append(
            f'<path class="hom-head" d="M {_f(x2)} {_f(y)} L {_f(x2 - 12)} {_f(y - 6)} '
            f'L {_f(x2 - 12)} {_f(y + 6)} Z" fill="#1f4e79"/>'
        )
        lines.append(
            f'<text class="hom-label" x="{_f((x1 + x2) / 2)}" y="{_f(y - 12)}" '
            f'text-anchor="middle" font-size="16">h^{i + 1}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def dendrite_svg(tree: DendriteGraph, fiber_counts: dict[int, int]) -> str:
    """The tree with a per-vertex heat fill by fiber size."""
    pos = tree.coordinates
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    lo_x, hi_x = min(xs) - 0.15, max(xs) + 0.15
    lo_y, hi_y = min(ys) - 0.15, max(ys) + 0.15
    scale = _W / max(hi_x - lo_x, hi_y - lo_y)

    def sx(x: float) -> float:
        return (x - lo_x) * scale + 20.0

    def sy(y: float) -> float:
        return (y - lo_y) * scale + 20.0

    width = (hi_x - lo_x) * scale + 40.0
    height = (hi_y - lo_y) * scale + 40.0
    peak = max(fiber_counts.values()) if fiber_counts else 1
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">',
        f'<rect width="{_f(width)}" height="{_f(height)}" fill="white"/>',
    ]
    for v in range(2, tree.vertex_count + 1):
        px, py = pos[tree.parent(v)]
        cx, cy = pos[v]
        lines.append(
            f'<line class="edge" x1="{_f(sx(px))}" y1="{_f(sy(py))}" '
            f'x2="{_f(sx(cx))}" y2="{_f(sy(cy))}" stroke="#444444" stroke-width="2"/>'
        )
    for v in tree.vertices:
        cx, cy = pos[v]
        count = fiber_counts.get(v, 0)
        heat = count / peak if peak else 0.0
        red = int(round(40 + 215 * heat))
        lines.append(
            f'<circle class="vertex" data-fibers="{count}" cx="{_f(sx(cx))}" cy="{_f(sy(cy))}" '
            f'r="7.0000" fill="rgb({red},60,90)"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
