"""Deterministic renderers for labelled line diagrams: ascii, TikZ, SVG."""
from __future__ import annotations

from .construction import LineSet, extract_section


def render_ascii(ls: LineSet) -> str:
    """Rows of entries followed by the line list and, once labelled, e and V."""
    t = ls.tableau
    width = len(str(t.n))
    out = [f"composition: {t.composition}    stage: {ls.describe_stage()}"]
    for u in range(1, t.height + 1):
        cells = (str(col[u - 1]) if len(col) >= u else "" for col in t.columns)
        out.append("  " + " ".join(cell.rjust(width) for cell in cells).rstrip())
    if ls.lines:
        out.append("lines:")
        for ln in ls.lines:
            if ls.step == 1:
                desc = f"  {str(ln.i).rjust(width)} -- {str(ln.j).rjust(width)}"
            else:
                desc = f"  {str(ln.i).rjust(width)} -[{ln.label}]-> {str(ln.j).rjust(width)}"
                if ln.gated:
                    desc += f"  gated@{ln.gate_stage}"
            out.append(desc)
    else:
        out.append("lines: none")
    if ls.step >= 2:
        sec = extract_section(ls)
        e_str = " + ".join(str(u) for u in sorted(sec.e)) if sec.e else "0"
        v_str = ", ".join(str(u) for u in sorted(sec.v)) if sec.v else ""
        out.append(f"e = {e_str}")
        out.append("V = span{ " + v_str + " }" if v_str else "V = 0")
    return "\n".join(out) + "\n"


def _positions(ls: LineSet) -> dict[int, tuple[int, int]]:
    t = ls.tableau
    return {e: (t.entry_col[e], t.entry_row[e]) for e in range(1, t.n + 1)}


def render_tikz(ls: LineSet) -> str:
    """Standalone TikZ document: boxes as nodes, labelled edges, gates dashed."""
    pos = _positions(ls)
    out = [
        r"\documentclass[tikz]{standalone}",
        r"\begin{document}",
        r"\begin{tikzpicture}[x=2.4em,y=1.8em,every node/.style={inner sep=2pt}]",
    ]
    for entry in sorted(pos):
        x, y = pos[entry]
        out.append(rf"\node (b{entry}) at ({x},{-y}) {{${entry}$}};")
    for ln in ls.lines:
        (x1, y1), (x2, y2) = pos[ln.i], pos[ln.j]
        style = "dashed" if ln.gated else ""
        label = "" if ls.step == 1 else rf" node[above,font=\scriptsize] {{${ln.label}$}}"
        if y1 == y2 and x2 - x1 == 1:
            path = "--"
        else:
            bend = 20 + 6 * abs(y2 - y1)
            path = f"to[bend left={bend}]"
        out.append(rf"\draw[{style}] (b{ln.i}) {path}{label} (b{ln.j});")
    out.append(r"\end{tikzpicture}")
    out.append(r"\end{document}")
    return "\n".join(out) + "\n"


_CELL_W = 44
_CELL_H = 40


def render_svg(ls: LineSet) -> str:
    """Self-contained SVG with entries as text and lines as labelled paths."""
    pos = _positions(ls)
    t = ls.tableau
    width = (len(t.composition.parts) + 1) * _CELL_W
    height = (t.height + 1) * _CELL_H + 20

    def xy(entry: int) -> tuple[int, int]:
        c, r = pos[entry]
        return c * _CELL_W, r * _CELL_H

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="14">'
    ]
    for ln in ls.lines:
        x1, y1 = xy(ln.i)
        x2, y2 = xy(ln.j)
        dash = ' stroke-dasharray="4 3"' if ln.gated else ""
        if y1 == y2 and x2 - x1 == _CELL_W:
            out.append(
                f'<line x1="{x1 + 10}" y1="{y1 - 5}" x2="{x2 - 10}" y2="{y2 - 5}" '
                f'stroke="black"{dash}/>'
            )
            mx, my = (x1 + x2) // 2, y1 - 10
        else:
            bend = 14 + 6 * abs(pos[ln.j][1] - pos[ln.i][1])
            cx, cy = (x1 + x2) // 2, min(y1, y2) - 5 - bend
            out.append(
                f'<path d="M {x1 + 8} {y1 - 6} Q {cx} {cy} {x2 - 8} {y2 - 6}" '
                f'fill="none" stroke="black"{dash}/>'
            )
            mx, my = cx, cy + 4
        if ls.step >= 2:
            out.append(f'<text x="{mx}" y="{my}" text-anchor="middle">{ln.label}</text>')
    for entry in sorted(pos):
        x, y = xy(entry)
        out.append(f'<text x="{x}" y="{y}" text-anchor="middle">{entry}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
