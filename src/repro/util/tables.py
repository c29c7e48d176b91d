"""Plain-text table rendering for the benchmark harness.

Every table and figure of the paper is regenerated as an aligned text table
printed by the corresponding file under ``benchmarks/``.  This module keeps
the formatting in one place so all reproduced tables share a look.
"""

from typing import List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    align_left: Sequence[int] = (0,),
) -> str:
    """Render *rows* under *headers* as an aligned text table.

    Columns listed in *align_left* (by index) are left-aligned; all other
    columns are right-aligned, which suits numeric data.

    >>> print(render_table(["name", "n"], [["a", 1], ["bb", 22]]))
    name   n
    ----  --
    a      1
    bb    22
    """
    str_rows: List[List[str]] = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i in align_left:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt(list(headers)))
    lines.append(fmt(["-" * w for w in widths]))
    for row in str_rows:
        lines.append(fmt(row))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return "{:.2f}".format(value)
    return str(value)
