"""Plain-text table/series formatting for the benchmark harness.

Each benchmark regenerates one experiment's table or figure series; these
helpers render them uniformly so `pytest benchmarks/ --benchmark-only`
output reads like the evaluation section of a paper.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table with a title banner."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells))

    out: List[str] = []
    out.append("")
    out.append("=" * max(len(title), sum(widths) + 2 * (len(widths) - 1)))
    out.append(title)
    out.append("=" * max(len(title), sum(widths) + 2 * (len(widths) - 1)))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    for row in rendered_rows:
        out.append(line(row))
    out.append("")
    return "\n".join(out)


def ratio(a: float, b: float) -> str:
    if b == 0:
        return "inf"
    return f"{a / b:.2f}x"
