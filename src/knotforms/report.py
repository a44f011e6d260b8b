"""Deterministic report rendering: aligned text or machine key=value lines.

A report is an ordered list of (key, value) pairs; values are rendered to
strings once, in order, so identical inputs and flags always produce
byte-identical output.
"""

from __future__ import annotations

from .exact import Matrix
from .laurent import Laurent, render_poly


class ReportDocument:
    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def add(self, key: str, value) -> "ReportDocument":
        self.items.append((key, format_value(value)))
        return self

    def render(self, mode: str = "text") -> str:
        if mode == "machine":
            lines = [f"{key}={value}" for key, value in self.items]
            return "\n".join(lines) + "\n"
        if mode != "text":
            raise ValueError(f"unknown output mode {mode!r}")
        lines = []
        width = max((len(k) for k, _ in self.items), default=0)
        for key, value in self.items:
            if "\n" in value:
                first, *rest = value.split("\n")
                lines.append(f"{key.ljust(width)} : {first}")
                lines.extend(f"{' ' * width}   {r}" for r in rest)
            else:
                lines.append(f"{key.ljust(width)} : {value}")
        return "\n".join(lines) + "\n"


def format_value(value) -> str:
    if isinstance(value, Laurent):
        return render_poly(value)
    if isinstance(value, Matrix):
        return format_matrix(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    return str(value)


def format_matrix(m: Matrix) -> str:
    if m.nrows == 0 or m.ncols == 0:
        return f"<empty {m.nrows}x{m.ncols}>"
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in m.rows) + "]"


def format_table(headers: list[str], rows: list[list[str]], mode: str = "text") -> str:
    if mode == "machine":
        lines = ["\t".join(headers)]
        lines.extend("\t".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"
