"""Tabular figure data with paper-style text rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["FigureData"]


def _fmt(v: Any) -> str:
    """One table cell: floats to 3 significant or 2 decimal digits."""
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e4 or abs(v) < 1e-2:
            return f"{v:.3g}"
        return f"{v:,.2f}"
    return str(v)


def _parse(cell: str) -> Any:
    """The int or float that :func:`_fmt` prints as ``cell``, else ``cell``."""
    for cast in (int, float):
        try:
            value = cast(cell.replace(",", ""))
        except ValueError:
            continue
        if _fmt(value) == cell:
            return value
    return cell


@dataclass
class FigureData:
    """One regenerated figure: labelled columns and data rows.

    ``meta`` carries figure-level scalars (e.g. fitted r², chosen
    regression transform) that the paper reports in prose.
    """

    name: str
    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def add_row(self, *values: Any) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[Any]:
        """All values of one column."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_text(self) -> str:
        """Render as an aligned text table with the title and metadata."""
        body = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in body))
            if body else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.name}: {self.title} =="]
        header = " | ".join(c.rjust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in body:
            lines.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
        for key, value in self.meta.items():
            lines.append(f"  {key}: {_fmt(value)}")
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "FigureData":
        """Parse a :meth:`to_text` table back; ``to_text`` reproduces it.

        Each cell becomes the int or float that prints as exactly that
        cell (``1,473.94``, ``1.18e+04``, ``0``), else stays a string.
        Rows are the lines as wide as the header; the ``  key: value``
        lines after them are the meta.
        """
        head, header, _rule, *rest = text.rstrip("\n").split("\n")
        name, _, title = head[len("== "):-len(" ==")].partition(": ")
        columns = [c.strip() for c in header.split(" | ")]
        fig = cls(name=name, title=title, columns=columns)
        for line in rest:
            cells = line.split(" | ")
            if not fig.meta and len(line) == len(header) \
                    and len(cells) == len(columns):
                fig.rows.append([_parse(c.strip()) for c in cells])
            else:
                key, _, value = line.strip().partition(": ")
                fig.meta[key] = _parse(value)
        return fig

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
