"""Text rendering of experiment outputs in the paper's shape.

Benchmarks print the same rows/series the paper reports; these helpers keep
the formatting consistent (aligned tables, labeled series) and provide the
ratio arithmetic the paper's headline claims use ("at least 86 % faster").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def percent_faster(new_value: float, old_value: float) -> float:
    """How much faster *new_value* is than *old_value*, in percent.

    ``percent_faster(186, 100) == 86.0`` — the paper's "86 % faster" form.
    """
    if old_value <= 0:
        raise ValueError(f"baseline must be positive: {old_value}")
    return (new_value / old_value - 1.0) * 100.0


def percent_less(new_value: float, old_value: float) -> float:
    """How much smaller *new_value* is than *old_value*, in percent
    (the paper's "just 12 % less than" form)."""
    if old_value <= 0:
        raise ValueError(f"baseline must be positive: {old_value}")
    return (1.0 - new_value / old_value) * 100.0


@dataclass
class Series:
    """A named (x, y) series, e.g. throughput vs pattern count."""

    name: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)

    def append(self, x, y) -> None:
        """Add one (x, y) point."""
        self.xs.append(x)
        self.ys.append(y)

    def __len__(self) -> int:
        return len(self.xs)

    def format(self, x_label: str = "x", y_label: str = "y") -> str:
        """Render as aligned text."""
        lines = [f"series: {self.name}"]
        width = max((len(str(x)) for x in self.xs), default=1)
        for x, y in zip(self.xs, self.ys):
            y_text = f"{y:.3f}" if isinstance(y, float) else str(y)
            lines.append(f"  {x_label}={x!s:<{width}}  {y_label}={y_text}")
        return "\n".join(lines)

    def ascii_plot(self, width: int = 40) -> str:
        """A horizontal-bar rendering of the series (0 .. max scaled)."""
        if not self.ys:
            return f"series: {self.name} (empty)"
        peak = max(self.ys)
        lines = [f"series: {self.name}"]
        x_width = max(len(str(x)) for x in self.xs)
        for x, y in zip(self.xs, self.ys):
            bar = "#" * (round(width * y / peak) if peak > 0 else 0)
            y_text = f"{y:.1f}" if isinstance(y, float) else str(y)
            lines.append(f"  {x!s:>{x_width}} |{bar:<{width}}| {y_text}")
        return "\n".join(lines)


def plot_series_together(series_list, width: int = 40) -> str:
    """Several series on a shared scale — a text stand-in for a figure."""
    peak = max((max(s.ys) for s in series_list if s.ys), default=0)
    blocks = []
    for series in series_list:
        lines = [f"series: {series.name}"]
        x_width = max((len(str(x)) for x in series.xs), default=1)
        for x, y in zip(series.xs, series.ys):
            bar = "#" * (round(width * y / peak) if peak > 0 else 0)
            y_text = f"{y:.1f}" if isinstance(y, float) else str(y)
            lines.append(f"  {x!s:>{x_width}} |{bar:<{width}}| {y_text}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


@dataclass
class Table:
    """A simple aligned text table."""

    title: str
    columns: list
    rows: list = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append a row; cell count must match the columns."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([self._render(v) for v in values])

    @staticmethod
    def _render(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def format(self) -> str:
        """Render as aligned text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        header = "  ".join(
            column.ljust(widths[index]) for index, column in enumerate(self.columns)
        )
        separator = "  ".join("-" * width for width in widths)
        body = [
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            for row in self.rows
        ]
        return "\n".join([self.title, header, separator, *body])

    def print(self) -> None:
        """Print with a leading blank line."""
        print()
        print(self.format())


def write_results(results: dict, path) -> None:
    """Write a benchmark result dict as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
