"""ASCII line plots (matplotlib is not available offline).

The figure renderers use these to draw the shape of each figure directly in
the terminal, so "who wins and where the crossover falls" is visible without
any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_line_plot", "ascii_membership_plot", "ascii_heatmap"]

_MARKERS = "ox+*#@%&"

#: Density ramp of :func:`ascii_heatmap`, lightest to darkest.
_HEAT_RAMP = " .:-=+*#%@"


def ascii_line_plot(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 70,
    height: int = 20,
    y_label: str = "",
    x_label: str = "",
    title: str = "",
) -> str:
    """Render one or more series against a shared x axis as an ASCII plot."""
    if not series:
        raise ValueError("at least one series is required")
    if width < 10 or height < 5:
        raise ValueError(f"plot area too small: {width}x{height}")
    for label, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} points but the x axis has {len(x_values)}"
            )
    if len(x_values) < 2:
        raise ValueError("at least two x values are required")

    all_y = [v for values in series.values() for v in values]
    y_min, y_max = min(all_y), max(all_y)
    if y_max - y_min < 1e-12:
        y_min -= 1.0
        y_max += 1.0
    x_min, x_max = min(x_values), max(x_values)
    if x_max - x_min < 1e-12:
        raise ValueError("x values are all identical")

    grid = [[" " for _ in range(width)] for _ in range(height)]

    def to_col(x: float) -> int:
        return int(round((x - x_min) / (x_max - x_min) * (width - 1)))

    def to_row(y: float) -> int:
        return int(round((y_max - y) / (y_max - y_min) * (height - 1)))

    for series_index, (label, values) in enumerate(series.items()):
        marker = _MARKERS[series_index % len(_MARKERS)]
        for x, y in zip(x_values, values):
            grid[to_row(y)][to_col(x)] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        y_at_row = y_max - (y_max - y_min) * row_index / (height - 1)
        lines.append(f"{y_at_row:8.2f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(f"{'':9}{x_min:<10.1f}{x_label:^{max(width - 20, 0)}}{x_max:>10.1f}")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]} = {label}" for i, label in enumerate(series)
    )
    lines.append("legend: " + legend)
    if y_label:
        lines.append(f"y axis: {y_label}")
    return "\n".join(lines)


def ascii_heatmap(
    x_values: Sequence[float],
    y_values: Sequence[float],
    values: Sequence[Sequence[float]],
    ramp: str = _HEAT_RAMP,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render a ``(len(y_values), len(x_values))`` grid as an ASCII heatmap.

    The natural companion of the engines' tensorized ``control_surface``:
    row ``i`` of ``values`` holds the outputs for ``y_values[i]`` across all
    ``x_values``, and darker ramp characters mean larger values.  Rows are
    printed top-down from the largest ``y`` so the orientation matches a
    conventional plot.
    """
    if len(ramp) < 2:
        raise ValueError("ramp needs at least two characters")
    if not len(x_values) or not len(y_values):
        raise ValueError("x and y axes must be non-empty")
    rows = [list(row) for row in values]
    if len(rows) != len(y_values) or any(len(row) != len(x_values) for row in rows):
        raise ValueError(
            f"values must form a {len(y_values)}x{len(x_values)} grid, "
            f"got {len(rows)} rows of lengths {sorted({len(row) for row in rows})}"
        )
    flat = [value for row in rows for value in row]
    v_min, v_max = min(flat), max(flat)
    span = v_max - v_min
    scale = (len(ramp) - 1) / span if span > 1e-12 else 0.0

    def shade(value: float) -> str:
        return ramp[int(round((value - v_min) * scale))]

    lines: list[str] = []
    if title:
        lines.append(title)
    for row_index in range(len(y_values) - 1, -1, -1):
        cells = "".join(shade(value) for value in rows[row_index])
        lines.append(f"{y_values[row_index]:8.2f} |{cells}")
    lines.append(" " * 9 + "+" + "-" * len(x_values))
    x_min, x_max = x_values[0], x_values[-1]
    if len(x_values) >= 22:
        # Wide grid: pin the endpoint values under the axis edges with the
        # label centred between them (mirrors ascii_line_plot).
        lines.append(
            f"{'':9}{x_min:<10.2f}{x_label:^{len(x_values) - 20}}{x_max:>10.2f}"
        )
    else:
        label = f"  {x_label}" if x_label else ""
        lines.append(f"{'':9}{x_min:g} .. {x_max:g} on x{label}")
    lines.append(
        f"scale: {ramp[0]!r} = {v_min:.3f} ... {ramp[-1]!r} = {v_max:.3f}"
        + (f"   ({y_label} on y)" if y_label else "")
    )
    return "\n".join(lines)


def ascii_membership_plot(
    term_samples: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 70,
    height: int = 12,
    title: str = "",
) -> str:
    """Render membership functions (term -> list of (x, mu) samples)."""
    if not term_samples:
        raise ValueError("at least one term is required")
    xs = sorted({x for samples in term_samples.values() for x, _ in samples})
    series = {}
    for term, samples in term_samples.items():
        lookup = {x: mu for x, mu in samples}
        series[term] = [lookup.get(x, 0.0) for x in xs]
    return ascii_line_plot(
        xs, series, width=width, height=height, y_label="membership", title=title
    )
