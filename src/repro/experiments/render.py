"""Text rendering of experiment results.

The environment has no plotting stack, so every figure is reported as an
aligned text table of the same series the paper plots.  These helpers are
shared by the benchmark suite and the example scripts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: The quantiles :func:`render_cdf` prints.
CDF_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def render_series(
    title: str,
    series: Dict[str, List[Tuple[float, float]]],
    x_label: str = "x",
) -> str:
    """Tabulate several (x, y) series side by side on a shared x column.

    Series may have different x grids; missing cells print blank.
    """
    xs = sorted({x for points in series.values() for x, _ in points})
    names = list(series)
    lines = [title]
    header = f"{x_label:>10s} " + " ".join(f"{name:>12s}" for name in names)
    lines.append(header)
    lookup = {
        name: {round(x, 9): y for x, y in points} for name, points in series.items()
    }
    for x in xs:
        cells = []
        for name in names:
            y = lookup[name].get(round(x, 9))
            cells.append(f"{y:.3f}" if y is not None else "")
        lines.append(
            f"{x:>10.3f} " + " ".join(f"{cell:>12s}" for cell in cells)
        )
    return "\n".join(lines)


def render_cdf(title: str, values: Sequence[float]) -> str:
    """Summarize a CDF by its quantiles (one line per quantile)."""
    data = np.asarray(list(values), dtype=float)
    lines = [title, f"{'quantile':>10s} {'value':>12s}"]
    if len(data) == 0:
        lines.append("  (no data)")
        return "\n".join(lines)
    for q in CDF_QUANTILES:
        lines.append(f"{q:>10.2f} {float(np.quantile(data, q)):>12.4f}")
    return "\n".join(lines)


def render_scatter_summary(
    title: str, points: Sequence[Tuple[float, float]]
) -> str:
    """Summarize a scatter by correlation and relative deviation from x=y."""
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    lines = [title]
    if len(points) < 2:
        lines.append("  (insufficient data)")
        return "\n".join(lines)
    correlation = float(np.corrcoef(xs, ys)[0, 1])
    relative = np.abs(ys - xs) / np.maximum(xs, 1e-12)
    lines.append(f"  points:            {len(points)}")
    lines.append(f"  corr(x, y):        {correlation:.4f}")
    lines.append(f"  median |y-x|/x:    {float(np.median(relative)):.4f}")
    lines.append(f"  p90    |y-x|/x:    {float(np.quantile(relative, 0.9)):.4f}")
    return "\n".join(lines)
