"""Text rendering for tables and figure series (paper artifacts)."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: str = "",
) -> str:
    """Fixed-width ASCII table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(line)
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(out)


def render_score_series(
    scores: Sequence[float],
    threshold: float,
    labels: Optional[Sequence[str]] = None,
    height: int = 12,
    title: str = "",
) -> str:
    """ASCII scatter of anomaly scores with the threshold line (Figure 4).

    Each column is one window; ``*`` marks the score, ``-`` the threshold
    row, and the footer annotates attack-type spans when labels are given.
    """
    if not scores:
        return f"{title}\n(no data)"
    peak = max(max(scores), threshold) * 1.05 or 1.0
    rows = []
    threshold_row = height - 1 - int(threshold / peak * (height - 1))
    for level in range(height):
        cells = []
        for score in scores:
            score_row = height - 1 - int(score / peak * (height - 1))
            if level == score_row:
                cells.append("*")
            elif level == threshold_row:
                cells.append("-")
            else:
                cells.append(" ")
        value = peak * (height - 1 - level) / (height - 1)
        rows.append(f"{value:8.3f} |" + "".join(cells))
    out = []
    if title:
        out.append(title)
    out.extend(rows)
    out.append(" " * 9 + "+" + "-" * len(scores))
    if labels is not None:
        marks = []
        current = None
        for label in labels:
            symbol = "." if not label else label[0].upper()
            marks.append(symbol)
            current = label
        out.append(" " * 10 + "".join(marks))
        legend = sorted({label for label in labels if label})
        if legend:
            out.append(
                "legend: "
                + ", ".join(f"{label[0].upper()}={label}" for label in legend)
                + ", .=benign"
            )
    out.append(f"threshold = {threshold:.4f} (row of '-')")
    return "\n".join(out)
