"""CSV and table output with deterministic, round-trippable number formatting."""

from __future__ import annotations

import csv
import math

import numpy as np

from .energy import Configuration
from .fractal import _word_text


def fmt_float(x) -> str:
    """17 significant digits: enough to reload any double bit-exactly."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def fmt_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_table(path, header, rows, comment=None):
    """CSV with an optional leading '# ...' convention line, then a header row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([fmt_value(v) for v in row] for row in rows)


def read_table(path):
    """(header, rows-of-strings), skipping '#' comment lines."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        lines = [ln for ln in handle if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def configuration_to_csv(config: Configuration, path):
    p = config.dim
    header = [f"x{k + 1}" for k in range(p)]
    if config.addresses is not None:
        header.append("address")
    rows = config.points.tolist()
    if config.addresses is not None:
        for row, word in zip(rows, config.addresses):
            row.append(_word_text(word))
    comment = (
        f"point configuration ({config.fractal_label or 'unlabeled'}); "
        "riesz energies use the ordered-pair convention (i != j counted twice)"
    )
    write_table(path, header, rows, comment=comment)
