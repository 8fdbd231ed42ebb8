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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def write_table(path, header, rows, comment=None):
    """CSV with an optional leading '# ...' convention line, then a header row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_value(v) for v in row])


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
    rows = []
    for i in range(config.n):
        row = [fmt_float(v) for v in config.points[i]]
        if config.addresses is not None:
            row.append(_word_text(config.addresses[i]))
        rows.append(row)
    comment = (
        f"point configuration ({config.fractal_label or 'unlabeled'}); "
        "riesz energies use the ordered-pair convention (i != j counted twice)"
    )
    write_table(path, header, rows, comment=comment)
