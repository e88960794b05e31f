"""Method-comparison tables: summary.csv and summary.md.

One row per method with the four macro metrics in the fixed column order
Dice, Jaccard, HD, ASSD; overlap metrics as percentages, distances in mm,
everything printed with two decimals. The published whole-heart baseline
at 64-cube resolution is embedded as a static reference row so desk-scale
runs always render next to the reference numbers.

The optional HD95 variant never enters these summaries; it lives only in
the per-case report.json files, clearly labeled.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidReport, IoFailure
from .volume import json_fields, read_json, write_file

#: Published reference row (64-cube whole-heart baseline): macro Dice and
#: Jaccard in percent, HD and ASSD in mm. Static documentation values, not
#: something this package can reproduce at desk scale.
REFERENCE_METHOD = "published_64cube_baseline"
REFERENCE_DICE_PCT = 90.85
REFERENCE_JACCARD_PCT = 83.63
REFERENCE_HD_MM = 7.64
REFERENCE_ASSD_MM = 1.03

COLUMNS = ("dice_pct", "jaccard_pct", "hd_mm", "assd_mm")
_HEADERS = ("Dice (%)", "Jaccard (%)", "HD (mm)", "ASSD (mm)")


def reference_row() -> dict[str, float | str]:
    return {
        "method": REFERENCE_METHOD,
        "dice_pct": REFERENCE_DICE_PCT,
        "jaccard_pct": REFERENCE_JACCARD_PCT,
        "hd_mm": REFERENCE_HD_MM,
        "assd_mm": REFERENCE_ASSD_MM,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def report_files(run_dir: str | os.PathLike) -> list[str]:
    """The per-case ``report_*.json`` paths of one run directory, sorted by name."""
    run_dir = os.fspath(run_dir)
    try:
        names = os.listdir(run_dir)
    except OSError as exc:
        raise IoFailure(f"cannot list {run_dir}: {exc}") from exc
    return [os.path.join(run_dir, f) for f in sorted(names)
            if f.startswith("report_") and f.endswith(".json")]


def aggregate_run(run_dir: str | os.PathLike) -> dict[str, float | str | None]:
    """Mean macro metrics over the per-case report JSONs in one run directory.

    The method name is the directory basename. Cases where a metric is
    absent are excluded from that metric's mean. A run without reports, or
    a report without a ``macro`` object of numbers, raises InvalidReport.
    """
    run_dir = os.fspath(run_dir)
    files = report_files(run_dir)
    if not files:
        raise InvalidReport(f"no report_*.json files in {run_dir}")
    keys = ("dice", "jaccard", "hd_mm", "assd_mm")
    values: dict[str, list[float]] = {key: [] for key in keys}
    for path in files:
        doc = read_json(path, None, InvalidReport)
        with json_fields(path, InvalidReport):
            macro = doc["macro"]
            for key in keys:
                value = macro.get(key)
                if value is None:
                    continue
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise InvalidReport(f"{path}: macro {key} is {value!r}, not a number")
                values[key].append(value)
    row: dict[str, float | str | None] = {"method": os.path.basename(os.path.normpath(run_dir))}
    for key, col in zip(keys, COLUMNS):
        vals = values[key]
        if not vals:
            row[col] = None
        else:
            mean = float(np.mean(vals))
            row[col] = 100.0 * mean if col.endswith("_pct") else mean
    return row


def write_summary_csv(rows: list[dict], path: str | os.PathLike) -> None:
    lines = ["method," + ",".join(COLUMNS)]
    for row in rows:
        lines.append(str(row["method"]) + "," + ",".join(_fmt(row[c]) for c in COLUMNS))
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_summary_md(rows: list[dict], path: str | os.PathLike) -> None:
    lines = [
        "| Method | " + " | ".join(_HEADERS) + " |",
        "|---|" + "---|" * len(_HEADERS),
    ]
    for row in rows:
        lines.append(
            "| " + str(row["method"]) + " | " + " | ".join(_fmt(row[c]) for c in COLUMNS) + " |"
        )
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def build_summary(run_dirs: list[str | os.PathLike]) -> list[dict]:
    return [reference_row()] + [aggregate_run(d) for d in run_dirs]
