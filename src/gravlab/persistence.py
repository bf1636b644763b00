"""Deterministic result persistence: CSV/JSON writers, hashes, plot scripts.

Output files must hash identically across reruns of the same manifest, so
everything here is bit-deterministic: JSON with sorted keys and LF endings,
RFC-4180 CSV with CRLF rows and scientific notation at 10 significant digits,
and gnuplot scripts that reference data files by relative name only.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence


def format_number(value) -> str:
    """Scientific notation with >= 9 significant digits; inf/nan spelled out."""
    if value is None:
        return ""
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return f"{float(value):.9e}"


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        line = ",".join(["%.9e"] * len(header)) + "\r\n"   # format_number's spelling
        for row in rows:
            # np.float64 too: the same bytes, faster
            if len(row) == len(header) and all(isinstance(v, float) for v in row):
                handle.write(line % tuple(row))
            else:
                writer.writerow([v if isinstance(v, str) else format_number(v) for v in row])
    return path


def canonical_json(payload) -> str:
    """The canonical text form used for hashing: UTF-8, sorted keys, LF."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def json_digest(payload) -> str:
    """sha256 of the compact sorted-key JSON form: the content digest of specs and models."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(payload), encoding="utf-8")
    return path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_plot_script(path: Path, data_file: str, columns: Sequence[tuple[int, int, str]],
                      xlabel: str, ylabel: str, logy: bool = False) -> Path:
    """Emit a gnuplot-compatible plain-text script next to its CSV.

    ``columns`` lists (x_column, y_column, title) pairs, 1-based as gnuplot
    counts them.  No images are rendered here; plotting stays a user action.
    """
    lines = [
        "# gnuplot script; run: gnuplot -persist " + path.name,
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
    ]
    if logy:
        lines.append("set logscale y")
    plots = ", ".join(
        f'"{data_file}" using {x}:{y} with lines title "{title}"' for x, y, title in columns
    )
    lines.append("plot " + plots)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
