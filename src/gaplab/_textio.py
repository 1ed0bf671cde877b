"""Minimal CSV-with-metadata-header reading and writing, and the JSON writer.

Files carry their provenance as `# key = <json>` lines before the column
header, so every output can be parsed back into the run that produced it.
Floats are written with repr for lossless, byte-stable round trips.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DataError


def write_table(path, metadata: dict, columns: list, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key} = {json.dumps(value, sort_keys=True)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path, payload: dict):
    """One indented, key-sorted JSON document per file, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def read_table(path):
    """Returns (metadata, columns, rows-as-string-lists)."""
    metadata = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, sep, value = body.partition("=")
                if sep:
                    try:
                        metadata[key.strip()] = json.loads(value.strip())
                    except json.JSONDecodeError as exc:
                        raise DataError(f"bad metadata line {line!r}") from exc
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    if columns is None:
        raise DataError(f"no column header found in {path}")
    return metadata, columns, rows
