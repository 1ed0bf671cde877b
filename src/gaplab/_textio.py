"""The CSV-with-metadata-header writer and the JSON writer.

Files carry their provenance as `# key = <json>` lines before the column
header: the `config` line replayed through --config reproduces the file.
Floats are written with repr, so a reader gets back the exact values (the
tests hold the reader, in tests/conftest.py).
"""

from __future__ import annotations

import json

import numpy as np


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
