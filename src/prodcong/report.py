"""Deterministic JSON/CSV experiment reports.

Reports carry no timestamps: identical configuration (including the seed)
produces byte-identical bodies. JSON and CSV emissions of a run hold the same
row data; CSV is header + rows only, the JSON document adds the config echo
and the summary block.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

import numpy as np

SCHEMA_VERSION = 1


def _native(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    return value


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class Report:
    """One command's report; columns default to the keys of the first row."""

    command: str
    config: dict
    rows: list[dict]
    summary: dict
    columns: Optional[list[str]] = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.columns is None:
            if not self.rows:
                raise ValueError("a report without rows needs explicit columns")
            self.columns = list(self.rows[0])
        self.config = _native(self.config)
        self.rows = [_native(r) for r in self.rows]
        self.summary = _native(self.summary)

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": self.config,
            "columns": self.columns,
            "rows": self.rows,
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_cell(row.get(col)) for col in self.columns])
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")

    def write(self, out: Optional[str], fmt: str) -> None:
        body = self.render(fmt)
        if out is None:
            sys.stdout.write(body)
        else:
            Path(out).write_bytes(body.encode("utf-8"))
