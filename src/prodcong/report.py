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
from pathlib import Path
from typing import Any, Optional

SCHEMA_VERSION = 1


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
    """One command's report; columns default to the keys of the first row.
    Values are written as given, so they must be plain Python values: None,
    bool, int, float, str, and lists and dicts of them."""

    command: str
    config: dict
    rows: list[dict]
    summary: dict
    columns: Optional[list[str]] = None

    def __post_init__(self):
        if self.columns is None:
            if not self.rows:
                raise ValueError("a report without rows needs explicit columns")
            self.columns = list(self.rows[0])

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
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
