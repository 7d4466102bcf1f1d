"""Output layer: the CSV data files and the run manifest that audits them.

A manifest captures what a command did (resolved arguments, physical
parameters, gauge, derived constants), what it measured (named constants
and pass/fail checks, each with its value and bound), and what it wrote
(file names with content hashes).  Two runs with the same inputs produce
identical manifests up to the timestamp field, which comparison tooling
drops.

Every CSV data file goes through ``write_csv``: a header row, comma
separators, ``\\r\\n`` line ends, floats as ``%.17g`` (so they round-trip
exactly) and constant text columns written verbatim, quoted only where
they hold a comma, a quote or a line break.
"""
from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .algebra import DerivedConstants

__all__ = ["TOOL_VERSION", "RunManifest", "file_sha256", "write_csv", "write_json"]

TOOL_VERSION = "0.1.0"

# Rows formatted per write.  Formatting a whole file in one go holds all of
# its text and a Python float per value at once, which raised the peak
# memory of a 50k-row figure-1 run by about 12 MiB; blocks of 1024 rows
# format as fast and keep the peak within 0.3 MiB of a per-row writer's.
CSV_BLOCK_ROWS = 1024


def _csv_text(text: str) -> str:
    """A text cell, quoted only where csv.writer's minimal quoting would."""
    if any(c in text for c in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def write_csv(path, header, columns) -> None:
    """Write a CSV data file from whole columns.

    ``header`` gives each column a non-empty name.  Each entry of ``columns`` is either a
    1-D float array, one value per row, or a constant: a string written
    verbatim in every row, or a float written as ``%.17g``.  At least one
    column must be an array, and all arrays must have the same length.
    The bytes equal those of ``csv.writer`` fed ``format(x, ".17g")`` per
    value, with its default ``\\r\\n`` line ends.
    """
    if len(header) != len(columns) or not all(header):
        raise ValueError(
            "need one non-empty name per column, got %r for %d columns"
            % (tuple(header), len(columns))
        )
    arrays = []
    cells = []
    for col in columns:
        if isinstance(col, str):
            cells.append(_csv_text(col).replace("%", "%%"))
        elif np.ndim(col) == 0:
            cells.append("%.17g" % float(col))
        else:
            arrays.append(np.asarray(col, dtype=float))
            cells.append("%.17g")
    if not arrays or any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("columns need at least one array, all 1-D of one length")
    row = ",".join(cells) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_text(name) for name in header) + "\r\n")
        for start in range(0, len(arrays[0]), CSV_BLOCK_ROWS):
            block = np.column_stack([a[start : start + CSV_BLOCK_ROWS] for a in arrays])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_json(path, obj) -> None:
    """Write a JSON report: sorted keys, two-space indent, a final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's content, streamed in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Mutable record built up while a command runs, then serialised once.

    ``arguments`` holds the fully resolved settings (defaults, config file
    and flags already merged) so the manifest alone reproduces the run.
    Output paths are recorded by basename: manifests must not depend on
    where the output directory happened to live.  ``dc`` supplies the
    params, gauge and derived_constants blocks.
    """

    command: str
    arguments: dict
    dc: DerivedConstants | None = None
    tool_version: str = TOOL_VERSION
    measured_constants: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def check(
        self, name: str, value: float, hi: float, lo: float | None = None
    ) -> None:
        """Record a named check that passes when lo <= value <= hi.

        ``lo`` None leaves the range open below; its side of the recorded
        ``bound`` is then null.  A NaN value fails, as it compares false
        with any bound.
        """
        value = float(value)
        passed = (lo is None or lo <= value) and value <= hi
        self.checks.append(
            {"name": name, "passed": passed, "value": value, "bound": [lo, hi]}
        )

    def add_measured(self, name: str, value: float) -> None:
        self.measured_constants[name] = float(value)

    def add_output(self, path) -> None:
        """Hash an already-written data file into the outputs list."""
        self.outputs.append(
            {"path": os.path.basename(str(path)), "sha256": file_sha256(path)}
        )

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        derived = params = gauge = None
        if self.dc is not None:
            derived = dataclasses.asdict(self.dc)
            params, gauge = derived.pop("params"), derived.pop("gauge")
        return {
            "command": self.command,
            "arguments": self.arguments,
            "tool_version": self.tool_version,
            "params": params,
            "gauge": gauge,
            "derived_constants": derived,
            "measured_constants": self.measured_constants,
            "checks": self.checks,
            "outputs": self.outputs,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }

    def write(self, path, **blocks) -> None:
        """Write the manifest, with ``blocks`` as further top-level keys."""
        write_json(path, dict(self.to_dict(), **blocks))
