"""Opt-in output of the benchmarks' ``BENCH_*.json`` records.

Every benchmark asserts its gates on every run, but writes its record
into the committed ``BENCH_*.json`` files at the repository root only
when ``REPRO_BENCH_WRITE=1`` is set — so a plain test run leaves the
working tree clean.  Refresh the records and the tables rendered from
them with::

    REPRO_BENCH_WRITE=1 PYTHONPATH=src python -m pytest benchmarks -q
    PYTHONPATH=src python benchmarks/render_bench_tables.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Environment switch that enables writing the records.
WRITE_ENV_VAR = "REPRO_BENCH_WRITE"


def write_enabled() -> bool:
    return os.environ.get(WRITE_ENV_VAR) == "1"


def write_bench_json(path: Path, payload: dict) -> None:
    """Write ``payload`` to ``path`` when writing is enabled."""
    if write_enabled():
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
