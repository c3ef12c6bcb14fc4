"""Report artifacts: deterministic JSON documents plus CSV correlation tables.

A report separates the deterministic payload (everything derived from the
config) from a ``timing`` block, so two runs of the same config produce
byte-identical payloads.  Output files are append-only: an existing path
is never overwritten, a numbered sibling is written instead.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from pathlib import Path

from .config import RunConfig, emit_config

SCHEMA_VERSION = 1

CSV_COLUMNS = ("distance", "alpha", "beta", "flavor", "re", "im", "abs")


def _sha256():
    """CPython's built-in SHA-256; ``hashlib`` would load OpenSSL for it."""
    try:
        return importlib.import_module(
            "_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
        import hashlib
        return hashlib.sha256


def config_hash(cfg: RunConfig) -> str:
    return _sha256()(emit_config(cfg).encode()).hexdigest()[:16]


def render_report(payload: dict, timing: dict | None = None) -> str:
    """Serialize with sorted keys; timing sits outside the payload."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "payload": payload,
        "timing": timing or {},
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def deterministic_part(text: str) -> str:
    """The report minus its timing block, for run-to-run comparison."""
    document = json.loads(text)
    document.pop("timing", None)
    return json.dumps(document, sort_keys=True, indent=2)


def correlation_csv(rows: list[dict]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in CSV_COLUMNS})
    return buf.getvalue()


def fresh_path(path: str | Path) -> Path:
    """First non-existing variant of ``path`` (path, path-1, path-2, ...)."""
    base = Path(path)
    if not base.exists():
        return base
    for k in range(1, 10_000):
        candidate = base.with_name(f"{base.stem}-{k}{base.suffix}")
        if not candidate.exists():
            return candidate
    raise OSError(f"no free output name near {base}")


def write_artifact(path: str | Path, text: str) -> Path:
    target = fresh_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target
