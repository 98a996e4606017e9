"""Deterministic CSV and JSON emission.

Every artifact embeds provenance in its header: the package version, a short
hash of the effective run configuration, and the seed.  Numbers are written
with repr-level precision so a file re-parses to the values that produced it;
nothing locale- or time-dependent is ever written, which is what makes
byte-level comparison across thread counts a meaningful test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

VERSION = "0.1.0"


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def config_hash(mapping: dict) -> str:
    """Short stable digest of an effective configuration."""
    blob = "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def csv_bytes(meta: dict, columns, rows) -> bytes:
    """Render a CSV artifact: '#' metadata lines, then the header and data
    rows through the csv module, which quotes a cell holding a comma or a
    quote."""
    out = io.StringIO()
    for k in sorted(meta):
        out.write(f"# {k}: {meta[k]}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([format_value(v) for v in row] for row in rows)
    return out.getvalue().encode()


def _typed(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def parse_csv(data: bytes):
    """Invert csv_bytes: (meta, columns, rows) with typed cells."""
    meta, body = {}, []
    for line in data.decode().splitlines():
        if line.startswith("#"):
            k, _, v = line[1:].partition(":")
            meta[k.strip()] = v.strip()
        elif line:
            body.append(line)
    table = list(csv.reader(body))
    columns = table[0] if table else None
    return meta, columns, [tuple(_typed(c) for c in r) for r in table[1:]]


def json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
