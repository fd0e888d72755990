"""The one CSV layout every report and point-set file uses.

A file is ``# key=value`` provenance lines, then a header row, then one
row per record.  Cells are written the same way everywhere: ``None`` as an
empty cell and floats (``np.float64`` included) as ``repr(float(v))``, so
a reader's ``float()`` gets back the exact value.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, fields


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 is a float subclass
        return repr(float(value))
    return value


def write_table(path, columns, rows, meta: dict | None = None) -> None:
    """Write ``rows`` (sequences of cells, in ``columns`` order) under the
    provenance lines of ``meta``; every line ends in ``\\n``."""
    with open(path, "w", newline="") as fh:
        for key, val in (meta or {}).items():
            fh.write(f"# {key}={_cell(val)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_records(path, cls, records, meta: dict | None = None) -> None:
    """Write dataclass records of type ``cls``, one column per field."""
    write_table(path, [f.name for f in fields(cls)], map(astuple, records), meta)
