"""CSV, config, and manifest helpers with atomic writes.

The format_* helpers render text; write_files is the one write path.  It
stages each file in a sibling temporary file and renames it into place, so a
failed run never leaves a partial output behind.
"""

import csv
import hashlib
import io
import os
import tempfile
import warnings

import numpy as np

from .errors import ParseError


def _looks_numeric(line):
    fields = [f.strip() for f in line.strip().split(",")]
    if not fields or any(f == "" for f in fields):
        return False
    try:
        for f in fields:
            float(f)
    except ValueError:
        return False
    return True


def read_matrix(path):
    """Read a dense comma-separated matrix; a single header line is tolerated."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first == "":
            raise ParseError("%s is empty" % path)
    skip = 0 if _looks_numeric(first) else 1
    try:
        with warnings.catch_warnings():
            # the empty-after-header case is reported as a ParseError below
            warnings.simplefilter("ignore")
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ParseError("%s is not a numeric CSV matrix: %s" % (path, exc)) from None
    if data.size == 0:
        raise ParseError("%s contains no numeric rows" % path)
    return data


def format_matrix(matrix, fmt="%.6g", header=None):
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [] if header is None else [",".join(header)]
    for row in rows:
        # Python floats format faster than numpy scalars.  One % per row is
        # faster still, but CPython 3.11 never reuses the 20-item argument
        # tuples it puts on its free list (about 0.4 MB per process).
        lines.append(",".join([fmt % v for v in row.tolist()]))
    return "\n".join(lines) + "\n"


def format_cell(value, fmt="%.6g"):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt % value
    return str(value)


def format_rows(rows, columns, fmt="%.6g"):
    """Render tidy records (dicts or sequences) as headed CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if isinstance(row, dict):
            row = [row[c] for c in columns]
        writer.writerow([format_cell(v, fmt) for v in row])
    return buf.getvalue()


def write_files(files):
    """Write several files all-or-nothing: stage every temp, then rename.

    `files` maps path -> text.  If any stage fails, no destination is touched.
    Renames follow the mapping's order: put a file that marks the run
    complete (a manifest) last, and it is never newer than the data it
    describes, even if a later rename fails.
    """
    staged = []
    try:
        for path in files:
            directory = os.path.dirname(os.path.abspath(path)) or "."
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(files[path])
            staged.append((tmp, path))
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def parse_config(path):
    """Read a flat key=value config file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(
                "%s:%d: expected key=value, got %r" % (path, lineno, raw.strip())
            )
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError("%s:%d: empty key" % (path, lineno))
        out[key] = value.strip()
    return out


def config_hash(mapping):
    """Stable sha256 over sorted key=value lines."""
    canon = "".join(
        "%s=%s\n" % (k, mapping[k]) for k in sorted(mapping)
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def format_manifest(mapping):
    return "".join("%s = %s\n" % (k, format_cell(mapping[k])) for k in sorted(mapping))
