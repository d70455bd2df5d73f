"""Expected outputs of every op, stored per workload and input variant.

An op's outcome is its exit code, the names of the files in its output
directory and, for each file, its shape and a fixed set of cells (every cell
of a small file).  Manifests keep their ``result_*`` entries.  Two values
match when they differ by at most one unit in the sixth significant digit,
the round-off of the program's ``%.6g`` output, and by nothing more.

``python3 bench/references.py`` records references.json for every workload
from the code in ``src/``; run it only when a change of output values is intended.
"""

import csv
import io
import json
import math
import os
import random

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
ALL_CELLS = 256
SAMPLED_CELLS = 48
MANIFEST_SUFFIX = "_manifest.txt"


def load(workload, variant):
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload][str(variant)]


def _listing(outdir):
    return sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _manifest(text):
    pairs = (line.split(" = ", 1) for line in text.splitlines())
    return {key: value for key, value in pairs
            if key.startswith("result_") or key in ("subcommand", "outputs")}


def _cell_positions(n_rows, n_cols):
    if n_rows * n_cols <= ALL_CELLS:
        return [(i, j) for i in range(n_rows) for j in range(n_cols)]
    flat = random.Random(n_rows * 100003 + n_cols).sample(range(n_rows * n_cols), SAMPLED_CELLS)
    return [divmod(k, n_cols) for k in sorted(flat)]


def summarize(outdir, exit_code):
    """Reference record of one op's outcome."""
    files = {}
    for name in _listing(outdir):
        text = _read(os.path.join(outdir, name))
        if name.endswith(MANIFEST_SUFFIX):
            files[name] = {"manifest": _manifest(text)}
            continue
        rows = _rows(text)
        n_cols = len(rows[0])
        files[name] = {"rows": len(rows), "cols": n_cols,
                       "cells": [[i, j, rows[i][j]] for i, j in _cell_positions(len(rows), n_cols)]}
    return {"exit": exit_code, "files": files}


def close(expected, actual):
    """True when two printed cells agree up to the last printed digit."""
    if expected == actual:
        return True
    try:
        a, b = float(expected), float(actual)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.isnan(a) and math.isnan(b) or a == b
    if a == b:
        return True
    top = max(abs(a), abs(b))
    return abs(a - b) <= 10.0 ** (math.floor(math.log10(top)) - 5) * (1 + 1e-9)


def compare(expected, outdir, exit_code):
    """List every way an op's outcome differs from its reference record."""
    if exit_code != expected["exit"]:
        return ["exit code %r, expected %r" % (exit_code, expected["exit"])]
    names = _listing(outdir)
    if names != sorted(expected["files"]):
        return ["output files %s, expected %s" % (names, sorted(expected["files"]))]
    problems = []
    for name, want in expected["files"].items():
        text = _read(os.path.join(outdir, name))
        if "manifest" in want:
            got = _manifest(text)
            if sorted(got) != sorted(want["manifest"]):
                problems.append("%s: keys %s" % (name, sorted(got)))
            problems += ["%s: %s = %s, expected %s" % (name, key, got.get(key), value)
                         for key, value in want["manifest"].items()
                         if not close(value, got.get(key, ""))]
            continue
        rows = _rows(text)
        if len(rows) != want["rows"] or any(len(row) != want["cols"] for row in rows):
            problems.append("%s: shape differs from %d x %d" % (name, want["rows"], want["cols"]))
            continue
        problems += ["%s[%d,%d] = %s, expected %s" % (name, i, j, rows[i][j], value)
                     for i, j, value in want["cells"] if not close(value, rows[i][j])]
    return problems


if __name__ == "__main__":
    import run

    run.record_references()
