"""Tests for CSV/config/manifest reading and atomic writing."""

import os
from pathlib import Path

import numpy as np
import pytest

from artifact import ParseError
from artifact.fileio import (
    config_hash,
    format_cell,
    format_manifest,
    format_matrix,
    format_rows,
    parse_config,
    read_matrix,
    write_files,
)


def test_matrix_round_trip(tmp_path):
    path = str(tmp_path / "m.csv")
    m = np.array([[1.25, -3.5], [0.0, 4.0e-7]])
    write_files({path: format_matrix(m)})
    back = read_matrix(path)
    assert back.shape == (2, 2)
    assert np.allclose(back, m, rtol=1e-5)


def test_matrix_round_trip_with_header(tmp_path):
    path = str(tmp_path / "m.csv")
    write_files({path: format_matrix(np.eye(2), header=["a", "b"])})
    text = Path(path).read_text()
    assert text.splitlines()[0] == "a,b"
    assert np.allclose(read_matrix(path), np.eye(2))


def test_read_matrix_single_row_and_column(tmp_path):
    path = str(tmp_path / "v.csv")
    Path(path).write_text("1.5,2.5\n")
    assert read_matrix(path).shape == (1, 2)
    Path(path).write_text("1.5\n2.5\n")
    assert read_matrix(path).shape == (2, 1)


def test_format_matrix_uses_six_significant_digits():
    text = format_matrix([[1.2345678, 1e-7]])
    assert text == "1.23457,1e-07\n"


def per_cell_format(matrix, fmt="%.6g", header=None):
    """format_matrix as one % per numpy scalar, the reference for its output."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [] if header is None else [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt % v for v in row))
    return "\n".join(lines) + "\n"


def test_format_matrix_matches_per_cell_formatting():
    edge = np.array([[np.inf, -np.inf, np.nan], [-0.0, 5e-324, 1e300], [0.1, -2.5, 12345678.9]])
    for matrix, fmt in ((edge, "%.6g"), (edge, "%.17g"), (2.5, "%.6g"), (np.empty((3, 0)), "%.6g"),
                        (np.array([1.0, -0.0, np.nan]), "%.3e")):
        assert format_matrix(matrix, fmt) == per_cell_format(matrix, fmt)
    assert format_matrix(edge, header=["a", "b", "c"]) == per_cell_format(edge, header=["a", "b", "c"])


def test_read_matrix_rejects_bad_content(tmp_path):
    path = str(tmp_path / "bad.csv")
    Path(path).write_text("h1,h2\n1.0,oops\n")
    with pytest.raises(ParseError):
        read_matrix(path)
    Path(path).write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError):
        read_matrix(path)
    Path(path).write_text("")
    with pytest.raises(ParseError):
        read_matrix(path)
    Path(path).write_text("only,a,header\n")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_read_matrix_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(str(tmp_path / "nope.csv"))


def test_format_cell_types():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell(0.123456789) == "0.123457"
    assert format_cell("label") == "label"


def test_format_rows_from_dicts_and_lists():
    rows = [{"a": 1, "b": 2.5}, [3, 0.5]]
    text = format_rows(rows, ["a", "b"])
    assert text == "a,b\n1,2.5\n3,0.5\n"


def test_write_rows_round_trip(tmp_path):
    path = str(tmp_path / "rows.csv")
    write_files({path: format_rows([[1.0, 2.0]], ["x", "y"])})
    assert read_matrix(path).tolist() == [[1.0, 2.0]]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.txt")
    write_files({path: "hello\n"})
    assert Path(path).read_text() == "hello\n"
    assert os.listdir(str(tmp_path)) == ["out.txt"]


def test_write_files_all_or_nothing(tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "sub" / "b.txt")  # missing directory forces a failure
    with pytest.raises(OSError):
        write_files({a: "alpha", b: "beta"})
    assert os.listdir(str(tmp_path)) == []
    write_files({a: "alpha"})
    assert Path(a).read_text() == "alpha"


def test_parse_config_basics(tmp_path):
    path = str(tmp_path / "run.cfg")
    Path(path).write_text("# comment\nn = 50\nmethod=global # trailing\n\n")
    out = parse_config(path)
    assert out == {"n": "50", "method": "global"}


def test_parse_config_reports_line_numbers(tmp_path):
    path = str(tmp_path / "run.cfg")
    Path(path).write_text("n = 50\nnot a pair\n")
    with pytest.raises(ParseError, match=":2:"):
        parse_config(path)
    Path(path).write_text("= 3\n")
    with pytest.raises(ParseError, match=":1:"):
        parse_config(path)
    with pytest.raises(OSError):
        parse_config(str(tmp_path / "missing.cfg"))


def test_config_hash_is_order_insensitive_and_value_sensitive():
    a = config_hash({"x": "1", "y": "2"})
    b = config_hash({"y": "2", "x": "1"})
    c = config_hash({"x": "1", "y": "3"})
    assert a == b
    assert a != c
    assert len(a) == 64


def test_manifest_is_sorted_and_typed(tmp_path):
    text = format_manifest({"zeta": 1.5, "alpha": True, "mid": 3})
    assert text == "alpha = true\nmid = 3\nzeta = 1.5\n"
    path = str(tmp_path / "manifest.txt")
    write_files({path: format_manifest({"seed": 7})})
    assert Path(path).read_text() == "seed = 7\n"
