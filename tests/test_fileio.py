"""Tests for CSV/config/manifest reading and atomic writing."""

import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from artifact import ParseError, fileio
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


CACHE_CASES = {
    "header": ("a,b,c\n1.5,-2,3e-7\n4,5,6\n", 1),
    "no-header": ("1.5,-2,3e-7\n4,5,6\n", 0),
    "one-row": ("0.1,0.2,0.3,0.4\n", 0),
    "one-column": ("x\r\n0.1\r\n-0.0\r\n1e300\r\n", 1),
}


def parsed(path, skip):
    """The parse path's result, independent of read_matrix."""
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def assert_same(actual, expected):
    assert actual.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def write_case(path, name):
    text, skip = CACHE_CASES[name]
    Path(path).write_bytes(text.encode("ascii"))
    return parsed(path, skip)


def cache_files(cache):
    return sorted(os.listdir(cache)) if cache.exists() else []


def entry_of(cache, path):
    return cache / (fileio._scan(path)[0] + ".npy")


def no_parsing(*args, **kwargs):
    raise AssertionError("the cache should have answered")


@pytest.mark.parametrize("name", sorted(CACHE_CASES))
def test_warm_read_equals_cold_read(tmp_path, monkeypatch, private_matrix_cache, name):
    path = str(tmp_path / "m.csv")
    expected = write_case(path, name)
    cold = read_matrix(path)
    assert_same(cold, expected)
    assert cache_files(private_matrix_cache) == [entry_of(private_matrix_cache, path).name]
    assert oct(os.stat(private_matrix_cache).st_mode & 0o777) == "0o700"
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", no_parsing)
        warm = read_matrix(path)
    assert_same(warm, expected)


@pytest.mark.parametrize("name", ["header", "no-header"])
def test_first_line_spanning_blocks(tmp_path, monkeypatch, name):
    path = str(tmp_path / "m.csv")
    expected = write_case(path, name)
    digest = fileio._scan(path)[0]
    monkeypatch.setattr(fileio, "_BLOCK", 3)
    assert fileio._scan(path)[0] == digest
    assert_same(read_matrix(path), expected)


def test_changed_content_misses(tmp_path, private_matrix_cache):
    path = str(tmp_path / "m.csv")
    expected = write_case(path, "no-header")
    assert_same(read_matrix(path), expected)
    Path(path).write_text("1.5,-2,3e-7\n4,5,7\n")  # same size, another value
    assert_same(read_matrix(path), parsed(path, 0))
    assert len(cache_files(private_matrix_cache)) == 2


@pytest.mark.parametrize("bad", ["truncated", "float32", "pickled", "one-dimensional"])
def test_bad_entry_is_ignored_and_replaced(tmp_path, private_matrix_cache, bad):
    path = str(tmp_path / "m.csv")
    expected = write_case(path, "header")
    read_matrix(path)
    entry = entry_of(private_matrix_cache, path)
    if bad == "truncated":
        entry.write_bytes(entry.read_bytes()[:-5])
    elif bad == "float32":
        np.save(entry, expected.astype(np.float32))
    elif bad == "pickled":
        np.save(entry, np.array([{"a": 1}], dtype=object), allow_pickle=True)
    else:
        np.save(entry, expected.ravel())
    assert_same(read_matrix(path), expected)
    assert_same(np.load(entry, allow_pickle=False), expected)
    assert cache_files(private_matrix_cache) == [entry.name]


@pytest.mark.parametrize("failure", ["not-a-directory", "disk-full", "no-home"])
def test_unusable_cache_falls_back_to_parsing(tmp_path, monkeypatch, private_matrix_cache,
                                               failure):
    path = str(tmp_path / "m.csv")
    expected = write_case(path, "header")
    if failure == "not-a-directory":
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    elif failure == "no-home":
        # no HOME and no passwd entry: expanduser leaves "~" as it is
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setattr(os.path, "expanduser", lambda p: p)
        monkeypatch.chdir(tmp_path)
    else:
        def full_disk(fh, *args, **kwargs):
            fh.write(b"\x93NUMPY")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "save", full_disk)
    assert_same(read_matrix(path), expected)
    assert cache_files(private_matrix_cache) == []
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["m.csv"] + (["blocker"] if failure == "not-a-directory" else []))


@pytest.mark.parametrize("exposure", ["world-writable", "another-owner"])
def test_cache_directory_not_private_is_not_used(tmp_path, monkeypatch, private_matrix_cache,
                                                 exposure):
    path = str(tmp_path / "m.csv")
    expected = write_case(path, "header")
    private_matrix_cache.mkdir(parents=True)
    planted = entry_of(private_matrix_cache, path)
    np.save(planted, expected + 1.0)
    if exposure == "world-writable":
        private_matrix_cache.chmod(0o777)
    else:
        private_matrix_cache.chmod(0o700)
        uid = private_matrix_cache.stat().st_uid
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert_same(read_matrix(path), expected)
    assert_same(np.load(planted), expected + 1.0)  # neither read nor replaced
    assert cache_files(private_matrix_cache) == [planted.name]


def test_cache_key_covers_the_parse_code(tmp_path, monkeypatch, private_matrix_cache):
    source = Path(fileio.__file__).read_bytes()
    assert hashlib.sha256(source).hexdigest().encode() in fileio._CACHE_TAG
    assert np.__version__.encode() in fileio._CACHE_TAG
    path = str(tmp_path / "m.csv")
    expected = write_case(path, "header")
    read_matrix(path)
    monkeypatch.setattr(fileio, "_CACHE_TAG", fileio._CACHE_TAG + b"edited")
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", no_parsing)
        with pytest.raises(AssertionError, match="cache should have answered"):
            read_matrix(path)  # another tag misses the old entry
    assert_same(read_matrix(path), expected)
    assert len(cache_files(private_matrix_cache)) == 2


def test_malformed_csv_leaves_no_entry(tmp_path, private_matrix_cache):
    path = str(tmp_path / "bad.csv")
    for content in (b"h1,h2\n1.0,oops\n", b"1.0,2.0\n3.0\n", b"a,\xe9\n1,2\n",
                    b"only,a,header\n"):
        Path(path).write_bytes(content)
        with pytest.raises(ParseError):
            read_matrix(path)
    assert cache_files(private_matrix_cache) == []


def test_eviction_keeps_the_most_recently_used(tmp_path, monkeypatch, private_matrix_cache):
    paths = [str(tmp_path / ("m%d.csv" % k)) for k in range(4)]
    for k, path in enumerate(paths):
        Path(path).write_text("%d,1\n2,3\n" % k)
    read_matrix(paths[0])
    size = entry_of(private_matrix_cache, paths[0]).stat().st_size
    monkeypatch.setattr(fileio, "CACHE_MAX_BYTES", 2 * size)
    read_matrix(paths[1])
    entries = [entry_of(private_matrix_cache, path) for path in paths]
    for age, entry in enumerate(entries[:2]):  # m0 older than m1
        os.utime(entry, ns=(10**18 + age, 10**18 + age))
    read_matrix(paths[0])  # a hit makes m0 the most recently used
    read_matrix(paths[2])
    assert cache_files(private_matrix_cache) == sorted(e.name for e in (entries[0], entries[2]))
    monkeypatch.setattr(fileio, "CACHE_MAX_BYTES", 1)  # smaller than any entry
    assert_same(read_matrix(paths[3]), parsed(paths[3], 0))
    assert cache_files(private_matrix_cache) == [entries[3].name]


def test_edit_during_read_is_not_cached(tmp_path, monkeypatch, private_matrix_cache):
    path = str(tmp_path / "m.csv")
    write_case(path, "no-header")
    loadtxt = np.loadtxt

    def edit_then_parse(*args, **kwargs):
        Path(path).write_text("7,8,9\n")
        return loadtxt(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", edit_then_parse)
        assert_same(read_matrix(path), np.array([[7.0, 8.0, 9.0]]))
    assert cache_files(private_matrix_cache) == []
    assert_same(read_matrix(path), np.array([[7.0, 8.0, 9.0]]))
    assert cache_files(private_matrix_cache) == [entry_of(private_matrix_cache, path).name]


def test_format_matrix_uses_six_significant_digits():
    text = format_matrix([[1.2345678, 1e-7]])
    assert text == "1.23457,1e-07\n"


def per_cell_format(matrix, header=None):
    """format_matrix as one % per numpy scalar, the reference for its output."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [] if header is None else [",".join(header)]
    for row in rows:
        lines.append(",".join("%.6g" % v for v in row))
    return "\n".join(lines) + "\n"


def test_format_matrix_matches_per_cell_formatting():
    edge = np.array([[np.inf, -np.inf, np.nan], [-0.0, 5e-324, 1e300], [0.1, -2.5, 12345678.9]])
    for matrix in (edge, 2.5, np.empty((3, 0)), np.array([1.0, -0.0, np.nan])):
        assert format_matrix(matrix) == per_cell_format(matrix)
    # with and without a header, down to no rows ("\n" alone, or the header
    # line alone) and one cell
    for matrix in (edge, np.empty((0, 3)), np.empty((0, 0)), np.empty((2, 0)), np.array([]),
                   np.array([[-0.0]]), np.array([[np.nan]]), np.array([[-np.inf]])):
        columns = ["c%d%%s" % j for j in range(np.atleast_2d(matrix).shape[1])]
        for header in (None, columns):
            assert format_matrix(matrix, header=header) == per_cell_format(matrix, header=header)
    assert format_matrix(np.empty((0, 3))) == "\n"
    assert format_matrix(np.empty((0, 2)), header=["a", "b"]) == "a,b\n"


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
