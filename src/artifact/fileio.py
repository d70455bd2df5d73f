"""CSV, config, and manifest helpers with atomic writes.

The format_* helpers render text; write_files is the one write path.  It
stages each file in a sibling temporary file and renames it into place, so a
failed run never leaves a partial output behind.

read_matrix keeps each parsed matrix in an on-disk cache keyed by the
file's content, so a CSV that several runs read is parsed once.  The cache
can only make a read faster: a read that hits returns the array that parsing
the same bytes returns, and any failure of the cache falls back to parsing.
"""

import contextlib
import csv
import hashlib
import io
import os
import re
import stat
import tempfile
import warnings

import numpy as np

from .errors import ParseError

# Least-recently-used entries are evicted after a write until the cache
# directory holds at most this many bytes.
CACHE_MAX_BYTES = 1 << 30
_BLOCK = 1 << 20
_NEWLINE = re.compile(rb"[\r\n]")
_CACHE_ERRORS = (OSError, ValueError, EOFError)
# Every float the package writes or prints has six significant digits.
_FLOAT = "%.6g"


def _cache_tag():
    """Seeds each digest with what decides the parse: this module's own code
    and numpy's version.  Any edit here, or a numpy whose parser may read the
    same bytes differently, starts a fresh set of keys."""
    code = hashlib.sha256(__loader__.get_data(__file__)).hexdigest()  # zip imports too
    return ("artifact read_matrix %s numpy %s\0" % (code, np.__version__)).encode("ascii")


_CACHE_TAG = _cache_tag()


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


def _cache_dir():
    """The cache directory, made 0700 if it is new; None when there is no
    absolute home to put it in, or when the directory is not this user's alone."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):  # no HOME and no passwd entry: never under the cwd
        return None
    directory = os.path.join(base, "artifact", "matrices")
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)  # entries come from user data
        st = os.lstat(directory)
    except OSError:
        return None
    # makedirs leaves an existing directory's owner and mode as they are, and
    # anyone who can write to it can plant an entry for a known input
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid() or st.st_mode & 0o077:
        return None
    return directory


def _stamp(st):
    return st.st_ino, st.st_size, st.st_mtime_ns


def _scan(path):
    """One pass over the file: (content digest, first line, stamp before reading)."""
    digest = hashlib.sha256(_CACHE_TAG)
    first, first_done, empty = bytearray(), False, True
    with open(path, "rb") as fh:
        stamp = _stamp(os.fstat(fh.fileno()))
        for block in iter(lambda: fh.read(_BLOCK), b""):
            digest.update(block)
            empty = False
            if not first_done:
                newline = _NEWLINE.search(block)
                first += block if newline is None else block[:newline.start()]
                first_done = newline is not None
    if empty:
        raise ParseError("%s is empty" % path)
    return digest.hexdigest(), bytes(first), stamp


def _parse(path, first):
    try:
        skip = 0 if _looks_numeric(first.decode("utf-8")) else 1
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (path, exc)) from None
    try:
        with warnings.catch_warnings():
            # the empty-after-header case is reported as a ParseError below
            warnings.simplefilter("ignore")
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2,
                              encoding="utf-8")
    except ValueError as exc:  # UnicodeDecodeError included
        raise ParseError("%s is not a numeric CSV matrix: %s" % (path, exc)) from None
    if data.size == 0:
        raise ParseError("%s contains no numeric rows" % path)
    return data


def _load_entry(entry):
    """The cached matrix, or None unless the entry holds a non-empty 2-D float64 array."""
    try:
        with open(entry, "rb") as fh:
            data = np.load(fh, allow_pickle=False)
    except _CACHE_ERRORS:
        return None
    if not (isinstance(data, np.ndarray) and data.dtype == np.float64
            and data.ndim == 2 and data.size > 0):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)  # a hit makes the entry the most recently used
    return data


def _store(entry, data):
    directory = os.path.dirname(entry)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, data, allow_pickle=False)
        os.replace(tmp, entry)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _evict(directory, entry)


def _evict(directory, keep):
    """Remove the least recently used files until the directory fits CACHE_MAX_BYTES.

    Every regular file counts, so temporaries that a killed run left behind
    are evicted too; `keep`, the entry just written, never is.
    """
    files = []
    with os.scandir(directory) as it:
        for item in it:
            if item.is_file(follow_symlinks=False):
                st = item.stat(follow_symlinks=False)
                files.append((st.st_mtime_ns, item.path, st.st_size))
    total = sum(size for _, _, size in files)
    for _, path, size in sorted(files):
        if total <= CACHE_MAX_BYTES:
            break
        if path != keep:
            with contextlib.suppress(FileNotFoundError):  # another run evicted it
                os.unlink(path)
            total -= size


def read_matrix(path):
    """Read a dense comma-separated matrix; a single header line is tolerated.

    The parse is cached under $XDG_CACHE_HOME/artifact/matrices (default
    ~/.cache) by the digest of the file's bytes.  A file edited while it is
    read is not cached, and a file that does not parse leaves no entry.
    """
    digest, first, stamp = _scan(path)
    directory = _cache_dir()
    if directory is None:
        return _parse(path, first)
    entry = os.path.join(directory, digest + ".npy")
    data = _load_entry(entry)
    if data is not None:
        return data
    data = _parse(path, first)
    with contextlib.suppress(*_CACHE_ERRORS):
        # a changed stamp means the parse may not be of the bytes hashed
        if _stamp(os.stat(path)) == stamp:
            _store(entry, data)
    return data


def format_matrix(matrix, header=None):
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    n, m = rows.shape
    lines = [] if header is None else [",".join(header)]
    if n:
        # One % over every cell, with the row pattern repeated per row, on
        # Python floats (they format faster than numpy scalars).  The n * m
        # argument tuple is freed whole afterwards: a tuple that large never
        # goes on CPython's free list, which keeps only small ones.
        pattern = "\n".join([",".join([_FLOAT] * m)] * n)
        lines.append(pattern % tuple(rows.ravel().tolist()))
    return "\n".join(lines) + "\n"


def format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FLOAT % value
    return str(value)


def format_rows(rows, columns):
    """Render tidy records (dicts or sequences) as headed CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if isinstance(row, dict):
            row = [row[c] for c in columns]
        writer.writerow([format_cell(v) for v in row])
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
