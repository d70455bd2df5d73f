"""Outside-in tracer for the artifact package.

The tracer wraps the public functions of each layer (the package modules)
from outside the program.  Every module binds the names it imports in its own
namespace (``from .spectral import eigh``), so a wrapper replaces every
binding of the original object in every ``artifact`` module.  Constructors
are wrapped as ``__init__`` on the class itself, so ``isinstance`` keeps
working.  ``uninstall`` puts every original back.

Each call records one span: name, start, end, parent span, op id, whether an
exception escaped, and a work count for the few functions that have one.
Spans stay in flat in-memory arrays until the run writes them out.
"""

import array
import functools
import inspect
import json
import os
import sys
import time

# Layer name -> wrapped public names.  Class names wrap the constructor.
LAYERS = {
    "spectral": ("eigh", "spectral_apply", "sample_covariance"),
    "shrinkage": ("ShrinkageRule", "stein_transform", "stein_transform_derivative",
                  "shrink_covariance", "empirical_loss"),
    "tuning": ("precision_diagonals", "risk_estimate", "zeta_derivative_trace",
               "select_bandwidth"),
    "regress": ("SourceBundle", "fit_ols", "global_shrink", "local_shrink"),
    "simlab": ("simulate_sources", "run_experiment", "prial_experiment"),
    "fileio": ("read_matrix", "format_matrix", "format_rows", "write_files"),
    "cli": ("main",),
}

# The benchmark's own span around each op; its self time is the benchmark's
# share of a traced round.
BENCH_OP = "bench.op"


def _dim(matrix):
    dim = getattr(matrix, "dim", None)
    return int(dim) if dim is not None else len(matrix)


# Work counted per call, from the call's bound arguments.
WORK = {
    "spectral.eigh": lambda a: _dim(a["matrix"]) ** 3,
    "fileio.read_matrix": lambda a: os.path.getsize(a["path"]),
    "fileio.write_files": lambda a: sum(len(text.encode("utf-8"))
                                       for text in a["files"].values()),
    "regress.local_shrink": lambda a: int(a["sweeps"]),
}

# Extra per-layer metrics built from the work counts: name -> (key, unit).
EXTRAS = {
    "spectral.eigh.p3_sum": ("spectral.eigh", "count"),
    "fileio.read_matrix.bytes": ("fileio.read_matrix", "B"),
    "fileio.write_files.bytes": ("fileio.write_files", "B"),
}
SWEEP_METRIC = "regress.local_shrink.sweep_s"


def metric_units():
    """Every per-layer metric the tracer reports, in a fixed order, with its unit."""
    units = {}
    for key in ("%s.%s" % (layer, name) for layer, names in LAYERS.items() for name in names):
        units[key + ".calls"] = "count"
        units[key + ".busy_s"] = "s"
        units[key + ".self_s"] = "s"
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
        units[layer + ".errors"] = "count"
    for name, (_, unit) in EXTRAS.items():
        units[name] = unit
    units[SWEEP_METRIC] = "s"
    units["bench.self_s"] = "s"
    return units


class Tracer:
    """Span recorder that patches the artifact layers while installed."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.error = array.array("b")
        self.work = array.array("d")
        self.op_id = -1
        self._stack = []
        self._undo = []

    def __len__(self):
        return len(self.start)

    def _intern(self, key):
        if key not in self._name_index:
            self._name_index[key] = len(self.names)
            self.names.append(key)
        return self._name_index[key]

    def wrap(self, key, fn):
        """Return fn wrapped so that each call records a span named key."""
        name_id = self._intern(key)
        count_work = WORK.get(key)
        signature = inspect.signature(fn) if count_work else None
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = 0.0
            if count_work is not None:
                # a call the function itself rejects (bad arguments, missing
                # file) counts no work and fails inside the function as usual
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = count_work(bound.arguments)
                except (AttributeError, OSError, TypeError, ValueError):
                    pass
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.error.append(0)
            self.work.append(work)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[index] = 1
                raise
            finally:
                self.end[index] = clock()
                stack.pop()

        return traced

    def install(self):
        """Patch every binding of every traced name in every artifact module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "artifact" or name.startswith("artifact."))]
        for layer, names in LAYERS.items():
            home = sys.modules["artifact." + layer]
            for name in names:
                original = getattr(home, name)
                key = "%s.%s" % (layer, name)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._undo.append((original, "__init__", init))
                    original.__init__ = self.wrap(key, init)
                    continue
                wrapped = self.wrap(key, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, value))
                            setattr(module, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self):
        """Per-span self time: duration minus the time its child spans cover."""
        duration = [e - s for s, e in zip(self.start, self.end)]
        own = list(duration)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= duration[index]
        return duration, own

    def round_metrics(self, lo, hi, duration, own):
        """Per-layer metrics over spans lo..hi-1 (one traced round)."""
        units = metric_units()
        values = {name: 0.0 if unit == "s" else 0 for name, unit in units.items()}
        work = {}
        for index in range(lo, hi):
            key = self.names[self.name_id[index]]
            layer = key.split(".", 1)[0]
            values[key + ".self_s"] = values.get(key + ".self_s", 0.0) + own[index]
            values[layer + ".self_s"] = values.get(layer + ".self_s", 0.0) + own[index]
            if key == BENCH_OP:
                continue
            values[key + ".calls"] += 1
            values[key + ".busy_s"] += duration[index]
            work[key] = work.get(key, 0.0) + self.work[index]
            parent = self.parent[index]
            if self.error[index] and (
                    parent < 0 or self.names[self.name_id[parent]].split(".", 1)[0] != layer):
                values[layer + ".errors"] += 1
        for name, (key, _) in EXTRAS.items():
            values[name] = int(work.get(key, 0))
        sweeps = work.get("regress.local_shrink", 0.0)
        values[SWEEP_METRIC] = values["regress.local_shrink.busy_s"] / sweeps if sweeps else 0.0
        values.pop(BENCH_OP + ".self_s", None)
        return values

    def dump(self, path, op_names):
        """Write every span as JSON: name, start, end, parent, op id, error, work."""
        spans = [[self.names[n], s, e, p, o, bool(err), w] for n, s, e, p, o, err, w in zip(
            self.name_id, self.start, self.end, self.parent, self.op, self.error, self.work)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "error", "work"],
                       "ops": op_names, "spans": spans}, fh)
