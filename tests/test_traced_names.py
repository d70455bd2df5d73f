"""Every name the benchmark tracer wraps must exist in its layer's module.

The tracer in bench/tracer.py wraps the names in its LAYERS table through
getattr, and BENCHMARK.json declares per-layer metrics for them, so deleting
or renaming one of those functions breaks the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_exists_in_its_layer():
    missing = [
        "artifact.%s.%s" % (layer, name)
        for layer, names in load_layers().items()
        for name in names
        if not callable(getattr(importlib.import_module("artifact." + layer), name, None))
    ]
    assert missing == []
