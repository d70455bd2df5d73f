"""Self-test of the benchmark's tracer and metric names.

    python3 bench/selftest.py

For each workload (seed 0) it asserts that:
  * the tracer replaces every binding of every traced name and restores them;
  * wrapped constructors keep ``isinstance`` working;
  * the traced ``spectral.eigh.calls`` equals the number of
    ``numpy.linalg.eigh`` calls in the same round (``spectral.eigh`` is the
    only caller);
  * traced outputs, exit codes and printed text are byte-identical to
    untraced ones;
  * ``.calls``, ``.errors``, ``p3_sum`` and ``.bytes`` repeat exactly across
    two traced runs with the same seed;
and that the metric names in BENCHMARK.json are the ones the runs report.
"""

import argparse
import json
import os
import subprocess
import sys

import run
from tracer import LAYERS, Tracer, metric_units


def _outputs(runner, rnd):
    files = {}
    for op in runner.ops:
        outdir = runner.outdir(op)
        for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else []:
            with open(os.path.join(outdir, name), "rb") as fh:
                files[name] = fh.read()
    printed = [(code, out, err) for _, code, out, err in rnd.results]
    return files, printed


def check_bindings(problems):
    import artifact
    from artifact.shrinkage import ShrinkageRule

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "artifact"]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    originals = {id(getattr(sys.modules["artifact." + layer], name))
                 for layer, names in LAYERS.items() for name in names
                 if not isinstance(getattr(sys.modules["artifact." + layer], name), type)}
    tracer = Tracer()
    tracer.install()
    try:
        left = sorted("%s.%s" % (m.__name__, k) for m in modules for k, v in vars(m).items()
                      if id(v) in originals)
        if left:
            problems.append("bindings left unwrapped: %s" % left)
        rule = artifact.ShrinkageRule([1.0, 2.0, 3.0], 10, 3, 0.5)
        if not isinstance(rule, ShrinkageRule) or len(tracer) != 1:
            problems.append("wrapped constructor broke isinstance or recorded no span")
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    if any(after[key] is not value for key, value in before.items()):
        problems.append("uninstall did not restore every binding")
    if "__wrapped__" in vars(ShrinkageRule.__init__):
        problems.append("uninstall did not restore ShrinkageRule.__init__")


def check_workload(cli, workload, problems):
    import numpy as np

    with run.workdir("selftest-" + workload.name) as (indir, outroot):
        ops, _ = workload.make(indir, 0)
        runner = run.Runner(cli, ops, outroot)
        plain = _outputs(runner, runner.round())

        numpy_eigh = np.linalg.eigh
        counted = []

        def counting_eigh(*args, **kwargs):
            counted.append(1)
            return numpy_eigh(*args, **kwargs)

        np.linalg.eigh = counting_eigh
        tracer = Tracer()
        try:
            rnd = runner.round(tracer)
        finally:
            np.linalg.eigh = numpy_eigh
        traced = _outputs(runner, rnd)
    duration, own = tracer.self_times()
    metrics = tracer.round_metrics(*rnd.spans, duration, own)
    if metrics["spectral.eigh.calls"] != len(counted):
        problems.append("%s: traced spectral.eigh.calls %d != numpy.linalg.eigh calls %d"
                        % (workload.name, metrics["spectral.eigh.calls"], len(counted)))
    if plain != traced:
        problems.append("%s: traced outputs differ from untraced ones" % workload.name)


def counts_of(workload):
    child = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    if child.returncode != 0:
        raise RuntimeError("%s traced run failed: %s" % (workload, child.stderr[-2000:]))
    metrics = json.loads(child.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "B")}


def check_metric_names(problems):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end %s != %s" % (declared, run.END_TO_END))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = dict(metric_units(), **run.TRACE_EXTRAS)
    if declared != reported:
        problems.append("BENCHMARK.json per_layer differs from the reported metrics: %s"
                        % sorted(set(declared.items()) ^ set(reported.items())))


def main():
    run.pin_blas_threads()
    from workloads import WORKLOADS

    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    cli = run.import_cli()
    problems = []
    check_metric_names(problems)
    check_bindings(problems)
    for name in sorted(WORKLOADS):
        check_workload(cli, WORKLOADS[name], problems)
        first, second = counts_of(name), counts_of(name)
        if first != second:
            problems.append("%s: counts differ across runs: %s" % (name, sorted(
                k for k in first if first[k] != second.get(k))))
        print("checked %s" % name, flush=True)
    for problem in problems:
        print("FAIL %s" % problem)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
