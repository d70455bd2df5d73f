"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload analyst-csv --seed 0 --seconds 50 --trace 0

One run is one process with one caller: it drives ``artifact.cli.main(argv)``
in-process as a closed loop, as a CLI user does, on inputs written from the
seed before timing starts.  After one untimed warm-up round, the workload's
op schedule repeats in timed rounds until the next round would pass
``--seconds``.  Before every round, two fresh processes time the import of
``artifact.cli`` (set-up time).  After each round, outside its timing, every op's exit code,
output files and values are checked against references.json.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics of the traced ones
and the tracing overhead, and writes every span under ``.bench_work/traces``.
The last line of standard output is the result as JSON; the line before it
holds the run's context: machine, inputs, rounds and failures.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import references
from tracer import BENCH_OP, Tracer, metric_units

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Set-up samples taken before every round (the warm-up round too), so that
# they come from the whole run and not from one noisy moment.
SETUP_PER_ROUND = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Untraced and traced rounds of a traced run follow in ABBA order, so warm-up
# and drift fall on both sides of the tracing overhead.  A traced run makes at
# least one full cycle, so that each side has two rounds and a spread.
TRACE_ORDER = (False, True, True, False)
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRAS = {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.overhead_spread_s": "s",
                "trace.unattributed": "ratio"}
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import artifact.cli; print(time.monotonic())")


def pin_blas_threads():
    """Run BLAS on one thread; must run before numpy is imported.

    One thread stays at or below nproc everywhere.  On a two-vCPU machine,
    two BLAS threads made the run-to-run spread of wall times two to three
    times wider.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def setup_time():
    """Time from the start of a fresh process until ``artifact.cli`` is imported."""
    start = time.monotonic()
    child = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], cwd=ROOT,
                           capture_output=True, text=True, check=True, timeout=120)
    return float(child.stdout.strip().splitlines()[-1]) - start


def import_cli():
    sys.path.insert(0, SRC)
    import artifact.cli

    if not os.path.abspath(artifact.cli.__file__).startswith(SRC + os.sep):
        raise ImportError("artifact was imported from %s, not %s" % (artifact.cli.__file__, SRC))
    return artifact.cli


@contextlib.contextmanager
def workdir(tag):
    """Fresh input and output directories under .bench_work, removed afterwards."""
    path = os.path.join(WORK, "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    indir, outroot = os.path.join(path, "in"), os.path.join(path, "out")
    os.makedirs(indir)
    os.makedirs(outroot)
    try:
        yield indir, outroot
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Round:
    def __init__(self, traced, wall, results, spans):
        self.traced = traced
        self.wall = wall
        self.results = results
        self.spans = spans


class Runner:
    """Runs a workload's op schedule in rounds and checks every op's outputs."""

    def __init__(self, cli, ops, outroot):
        self.cli = cli
        self.ops = ops
        self.outroot = outroot
        self.op_names = []

    def outdir(self, op):
        return os.path.join(self.outroot, op.name)

    def call(self, argv):
        """One op: (latency, exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                traceback.print_exc()
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def round(self, tracer=None):
        for op in self.ops:
            shutil.rmtree(self.outdir(op), ignore_errors=True)
        call = self.call
        if tracer is not None:
            call = tracer.wrap(BENCH_OP, self.call)
            tracer.install()
        first = len(tracer) if tracer is not None else 0
        results = []
        try:
            start = time.perf_counter()
            for op in self.ops:
                if tracer is not None:
                    tracer.op_id = len(self.op_names)
                self.op_names.append(op.name)
                results.append(call(op.argv + ["--prefix", op.name,
                                               "--output-dir", self.outdir(op)]))
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        spans = (first, len(tracer)) if tracer is not None else None
        return Round(tracer is not None, wall, results, spans)

    def failures(self, rnd, expected):
        """One message per op of the round whose outcome is wrong."""
        failed = []
        for op, (_, code, _, err) in zip(self.ops, rnd.results):
            problems = []
            if code != op.exit_code:
                problems.append("exit code %r, expected %r: %s" % (code, op.exit_code, err[-300:]))
            elif op.stderr_prefix and not err.startswith(op.stderr_prefix):
                problems.append("stderr %r does not start with %r" % (err[:200], op.stderr_prefix))
            problems += references.compare(expected[op.name], self.outdir(op), code)
            if problems:
                failed.append("%s: %s" % (op.name, "; ".join(problems[:3])))
        return failed


def measure(runner, expected, seconds, trace):
    """One warm-up round, then timed rounds until the next would pass `seconds`
    (at least one round, or one ABBA cycle when tracing).

    Set-up samples are taken before every round.  Every round's outputs are
    checked, the warm-up round's too.  Returns (timed rounds, set-up samples,
    failure messages, tracer, ops attempted).
    """
    setups = [setup_time() for _ in range(SETUP_PER_ROUND)]
    warmup = runner.round()
    failures = runner.failures(warmup, expected)
    tracer = Tracer() if trace else None
    rounds = []
    start = time.perf_counter()
    while True:
        setups += [setup_time() for _ in range(SETUP_PER_ROUND)]
        traced = trace and TRACE_ORDER[len(rounds) % len(TRACE_ORDER)]
        rnd = runner.round(tracer if traced else None)
        rounds.append(rnd)
        failures += runner.failures(rnd, expected)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= (len(TRACE_ORDER) if trace else 1) and elapsed + typical > seconds:
            return rounds, setups, failures, tracer, len(runner.ops) * (len(rounds) + 1)


def layer_metrics(rounds, tracer):
    """Median over traced rounds of every per-layer metric, plus tracing overhead.

    The overhead is the median traced round minus the median untraced one.
    Its spread is the larger of the two ranges of round walls; an overhead
    smaller than its spread is not resolved from the round-to-round noise.
    The unattributed share is the part of a traced round spent in no wrapped
    function below ``cli.main``: the CLI's own time plus the benchmark's.
    """
    duration, own = tracer.self_times()
    traced = [r for r in rounds if r.traced]
    per_round = [tracer.round_metrics(*r.spans, duration, own) for r in traced]
    units = dict(metric_units(), **TRACE_EXTRAS)
    # counts repeat exactly from round to round; median_low keeps them whole
    values = {name: (statistics.median if units[name] == "s" else statistics.median_low)(
        m[name] for m in per_round) for name in per_round[0]}
    traced_walls = [r.wall for r in traced]
    untraced_walls = [r.wall for r in rounds if not r.traced]
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(untraced_walls)
    values["trace.overhead_spread_s"] = max(max(walls) - min(walls)
                                            for walls in (traced_walls, untraced_walls))
    values["trace.unattributed"] = statistics.median(
        (m["cli.self_s"] + m["bench.self_s"]) / r.wall for m, r in zip(per_round, traced))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def blas_name():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "%s %s" % (blas.get("name"), blas.get("version"))


def main(argv=None):
    pin_blas_threads()
    from workloads import VARIANTS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "artifact", "cli.py")):
        print("error: no artifact package under %s" % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS

    cli = import_cli()
    expected = references.load(workload.name, variant)
    with workdir("%s-seed%d" % (workload.name, args.seed)) as (indir, outroot):
        ops, shapes = workload.make(indir, args.seed)
        input_bytes = sum(os.path.getsize(os.path.join(indir, f)) for f in os.listdir(indir))
        runner = Runner(cli, ops, outroot)
        rounds, setups, failures, tracer, attempted = measure(
            runner, expected, args.seconds, args.trace)

    untraced = [r for r in rounds if not r.traced]
    op_medians = {op.name: statistics.median(r.results[i][0] for r in untraced)
                  for i, op in enumerate(ops)}
    context = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "variant": variant, "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__,
        "blas": blas_name(), "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "inputs": shapes, "input_bytes": input_bytes, "ops": [op.name for op in ops],
        "rounds": len(untraced), "traced_rounds": len(rounds) - len(untraced),
        "round_wall_s": [r.wall for r in rounds], "op_median_s": op_medians,
        "op_latency_s": [[res[0] for res in r.results] for r in rounds],
        "setup_samples": len(setups),
        "fail_ratio": len(failures) / attempted, "failures": failures[:10],
    }
    if args.trace:
        metrics = layer_metrics(rounds, tracer)
        overhead = metrics["trace.overhead_s"]["value"]
        noise = metrics["trace.overhead_spread_s"]["value"]
        context["trace_overhead"] = {"overhead_s": overhead, "spread_s": noise,
                                     "resolved": abs(overhead) > noise}
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        spans = os.path.join(WORK, "traces", "%s-seed%d.json" % (workload.name, args.seed))
        tracer.dump(spans, runner.op_names)
        context["spans"] = os.path.relpath(spans, ROOT)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r.wall for r in untraced),
            "op_p50_s": statistics.median(statistics.median(res[0] for res in r.results)
                                          for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for failure in failures:
        print("FAILED %s" % failure, file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def record_references():
    """Rewrite the references of every workload from one round of every input variant."""
    pin_blas_threads()
    from workloads import VARIANTS, WORKLOADS

    cli = import_cli()
    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for variant in range(VARIANTS):
            with workdir("record-%s-%d" % (name, variant)) as (indir, outroot):
                ops, _ = workload.make(indir, variant)
                runner = Runner(cli, ops, outroot)
                rnd = runner.round()
                for op, (_, code, _, err) in zip(ops, rnd.results):
                    if code != op.exit_code or not err.startswith(op.stderr_prefix or ""):
                        raise RuntimeError("%s %s: exit %r %s" % (name, op.name, code, err))
                    table[name].setdefault(str(variant), {})[op.name] = \
                        references.summarize(runner.outdir(op), code)
            print("recorded %s variant %d" % (name, variant), flush=True)
    with open(references.PATH, "w", encoding="utf-8") as fh:
        json.dump({"variants": VARIANTS, "workloads": table}, fh, sort_keys=True,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
