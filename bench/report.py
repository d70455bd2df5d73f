"""Run every workload and print every metric by name with its unit.

    python3 bench/report.py [--seeds 0,1,2] [--workload NAME] [--baseline bench/baseline.json]

Each workload runs once per seed untraced (end-to-end metrics) and once
traced on the first seed (per-layer metrics), each run a fresh
``bench/run.py`` process.  The report gives, per workload, the median of
each end-to-end metric over the seeds with its quartile spread as a share of
the median, the failed share of ops, every per-layer metric, each layer's
share of the traced round, and the tracing overhead with its per-round
spread.  Runs last ``run_seconds`` of BENCHMARK.json.  The exit code is 1 when
any op produced a wrong outcome.  ``--baseline`` also writes all of it, with
the machine context and the predicted links below, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Which end-to-end metric each layer metric should move, on which workload:
# (layer metrics, end-to-end metrics, workload, expected effect).
PREDICTED_LINKS = [
    ("fileio.*.self_s", "wall_s op_p50_s peak_rss_mb", "analyst-csv", "moves"),
    ("fileio.*.self_s", "wall_s op_p50_s peak_rss_mb", "mixture-fit", "moves a little"),
    ("fileio.*.self_s", "any", "sim-study", "no change"),
    ("spectral.eigh.calls spectral.eigh.p3_sum spectral.spectral_apply.self_s "
     "regress.SourceBundle.self_s regress.fit_ols.self_s", "wall_s", "analyst-csv",
     "moves (4 factorizations per bundle)"),
    ("tuning.precision_diagonals.self_s", "wall_s", "analyst-csv", "moves"),
    ("tuning.precision_diagonals.self_s", "any", "mixture-fit sim-study", "no change"),
    ("tuning.select_bandwidth.self_s tuning.risk_estimate.self_s "
     "tuning.zeta_derivative_trace.self_s shrinkage.stein_transform.self_s "
     "shrinkage.ShrinkageRule.calls", "wall_s op_p50_s", "sim-study", "moves"),
    ("tuning.select_bandwidth.self_s tuning.risk_estimate.self_s "
     "tuning.zeta_derivative_trace.self_s shrinkage.stein_transform.self_s "
     "shrinkage.ShrinkageRule.calls", "wall_s op_p50_s", "analyst-csv", "minor"),
    ("tuning.*", "any", "mixture-fit", "no change"),
    ("shrinkage.empirical_loss.self_s", "wall_s", "sim-study", "moves"),
    ("shrinkage.empirical_loss.self_s", "any", "analyst-csv mixture-fit", "no change"),
    ("regress.local_shrink.self_s regress.local_shrink.sweep_s spectral.eigh.calls (small p)",
     "wall_s op_p50_s peak_rss_mb", "mixture-fit", "moves"),
    ("regress.local_shrink.self_s regress.local_shrink.sweep_s", "any",
     "analyst-csv sim-study", "no change"),
    ("cli.main.self_s, import-time work", "op_p50_s", "analyst-csv", "moves"),
    ("cli.main.self_s, import-time work", "setup_s", "all", "moves"),
]


def run_once(workload, seed, seconds, trace):
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = child.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError("%s seed %d trace %d printed no result (exit %d): %s"
                           % (workload, seed, trace, child.returncode, child.stderr[-2000:]))
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]

    report = {"seeds": seeds, "run_seconds": seconds, "workloads": {},
              "predicted_links": [dict(zip(("layer_metrics", "end_to_end", "workload", "effect"),
                                           link)) for link in PREDICTED_LINKS]}
    all_correct = True
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        context, traced = run_once(name, seeds[0], seconds, 1)
        attempted = sum(r["attempted"] for _, r in runs) + traced["attempted"]
        failed = sum(r["failed"] for _, r in runs) + traced["failed"]
        all_correct &= failed == 0 and traced["correct"] and all(r["correct"] for _, r in runs)
        print("== %s: %s" % (name, context["why"]))
        print("   inputs %s (%d bytes), %d ops per round, fail_ratio %d/%d = %g"
              % (context["inputs"], context["input_bytes"], len(context["ops"]),
                 failed, attempted, failed / attempted))
        e2e = {}
        for metric, unit in ((m, v["unit"]) for m, v in runs[0][1]["metrics"].items()):
            values = [r["metrics"][metric]["value"] for _, r in runs]
            row = {"unit": unit, "values": values, "median": statistics.median(values)}
            if len(values) >= 2:
                row["median"], row["spread"] = spread(values)
            e2e[metric] = row
            print("   %-12s %12.6g %-3s spread %s (bound %g)"
                  % (metric, row["median"], unit,
                     "%.4f" % row["spread"] if "spread" in row else "n/a", bounds[metric]))
        layers = traced["metrics"]
        wall = layers["trace.wall_s"]["value"]
        shares = {layer: layers[layer + ".self_s"]["value"] / wall
                  for layer in [*LAYERS, "bench"]}
        overhead = context["trace_overhead"]
        print("   traced round %.4f s, overhead %.4f s (per-round spread %.4f s, %s), "
              "unattributed %.4f; layer shares: %s"
              % (wall, overhead["overhead_s"], overhead["spread_s"],
                 "resolved" if overhead["resolved"] else "unresolved",
                 layers["trace.unattributed"]["value"],
                 ", ".join("%s %.1f%%" % (k, 100 * v) for k, v in shares.items())))
        for metric, m in layers.items():
            print("   %-46s %14.6g %s" % (metric, m["value"], m["unit"]))
        report["workloads"][name] = {
            "context": context, "fail_ratio": failed / attempted, "end_to_end": e2e,
            "per_layer": layers, "layer_self_share": shares,
            "function_self_share": {k[:-len(".self_s")]: m["value"] / wall
                                    for k, m in layers.items()
                                    if k.endswith(".self_s") and k.count(".") == 2},
        }
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("outputs %s" % ("correct" if all_correct else "WRONG"))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
