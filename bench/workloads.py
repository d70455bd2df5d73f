"""Benchmark workloads: seeded inputs and the fixed op schedule of each.

A workload writes its input files once, outside the timed phase, and hands
the program only files and flags.  Inputs come from one of VARIANTS seeded
variants (``seed % VARIANTS``) because the expected outputs of every variant
are stored with the benchmark in references.json.
"""

import os
import zlib

import numpy as np

VARIANTS = 16


class Op:
    """One CLI call and its expected outcome.

    The runner appends ``--prefix <name> --output-dir <dir>`` so every op
    writes into a directory of its own.
    """

    def __init__(self, name, argv, exit_code=0, stderr_prefix=None):
        self.name = name
        self.argv = list(argv)
        self.exit_code = exit_code
        self.stderr_prefix = stderr_prefix


def _write_csv(path, matrix):
    header = ",".join("c%d" % j for j in range(matrix.shape[1]))
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",", header=header, comments="")


def _regression(rng, samples, predictors, sources, coefficients):
    """Shared equicorrelated design and responses X B' + unit noise."""
    shared = rng.standard_normal((samples, 1))
    x = np.sqrt(0.7) * rng.standard_normal((samples, predictors)) + np.sqrt(0.3) * shared
    y = x @ coefficients.T + rng.standard_normal((samples, sources))
    return x, y


def _fit(name, design, response, method, *flags, **expected):
    return Op(name, ["fit", "--design", design, "--response", response, "--method", method,
                     *flags], **expected)


def analyst_csv(indir, rng, seed):
    n_samples, p, n_sources = 1000, 400, 800
    low_rank = rng.standard_normal((n_sources, 8)) @ rng.standard_normal((8, p))
    beta = 0.05 * low_rank + 0.02 * rng.standard_normal((n_sources, p))
    x, y = _regression(rng, n_samples, p, n_sources, beta)
    loadings = rng.standard_normal((60, 3))
    z = rng.standard_normal((800, 3)) @ loadings.T + rng.standard_normal((800, 60))
    sq_x, sq_y = _regression(rng, 100, 30, 30, 0.3 * rng.standard_normal((30, 30)))
    inputs = {"design.csv": x, "response.csv": y, "tune.csv": z,
              "square_design.csv": sq_x, "square_response.csv": sq_y}
    path = {name: os.path.join(indir, name) for name in [*inputs, "malformed.csv"]}
    for name, matrix in inputs.items():
        _write_csv(path[name], matrix)
    lines = [",".join("%.17g" % v for v in row) for row in x[:50, :10]]
    fields = lines[17].split(",")
    fields[3] = "n/a"
    lines[17] = ",".join(fields)
    with open(path["malformed.csv"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    design, response, tune = path["design.csv"], path["response.csv"], path["tune.csv"]
    ops = [
        _fit("fit-ols", design, response, "ols"),
        _fit("fit-global", design, response, "global"),
        _fit("fit-global-sure", design, response, "global-sure"),
        Op("crossval", ["crossval", "--design", design, "--response", response,
                        "--methods", "ols,global", "--folds", "5", "--seed", str(seed)]),
        Op("tune", ["tune", "--data", tune]),
        Op("shrink-curve", ["shrink-curve", "--data", tune]),
        _fit("malformed-csv", path["malformed.csv"], response, "ols",
             exit_code=2, stderr_prefix="error: io:"),
        _fit("sources-equal-predictors", path["square_design.csv"],
             path["square_response.csv"], "global",
             exit_code=3, stderr_prefix="error: precondition:"),
    ]
    shapes = {name: list(matrix.shape) for name, matrix in inputs.items()}
    shapes["malformed.csv"] = [50, 10]
    return ops, shapes


def mixture_fit(indir, rng, seed):
    n_samples, p, n_sources = 200, 20, 6000
    scale = np.where(rng.random(n_sources) < 0.5, 0.1, 1.0)
    beta = rng.standard_normal((n_sources, p)) * scale[:, None]
    x, y = _regression(rng, n_samples, p, n_sources, beta)
    design, response = os.path.join(indir, "design.csv"), os.path.join(indir, "response.csv")
    _write_csv(design, x)
    _write_csv(response, y)
    ops = [_fit("fit-local-%d" % k, design, response, "local-%d" % k, "--seed", str(seed))
           for k in (2, 3)]
    return ops, {"design.csv": list(x.shape), "response.csv": list(y.shape)}


def sim_study(indir, rng, seed):
    methods = ["--methods", "ols,global,global-sure", "--seed", str(seed)]
    ops = [
        Op("prial-desk", ["prial", "--np-product", "2000", "--seed", str(seed)]),
        Op("simulate-p10", ["simulate", "--design", "mix", "--n", "40", "--p", "10", *methods]),
        Op("simulate-p20", ["simulate", "--design", "lr", "--n", "40", "--p", "20", *methods]),
        Op("prial-large-p", ["prial", "--np-product", "400000", "--aspects", "0.5",
                             "--reps", "2", "--seed", str(seed)]),
    ]
    return ops, {}


class Workload:
    def __init__(self, name, why, build):
        self.name = name
        self.why = why
        self.build = build

    def make(self, indir, seed):
        """Write the seeded inputs under indir; return (ops, input shapes)."""
        variant = seed % VARIANTS
        stream = zlib.crc32(self.name.encode("ascii"))
        rng = np.random.default_rng(np.random.SeedSequence(variant, spawn_key=(stream,)))
        return self.build(indir, rng, variant)


WORKLOADS = {w.name: w for w in (
    Workload("analyst-csv",
             "CSV user fitting ols/global/global-sure and cross-validating at p=400: "
             "CSV parsing, Gram factorizations and precision diagonals all carry real shares",
             analyst_csv),
    Workload("mixture-fit",
             "many-sources user fitting 2- and 3-component mixtures: the sampler and many "
             "small eigh calls dominate, and its Gumbel array sets peak memory",
             mixture_fit),
    Workload("sim-study",
             "methods researcher with no input files: small-p prial/simulate cells bound by "
             "Python overhead in tuning and shrinkage, plus one BLAS-bound large-p prial cell",
             sim_study),
)}
