"""Command-line front end.

Subcommands: fit, tune, shrink-curve, simulate, crossval, prial.  Options can
come from a flat key=value config file (--config) and are overridden by
flags.  Outputs are CSVs plus a manifest per run, written all-or-nothing.
Exit codes: 0 success, 2 I/O or parse failure, 3 precondition violation,
4 numerical failure.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    ArtifactError,
    DimensionError,
    DomainError,
    InputError,
    InsufficientDataError,
    ParseError,
    RegimeError,
)
from .fileio import (
    config_hash,
    format_manifest,
    format_matrix,
    format_rows,
    parse_config,
    read_matrix,
    write_files,
)
from .regress import SourceBundle, fit_ols, global_shrink, local_shrink, predictive_error
from .shrinkage import shrink_covariance
from .simlab import (
    COEFFICIENT_DESIGNS,
    ExperimentResult,
    estimate_with_method,
    parse_method,
    prial_experiment,
    run_experiment,
)
from .spectral import sample_covariance
from .tuning import default_bandwidth_grid, precision_diagonals, select_bandwidth

OUTPUT_DIR_ENV = "ARTIFACT_OUTPUT_DIR"

DESIGN_ALIASES = {
    "lr": "low-rank",
    "as": "all-small",
    "hs": "heavy-tail",
    "mix": "scale-mixture",
}

_PRECONDITION_ERRORS = (
    InputError,
    DimensionError,
    DomainError,
    RegimeError,
    InsufficientDataError,
)


def fmt(value):
    return "%.6g" % value


def _cast_float_list(text):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError("expected a comma-separated list of numbers, got %r" % text)


def _cast_str_list(text):
    return [tok.strip() for tok in str(text).split(",") if tok.strip() != ""]


def _cast_bandwidth(text):
    value = str(text).strip().lower()
    if value in ("default", "auto"):
        return value
    try:
        return float(value)
    except ValueError:
        raise DomainError("--h must be 'default', 'auto', or a positive number")


def _cast_int(text):
    try:
        return int(str(text).strip())
    except ValueError:
        raise DomainError("expected an integer, got %r" % text)


def _cast_float(text):
    try:
        return float(str(text).strip())
    except ValueError:
        raise DomainError("expected a number, got %r" % text)


# option table per subcommand: name -> (cast, default); required when default
# is the REQUIRED sentinel.
REQUIRED = object()

OPTIONS = {
    "fit": {
        "design": (str, REQUIRED),
        "response": (str, REQUIRED),
        "method": (str, "ols"),
        "h": (_cast_bandwidth, "default"),
        "sweeps": (_cast_int, 200),
        "burn_in": (_cast_int, 50),
        "seed": (_cast_int, None),
        "prefix": (str, "fit"),
    },
    "tune": {
        "data": (str, REQUIRED),
        "grid": (_cast_float_list, None),
        "grid_size": (_cast_int, 15),
        "grid_span": (_cast_float, 10.0),
        "prefix": (str, "tune"),
    },
    "shrink-curve": {
        "data": (str, REQUIRED),
        "h": (_cast_bandwidth, "default"),
        "points": (_cast_int, 200),
        "prefix": (str, "curve"),
    },
    "simulate": {
        "design": (str, REQUIRED),
        "n": (_cast_int, REQUIRED),
        "p": (_cast_int, REQUIRED),
        "rho": (_cast_float, 0.5),
        "samples": (_cast_int, 200),
        "test_samples": (_cast_int, 20),
        "reps": (_cast_int, 20),
        "methods": (_cast_str_list, ["ols", "global"]),
        "sweeps": (_cast_int, 200),
        "burn_in": (_cast_int, 50),
        "seed": (_cast_int, REQUIRED),
        "prefix": (str, "simulate"),
    },
    "crossval": {
        "design": (str, REQUIRED),
        "response": (str, REQUIRED),
        "folds": (_cast_int, 10),
        "methods": (_cast_str_list, ["ols", "global"]),
        "sweeps": (_cast_int, 200),
        "burn_in": (_cast_int, 50),
        "seed": (_cast_int, REQUIRED),
        "prefix": (str, "crossval"),
    },
    "prial": {
        "np_product": (_cast_int, 2000),
        "aspects": (_cast_float_list, [0.3, 0.5, 0.7]),
        "reps": (_cast_int, 100),
        "policies": (_cast_str_list, ["default", "sure", "oracle"]),
        "seed": (_cast_int, REQUIRED),
        "prefix": (str, "prial"),
    },
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Multi-source regression via eigenvalue-shrunk covariance pooling.",
    )
    parser.add_argument("--version", action="version", version="artifact " + __version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--output-dir", dest="output_dir", default=None)
        for opt in options:
            p.add_argument("--" + opt.replace("_", "-"), dest=opt, default=None)
    return parser


def resolve_options(args, config):
    """Merge defaults, config file, and flags (flags win)."""
    spec = OPTIONS[args.subcommand]
    known = set(spec) | {"output_dir"}
    for key in config:
        normalized = key.replace("-", "_")
        if normalized not in known:
            raise DomainError("unknown config key %r" % key)
    resolved = {}
    for opt, (cast, default) in spec.items():
        raw = getattr(args, opt, None)
        if raw is None:
            raw = config.get(opt, config.get(opt.replace("_", "-")))
        if raw is None:
            if default is REQUIRED:
                raise DomainError("missing required option --%s" % opt.replace("_", "-"))
            resolved[opt] = default
        else:
            resolved[opt] = cast(raw)
    return resolved


def resolve_output_dir(args, config):
    if args.output_dir is not None:
        return args.output_dir
    for key in ("output_dir", "output-dir"):
        if key in config:
            return config[key]
    return os.environ.get(OUTPUT_DIR_ENV, ".")


def write_outputs(subcommand, opts, outdir, suffix, text, results, lines):
    """Write one data file, then its manifest, then report on stdout.

    The manifest is renamed into place last, so it never describes data
    that failed to land.  results holds the manifest's result_* entries.
    """
    data_path = os.path.join(outdir, opts["prefix"] + suffix)
    manifest_path = os.path.join(outdir, opts["prefix"] + "_manifest.txt")
    manifest = {"subcommand": subcommand, "artifact_version": __version__,
                "numpy_version": np.__version__}
    hashable = {}
    for key, value in opts.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        manifest["opt_%s" % key] = value
        hashable[key] = str(value)
    manifest["config_hash"] = config_hash(hashable)
    manifest["outputs"] = os.path.basename(data_path)
    manifest.update(results)
    write_files({data_path: text, manifest_path: format_manifest(manifest)})
    for line in lines:
        print(line)
    print("wrote %s" % data_path)
    return 0


def _resolve_design(token):
    kind = DESIGN_ALIASES.get(token, token)
    if kind not in COEFFICIENT_DESIGNS:
        raise DomainError(
            "unknown design %r (use one of %s or aliases %s)"
            % (token, "/".join(COEFFICIENT_DESIGNS), "/".join(DESIGN_ALIASES))
        )
    return kind


def _require_seed(opts, why):
    if opts.get("seed") is None:
        raise DomainError("--seed is mandatory for %s (no wall-clock seeding)" % why)


def cmd_fit(opts, outdir):
    x = read_matrix(opts["design"])
    y = read_matrix(opts["response"])
    bundle = SourceBundle(x, y)
    method = opts["method"]
    extra = {}
    if method == "ols":
        est = fit_ols(bundle)[0]
    elif method in ("global", "global-sure"):
        policy = "auto" if method == "global-sure" else opts["h"]
        est = global_shrink(bundle, policy)
        extra["result_h"] = est.diagnostics["h"]
        extra["result_h_policy"] = est.diagnostics["h_policy"]
        extra["result_h_fallback"] = est.diagnostics["h_fallback"]
    elif method.startswith("local-"):
        parse_method(method)
        _require_seed(opts, "the mixture sampler")
        k = int(method[len("local-"):])
        est = local_shrink(bundle, k, sweeps=opts["sweeps"],
                           burn_in=opts["burn_in"], seed=opts["seed"])
        extra["result_pooled_resets"] = est.diagnostics["pooled_resets"]
    else:
        parse_method(method)  # raises with the canonical message
        raise DomainError("method %r is not available in fit" % method)
    extra["result_sigma2"] = est.diagnostics.get("sigma2", float("nan"))
    extra["result_method"] = est.method

    lines = ["fit method=%s sources=%d predictors=%d sigma2=%s"
             % (est.method, bundle.n_sources, bundle.n_predictors,
                fmt(extra["result_sigma2"]))]
    if "result_h" in extra:
        note = " (fallback to default)" if extra["result_h_fallback"] else ""
        lines.append("bandwidth h=%s policy=%s%s" % (fmt(extra["result_h"]),
                                                    extra["result_h_policy"], note))
    return write_outputs("fit", opts, outdir, "_coefficients.csv",
                         format_matrix(est.coefficients), extra, lines)


def cmd_tune(opts, outdir):
    z = read_matrix(opts["data"])
    n, p = z.shape
    s = sample_covariance(z)
    grid = opts["grid"]
    if grid is None:
        grid = default_bandwidth_grid(n, p, opts["grid_size"], opts["grid_span"])
    diagonals = precision_diagonals(z)
    sel = select_bandwidth(s, n, grid, diagonals)

    table = np.column_stack([sel.grid, sel.risks])
    results = {"result_h": sel.h, "result_risk": sel.risks[sel.index],
               "result_n": n, "result_p": p}
    lines = ["selected h=%s risk=%s over %d grid points"
             % (fmt(sel.h), fmt(sel.risks[sel.index]), sel.grid.size)]
    return write_outputs("tune", opts, outdir, "_risk.csv",
                         format_matrix(table, header=["h", "risk"]), results, lines)


def cmd_shrink_curve(opts, outdir):
    z = read_matrix(opts["data"])
    n, p = z.shape
    s = sample_covariance(z)
    h = None if opts["h"] == "default" else opts["h"]
    if h == "auto":
        raise DomainError("shrink-curve takes --h default or a number")
    points = opts["points"]
    if points < 2:
        raise DomainError("--points must be at least 2")
    shrunk = shrink_covariance(s, n, h)
    rule = shrunk.rule
    lam = shrunk.decomposition.eigenvalues
    nonzero = lam[lam > shrunk.decomposition.zero_tolerance]
    grid = np.linspace(0.9 * nonzero[0], 1.1 * lam[-1], points)
    values, _ = rule.evaluate(grid)

    results = {"result_h": rule.h, "result_regime": rule.regime,
               "result_n": n, "result_p": p}
    lines = ["curve regime=%s h=%s range=[%s, %s] points=%d"
             % (rule.regime, fmt(rule.h), fmt(grid[0]), fmt(grid[-1]), points)]
    return write_outputs("shrink-curve", opts, outdir, "_curve.csv",
                         format_matrix(np.column_stack([grid, values]),
                                       header=["x", "delta"]),
                         results, lines)


def cmd_simulate(opts, outdir):
    _require_seed(opts, "simulation")
    kind = _resolve_design(opts["design"])
    for m in opts["methods"]:
        parse_method(m)
    result = run_experiment(
        kind, opts["n"], opts["p"], rho=opts["rho"], n_samples=opts["samples"],
        n_test=opts["test_samples"], methods=opts["methods"], reps=opts["reps"],
        seed=opts["seed"], sweeps=opts["sweeps"], burn_in=opts["burn_in"],
    )
    summary = result.summary()
    results = {}
    lines = []
    for method in opts["methods"]:
        mean_mse, sd_mse = summary[(method, "mse")]
        mean_pe, sd_pe = summary[(method, "pe")]
        results["result_mse_%s" % method] = mean_mse
        results["result_pe_%s" % method] = mean_pe
        lines.append("method=%s mse=%s (sd %s) pe=%s (sd %s)"
                     % (method, fmt(mean_mse), fmt(sd_mse), fmt(mean_pe), fmt(sd_pe)))
    return write_outputs("simulate", opts, outdir, "_results.csv",
                         format_rows(result.to_rows(), ExperimentResult.COLUMNS),
                         results, lines)


def cmd_crossval(opts, outdir):
    _require_seed(opts, "fold assignment")
    x = read_matrix(opts["design"])
    y = read_matrix(opts["response"])
    if x.shape[0] != y.shape[0]:
        raise DimensionError("design and response row counts differ")
    total = x.shape[0]
    k = opts["folds"]
    if k < 2:
        raise DomainError("need at least 2 folds")
    if total < k:
        raise InsufficientDataError("need at least one row per fold (N=%d, k=%d)"
                                    % (total, k))
    methods = [parse_method(m) for m in opts["methods"]]
    rng = np.random.default_rng(opts["seed"])
    shuffled = rng.permutation(total)
    folds = [shuffled[f::k] for f in range(k)]

    rows = []
    scores = {m: [] for m in methods}
    for f, test_idx in enumerate(folds):
        mask = np.ones(total, dtype=bool)
        mask[test_idx] = False
        train_x, train_y = x[mask], y[mask]
        if train_x.shape[0] <= train_x.shape[1]:
            for m in methods:
                rows.append([m, f, "", "skipped: training rows <= predictors"])
            continue
        bundle = SourceBundle(train_x, train_y)
        for m_idx, m in enumerate(methods):
            child = np.random.SeedSequence(opts["seed"], spawn_key=(f, m_idx))
            est = estimate_with_method(
                bundle, m, seed=child.generate_state(1)[0],
                sweeps=opts["sweeps"], burn_in=opts["burn_in"],
            )
            pmse = predictive_error(est.coefficients, x[test_idx], y[test_idx])
            scores[m].append(pmse)
            rows.append([m, f, pmse, "ok"])

    results = {}
    lines = []
    for m in methods:
        vals = np.asarray(scores[m])
        if vals.size == 0:
            lines.append("method=%s pmse=NA (all folds skipped)" % m)
            results["result_pmse_%s" % m] = "NA"
            continue
        sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        lines.append("method=%s pmse=%s (sd %s) folds=%d"
                     % (m, fmt(vals.mean()), fmt(sd), vals.size))
        results["result_pmse_%s" % m] = float(vals.mean())
    return write_outputs("crossval", opts, outdir, "_scores.csv",
                         format_rows(rows, ("method", "fold", "pmse", "status")),
                         results, lines)


def cmd_prial(opts, outdir):
    _require_seed(opts, "the replication stream")
    records = prial_experiment(
        np_product=opts["np_product"], aspect_ratios=opts["aspects"],
        reps=opts["reps"], seed=opts["seed"], policies=opts["policies"],
    )
    columns = ("aspect", "n", "p", "policy", "prial", "mean_loss",
               "raw_mean_loss", "oracle_h", "undefined")
    rows = [[r[c] for c in columns] for r in records]
    lines = ["aspect=%s n=%d p=%d policy=%s prial=%s"
             % (fmt(r["aspect"]), r["n"], r["p"], r["policy"], fmt(r["prial"]))
             for r in records]
    return write_outputs("prial", opts, outdir, "_prial.csv",
                         format_rows(rows, columns), {}, lines)


COMMANDS = {
    "fit": cmd_fit,
    "tune": cmd_tune,
    "shrink-curve": cmd_shrink_curve,
    "simulate": cmd_simulate,
    "crossval": cmd_crossval,
    "prial": cmd_prial,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else {}
        opts = resolve_options(args, config)
        outdir = resolve_output_dir(args, config)
        os.makedirs(outdir, exist_ok=True)
        return COMMANDS[args.subcommand](opts, outdir)
    except (OSError, ParseError) as exc:
        print("error: io: %s" % exc, file=sys.stderr)
        return 2
    except _PRECONDITION_ERRORS as exc:
        print("error: precondition: %s" % exc, file=sys.stderr)
        return 3
    except ArtifactError as exc:  # singular, tuning, degenerate, non-finite
        print("error: numerical: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
