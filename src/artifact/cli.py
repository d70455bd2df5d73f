"""Command-line front end.

Subcommands: fit, tune, shrink-curve, simulate, crossval, prial.  Options can
come from a flat key=value config file (--config) and are overridden by
flags.  Outputs are CSVs plus a manifest per run, written all-or-nothing.
Exit codes: 0 success, 2 I/O or parse failure, 3 precondition violation,
4 numerical failure.
"""

import argparse
import collections
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
    format_cell,
    format_manifest,
    format_matrix,
    format_rows,
    parse_config,
    read_matrix,
    write_files,
)
from .regress import SourceBundle, _check_chain, predictive_error
from .shrinkage import shrink_covariance
from .simlab import (
    COEFFICIENT_DESIGNS,
    ExperimentResult,
    check_experiment,
    estimate_with_method,
    parse_method,
    prial_cells,
    prial_experiment,
    run_experiment,
)
from .spectral import sample_covariance
from .tuning import (
    check_bandwidth_grid,
    default_bandwidth_grid,
    precision_diagonals,
    relative_bandwidth_grid,
    select_bandwidth,
)

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


def _flag(name):
    return "--" + name.replace("_", "-")


def _cast_parsed(parse, expected):
    """A cast by parse(text stripped), or DomainError naming what was expected."""
    def cast(text):
        try:
            return parse(str(text).strip())
        except ValueError:
            raise DomainError("expected %s, got %r" % (expected, text))
    return cast


def _checked(cast, test, message):
    """cast, then DomainError(message.format(value)) unless test(value)."""
    def checked(text):
        value = cast(text)
        if not test(value):
            raise DomainError(message.format(value))
        return value
    return checked


def _cast_str_list(text):
    return [tok.strip() for tok in str(text).split(",") if tok.strip() != ""]


_cast_int = _cast_parsed(int, "an integer")
_cast_float = _cast_parsed(float, "a number")
_cast_float_list = _cast_parsed(lambda text: [float(tok) for tok in _cast_str_list(text)],
                                "a comma-separated list of numbers")
_cast_seed = _checked(_cast_int, lambda seed: seed >= 0,
                      "--seed must be a non-negative integer, got {}")
_cast_methods = _checked(lambda text: [parse_method(m) for m in _cast_str_list(text)], bool,
                         "need at least one method")
# the manifest keeps a design's alias as given
_cast_design = _checked(str, lambda name: DESIGN_ALIASES.get(name, name) in COEFFICIENT_DESIGNS,
                        "unknown design {!r} (use one of %s or aliases %s)"
                        % ("/".join(COEFFICIENT_DESIGNS), "/".join(DESIGN_ALIASES)))


def _cast_bandwidth(text):
    value = str(text).strip().lower()
    if value in ("default", "auto"):
        return value
    try:
        h = float(value)
    except ValueError:
        h = float("nan")
    if not 0 < h < float("inf"):
        raise DomainError("--h must be 'default', 'auto', or a positive number")
    return h


def _cast_grid(text):
    grid = _cast_float_list(text)
    check_bandwidth_grid(grid)
    return grid


# a read condition: test(resolved options), the end of the refusal of a value
# that the run would not read (formatted with the options), and a check of
# the options, if any, that runs where the test holds
_Reads = collections.namedtuple("_Reads", "test where check")
_GLOBAL = _Reads(lambda opts: opts["method"] == "global",
                 "to --method global only, not {method}", None)
_LOCAL = _Reads(lambda opts: opts["method"].startswith("local-"),
                "to --method local-K only, not {method}",
                lambda opts: _check_chain(opts["sweeps"], opts["burn_in"]))
_ANY_LOCAL = _Reads(lambda opts: any(m.startswith("local-") for m in opts["methods"]),
                    "only when --methods lists a local-K", _LOCAL.check)
_DEFAULT_GRID = _Reads(lambda opts: opts["grid"] is None,
                       "to the default grid only, not with --grid",
                       lambda opts: relative_bandwidth_grid(opts["grid_size"],
                                                            opts["grid_span"]))

# option table per subcommand: name -> (cast, default, read condition).  A run
# reads an option whose condition is None or holds; a REQUIRED default means
# the run needs the option wherever it reads it.
REQUIRED = object()

OPTIONS = {
    "fit": {
        "design": (str, REQUIRED, None),
        "response": (str, REQUIRED, None),
        "method": (parse_method, "ols", None),
        "h": (_cast_bandwidth, "default", _GLOBAL),
        "sweeps": (_cast_int, 200, _LOCAL),
        "burn_in": (_cast_int, 50, _LOCAL),
        "seed": (_cast_seed, REQUIRED, _LOCAL),
        "prefix": (str, "fit", None),
    },
    "tune": {
        "data": (str, REQUIRED, None),
        "grid": (_cast_grid, None, None),
        "grid_size": (_cast_int, 15, _DEFAULT_GRID),
        "grid_span": (_cast_float, 10.0, _DEFAULT_GRID),
        "prefix": (str, "tune", None),
    },
    "shrink-curve": {
        "data": (str, REQUIRED, None),
        "h": (_checked(_cast_bandwidth, lambda h: h != "auto",
                       "shrink-curve takes --h default or a number"), "default", None),
        "points": (_checked(_cast_int, lambda points: points >= 2,
                            "--points must be at least 2"), 200, None),
        "prefix": (str, "curve", None),
    },
    "simulate": {
        "design": (_cast_design, REQUIRED, None),
        "n": (_cast_int, REQUIRED, None),
        "p": (_cast_int, REQUIRED, None),
        "rho": (_cast_float, 0.5, None),
        "samples": (_cast_int, 200, None),
        "test_samples": (_cast_int, 20, None),
        "reps": (_cast_int, 20, None),
        "methods": (_cast_methods, ["ols", "global"], None),
        "sweeps": (_cast_int, 200, _ANY_LOCAL),
        "burn_in": (_cast_int, 50, _ANY_LOCAL),
        "seed": (_cast_seed, REQUIRED, None),
        "prefix": (str, "simulate", None),
    },
    "crossval": {
        "design": (str, REQUIRED, None),
        "response": (str, REQUIRED, None),
        "folds": (_checked(_cast_int, lambda k: k >= 2, "need at least 2 folds"), 10, None),
        "methods": (_cast_methods, ["ols", "global"], None),
        "sweeps": (_cast_int, 200, _ANY_LOCAL),
        "burn_in": (_cast_int, 50, _ANY_LOCAL),
        "seed": (_cast_seed, REQUIRED, None),
        "prefix": (str, "crossval", None),
    },
    "prial": {
        "np_product": (_cast_int, 2000, None),
        "aspects": (_cast_float_list, [0.3, 0.5, 0.7], None),
        "reps": (_cast_int, 100, None),
        "policies": (_cast_str_list, ["default", "sure", "oracle"], None),
        "seed": (_cast_seed, REQUIRED, None),
        "prefix": (str, "prial", None),
    },
}


# the library's checks of a run's arguments that need no data, run with the
# table's so that they too refuse before the output directory is made
ARGUMENT_CHECKS = {
    "simulate": lambda opts: check_experiment(
        opts["n"], opts["p"], opts["rho"], opts["samples"], opts["test_samples"],
        opts["methods"], opts["reps"], opts["seed"]),
    "prial": lambda opts: prial_cells(opts["np_product"], opts["aspects"], opts["reps"],
                                      opts["policies"], opts["seed"]),
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
            p.add_argument(_flag(opt), dest=opt, default=None)
    return parser


def _absent(default):
    return None if default is REQUIRED else default


def resolve_options(args, config):
    """Merge defaults, config file, and flags (flags win); an absent REQUIRED is None."""
    spec = OPTIONS[args.subcommand]
    for key in config:
        if key.replace("-", "_") not in set(spec) | {"output_dir"}:
            raise DomainError("unknown config key %r" % key)
    resolved = {}
    for opt, (cast, default, _) in spec.items():
        raw = getattr(args, opt, None)
        if raw is None:
            raw = config.get(opt, config.get(opt.replace("_", "-")))
        resolved[opt] = cast(raw) if raw is not None else _absent(default)
    return resolved


def check_options(subcommand, opts):
    """Refuse what the run will not read and require what it will, before any read.

    An option that the run does not read must keep its default (a REQUIRED
    one must be absent); options alike in condition and in being REQUIRED
    are refused together.  Then the conditions' checks and the subcommand's
    ARGUMENT_CHECKS run.
    """
    spec = OPTIONS[subcommand]
    for name, (_, default, when) in spec.items():
        if when is None or when.test(opts):
            if default is REQUIRED and opts[name] is None:
                raise DomainError("missing required option %s" % _flag(name))
        elif opts[name] != _absent(default):
            names = [other for other, entry in spec.items()
                     if entry[2] is when and (entry[1] is REQUIRED) == (default is REQUIRED)]
            raise DomainError("%s %s %s" % (" and ".join(map(_flag, names)),
                                            "applies" if len(names) == 1 else "apply",
                                            when.where.format(**opts)))
    for when in dict.fromkeys(when for _, _, when in spec.values()):
        if when is not None and when.check is not None and when.test(opts):
            when.check(opts)
    if subcommand in ARGUMENT_CHECKS:
        ARGUMENT_CHECKS[subcommand](opts)


def resolve_output_dir(args, config):
    for value in (args.output_dir, config.get("output_dir"), config.get("output-dir")):
        if value is not None:
            return value
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


# the diagnostics line of fit: the keys it prints for each method family, in
# order, leaving out a key the fit does not carry (the grid's under a fixed
# or default h, or after a fallback)
FIT_DIAGNOSTICS = {
    "ols": (),
    "global": ("clamp_count", "h_grid_index", "h_grid_edge"),
    "local": ("final_component_sizes", "pooled_resets", "clamp_count", "frozen_sweeps",
              "reused_fits"),
}


def _diagnostics_line(method, diagnostics):
    shown = []
    for key in FIT_DIAGNOSTICS[method.split("-")[0]]:
        if key in diagnostics:
            value = diagnostics[key]
            text = ",".join(map(str, value)) if isinstance(value, list) else format_cell(value)
            shown.append("%s=%s" % (key, text))
    return ["diagnostics " + " ".join(shown)] if shown else []


def cmd_fit(opts, outdir):
    bundle = SourceBundle(read_matrix(opts["design"]), read_matrix(opts["response"]))
    est = estimate_with_method(bundle, opts["method"], opts["seed"], opts["sweeps"],
                               opts["burn_in"], h=opts["h"])
    extra = {"result_" + key: est.diagnostics[key]
             for key in ("h", "h_policy", "h_fallback", "pooled_resets")
             if key in est.diagnostics}
    extra["result_sigma2"] = est.diagnostics.get("sigma2", float("nan"))
    extra["result_method"] = est.method

    lines = ["fit method=%s sources=%d predictors=%d sigma2=%s"
             % (est.method, bundle.n_sources, bundle.n_predictors,
                format_cell(extra["result_sigma2"]))]
    if "result_h" in extra:
        note = " (fallback to default)" if extra["result_h_fallback"] else ""
        lines.append("bandwidth h=%s policy=%s%s" % (format_cell(extra["result_h"]),
                                                     extra["result_h_policy"], note))
    lines += _diagnostics_line(opts["method"], est.diagnostics)
    return write_outputs("fit", opts, outdir, "_coefficients.csv",
                         format_matrix(est.coefficients), extra, lines)


def cmd_tune(opts, outdir):
    z = read_matrix(opts["data"])
    n, p = z.shape
    grid = (default_bandwidth_grid(n, p, opts["grid_size"], opts["grid_span"])
            if opts["grid"] is None else opts["grid"])
    sel = select_bandwidth(sample_covariance(z), n, grid, precision_diagonals(z))

    table = np.column_stack([sel.grid, sel.risks])
    results = {"result_h": sel.h, "result_risk": sel.risks[sel.index],
               "result_n": n, "result_p": p}
    lines = ["selected h=%s risk=%s over %d grid points"
             % (format_cell(sel.h), format_cell(sel.risks[sel.index]), sel.grid.size)]
    return write_outputs("tune", opts, outdir, "_risk.csv",
                         format_matrix(table, header=["h", "risk"]), results, lines)


def cmd_shrink_curve(opts, outdir):
    h = None if opts["h"] == "default" else opts["h"]
    z = read_matrix(opts["data"])
    n, p = z.shape
    s = sample_covariance(z)
    shrunk = shrink_covariance(s, n, h)
    rule = shrunk.rule
    lam = shrunk.decomposition.eigenvalues
    nonzero = lam[lam > shrunk.decomposition.zero_tolerance]
    grid = np.linspace(0.9 * nonzero[0], 1.1 * lam[-1], opts["points"])
    values, _ = rule.evaluate(grid)

    results = {"result_h": rule.h, "result_regime": rule.regime,
               "result_n": n, "result_p": p}
    lines = ["curve regime=%s h=%s range=[%s, %s] points=%d"
             % (rule.regime, format_cell(rule.h), format_cell(grid[0]),
                format_cell(grid[-1]), opts["points"])]
    return write_outputs("shrink-curve", opts, outdir, "_curve.csv",
                         format_matrix(np.column_stack([grid, values]),
                                       header=["x", "delta"]),
                         results, lines)


def cmd_simulate(opts, outdir):
    result = run_experiment(
        DESIGN_ALIASES.get(opts["design"], opts["design"]), opts["n"], opts["p"],
        rho=opts["rho"], n_samples=opts["samples"],
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
                     % (method, format_cell(mean_mse), format_cell(sd_mse),
                        format_cell(mean_pe), format_cell(sd_pe)))
    return write_outputs("simulate", opts, outdir, "_results.csv",
                         format_rows(result.records, ExperimentResult.COLUMNS),
                         results, lines)


def cmd_crossval(opts, outdir):
    k = opts["folds"]
    methods = opts["methods"]
    x = read_matrix(opts["design"])
    y = read_matrix(opts["response"])
    if x.shape[0] != y.shape[0]:
        raise DimensionError("design and response row counts differ")
    total = x.shape[0]
    if total < k:
        raise InsufficientDataError("need at least one row per fold (N=%d, k=%d)"
                                    % (total, k))
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
                     % (m, format_cell(vals.mean()), format_cell(sd), vals.size))
        results["result_pmse_%s" % m] = float(vals.mean())
    return write_outputs("crossval", opts, outdir, "_scores.csv",
                         format_rows(rows, ("method", "fold", "pmse", "status")),
                         results, lines)


def cmd_prial(opts, outdir):
    records = prial_experiment(
        np_product=opts["np_product"], aspect_ratios=opts["aspects"],
        reps=opts["reps"], seed=opts["seed"], policies=opts["policies"],
    )
    columns = ("aspect", "n", "p", "policy", "prial", "mean_loss",
               "raw_mean_loss", "oracle_h", "undefined")
    lines = ["aspect=%s n=%d p=%d policy=%s prial=%s"
             % (format_cell(r["aspect"]), r["n"], r["p"], r["policy"],
                format_cell(r["prial"]))
             for r in records]
    return write_outputs("prial", opts, outdir, "_prial.csv",
                         format_rows(records, columns), {}, lines)


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
        check_options(args.subcommand, opts)
        outdir = resolve_output_dir(args, config)
        os.makedirs(outdir, exist_ok=True)
        return COMMANDS[args.subcommand](opts, outdir)
    except (OSError, ParseError) as exc:
        print("error: io: %s" % exc, file=sys.stderr)
        return 2
    except _PRECONDITION_ERRORS as exc:
        print("error: precondition: %s" % exc, file=sys.stderr)
        return 3
    except ArtifactError as exc:  # singular, tuning, non-finite
        print("error: numerical: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
