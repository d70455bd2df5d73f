"""End-to-end tests of the command-line front end.

Every test drives main() in-process and inspects exit codes, stdout/stderr,
and the files written under a temporary output directory.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from artifact import SourceBundle, cli, errors, global_shrink
from artifact.cli import main
from artifact.fileio import format_cell, format_matrix, read_matrix
from artifact.simlab import coefficient_matrix, equicorrelated_design, estimate_with_method


def write_matrix(path, matrix, fmt="%.6g"):
    np.savetxt(path, np.atleast_2d(matrix), fmt=fmt, delimiter=",")


def read_manifest(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split(" = ", 1)
        out[key] = value
    return out


def toy_bundle(tmp_path):
    # X = e1 in R^3 with a single response column: beta_hat = 2
    design = str(tmp_path / "x.csv")
    response = str(tmp_path / "y.csv")
    write_matrix(design, [[1.0], [0.0], [0.0]])
    write_matrix(response, [[2.0], [0.0], [0.0]])
    return design, response


def gaussian_files(tmp_path, n_samples, p, n_sources, seed, fmt="%.17g"):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, p))
    y = rng.standard_normal((n_samples, n_sources))
    design = str(tmp_path / "x.csv")
    response = str(tmp_path / "y.csv")
    write_matrix(design, x, fmt=fmt)
    write_matrix(response, y, fmt=fmt)
    return design, response


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("artifact ")


def test_fit_ols_toy_round_trip(tmp_path, capsys):
    design, response = toy_bundle(tmp_path)
    out = str(tmp_path / "out")
    assert main(["fit", "--design", design, "--response", response,
                 "--output-dir", out]) == 0
    assert capsys.readouterr().out.startswith("fit method=ols")
    coef = read_matrix(os.path.join(out, "fit_coefficients.csv"))
    assert coef.tolist() == [[2.0]]
    manifest = read_manifest(os.path.join(out, "fit_manifest.txt"))
    assert manifest["subcommand"] == "fit"
    assert manifest["result_method"] == "ols"
    assert manifest["opt_method"] == "ols"
    assert manifest["outputs"] == "fit_coefficients.csv"
    assert len(manifest["config_hash"]) == 64
    assert float(manifest["result_sigma2"]) == pytest.approx(1e-12)


def test_fit_ols_matches_normal_equations(tmp_path):
    design, response = gaussian_files(tmp_path, 40, 3, 6, seed=1)
    out = str(tmp_path / "out")
    assert main(["fit", "--design", design, "--response", response,
                 "--output-dir", out]) == 0
    coef = read_matrix(os.path.join(out, "fit_coefficients.csv"))
    x = read_matrix(design)
    y = read_matrix(response)
    expected = np.linalg.lstsq(x, y, rcond=None)[0].T
    assert coef.shape == (6, 3)
    assert np.allclose(coef, expected, rtol=1e-4, atol=1e-8)


def test_fit_rerun_is_bit_identical(tmp_path):
    design, response = gaussian_files(tmp_path, 40, 3, 12, seed=2)
    args = ["fit", "--design", design, "--response", response,
            "--method", "global"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--output-dir", out1]) == 0
    assert main(args + ["--output-dir", out2]) == 0
    for name in ("fit_coefficients.csv", "fit_manifest.txt"):
        a = Path(os.path.join(out1, name)).read_bytes()
        b = Path(os.path.join(out2, name)).read_bytes()
        assert a == b


def test_fit_global_sure_falls_back_when_sources_scarce(tmp_path, capsys):
    # n_sources = p + 1 cannot support the risk estimate
    design, response = gaussian_files(tmp_path, 30, 4, 5, seed=3)
    out = str(tmp_path / "out")
    assert main(["fit", "--design", design, "--response", response,
                 "--method", "global-sure", "--output-dir", out]) == 0
    manifest = read_manifest(os.path.join(out, "fit_manifest.txt"))
    assert manifest["result_h_fallback"] == "true"
    assert manifest["result_h_policy"] == "auto"
    assert "(fallback to default)" in capsys.readouterr().out


def test_fit_global_auto_uses_risk_minimizer(tmp_path, capsys):
    design, response = gaussian_files(tmp_path, 30, 4, 25, seed=4)
    out = str(tmp_path / "out")
    assert main(["fit", "--design", design, "--response", response,
                 "--method", "global", "--h", "auto", "--output-dir", out]) == 0
    manifest = read_manifest(os.path.join(out, "fit_manifest.txt"))
    assert manifest["result_h_policy"] == "auto"
    assert manifest["result_h_fallback"] == "false"
    assert float(manifest["result_h"]) > 0


# the printed diagnostics that no manifest key carries
FIT_DIAGNOSTICS_KEYS = {"clamp_count", "h_grid_index", "h_grid_edge", "final_component_sizes",
                        "frozen_sweeps", "reused_fits"}


@pytest.mark.parametrize("args", [
    ["ols"], ["global"], ["global", "--h", "0.4"], ["global", "--h", "auto"], ["global-sure"],
    ["local-2", "--seed", "9", "--sweeps", "30", "--burn-in", "5"],
    ["local-3", "--seed", "9", "--sweeps", "30", "--burn-in", "5"],
], ids=lambda args: " ".join(args))
def test_fit_prints_one_diagnostics_line(tmp_path, capsys, args):
    # the whole stdout: the fit line, the bandwidth line of a global fit, the
    # diagnostics that the manifest leaves out, and the written path
    design, response = gaussian_files(tmp_path, 40, 3, 24, seed=6)
    out = str(tmp_path / "out")
    assert main(["fit", "--design", design, "--response", response, "--method", *args,
                 "--output-dir", out]) == 0
    bundle = SourceBundle(read_matrix(design), read_matrix(response))
    seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 0
    est = estimate_with_method(bundle, args[0], seed, 30, 5,
                               h=cli._cast_bandwidth(args[2]) if "--h" in args else "default")
    d = est.diagnostics
    lines = ["fit method=%s sources=24 predictors=3 sigma2=%s"
             % (est.method, format_cell(bundle.sigma2))]
    if args[0].startswith("global"):
        lines.append("bandwidth h=%s policy=%s" % (format_cell(d["h"]), d["h_policy"]))
        grid = (" h_grid_index=%d h_grid_edge=%s"
                % (d["h_grid_index"], format_cell(d["h_grid_edge"]))
                if d["h_policy"] == "auto" else "")
        lines.append("diagnostics clamp_count=%d%s" % (d["clamp_count"], grid))
    elif args[0].startswith("local"):
        lines.append("diagnostics final_component_sizes=%s pooled_resets=%d clamp_count=%d "
                     "frozen_sweeps=%d reused_fits=%d"
                     % (",".join(map(str, d["final_component_sizes"])), d["pooled_resets"],
                        d["clamp_count"], d["frozen_sweeps"], d["reused_fits"]))
    lines.append("wrote %s" % os.path.join(out, "fit_coefficients.csv"))
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)
    manifest = read_manifest(os.path.join(out, "fit_manifest.txt"))
    assert not any(key[len("result_"):] in FIT_DIAGNOSTICS_KEYS for key in manifest)


def test_fit_local_runs_with_seed(tmp_path):
    design, response = gaussian_files(tmp_path, 40, 3, 12, seed=5)
    out = str(tmp_path / "out")
    assert main(["fit", "--design", design, "--response", response,
                 "--method", "local-2", "--seed", "9", "--sweeps", "6",
                 "--burn-in", "1", "--output-dir", out]) == 0
    manifest = read_manifest(os.path.join(out, "fit_manifest.txt"))
    assert manifest["result_method"] == "local(2)"
    assert "result_pooled_resets" in manifest
    coef = read_matrix(os.path.join(out, "fit_coefficients.csv"))
    assert coef.shape == (12, 3)


def test_fit_local_without_seed_exits_3(tmp_path, capsys):
    design, response = gaussian_files(tmp_path, 40, 3, 12, seed=5)
    code = main(["fit", "--design", design, "--response", response,
                 "--method", "local-2", "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: precondition")


def test_fit_missing_input_exits_2_without_outputs(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["fit", "--design", str(tmp_path / "absent.csv"),
                 "--response", str(tmp_path / "absent2.csv"),
                 "--output-dir", out])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: io")
    assert os.listdir(out) == []


@pytest.mark.parametrize("line", [0, 2], ids=["header", "data-row"])
def test_fit_non_utf8_input_exits_2_without_outputs(tmp_path, capsys, line):
    design, response = gaussian_files(tmp_path, 30, 3, 8, seed=11)
    lines = Path(design).read_bytes().split(b"\n")
    lines.insert(0, b"a,b,c")
    lines[line] += b"\xe9"  # latin-1 e-acute: not UTF-8
    Path(design).write_bytes(b"\n".join(lines))
    out = str(tmp_path / "out")
    assert main(["fit", "--design", design, "--response", response,
                 "--output-dir", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: io: ")
    assert captured.out == ""
    assert os.listdir(out) == []


def test_fit_square_source_count_exits_3(tmp_path):
    design, response = gaussian_files(tmp_path, 30, 4, 4, seed=6)
    code = main(["fit", "--design", design, "--response", response,
                 "--method", "global", "--output-dir", str(tmp_path / "out")])
    assert code == 3


def test_fit_unknown_method_exits_3(tmp_path, capsys):
    design, response = toy_bundle(tmp_path)
    code = main(["fit", "--design", design, "--response", response,
                 "--method", "ridge", "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert "unknown method" in capsys.readouterr().err


def test_fit_global_fixed_h_matches_global_shrink(tmp_path):
    # fit dispatches through estimate_with_method and passes --h through
    design, response = gaussian_files(tmp_path, 40, 3, 12, seed=2)
    out = str(tmp_path / "out")
    assert main(["fit", "--design", design, "--response", response,
                 "--method", "global", "--h", "0.3", "--output-dir", out]) == 0
    expected = global_shrink(SourceBundle(read_matrix(design), read_matrix(response)), 0.3)
    text = Path(os.path.join(out, "fit_coefficients.csv")).read_text()
    assert text == format_matrix(expected.coefficients)
    manifest = read_manifest(os.path.join(out, "fit_manifest.txt"))
    assert manifest["result_h"] == "0.3"
    assert manifest["result_h_policy"] == "fixed"
    assert manifest["result_h_fallback"] == "false"
    assert "result_pooled_resets" not in manifest


def test_fit_bad_local_token_reports_parse_error_before_seed(tmp_path, capsys):
    design, response = gaussian_files(tmp_path, 40, 3, 12, seed=5)
    out = tmp_path / "out"
    code = main(["fit", "--design", design, "--response", response,
                 "--method", "local-x", "--output-dir", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: precondition: bad component count in method 'local-x'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("methods, message", [
    ("ols,ridge", "unknown method 'ridge'"),
    ("global,local-0", "component count must be positive in 'local-0'"),
    # an unknown token is not taken for a list without a local-K
    ("ols,ridge --sweeps 3", "unknown method 'ridge'"),
    # a repeated estimator would print its line twice and pool both runs
    ("ols,ols", "method 'ols' repeats 'ols'"),
    ("local-2,global,local-02", "method 'local-02' repeats 'local-2'"),
])
def test_simulate_bad_method_exits_3_without_output(tmp_path, capsys, methods, message):
    # the cast of --methods parses every token before any data is drawn
    out = tmp_path / "out"
    code = main(["simulate", "--design", "mix", "--n", "12", "--p", "3", "--reps", "2",
                 "--seed", "0", "--methods", *methods.split(), "--output-dir", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: precondition: ") and message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_tune_emits_risk_curve_and_manifest(tmp_path):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(5).standard_normal((100, 20)),
                 fmt="%.17g")
    out = str(tmp_path / "out")
    assert main(["tune", "--data", data, "--output-dir", out]) == 0
    lines = Path(os.path.join(out, "tune_risk.csv")).read_text().splitlines()
    assert lines[0] == "h,risk"
    assert len(lines) == 16
    table = read_matrix(os.path.join(out, "tune_risk.csv"))
    manifest = read_manifest(os.path.join(out, "tune_manifest.txt"))
    assert (manifest["result_n"], manifest["result_p"]) == ("100", "20")
    # the selected bandwidth is a grid point achieving the smallest risk
    best = table[np.argmin(table[:, 1])]
    assert float(manifest["result_h"]) == pytest.approx(best[0], rel=1e-5)
    assert float(manifest["result_risk"]) == pytest.approx(best[1], rel=1e-5)


def test_tune_explicit_grid(tmp_path):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(5).standard_normal((100, 20)),
                 fmt="%.17g")
    out = str(tmp_path / "out")
    assert main(["tune", "--data", data, "--grid", "0.1,0.2",
                 "--output-dir", out]) == 0
    table = read_matrix(os.path.join(out, "tune_risk.csv"))
    assert table.shape == (2, 2)
    assert table[:, 0].tolist() == [0.1, 0.2]


def test_tune_rerun_renames_manifest_last(tmp_path, monkeypatch, capsys):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(5).standard_normal((100, 20)),
                 fmt="%.17g")
    out = str(tmp_path / "out")
    assert main(["tune", "--data", data, "--grid", "0.1,0.2",
                 "--output-dir", out]) == 0
    manifest_path = os.path.join(out, "tune_manifest.txt")
    old_manifest = Path(manifest_path).read_bytes()

    real_replace = os.replace
    calls = []

    def replace_then_fail(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("simulated failure renaming %s" % dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_then_fail)
    assert main(["tune", "--data", data, "--grid", "0.3,0.4",
                 "--output-dir", out]) == 2
    assert "simulated failure" in capsys.readouterr().err
    # the data landed first; the manifest that failed to follow is the old one
    names = [os.path.basename(c) for c in calls]
    assert names == ["tune_risk.csv", "tune_manifest.txt"]
    assert Path(manifest_path).read_bytes() == old_manifest
    assert sorted(os.listdir(out)) == ["tune_manifest.txt", "tune_risk.csv"]


def test_tune_with_too_few_rows_exits_3_atomically(tmp_path):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(1).standard_normal((4, 3)),
                 fmt="%.17g")
    out = str(tmp_path / "out")
    assert main(["tune", "--data", data, "--output-dir", out]) == 3
    assert os.listdir(out) == []


def test_tune_collinear_data_exits_4(tmp_path, capsys):
    rng = np.random.default_rng(2)
    col = rng.standard_normal((12, 1))
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.hstack([col, col]), fmt="%.17g")
    code = main(["tune", "--data", data, "--output-dir", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: numerical")


@pytest.mark.parametrize("error, code, prefix", [
    (OSError, 2, "error: io: "),
    (errors.ParseError, 2, "error: io: "),
    (errors.InputError, 3, "error: precondition: "),
    (errors.DimensionError, 3, "error: precondition: "),
    (errors.DomainError, 3, "error: precondition: "),
    (errors.RegimeError, 3, "error: precondition: "),
    (errors.InsufficientDataError, 3, "error: precondition: "),
    (errors.SingularityError, 4, "error: numerical: "),
    (errors.TuningError, 4, "error: numerical: "),
    (errors.NumericalError, 4, "error: numerical: "),
    (errors.ArtifactError, 4, "error: numerical: "),
])
def test_error_class_maps_to_exit_code(tmp_path, monkeypatch, capsys, error, code, prefix):
    def fail(opts, outdir):
        raise error("injected")

    monkeypatch.setitem(cli.COMMANDS, "prial", fail)
    assert main(["prial", "--seed", "0", "--output-dir", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == prefix + "injected\n"


def test_shrink_curve_single_eigenvalue_line(tmp_path):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(3).standard_normal((10, 1)),
                 fmt="%.17g")
    out = str(tmp_path / "out")
    assert main(["shrink-curve", "--data", data, "--points", "5",
                 "--output-dir", out]) == 0
    lines = Path(os.path.join(out, "curve_curve.csv")).read_text().splitlines()
    assert lines[0] == "x,delta"
    table = read_matrix(os.path.join(out, "curve_curve.csv"))
    assert table.shape == (5, 2)
    # the middle grid point sits at the sample eigenvalue, where the rule
    # stretches by exactly n/(n-1)
    x, delta = table[2]
    assert delta / x == pytest.approx(10.0 / 9.0, rel=1e-4)
    manifest = read_manifest(os.path.join(out, "curve_manifest.txt"))
    assert manifest["result_regime"] == "under"


def test_shrink_curve_median_near_one_for_identity_data(tmp_path):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(77).standard_normal((1000, 500)))
    out = str(tmp_path / "out")
    assert main(["shrink-curve", "--data", data, "--output-dir", out]) == 0
    table = read_matrix(os.path.join(out, "curve_curve.csv"))
    assert table.shape == (200, 2)
    assert abs(np.median(table[:, 1]) - 1.0) <= 0.15


def test_shrink_curve_rejects_auto_and_bad_points(tmp_path):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(3).standard_normal((10, 2)),
                 fmt="%.17g")
    out = str(tmp_path / "out")
    assert main(["shrink-curve", "--data", data, "--h", "auto",
                 "--output-dir", out]) == 3
    assert main(["shrink-curve", "--data", data, "--points", "1",
                 "--output-dir", out]) == 3


def test_shrink_curve_deterministic(tmp_path):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(4).standard_normal((20, 3)),
                 fmt="%.17g")
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["shrink-curve", "--data", data, "--output-dir", out1]) == 0
    assert main(["shrink-curve", "--data", data, "--output-dir", out2]) == 0
    a = Path(os.path.join(out1, "curve_curve.csv")).read_bytes()
    b = Path(os.path.join(out2, "curve_curve.csv")).read_bytes()
    assert a == b


def test_simulate_round_trip_with_alias(tmp_path, capsys):
    out = str(tmp_path / "out")
    args = ["simulate", "--design", "mix", "--n", "12", "--p", "3",
            "--rho", "0", "--samples", "30", "--reps", "3", "--seed", "4",
            "--output-dir", out]
    assert main(args) == 0
    assert "method=ols" in capsys.readouterr().out
    lines = Path(os.path.join(out, "simulate_results.csv")).read_text().splitlines()
    assert lines[0] == "design,n_sources,n_predictors,rho,method,replication,mse,pe"
    assert len(lines) == 1 + 3 * 2
    assert all(line.startswith("scale-mixture") for line in lines[1:])
    manifest = read_manifest(os.path.join(out, "simulate_manifest.txt"))
    assert "result_mse_ols" in manifest and "result_mse_global" in manifest

    out2 = str(tmp_path / "out2")
    assert main(args[:-1] + [out2]) == 0
    a = Path(os.path.join(out, "simulate_results.csv")).read_bytes()
    b = Path(os.path.join(out2, "simulate_results.csv")).read_bytes()
    assert a == b


@pytest.mark.parametrize("args", [
    ["fit", "--design", "x.csv", "--response", "y.csv", "--method", "local-2"],
    ["simulate", "--design", "mix", "--n", "12", "--p", "3"],
    ["crossval", "--design", "x.csv", "--response", "y.csv"],
    ["prial"],
], ids=lambda args: args[0])
def test_stochastic_command_without_seed_exits_3(tmp_path, capsys, args):
    # the option table requires --seed, so no input is read and nothing written
    out = tmp_path / "out"
    assert main(args + ["--output-dir", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: precondition: missing required option --seed\n"
    )
    assert not out.exists()


def test_simulate_unknown_design_exits_3(tmp_path, capsys):
    code = main(["simulate", "--design", "sparse", "--n", "12", "--p", "3",
                 "--seed", "1", "--output-dir", str(tmp_path / "out")])
    assert code == 3
    assert "unknown design" in capsys.readouterr().err


def test_crossval_noiseless_ols_has_zero_error(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 3))
    beta = rng.standard_normal((5, 3))
    design = str(tmp_path / "x.csv")
    response = str(tmp_path / "y.csv")
    write_matrix(design, x, fmt="%.17g")
    write_matrix(response, x @ beta.T, fmt="%.17g")
    out = str(tmp_path / "out")
    assert main(["crossval", "--design", design, "--response", response,
                 "--methods", "ols", "--folds", "5", "--seed", "3",
                 "--output-dir", out]) == 0
    manifest = read_manifest(os.path.join(out, "crossval_manifest.txt"))
    assert float(manifest["result_pmse_ols"]) <= 1e-10


def test_crossval_skips_folds_too_small_for_ols(tmp_path, capsys):
    rng = np.random.default_rng(7)
    design = str(tmp_path / "x.csv")
    response = str(tmp_path / "y.csv")
    write_matrix(design, rng.standard_normal((12, 7)), fmt="%.17g")
    write_matrix(response, rng.standard_normal((12, 2)), fmt="%.17g")
    out = str(tmp_path / "out")
    assert main(["crossval", "--design", design, "--response", response,
                 "--methods", "ols", "--folds", "2", "--seed", "0",
                 "--output-dir", out]) == 0
    assert "all folds skipped" in capsys.readouterr().out
    manifest = read_manifest(os.path.join(out, "crossval_manifest.txt"))
    assert manifest["result_pmse_ols"] == "NA"
    scores = Path(os.path.join(out, "crossval_scores.csv")).read_text()
    assert "skipped: training rows <= predictors" in scores


def test_crossval_same_seed_reproduces_folds(tmp_path):
    design, response = gaussian_files(tmp_path, 30, 3, 8, seed=8)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["crossval", "--design", design, "--response", response,
            "--folds", "5", "--seed", "11"]
    assert main(args + ["--output-dir", out1]) == 0
    assert main(args + ["--output-dir", out2]) == 0
    a = Path(os.path.join(out1, "crossval_scores.csv")).read_bytes()
    b = Path(os.path.join(out2, "crossval_scores.csv")).read_bytes()
    assert a == b


def simulated_sources(kind, n_sources, p, rho, n_samples, seed):
    """The design and responses of simulate_sources(kind, ..., rng=seed)."""
    rng = np.random.default_rng(seed)
    x = equicorrelated_design(n_samples, p, rho, rng)
    truth = coefficient_matrix(kind, n_sources, p, rng)
    return x, x @ truth.T + rng.standard_normal((n_samples, n_sources))


def test_crossval_pooled_shrinkage_helps_on_mixture_data(tmp_path):
    # ten replicates of a two-scale bundle: pooled shrinkage should not lose
    # to plain least squares on average holdout error
    ols_means, global_means = [], []
    for i in range(10):
        x, y = simulated_sources("scale-mixture", 50, 20, 0.5, 200, 100 + i)
        design = str(tmp_path / ("x%d.csv" % i))
        response = str(tmp_path / ("y%d.csv" % i))
        write_matrix(design, x)
        write_matrix(response, y)
        out = str(tmp_path / ("out%d" % i))
        assert main(["crossval", "--design", design, "--response", response,
                     "--methods", "ols,global", "--folds", "10",
                     "--seed", str(i), "--output-dir", out]) == 0
        manifest = read_manifest(os.path.join(out, "crossval_manifest.txt"))
        ols_means.append(float(manifest["result_pmse_ols"]))
        global_means.append(float(manifest["result_pmse_global"]))
    assert np.mean(global_means) <= np.mean(ols_means)


def test_crossval_prefers_two_components_on_two_scale_mixture(tmp_path):
    # sources split between a tight and a wide coefficient scale: the holdout
    # error of two mixture components should beat one in most replicates
    hits = 0
    for rep in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(200, spawn_key=(rep,)))
        x = rng.standard_normal((50, 5))
        q_half = np.linalg.cholesky(np.linalg.inv(x.T @ x))
        scale = np.where(rng.random(60) < 0.5, 0.1, 10.0)
        beta = (rng.standard_normal((60, 5)) * scale[:, None]) @ q_half.T
        y = x @ beta.T + rng.standard_normal((50, 60))
        design = str(tmp_path / ("x%d.csv" % rep))
        response = str(tmp_path / ("y%d.csv" % rep))
        write_matrix(design, x, fmt="%.17g")
        write_matrix(response, y, fmt="%.17g")
        out = str(tmp_path / ("out%d" % rep))
        assert main(["crossval", "--design", design, "--response", response,
                     "--methods", "local-1,local-2", "--folds", "5",
                     "--sweeps", "40", "--burn-in", "10", "--seed", str(rep),
                     "--output-dir", out]) == 0
        manifest = read_manifest(os.path.join(out, "crossval_manifest.txt"))
        one, two = (float(manifest["result_pmse_local-%d" % k]) for k in (1, 2))
        hits += two < one
    assert hits >= 16


def test_crossval_validation_failures(tmp_path):
    design, response = gaussian_files(tmp_path, 10, 2, 3, seed=9)
    base = ["crossval", "--design", design, "--response", response,
            "--seed", "0", "--output-dir", str(tmp_path / "out")]
    assert main(base + ["--folds", "1"]) == 3
    assert main(base + ["--folds", "11"]) == 3
    short = str(tmp_path / "short.csv")
    write_matrix(short, np.ones((9, 1)))
    assert main(["crossval", "--design", design, "--response", short,
                 "--seed", "0", "--output-dir", str(tmp_path / "out")]) == 3


def test_prial_small_run(tmp_path):
    out = str(tmp_path / "out")
    assert main(["prial", "--np-product", "500", "--aspects", "0.5",
                 "--reps", "5", "--seed", "0", "--output-dir", out]) == 0
    lines = Path(os.path.join(out, "prial_prial.csv")).read_text().splitlines()
    assert lines[0].startswith("aspect,n,p,policy,prial")
    assert len(lines) == 4
    oracle = [l for l in lines if ",oracle," in l]
    assert len(oracle) == 1 and ",100," in oracle[0]


@pytest.mark.parametrize("args", [
    ["prial", "--aspects", "0"],
    ["prial", "--aspects", "-0.5"],
    ["prial", "--aspects", ""],
    ["prial", "--policies", ""],
    ["prial", "--reps", "0"],
    ["prial", "--np-product", "-5"],
    ["simulate", "--design", "mix", "--n", "12", "--p", "3", "--methods", ""],
    ["simulate", "--design", "mix", "--n", "12", "--p", "3", "--test-samples", "0"],
    ["simulate", "--design", "mix", "--p", "3", "--n", "-3"],
    ["simulate", "--design", "mix", "--n", "12", "--p", "-3"],
    ["simulate", "--design", "mix", "--n", "12", "--p", "3", "--samples", "-5"],
    ["simulate", "--design", "mix", "--n", "12", "--p", "3", "--rho", "1"],
    ["prial", "--np-product", "20", "--aspects", "0.999"],
    ["crossval", "--methods", ""],
], ids=lambda args: "%s%s=%r" % (args[0], args[-2], args[-1]))
def test_options_leaving_nothing_to_compute_exit_3(tmp_path, capsys, args):
    # the cast of --methods refuses an empty list, and the library's own
    # argument checks, run from the option check, refuse the rest: all before
    # the output directory is made
    design, response = gaussian_files(tmp_path, 30, 3, 8, seed=10)
    if args[0] == "crossval":
        args = args + ["--design", design, "--response", response]
    out = tmp_path / "out"
    assert main(args + ["--seed", "1", "--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: precondition: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fit", "--method", "local-2"],
    ["simulate", "--design", "mix", "--n", "12", "--p", "3", "--reps", "2"],
    ["crossval"],
    ["prial", "--np-product", "200", "--aspects", "0.5", "--reps", "2"],
], ids=lambda args: args[0])
def test_negative_seed_exits_3(tmp_path, capsys, args):
    # numpy rejects negative seeds; the option table does so first, so no
    # input is read and nothing written
    if args[0] in ("fit", "crossval"):
        design, response = gaussian_files(tmp_path, 30, 3, 8, seed=10)
        args = args + ["--design", design, "--response", response]
    out = tmp_path / "out"
    assert main(args + ["--seed", "-1", "--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: precondition: --seed must be a non-negative integer, got -1\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fit", "--method", "ridge"],
    ["fit", "--method", "local-2"],
    ["crossval", "--seed", "0", "--folds", "1"],
    ["crossval", "--seed", "0", "--methods", "ols,ridge"],
    ["crossval", "--seed", "0", "--methods", "ols,ols"],
    ["shrink-curve", "--h", "auto"],
    ["shrink-curve", "--points", "1"],
    ["tune", "--grid-size", "1"],
    ["tune", "--grid-span", "1"],
    ["tune", "--grid", "0,1"],
    ["fit", "--method", "global", "--h", "-1"],
    ["fit", "--method", "global", "--h", "0"],
    ["fit", "--method", "global", "--h", "nan"],
    ["fit", "--method", "global", "--h", "inf"],
    ["shrink-curve", "--h", "-1"],
    ["shrink-curve", "--h", "inf"],
], ids=lambda args: "%s%s=%s" % (args[0], args[-2], args[-1]))
def test_bad_option_exits_3_before_reading_inputs(tmp_path, capsys, args):
    # the inputs do not exist: reading them first would exit 2
    absent = str(tmp_path / "absent.csv")
    inputs = (["--data", absent] if args[0] in ("shrink-curve", "tune")
              else ["--design", absent, "--response", absent])
    out = tmp_path / "out"
    assert main(args + inputs + ["--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: precondition: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("method", ["ols", "global-sure", "local-2"])
def test_fit_bandwidth_with_other_method_exits_3_before_reading_inputs(
        tmp_path, capsys, method):
    # --h is the bandwidth of --method global; elsewhere it would be ignored
    absent = str(tmp_path / "absent.csv")
    out = tmp_path / "out"
    assert main(["fit", "--method", method, "--h", "0.3", "--seed", "0",
                 "--design", absent, "--response", absent, "--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: precondition: --h applies to --method global only, not %s\n" % method
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("method", ["ols", "global", "global-sure"])
@pytest.mark.parametrize("option", [["--sweeps", "3"], ["--burn-in", "7"]])
def test_fit_sampler_options_with_other_method_exit_3_before_reading_inputs(
        tmp_path, capsys, method, option):
    # --sweeps and --burn-in drive the mixture sampler; elsewhere they would
    # be ignored, and only the manifest's config_hash would show them
    absent = str(tmp_path / "absent.csv")
    out = tmp_path / "out"
    assert main(["fit", "--method", method, *option,
                 "--design", absent, "--response", absent, "--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "error: precondition: --sweeps and --burn-in apply to --method local-K only, "
        "not %s\n" % method
    )
    assert captured.out == ""
    assert not out.exists()


SIMULATE = ["simulate", "--design", "mix", "--n", "12", "--p", "3", "--seed", "0"]
NO_SAMPLER = "--sweeps and --burn-in apply only when --methods lists a local-K"
NO_GRID_SHAPE = "--grid-size and --grid-span apply to the default grid only, not with --grid"


@pytest.mark.parametrize("args, message", [
    pytest.param(["fit", "--method", method, "--seed", "0"],
                 "--seed applies to --method local-K only, not %s" % method,
                 id="fit-%s-seed" % method)
    for method in ("ols", "global", "global-sure")
] + [
    pytest.param(SIMULATE + ["--methods", "ols,global", "--sweeps", "3", "--burn-in", "7"],
                 NO_SAMPLER, id="simulate-sweeps-burn-in"),
    pytest.param(SIMULATE + ["--burn-in", "7"], NO_SAMPLER, id="simulate-burn-in"),
    pytest.param(["crossval", "--seed", "0", "--methods", "ols,global-sure", "--sweeps", "3"],
                 NO_SAMPLER, id="crossval-sweeps"),
    pytest.param(["tune", "--grid", "0.1,0.2", "--grid-size", "5"], NO_GRID_SHAPE,
                 id="tune-grid-size"),
    pytest.param(["tune", "--grid", "0.1,0.2", "--grid-span", "4"], NO_GRID_SHAPE,
                 id="tune-grid-span"),
])
def test_options_that_nothing_reads_exit_3_before_reading_inputs(tmp_path, capsys, args,
                                                                message):
    # accepted, each would change only the manifest's config_hash
    absent = str(tmp_path / "absent.csv")
    inputs = {"fit": ["--design", absent, "--response", absent],
              "crossval": ["--design", absent, "--response", absent],
              "tune": ["--data", absent], "simulate": []}[args[0]]
    out = tmp_path / "out"
    assert main(args + inputs + ["--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: precondition: %s\n" % message
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fit", "--method", "local-2", "--seed", "0"],
    SIMULATE + ["--methods", "ols,local-2"],
    ["crossval", "--seed", "0", "--methods", "ols,local-1"],
], ids=lambda args: args[0])
@pytest.mark.parametrize("chain", [["--sweeps", "3", "--burn-in", "7"],
                                   ["--sweeps", "5", "--burn-in", "5"],
                                   ["--burn-in", "-1"]], ids=" ".join)
def test_sampler_chain_is_checked_before_reading_inputs(tmp_path, capsys, monkeypatch,
                                                        args, chain):
    # absent inputs would exit 2 if read, and simulate would simulate first
    def refuse(*unused, **also_unused):
        raise AssertionError("the run simulated before checking the chain")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    absent = str(tmp_path / "absent.csv")
    inputs = [] if args[0] == "simulate" else ["--design", absent, "--response", absent]
    out = tmp_path / "out"
    assert main(args + chain + inputs + ["--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: precondition: need 0 <= burn_in < sweeps\n"
    assert captured.out == ""
    assert not out.exists()


def test_sampler_options_are_read_when_a_method_is_local(tmp_path):
    out = str(tmp_path / "out")
    assert main(["simulate", "--design", "mix", "--n", "12", "--p", "3", "--reps", "1",
                 "--samples", "20", "--methods", "ols,local-1", "--sweeps", "4",
                 "--burn-in", "1", "--seed", "0", "--output-dir", out]) == 0
    manifest = read_manifest(os.path.join(out, "simulate_manifest.txt"))
    assert (manifest["opt_sweeps"], manifest["opt_burn_in"]) == ("4", "1")


# The walk over cli.OPTIONS below.  Per subcommand, the options that every run
# needs, with input paths that do not exist ("ABSENT" stands for one); a
# subcommand added to the table without an entry here fails collection.
WALK_BASE = {
    "fit": ["--design", "ABSENT", "--response", "ABSENT"],
    "tune": ["--data", "ABSENT"],
    "shrink-curve": ["--data", "ABSENT"],
    "simulate": ["--design", "mix", "--n", "12", "--p", "3", "--seed", "0"],
    "crossval": ["--design", "ABSENT", "--response", "ABSENT", "--seed", "0"],
    "prial": ["--seed", "0"],
}
# a value other than the default for each option that has a read condition;
# one added to the table without a value here fails collection
WALK_VALUES = {"h": "0.3", "sweeps": "300", "burn_in": "10", "seed": "0",
               "grid_size": "5", "grid_span": "4"}
# the options whose value decides what a run reads, and the values to try
WALK_CONTEXTS = {"method": ["ols", "global", "global-sure", "local-2"],
                 "methods": ["ols", "global", "global-sure", "local-2"],
                 "grid": ["0.1,0.2"]}


def walk_cases():
    for subcommand, spec in cli.OPTIONS.items():
        contexts = [[]] + [[cli._flag(name), value] for name in WALK_CONTEXTS if name in spec
                           for value in WALK_CONTEXTS[name]]
        for context in contexts:
            for name, (_, _, when) in spec.items():
                if when is not None:
                    yield pytest.param(subcommand, WALK_BASE[subcommand] + context, name,
                                       WALK_VALUES[name], id="%s-%s-%s" % (
                                           subcommand, "-".join(context[1:]) or "default",
                                           name))


@pytest.mark.parametrize("subcommand, args, name, value", walk_cases())
def test_option_table_refuses_every_unread_value_before_reading(
        tmp_path, capsys, monkeypatch, subcommand, args, name, value):
    # a non-default value of an option that the run will not read exits 3,
    # prints nothing and makes no output directory; where the run reads it,
    # the same value reaches the command
    spec = cli.OPTIONS[subcommand]
    absent = str(tmp_path / "absent.csv")
    args = [subcommand] + [absent if arg == "ABSENT" else arg for arg in args]
    opts = cli.resolve_options(cli.build_parser().parse_args(args), {})
    for other, (_, default, when) in spec.items():
        # what the run needs where it reads it: the seed of a local-K fit
        if other != name and default is cli.REQUIRED and when is not None and when.test(opts):
            args += [cli._flag(other), WALK_VALUES[other]]
    cast, default, when = spec[name]
    assert cast(value) != (None if default is cli.REQUIRED else default)
    flag = cli._flag(name)
    out = tmp_path / "out"
    if when.test(opts):
        seen = {}
        monkeypatch.setitem(cli.COMMANDS, subcommand,
                            lambda opts, outdir: seen.update(opts) or 0)
        assert main(args + [flag, value, "--output-dir", str(out)]) == 0
        assert seen[name] == cast(value)
        return
    assert main(args + [flag, value, "--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "error: precondition: "
    assert captured.err.startswith(prefix)
    named = captured.err[len(prefix):].split(" appl")[0].split(" and ")
    assert flag in named
    assert not out.exists()


@pytest.mark.parametrize("subcommand", list(cli.OPTIONS))
def test_option_table_accepts_every_default(tmp_path, monkeypatch, subcommand):
    # the walk's base arguments alone pass the check, and every other option
    # reaches the command at its default
    seen = {}
    monkeypatch.setitem(cli.COMMANDS, subcommand, lambda opts, outdir: seen.update(opts) or 0)
    args = [str(tmp_path / "absent.csv") if arg == "ABSENT" else arg
            for arg in WALK_BASE[subcommand]]
    assert main([subcommand] + args + ["--output-dir", str(tmp_path / "out")]) == 0
    given = {name.lstrip("-").replace("-", "_") for name in args[::2]}
    assert {name: value for name, value in seen.items() if name not in given} == {
        name: (None if default is cli.REQUIRED else default)
        for name, (_, default, _) in cli.OPTIONS[subcommand].items() if name not in given}


@pytest.mark.parametrize("args, message", [
    pytest.param(["prial", "--seed", "0", "--aspects", "0.3,x"],
                 "expected a comma-separated list of numbers, got '0.3,x'", id="float-list"),
    pytest.param(["fit", "--h", "foo"],
                 "--h must be 'default', 'auto', or a positive number", id="bandwidth"),
    pytest.param(["fit", "--method", "global", "--h", "-1"],
                 "--h must be 'default', 'auto', or a positive number", id="bandwidth-negative"),
    pytest.param(["prial", "--seed", "0", "--reps", "x"], "expected an integer, got 'x'",
                 id="int"),
    pytest.param(SIMULATE + ["--rho", "x"], "expected a number, got 'x'", id="float"),
])
def test_malformed_option_values_exit_3(tmp_path, capsys, args, message):
    absent = str(tmp_path / "absent.csv")
    inputs = ["--design", absent, "--response", absent] if args[0] == "fit" else []
    out = tmp_path / "out"
    assert main(args + inputs + ["--output-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: precondition: %s\n" % message
    assert captured.out == ""
    # options resolve before the output directory is made
    assert not out.exists()


def test_config_file_supplies_and_flags_override(tmp_path):
    data = str(tmp_path / "z.csv")
    write_matrix(data, np.random.default_rng(5).standard_normal((40, 4)),
                 fmt="%.17g")
    cfg = str(tmp_path / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("data = %s\ngrid-size = 5\n" % data)
    out1 = str(tmp_path / "a")
    assert main(["tune", "--config", cfg, "--output-dir", out1]) == 0
    assert read_matrix(os.path.join(out1, "tune_risk.csv")).shape == (5, 2)
    out2 = str(tmp_path / "b")
    assert main(["tune", "--config", cfg, "--grid-size", "7",
                 "--output-dir", out2]) == 0
    assert read_matrix(os.path.join(out2, "tune_risk.csv")).shape == (7, 2)


@pytest.mark.parametrize("key", ["output_dir", "output-dir"])
def test_config_file_supplies_output_dir(tmp_path, monkeypatch, key):
    design, response = toy_bundle(tmp_path)
    cfg = str(tmp_path / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("%s = %s\n" % (key, tmp_path / "fromconfig"))
    # the config file wins over the environment, and a flag over both
    monkeypatch.setenv("ARTIFACT_OUTPUT_DIR", str(tmp_path / "fromenv"))
    assert main(["fit", "--config", cfg, "--design", design, "--response", response]) == 0
    assert sorted(os.listdir(tmp_path / "fromconfig")) == ["fit_coefficients.csv",
                                                           "fit_manifest.txt"]
    assert main(["fit", "--config", cfg, "--design", design, "--response", response,
                 "--output-dir", str(tmp_path / "fromflag")]) == 0
    assert (tmp_path / "fromflag" / "fit_coefficients.csv").exists()
    assert not (tmp_path / "fromenv").exists()


def test_config_unknown_key_exits_3(tmp_path, capsys):
    cfg = str(tmp_path / "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("dataa = z.csv\n")
    assert main(["tune", "--config", cfg,
                 "--output-dir", str(tmp_path / "out")]) == 3
    assert "unknown config key" in capsys.readouterr().err


def test_output_dir_env_variable(tmp_path, monkeypatch):
    design, response = toy_bundle(tmp_path)
    env_dir = str(tmp_path / "fromenv")
    monkeypatch.setenv("ARTIFACT_OUTPUT_DIR", env_dir)
    assert main(["fit", "--design", design, "--response", response]) == 0
    assert os.path.exists(os.path.join(env_dir, "fit_coefficients.csv"))
    # an explicit flag still wins over the environment
    flag_dir = str(tmp_path / "fromflag")
    assert main(["fit", "--design", design, "--response", response,
                 "--output-dir", flag_dir]) == 0
    assert os.path.exists(os.path.join(flag_dir, "fit_coefficients.csv"))
