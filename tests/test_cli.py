"""End-to-end tests of the command-line front end.

Every test drives main() in-process and inspects exit codes, stdout/stderr,
and the files written under a temporary output directory.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from artifact import cli, errors
from artifact.cli import main
from artifact.fileio import format_matrix, read_matrix
from artifact.simlab import simulate_sources


def write_matrix(path, matrix, fmt="%.6g"):
    Path(path).write_text(format_matrix(matrix, fmt))


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
    (errors.DegeneracyError, 4, "error: numerical: "),
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


def test_simulate_without_seed_exits_3(tmp_path):
    code = main(["simulate", "--design", "mix", "--n", "12", "--p", "3",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 3


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


def test_crossval_pooled_shrinkage_helps_on_mixture_data(tmp_path):
    # ten replicates of a two-scale bundle: pooled shrinkage should not lose
    # to plain least squares on average holdout error
    ols_means, global_means = [], []
    for i in range(10):
        bundle, _, _ = simulate_sources("scale-mixture", 50, 20, rho=0.5,
                                        n_samples=200, rng=100 + i)
        design = str(tmp_path / ("x%d.csv" % i))
        response = str(tmp_path / ("y%d.csv" % i))
        write_matrix(design, bundle.design)
        write_matrix(response, bundle.responses)
        out = str(tmp_path / ("out%d" % i))
        assert main(["crossval", "--design", design, "--response", response,
                     "--methods", "ols,global", "--folds", "10",
                     "--seed", str(i), "--output-dir", out]) == 0
        manifest = read_manifest(os.path.join(out, "crossval_manifest.txt"))
        ols_means.append(float(manifest["result_pmse_ols"]))
        global_means.append(float(manifest["result_pmse_global"]))
    assert np.mean(global_means) <= np.mean(ols_means)


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


def test_prial_without_seed_exits_3(tmp_path):
    assert main(["prial", "--output-dir", str(tmp_path / "out")]) == 3


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
