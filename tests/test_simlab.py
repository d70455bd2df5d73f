"""Tests for the synthetic experiment harness.

Metric oracles are plain loops; generator checks reproduce the seeded draw
stream line by line or assert coarse distributional facts with frozen seeds.
"""

import tracemalloc

import numpy as np
import pytest

from artifact import (
    DomainError,
    ExperimentResult,
    SourceBundle,
    coefficient_matrix,
    default_bandwidth_grid,
    design_error,
    equicorrelated_design,
    estimate_with_method,
    fit_ols,
    global_shrink,
    local_shrink,
    matrix_error,
    parse_method,
    prial_experiment,
    run_experiment,
    sample_covariance,
    select_bandwidth,
    shrink_covariance,
    simulate_sources,
)
from artifact.fileio import format_rows
from artifact.shrinkage import empirical_loss
from artifact.simlab import _replication_seed, check_experiment, factor_model, parse_methods
from artifact.spectral import require_positive_definite

from loss_scenarios import (dense_inverse, dense_loss, factor_covariance, identity_loss,
                            loss_convergence, spectral_inverse, true_covariance)


def matrix_error_oracle(coefficients, truth):
    n, p = np.shape(coefficients)
    total = 0.0
    for i in range(n):
        for j in range(p):
            total += (coefficients[i][j] - truth[i][j]) ** 2
    return total / (n * p)


def design_error_oracle(coefficients, truth, design):
    m, p = np.shape(design)
    n = np.shape(coefficients)[0]
    total = 0.0
    for i in range(m):
        for t in range(n):
            gap = 0.0
            for j in range(p):
                gap += design[i][j] * (coefficients[t][j] - truth[t][j])
            total += gap * gap
    return total / (m * n)


def test_equicorrelated_matches_explicit_cholesky_stream():
    cov = 0.5 * np.eye(4) + 0.5 * np.ones((4, 4))
    chol = np.linalg.cholesky(cov)
    expected = np.random.default_rng(3).standard_normal((7, 4)) @ chol.T
    got = equicorrelated_design(7, 4, 0.5, np.random.default_rng(3))
    assert np.array_equal(got, expected)


def test_equicorrelated_uncorrelated_case_is_calibrated():
    x = equicorrelated_design(100000, 6, 0.0, np.random.default_rng(7))
    s = sample_covariance(x)
    assert np.max(np.abs(s - np.eye(6))) <= 0.02


def test_equicorrelated_rejects_bad_rho():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        equicorrelated_design(5, 2, -0.1, rng)
    with pytest.raises(DomainError):
        equicorrelated_design(5, 2, 1.0, rng)


def test_low_rank_coefficients_have_capped_rank():
    b = coefficient_matrix("low-rank", 40, 10, np.random.default_rng(2))
    assert b.shape == (40, 10)
    assert np.linalg.matrix_rank(b) == 8
    small = coefficient_matrix("low-rank", 5, 10, np.random.default_rng(2))
    assert np.linalg.matrix_rank(small) == 5


def test_all_small_coefficients_are_calibrated():
    # entries are 0.2 * standard normal, so E||B||_F^2 = 0.04 n p
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(200):
        b = coefficient_matrix("all-small", 40, 10, rng)
        total += np.sum(b * b)
    target = 0.04 * 40 * 10
    assert abs(total / 200 - target) <= 0.05 * target


def test_heavy_tail_coefficients_match_draw_stream():
    rng = np.random.default_rng(11)
    tau = rng.random()
    lam = np.abs(rng.standard_cauchy(5))
    expected = rng.standard_normal((3, 5)) * (tau * lam)[None, :]
    got = coefficient_matrix("heavy-tail", 3, 5, np.random.default_rng(11))
    assert np.array_equal(got, expected)


def test_heavy_tail_coefficients_have_heavy_tails():
    b = coefficient_matrix("heavy-tail", 1, 2000, np.random.default_rng(11))
    a = np.abs(b[0])
    assert a.max() / np.median(a) > 100.0


def test_scale_mixture_rows_split_into_two_scales():
    b = coefficient_matrix("scale-mixture", 4000, 3, np.random.default_rng(13))
    sd = b.std(axis=1)
    low = np.sum(sd < 1.0)
    assert 0 < low < 4000
    assert 0.4 < low / 4000 < 0.6
    # the wide rows are two orders of magnitude wider
    assert np.median(sd[sd >= 1.0]) / np.median(sd[sd < 1.0]) > 10.0


def test_coefficient_matrix_rejects_unknown_kind():
    with pytest.raises(DomainError):
        coefficient_matrix("sparse", 10, 5, np.random.default_rng(0))


def test_simulate_sources_shapes_and_reproducibility():
    bundle, truth, x_test = simulate_sources("all-small", 12, 4, rho=0.3,
                                             n_samples=30, n_test=9, rng=5)
    assert (bundle.n_sources, bundle.n_predictors) == (12, 4)
    assert truth.shape == (12, 4)
    assert x_test.shape == (9, 4)
    # the draw stream line by line: design, truth, noise, then the test design
    rng = np.random.default_rng(5)
    x = equicorrelated_design(30, 4, 0.3, rng)
    assert np.array_equal(truth, coefficient_matrix("all-small", 12, 4, rng))
    y = x @ truth.T + rng.standard_normal((30, 12))
    assert np.array_equal(x_test, equicorrelated_design(9, 4, 0.3, rng))
    oracle = SourceBundle(x, y)
    assert np.array_equal(fit_ols(bundle).coefficients, fit_ols(oracle).coefficients)
    assert bundle.sigma2 == oracle.sigma2
    again, truth2, x_test2 = simulate_sources("all-small", 12, 4, rho=0.3,
                                              n_samples=30, n_test=9, rng=5)
    assert np.array_equal(bundle.standardized, again.standardized)
    assert np.array_equal(truth, truth2)
    assert np.array_equal(x_test, x_test2)


def test_matrix_error_matches_loop_oracle():
    rng = np.random.default_rng(4)
    coef = rng.standard_normal((6, 3))
    truth = rng.standard_normal((6, 3))
    assert matrix_error(coef, truth) == pytest.approx(
        matrix_error_oracle(coef, truth), rel=1e-12
    )
    assert matrix_error(truth, truth) == 0.0


def test_design_error_matches_loop_oracle():
    rng = np.random.default_rng(5)
    coef = rng.standard_normal((4, 3))
    truth = rng.standard_normal((4, 3))
    design = rng.standard_normal((8, 3))
    assert design_error(coef, truth, design) == pytest.approx(
        design_error_oracle(coef, truth, design), rel=1e-12
    )


def test_design_error_constant_offset_hand_value():
    # one predictor, intercept-only design, coefficient off by c: error c^2
    design = np.ones((6, 1))
    assert design_error([[1.7]], [[1.0]], design) == pytest.approx(0.49)


def test_parse_method_accepts_known_tokens():
    for name in ("ols", "global", "global-sure", "local-1", "local-12", "local-02"):
        assert parse_method(name) == name


def test_parse_method_rejects_bad_tokens():
    # K is ASCII decimal digits only: int() would take "2_0" as 20 and
    # accept a sign or a digit of another script
    for name in ("ridge", "local-0", "local-x", "local-", "local-2_0", "local-+2",
                 "local-\u0663", "local- 2", "local-2.0"):
        with pytest.raises(DomainError):
            parse_method(name)


def test_parse_methods_refuses_a_repeated_estimator():
    # one estimator is its family and K, so local-2 and local-02 are one
    assert parse_methods(["ols", "global", "global-sure", "local-2", "local-03"]) == [
        "ols", "global", "global-sure", "local-2", "local-03"]
    for methods in (["ols", "ols"], ["local-2", "global", "local-02"]):
        with pytest.raises(DomainError, match="repeats"):
            parse_methods(methods)
        with pytest.raises(DomainError, match="repeats"):
            check_experiment(10, 3, 0.5, 20, 5, methods, 2, 0)


def test_estimate_with_method_dispatch():
    rng = np.random.default_rng(8)
    bundle, _, _ = simulate_sources("all-small", 16, 3, rho=0.0,
                                    n_samples=40, rng=rng)
    assert estimate_with_method(bundle, "ols").method == "ols"
    pooled = estimate_with_method(bundle, "global")
    assert pooled.method == "global"
    assert pooled.diagnostics["h_policy"] == "default"
    fixed = estimate_with_method(bundle, "global", h=0.3)
    assert fixed.diagnostics["h_policy"] == "fixed"
    assert fixed.diagnostics["h"] == 0.3
    assert np.array_equal(fixed.coefficients, global_shrink(bundle, 0.3).coefficients)
    sure = estimate_with_method(bundle, "global-sure", h=0.3)
    assert sure.diagnostics["h_policy"] == "auto"
    local = estimate_with_method(bundle, "local-2", seed=3, sweeps=6, burn_in=1)
    assert local.method == "local(2)"


def test_run_experiment_record_grid():
    res = run_experiment("all-small", 12, 3, rho=0.2, n_samples=30, n_test=5,
                         methods=("ols", "global"), reps=4, seed=9)
    assert len(res.records) == 8
    for r in res.records:
        assert set(r) == set(ExperimentResult.COLUMNS)
        assert r["design"] == "all-small"
        assert np.isfinite(r["mse"]) and np.isfinite(r["pe"])
    assert sorted(r["replication"] for r in res.records if r["method"] == "ols") == [0, 1, 2, 3]
    lines = format_rows(res.records, ExperimentResult.COLUMNS).splitlines()
    assert lines[0] == ",".join(ExperimentResult.COLUMNS)
    assert lines[1].split(",")[:6] == ["all-small", "12", "3", "0.2", "ols", "0"]


def test_run_experiment_common_random_numbers():
    # adding a method must leave the existing methods' records untouched
    base = run_experiment("all-small", 12, 3, rho=0.2, n_samples=30,
                          methods=("ols",), reps=3, seed=9)
    extended = run_experiment("all-small", 12, 3, rho=0.2, n_samples=30,
                              methods=("ols", "global"), reps=3, seed=9)
    assert base.values("ols", "mse").tolist() == extended.values("ols", "mse").tolist()
    assert base.values("ols", "pe").tolist() == extended.values("ols", "pe").tolist()


def test_run_experiment_summary_recomputes():
    res = run_experiment("all-small", 12, 3, rho=0.2, n_samples=30,
                         methods=("ols", "global"), reps=3, seed=9)
    summary = res.summary()
    vals = res.values("global", "mse")
    mean, sd = summary[("global", "mse")]
    assert mean == pytest.approx(np.mean(vals), rel=1e-12)
    assert sd == pytest.approx(np.std(vals, ddof=1), rel=1e-12)


def test_run_experiment_rejects_zero_reps():
    with pytest.raises(DomainError):
        run_experiment("all-small", 12, 3, reps=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.5])
@pytest.mark.parametrize("name, message", [
    ("reps", "replication"), ("n_test", "test sample"), ("n_sources", "source"),
    ("n_predictors", "predictor"), ("n_samples", "predictor and sample"),
])
def test_experiment_counts_must_be_whole_numbers(name, message, bad):
    # NaN fails every comparison, so a check by "< 1" alone let it through
    args = dict(n_sources=12, n_predictors=3, rho=0.5, n_samples=50, n_test=5,
                methods=["ols"], reps=2, seed=0)
    check_experiment(**args)
    args[name] = bad
    with pytest.raises(DomainError, match="need at least one .*" + message):
        check_experiment(**args)


def test_mixture_shrinkage_beats_pooled_on_two_scale_sources():
    res = run_experiment("scale-mixture", 50, 20, rho=0.5, n_samples=200,
                         methods=("global", "local-2"), reps=10, seed=0,
                         sweeps=60, burn_in=15)
    pooled = res.values("global", "mse").mean()
    mixed = res.values("local-2", "mse").mean()
    assert mixed < pooled


def test_true_covariance_hand_values():
    assert np.array_equal(true_covariance("independence", 3), np.eye(3))
    ar1 = true_covariance("ar1", 3, rho=0.5)
    expected = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    assert np.allclose(ar1, expected, atol=1e-15)
    spike = true_covariance("spike", 2, spike=0.5)
    assert np.allclose(spike, [[1.5, 0.5], [0.5, 1.5]], atol=1e-15)
    with pytest.raises(DomainError):
        true_covariance("wishart", 3)


def test_loss_convergence_record_fields():
    recs = loss_convergence("ar1", (30,), (0.5,), reps=2, seed=3)
    assert len(recs) == 2
    for r in recs:
        assert r["model"] == "ar1" and r["n"] == 30 and r["c"] == 0.5
        assert r["p"] == 15
        assert r["loss"] >= 0.0
    # the predictor count stays below n even for c near one
    tight = loss_convergence("independence", (10,), (0.99,), reps=1, seed=3)
    assert tight[0]["p"] == 9


@pytest.mark.parametrize("n, cs", [(10, (0.2, 0.9)), (40, (0.1, 0.5, 0.7)), (120, (0.3, 0.95))])
def test_identity_loss_matches_the_dense_loss(n, cs):
    # the independence model scores each replication from the spectrum of
    # S alone; the dense loss rotates the identity into S's eigenbasis
    recs = loss_convergence("independence", (n,), cs, reps=3, seed=7)
    for r in recs:
        ci = cs.index(r["c"])
        rng = np.random.default_rng(_replication_seed(7, 0, ci, r["replication"]))
        s = sample_covariance(rng.standard_normal((n, r["p"])) @ np.eye(r["p"]))
        want = dense_loss(np.eye(r["p"]), s, n)
        assert r["loss"] == pytest.approx(want, rel=1e-12, abs=0)
        assert identity_loss(s, n) == r["loss"]


def test_loss_shrinks_with_sample_size():
    cs = (0.1, 0.3, 0.5, 0.7, 0.9)
    recs = loss_convergence("independence", (100, 2000), cs, reps=2, seed=0)
    means = {}
    for r in recs:
        means.setdefault((r["n"], r["c"]), []).append(r["loss"])
    for c in cs:
        small = np.mean(means[(100, c)])
        large = np.mean(means[(2000, c)])
        assert large < small


def test_loss_grows_with_aspect_ratio():
    cs = (0.1, 0.3, 0.5, 0.7, 0.9)
    recs = loss_convergence("independence", (200,), cs, reps=40, seed=1)
    means = []
    for c in cs:
        means.append(np.mean([r["loss"] for r in recs if r["c"] == c]))
    assert all(means[i] < means[i + 1] for i in range(len(means) - 1))


def test_factor_covariance_shape_and_floor():
    cov = factor_covariance(12, rng=4)
    assert cov.shape == (12, 12)
    assert np.linalg.eigvalsh(cov).min() >= 1.0 - 1e-10
    again = factor_covariance(12, rng=4)
    assert np.array_equal(cov, again)


@pytest.mark.parametrize("p", [1, 2, 12, 37, 447])
def test_factor_model_inverse_matches_the_spectral_inverse(p):
    # Woodbury from the loadings against the eigensystem of the covariance:
    # worst Frobenius gap 3.3e-14 relative over seeds 0-2 at p = 1-447
    # (numpy 2.4.6, OpenBLAS); the bound is about ten times that
    for seed in range(3):
        cov, inverse = factor_model(p, seed)
        assert np.array_equal(cov, factor_covariance(p, seed))
        assert np.array_equal(inverse, inverse.T)
        want = spectral_inverse(cov)
        assert np.linalg.norm(inverse - want) <= 3e-13 * np.linalg.norm(want)


def test_prial_experiment_small_cell():
    recs = prial_experiment(np_product=500, aspect_ratios=(0.5,), reps=20, seed=0)
    by_policy = {r["policy"]: r for r in recs}
    assert set(by_policy) == {"default", "sure", "oracle"}
    # the oracle minimizes the Monte Carlo mean loss over the grid, so its
    # improvement is exactly 100 and nothing on the grid can beat it
    assert by_policy["oracle"]["prial"] == 100.0
    assert by_policy["default"]["prial"] <= 100.0
    assert by_policy["sure"]["prial"] <= 100.0
    for r in recs:
        assert r["undefined"] is False
        assert r["prial"] > 0.0
        assert r["mean_loss"] <= r["raw_mean_loss"]
        assert (r["n"], r["p"]) == (32, 16)


def prial_dense_oracle(np_product, aspect, reps, seed):
    """One prial cell on dense matrices: each estimate inverted as a p-by-p
    matrix and its loss traced against S directly, per grid bandwidth."""
    p = int(round(np.sqrt(aspect * np_product)))
    n = int(round(p / aspect))
    cell_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0)))
    cov = factor_covariance(p, cell_rng)
    truth_inv = np.linalg.inv(cov)
    chol = np.linalg.cholesky(cov)
    grid = default_bandwidth_grid(n, p)

    def loss(inverse, s):
        diff = truth_inv - inverse
        return float(np.trace(diff @ diff @ s)) / p

    raw, grid_losses, sure = [], [], []
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, rep + 1)))
        s = sample_covariance(rng.standard_normal((n, p)) @ chol.T)
        raw.append(loss(np.linalg.inv(s), s))
        row = [loss(dense_inverse(shrink_covariance(s, n, h)), s) for h in grid]
        grid_losses.append(row)
        sure.append(row[select_bandwidth(s, n, grid).index])
    mean_grid = np.mean(grid_losses, axis=0)
    oracle = int(np.argmin(mean_grid))
    return {
        "raw_mean_loss": float(np.mean(raw)),
        "oracle_h": float(grid[oracle]),
        "default": float(mean_grid[grid.size // 2]),
        "sure": float(np.mean(sure)),
        "oracle": float(mean_grid[oracle]),
    }


def test_prial_experiment_matches_dense_oracle():
    want = prial_dense_oracle(500, 0.5, 12, 3)
    recs = prial_experiment(np_product=500, aspect_ratios=(0.5,), reps=12, seed=3)
    for r in recs:
        assert r["oracle_h"] == want["oracle_h"]
        for got, expect in ((r["mean_loss"], want[r["policy"]]),
                            (r["raw_mean_loss"], want["raw_mean_loss"])):
            assert abs(got - expect) <= 1e-12 * expect


def prial_replicate_oracle(np_product, aspect_ratios=(0.3, 0.5, 0.7), reps=100, seed=0,
                           policies=("default", "sure", "oracle"), grid_size=15):
    """prial_experiment one replication at a time: each S is factored, tuned
    and scored by calls of its own."""
    records = []
    for ci, c in enumerate(aspect_ratios):
        p = int(round(np.sqrt(c * np_product)))
        n = int(round(p / c))
        cell_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci, 0)))
        cov, truth_inv = factor_model(p, cell_rng)
        chol = np.linalg.cholesky(cov)
        grid = default_bandwidth_grid(n, p, grid_size)
        raw_losses = np.empty(reps)
        grid_losses = np.empty((reps, grid.size))
        sure_losses = np.empty(reps)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci, rep + 1)))
            z = rng.standard_normal((n, p)) @ chol.T
            decomp = require_positive_definite(sample_covariance(z), "inverse")
            chosen = select_bandwidth(decomp, n, grid)
            inverse_values = 1.0 / np.vstack([decomp.eigenvalues, chosen.values])
            losses = empirical_loss(truth_inv, decomp, inverse_values)
            raw_losses[rep] = losses[0]
            grid_losses[rep] = losses[1:]
            sure_losses[rep] = grid_losses[rep, chosen.index]
        mean_raw = float(np.mean(raw_losses))
        mean_grid = np.mean(grid_losses, axis=0)
        oracle_idx = int(np.argmin(mean_grid))
        denominator = mean_raw - float(mean_grid[oracle_idx])
        policy_means = {
            "default": float(mean_grid[int(grid_size) // 2]),
            "sure": float(np.mean(sure_losses)),
            "oracle": float(mean_grid[oracle_idx]),
        }
        for pol in policies:
            undefined = denominator <= 0
            prial = np.nan if undefined else (
                100.0 * (mean_raw - policy_means[pol]) / denominator)
            records.append({
                "aspect": float(c), "n": n, "p": p, "policy": pol, "prial": float(prial),
                "mean_loss": policy_means[pol], "raw_mean_loss": mean_raw,
                "oracle_h": float(grid[oracle_idx]), "undefined": bool(undefined),
            })
    return records


@pytest.mark.parametrize("kwargs", [
    # chunks of 56, 32 and 23 replications at p = 24, 32 and 37, each cell
    # with a short last chunk
    dict(np_product=2000, reps=60, seed=0),
    dict(np_product=2000, aspect_ratios=(0.8,), reps=30, seed=1, grid_size=9),
    # p = 1 and p = 2
    dict(np_product=12, aspect_ratios=(0.1, 0.5), reps=9, seed=4),
    # p = 447: one replication per chunk
    dict(np_product=400000, aspect_ratios=(0.5,), reps=2, seed=1),
], ids=["desk", "aspect-0.8", "tiny-p", "large-p"])
def test_prial_experiment_matches_the_replicate_loop(kwargs):
    # repr prints every float to round-trip precision, so this is bit-identity
    assert repr(prial_experiment(**kwargs)) == repr(prial_replicate_oracle(**kwargs))


def test_large_p_prial_cell_memory_stays_within_the_replicate_loop_peak():
    # The benchmark's prial-large-p cell: at p = 447 a chunk holds one
    # replication.  The bound is the peak of the one-at-a-time loop that
    # chunking replaced, measured with tracemalloc on numpy 2.4.6 (2 vCPUs,
    # OpenBLAS): 16.3 MB, 10.2 arrays of p x p doubles.  The chunked cell
    # peaked at 14.5 MB (9.1 arrays) on the same machine.
    p = 447
    prial_experiment(np_product=200, aspect_ratios=(0.5,), reps=2)  # first-call caches
    tracemalloc.start()
    try:
        prial_experiment(np_product=400000, aspect_ratios=(0.5,), reps=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.2 * p * p * 8


@pytest.mark.parametrize("call", [
    lambda: prial_experiment(np_product=200, aspect_ratios=(0.5,), reps=2, seed=-1),
    lambda: run_experiment("low-rank", 6, 3, reps=1, seed=-1),
    lambda: simulate_sources("low-rank", 6, 3, rng=-1),
    lambda: local_shrink(simulate_sources("low-rank", 12, 3, rng=0)[0], 2, sweeps=3,
                         burn_in=1, seed=-1),
], ids=["prial_experiment", "run_experiment", "simulate_sources", "local_shrink"])
def test_negative_seed_is_a_domain_error(call):
    with pytest.raises(DomainError, match="seed must be a non-negative integer, got -1"):
        call()


def test_prial_experiment_validation():
    with pytest.raises(DomainError):
        prial_experiment(np_product=500, policies=("default", "ridge"))
    with pytest.raises(DomainError):
        prial_experiment(np_product=500, aspect_ratios=(0.95,))
    # a replication count that is no whole number is refused, not truncated
    # (2.5) or left to int() (inf)
    for bad in (np.nan, np.inf, 2.5):
        with pytest.raises(DomainError, match="need at least one .*replication"):
            prial_experiment(np_product=500, reps=bad)
