"""Tests for the multi-source regression layer.

Oracles here are deliberately naive: a cofactor-expansion 3x3 inverse for the
normal equations, a scalar Gaussian density for posterior weights, direct
recomposition of the shrinkage from public pieces, and a dense mixture sampler
that assembles every component's p-by-p shrinkage operator each sweep.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import (
    CoefficientEstimate,
    DimensionError,
    DomainError,
    InsufficientDataError,
    NoiseModel,
    RegimeError,
    SingularityError,
    SourceBundle,
    default_bandwidth,
    fit_ols,
    global_shrink,
    local_shrink,
    predictive_error,
    sample_covariance,
    select_components,
    shrink_covariance,
    standardize,
)
from artifact.regress import (
    _component_shrunk,
    _initial_labels,
    _log_posteriors,
    _mixture_sweeps,
    _posterior_weights,
)


def inverse_3x3_oracle(m):
    # cofactor expansion, no linalg
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = np.array(
        [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    )
    return adj / det


def designed_matrix(rng, rows, singular_values):
    """X = U diag(s) V' with random orthonormal U (rows by p) and V (p by p)."""
    p = len(singular_values)
    u = np.linalg.qr(rng.standard_normal((rows, p)))[0]
    v = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return (u * singular_values) @ v.T


def noise_from_q(sigma2, q):
    """NoiseModel with coefficient covariance q, from the eigh of q.

    q = W diag(lam) W' is sigma2 (X'X)^-1 for a design with right singular
    vectors W and singular values sqrt(sigma2 / lam).
    """
    lam, w = np.linalg.eigh(q)
    return NoiseModel(sigma2, w, np.sqrt(sigma2 / lam))


def gaussian_density_oracle(x, variance):
    return np.exp(-x * x / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)


def log_density_rows_oracle(standardized, decomp, values):
    """Row-wise log N(b; 0, U diag(values) U') using a factored covariance."""
    rotated = standardized @ decomp.eigenvectors
    quad = np.sum(rotated * rotated / values, axis=1)
    logdet = float(np.sum(np.log(values)))
    p = standardized.shape[1]
    return -0.5 * (p * np.log(2.0 * np.pi) + logdet + quad)


def posterior_weights(rows, variances, counts):
    """Sampler weights for rows under N(0, diag(variances[c])) components.

    Returns the (components, rows) log posteriors and weights.
    """
    values = np.asarray(variances, dtype=float)
    k, p = values.shape
    vectors = np.repeat(np.eye(p)[:, None, :], k, axis=1)
    logs, _ = _log_posteriors(np.asarray(rows, dtype=float), vectors, values,
                              np.asarray(counts))
    return logs, _posterior_weights(logs)


def dense_mixture_sweeps_oracle(coefficients, standardized, noise, labels, gumbels,
                                burn_in):
    # the sampler written out densely: all draws up front, one density pass and
    # one p-by-p operator coefficients @ (I - Q^1/2 Sigma_k^-1 Q^-1/2)' per
    # component per sweep, and the posterior mean built on every sweep
    sweeps, n, k = gumbels.shape
    p = standardized.shape[1]
    labels = np.asarray(labels, dtype=int).copy()
    pooled = _component_shrunk(standardized, n, p)
    accum = np.zeros_like(coefficients)
    kept = pooled_resets = clamp_total = 0
    for s in range(sweeps):
        fitted = []
        for comp in range(k):
            members = standardized[labels == comp]
            shrunk = pooled
            if members.shape[0] >= 2:
                try:
                    shrunk = _component_shrunk(members, members.shape[0], p)
                except SingularityError:
                    pass
            pooled_resets += shrunk is pooled
            clamp_total += shrunk.clamp_count
            fitted.append(shrunk)
        floored = np.maximum(np.bincount(labels, minlength=k).astype(float), 0.5)
        proportions = floored / floored.sum()
        logs = np.empty((n, k))
        for comp, shrunk in enumerate(fitted):
            logs[:, comp] = np.log(proportions[comp]) + log_density_rows_oracle(
                standardized, shrunk.decomposition, shrunk.values
            )
        weights = np.exp(logs - np.max(logs, axis=1, keepdims=True))
        weights /= np.sum(weights, axis=1, keepdims=True)
        estimate = np.zeros_like(coefficients)
        for comp, shrunk in enumerate(fitted):
            u = shrunk.decomposition.eigenvectors
            inv = u @ np.diag(1.0 / shrunk.values) @ u.T
            rotate = noise.q_half @ inv @ noise.q_half_inv
            estimate += weights[:, comp, None] * (coefficients @ (np.eye(p) - rotate).T)
        if s >= burn_in:
            accum += estimate
            kept += 1
        labels = np.argmax(logs + gumbels[s], axis=1)
    diagnostics = {
        "sweeps": sweeps,
        "burn_in": burn_in,
        "pooled_resets": pooled_resets,
        "clamp_count": clamp_total,
        "final_component_sizes": np.bincount(labels, minlength=k).tolist(),
    }
    return accum / kept, diagnostics


def two_scale_bundle(seed, n_samples, p, n_sources, top=1.0):
    # half the sources carry tight coefficients and half wide ones, so a
    # mixture sampler has components to find; top > 1 scales the coefficient
    # columns geometrically from 1 to top, so the component covariances have
    # condition numbers near top^2
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, p))
    scale = np.where(rng.random(n_sources) < 0.5, 0.1, 3.0)
    beta = rng.standard_normal((n_sources, p)) * scale[:, None] * np.geomspace(1.0, top, p)
    y = x @ beta.T + rng.standard_normal((n_samples, n_sources))
    return SourceBundle(x, y)


def whitened_bundle(rng, n_samples, p, n_sources, signal_scale):
    # coefficient rows drawn with covariance signal_scale^2 * (X'X)^-1 so the
    # standardized rows have a known spherical law
    x = rng.standard_normal((n_samples, p))
    q = np.linalg.inv(x.T @ x)
    q_half = np.linalg.cholesky(q)
    beta = rng.standard_normal((n_sources, p)) @ q_half.T * signal_scale
    y = x @ beta.T + rng.standard_normal((n_samples, n_sources))
    return SourceBundle(x, y), beta


def test_bundle_validates_shapes():
    with pytest.raises(DimensionError):
        SourceBundle(np.ones(3), np.ones((3, 2)))
    with pytest.raises(DimensionError):
        SourceBundle(np.ones((3, 1)), np.ones((4, 2)))
    with pytest.raises(DimensionError):
        SourceBundle(np.ones((3, 1)), np.ones((3, 0)))
    with pytest.raises(DimensionError):
        SourceBundle(np.ones((3, 0)), np.ones((3, 2)))


def test_bundle_rejects_wide_design():
    with pytest.raises(InsufficientDataError):
        SourceBundle(np.ones((3, 3)), np.ones((3, 2)))
    with pytest.raises(InsufficientDataError):
        SourceBundle(np.ones((2, 3)), np.ones((2, 2)))


def test_bundle_rejects_collinear_design():
    x = np.ones((5, 2))
    x[:, 1] = 2.0 * x[:, 0]
    with pytest.raises(SingularityError):
        SourceBundle(x, np.ones((5, 3)))
    # cond(X'X) = cond(X)^2 against MAX_DESIGN_CONDITION = 1e12
    rng = np.random.default_rng(4)
    y = rng.standard_normal((40, 2))
    SourceBundle(designed_matrix(rng, 40, np.logspace(0, -5.5, 4)), y)
    with pytest.raises(SingularityError):
        SourceBundle(designed_matrix(rng, 40, np.logspace(0, -6.5, 4)), y)


def test_bundle_exposes_counts_and_gram():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((9, 2))
    bundle = SourceBundle(x, rng.standard_normal((9, 4)))
    assert (bundle.n_samples, bundle.n_predictors, bundle.n_sources) == (9, 2, 4)
    u, s, vt = bundle.factor
    assert u.shape == (9, 2) and vt.shape == (2, 2)
    assert np.allclose((u * s) @ vt, x, atol=1e-12)
    assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)
    assert np.allclose(vt @ vt.T, np.eye(2), atol=1e-12)
    assert np.allclose((vt.T * s**2) @ vt, x.T @ x, atol=1e-12)


def test_ols_single_predictor_hand_value():
    # X = e1 in R^3, y = (2, 0, 0): beta_hat = 2, zero residual hits the floor
    x = np.array([[1.0], [0.0], [0.0]])
    y = np.array([[2.0], [0.0], [0.0]])
    estimate, noise = fit_ols(SourceBundle(x, y))
    assert np.allclose(estimate.coefficients, [[2.0]], atol=1e-14)
    assert noise.sigma2 == 1e-12
    assert estimate.method == "ols"


def test_ols_noiseless_recovery():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4))
    beta = rng.standard_normal((6, 4))
    estimate, _ = fit_ols(SourceBundle(x, x @ beta.T))
    assert np.allclose(estimate.coefficients, beta, atol=1e-10)


def test_ols_error_grows_with_cond_not_its_square():
    # cond(X) = 1e5: through the normal equations the error is of order
    # cond(X)^2 * eps = 2e-6, through the SVD of order cond(X) * eps
    rng = np.random.default_rng(21)
    singular_values = np.logspace(0, -5, 5)
    x = designed_matrix(rng, 60, singular_values)
    beta = rng.standard_normal((4, 5))
    estimate, _ = fit_ols(SourceBundle(x, x @ beta.T))
    error = np.max(np.abs(estimate.coefficients - beta)) / np.max(np.abs(beta))
    assert error <= 100 * 1e5 * np.finfo(float).eps


def test_ols_matches_cofactor_inverse_oracle():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal((50, 4))
    estimate, noise = fit_ols(SourceBundle(x, y))
    gram_inv = inverse_3x3_oracle(x.T @ x)
    expected = (gram_inv @ x.T @ y).T
    assert np.allclose(estimate.coefficients, expected, rtol=0, atol=1e-10)
    # pooled residual variance and its induced coefficient covariance
    resid = y - x @ expected.T
    sigma2 = np.mean(np.sum(resid * resid, axis=0) / (50 - 3))
    assert noise.sigma2 == pytest.approx(sigma2, rel=1e-12)
    q = noise.q_half @ noise.q_half
    assert np.allclose(q, sigma2 * gram_inv, rtol=1e-10)


def test_ols_fit_is_kept_on_the_bundle_read_only():
    # every estimator starts from fit_ols, so a bundle scored by several
    # methods is fitted once; the shared arrays cannot be written through
    rng = np.random.default_rng(12)
    bundle, _ = whitened_bundle(rng, 30, 3, 8, 1.0)
    first, noise = fit_ols(bundle)
    second, again = fit_ols(bundle)
    assert second.coefficients is first.coefficients and again is noise
    assert second is not first and second.diagnostics is not first.diagnostics
    shared = (first.coefficients, noise.q_half, noise.q_half_inv,
              bundle.design, bundle.responses)
    for array in shared:
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_noise_model_square_root_factors():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 3))
    noise = noise_from_q(2.0, a.T @ a / 6)
    q = noise.q_half @ noise.q_half
    assert np.allclose(q, a.T @ a / 6, atol=1e-12)
    assert np.allclose(
        noise.q_half @ noise.q_half_inv, np.eye(3), atol=1e-10
    )


def test_standardize_identity_noise_is_identity_map():
    b = np.array([[1.0, 2.0], [3.0, -1.0]])
    estimate = CoefficientEstimate(b, "ols")
    out = standardize(estimate, noise_from_q(1.0, np.eye(2)))
    assert np.allclose(out, b)


def test_standardize_scalar_covariance():
    # Q = 4I halves every coordinate
    estimate = CoefficientEstimate([[2.0, 2.0]], "ols")
    out = standardize(estimate, noise_from_q(1.0, 4.0 * np.eye(2)))
    assert np.allclose(out, [[1.0, 1.0]])


def test_standardize_round_trip():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 3))
    noise = noise_from_q(1.5, a.T @ a / 5)
    b = rng.standard_normal((7, 3))
    out = standardize(CoefficientEstimate(b, "ols"), noise)
    assert np.allclose(out @ noise.q_half, b, atol=1e-8)


def test_standardize_rejects_width_mismatch():
    estimate = CoefficientEstimate(np.ones((2, 3)), "ols")
    with pytest.raises(DimensionError):
        standardize(estimate, noise_from_q(1.0, np.eye(2)))


def test_global_shrink_matches_manual_recomposition():
    rng = np.random.default_rng(12)
    bundle, _ = whitened_bundle(rng, 40, 3, 25, 2.0)
    fit = global_shrink(bundle)

    estimate, noise = fit_ols(bundle)
    bstar = standardize(estimate, noise)
    s = sample_covariance(bstar)
    shrunk = shrink_covariance(s, 25, default_bandwidth(25, 3))
    rotate = noise.q_half @ shrunk.inverse() @ noise.q_half_inv
    expected = estimate.coefficients @ (np.eye(3) - rotate).T
    assert np.allclose(fit.coefficients, expected, rtol=0, atol=1e-12)
    assert fit.method == "global"
    assert fit.diagnostics["h"] == pytest.approx(default_bandwidth(25, 3))


def test_global_shrink_identity_spread_kills_signal(monkeypatch):
    # if the fitted spread were exactly I the whitened rule removes everything
    import artifact.regress as regress

    class FakeShrunk:
        clamp_count = 0

        def inverse(self):
            return np.eye(3)

    monkeypatch.setattr(regress, "shrink_covariance", lambda s, n, h: FakeShrunk())
    rng = np.random.default_rng(1)
    bundle, _ = whitened_bundle(rng, 30, 3, 12, 1.0)
    fit = global_shrink(bundle)
    assert np.allclose(fit.coefficients, 0.0, atol=1e-12)


def test_global_shrink_beats_ols_under_spherical_signal():
    # strong whitened prior: the pooled rule should win on almost every draw
    wins = 0
    for rep in range(100):
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(rep,)))
        bundle, beta = whitened_bundle(rng, 50, 5, 500, np.sqrt(3.0))
        ols, _ = fit_ols(bundle)
        pooled = global_shrink(bundle)
        err_ols = np.mean((ols.coefficients - beta) ** 2)
        err_pooled = np.mean((pooled.coefficients - beta) ** 2)
        wins += err_pooled < err_ols
    assert wins >= 95


def test_global_shrink_bandwidth_policies():
    rng = np.random.default_rng(21)
    bundle, _ = whitened_bundle(rng, 40, 3, 30, 1.0)
    fixed = global_shrink(bundle, h=0.3)
    assert fixed.diagnostics["h_policy"] == "fixed"
    assert fixed.diagnostics["h"] == 0.3
    auto = global_shrink(bundle, h="auto")
    assert auto.diagnostics["h_policy"] == "auto"
    assert auto.diagnostics["h_fallback"] is False
    assert auto.diagnostics["h"] > 0


def test_global_shrink_auto_falls_back_when_sources_scarce():
    # n_sources = p + 1 leaves no room for the risk estimate
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal((30, 5))
    fit = global_shrink(SourceBundle(x, y), h="auto")
    assert fit.diagnostics["h_fallback"] is True
    assert fit.diagnostics["h"] == pytest.approx(default_bandwidth(5, 4))


def test_global_shrink_rejects_square_case_and_bad_bandwidth():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 4))
    bundle = SourceBundle(x, rng.standard_normal((30, 4)))
    with pytest.raises(RegimeError):
        global_shrink(bundle)
    wide, _ = whitened_bundle(rng, 30, 3, 10, 1.0)
    with pytest.raises(DomainError):
        global_shrink(wide, h="newton")
    with pytest.raises(DomainError):
        global_shrink(wide, h=-0.2)


# equivariance of the pooled rule: rotating the design, reordering the
# sources, or rescaling every response moves the coefficients the same way.
# Source counts span both regimes; "auto" falls back to the default bandwidth
# when there are too few sources to tune.

equivariance_cases = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=14),
    st.sampled_from(["default", "auto"]),
)


def equivariance_bundle(seed, p, sources):
    rng = np.random.default_rng(seed)
    if sources == p:  # the pooled rule is undefined there
        sources += 1
    bundle, _ = whitened_bundle(rng, 3 * p + 8, p, sources, 1.5)
    return rng, bundle


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-8 * (1.0 + np.max(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(equivariance_cases)
def test_global_shrink_rotating_design_rotates_coefficients(case):
    seed, p, sources, h = case
    rng, bundle = equivariance_bundle(seed, p, sources)
    r, _ = np.linalg.qr(rng.standard_normal((p, p)))
    base = global_shrink(bundle, h)
    turned = global_shrink(SourceBundle(bundle.design @ r, bundle.responses), h)
    assert_close(turned.coefficients, base.coefficients @ r)


@settings(max_examples=40, deadline=None)
@given(equivariance_cases)
# one predictor makes the risk curve flat in h: only round-off separates the
# grid points there, and the tuned h must not depend on the source order.
# With three sources the flat curve is also zero.
@example((1, 1, 5, "auto"))
@example((577163664, 1, 3, "auto"))
def test_global_shrink_permuting_sources_permutes_rows(case):
    seed, p, sources, h = case
    rng, bundle = equivariance_bundle(seed, p, sources)
    perm = rng.permutation(bundle.n_sources)
    base = global_shrink(bundle, h)
    shuffled = global_shrink(SourceBundle(bundle.design, bundle.responses[:, perm]), h)
    assert_close(shuffled.coefficients, base.coefficients[perm])
    assert shuffled.diagnostics["h"] == base.diagnostics["h"]


@settings(max_examples=40, deadline=None)
@given(equivariance_cases, st.floats(min_value=0.01, max_value=100.0), st.booleans())
def test_global_shrink_scaling_responses_scales_coefficients(case, c, flip):
    seed, p, sources, h = case
    c = -c if flip else c
    _, bundle = equivariance_bundle(seed, p, sources)
    base = global_shrink(bundle, h)
    scaled = global_shrink(SourceBundle(bundle.design, c * bundle.responses), h)
    assert_close(scaled.coefficients, c * base.coefficients)


def test_posterior_weights_single_component():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((6, 2))
    _, w = posterior_weights(b, [[1.0, 1.0]], [6])
    assert w.shape == (1, 6)
    assert np.allclose(w, 1.0, atol=1e-15)


def test_posterior_weights_match_scalar_density_oracle():
    # p = 1 lets us write the posterior by hand
    x = 0.1
    _, w = posterior_weights([[x]], [[1.0], [100.0]], [1, 1])
    d1 = 0.5 * gaussian_density_oracle(x, 1.0)
    d2 = 0.5 * gaussian_density_oracle(x, 100.0)
    assert w[0, 0] == pytest.approx(d1 / (d1 + d2), rel=1e-12)
    assert w[0, 0] > 0.9 and w.shape == (2, 1)


def test_posterior_weights_rows_normalized():
    rng = np.random.default_rng(17)
    b = rng.standard_normal((30, 3)) * 2.0
    variances = [[1.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 2.0, 3.0]]
    _, w = posterior_weights(b, variances, [2, 3, 5])
    assert np.all(w >= 0) and w.shape == (3, 30)
    assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)


def test_posterior_weights_floor_empty_component_count():
    # an emptied component keeps prior weight (1/2) / (n + 1/2), so the
    # sampler can still move rows into it
    x, n = 0.3, 4
    logs, w = posterior_weights([[x]], [[1.0], [2.0]], [n, 0])
    prior = np.log(0.5 / (n + 0.5))
    expected = prior + np.log(gaussian_density_oracle(x, 2.0))
    assert logs[1, 0] == pytest.approx(expected, rel=1e-12)
    assert np.isfinite(logs).all() and w[1, 0] > 0


def test_local_single_component_equals_global():
    rng = np.random.default_rng(31)
    bundle, _ = whitened_bundle(rng, 40, 4, 30, 1.5)
    pooled = global_shrink(bundle)
    local = local_shrink(bundle, 1, sweeps=5, burn_in=0, seed=0)
    assert np.allclose(local.coefficients, pooled.coefficients, atol=1e-8)
    assert local.method == "local(1)"


def test_local_shrink_is_seed_deterministic():
    rng = np.random.default_rng(32)
    bundle, _ = whitened_bundle(rng, 40, 3, 24, 1.0)
    a = local_shrink(bundle, 2, sweeps=12, burn_in=3, seed=7)
    b = local_shrink(bundle, 2, sweeps=12, burn_in=3, seed=7)
    assert np.array_equal(a.coefficients, b.coefficients)
    c = local_shrink(bundle, 2, sweeps=12, burn_in=3, seed=8)
    assert not np.array_equal(a.coefficients, c.coefficients)


def test_local_shrink_diagnostics_and_preconditions():
    rng = np.random.default_rng(33)
    bundle, _ = whitened_bundle(rng, 40, 3, 24, 1.0)
    fit = local_shrink(bundle, 2, sweeps=8, burn_in=2, seed=1)
    diag = fit.diagnostics
    assert diag["sweeps"] == 8 and diag["burn_in"] == 2
    assert diag["n_components"] == 2 and diag["seed"] == 1
    assert sum(diag["final_component_sizes"]) == 24
    assert diag["pooled_resets"] >= 0
    with pytest.raises(InsufficientDataError):
        local_shrink(bundle, 13, sweeps=8, burn_in=2)
    with pytest.raises(DomainError):
        local_shrink(bundle, 0)
    with pytest.raises(DomainError):
        local_shrink(bundle, 2, sweeps=5, burn_in=5)
    with pytest.raises(DomainError):
        local_shrink(bundle, 2, sweeps=5.5, burn_in=1)


def test_mixture_sweeps_component_relabeling_invariance():
    # swapping the two component slots (initial labels and the matching Gumbel
    # columns) must reproduce the same trajectory and estimate
    rng = np.random.default_rng(41)
    bundle, _ = whitened_bundle(rng, 40, 3, 20, 1.0)
    estimate, noise = fit_ols(bundle)
    bstar = standardize(estimate, noise)
    labels = _initial_labels(bstar, 2)
    gumbels = np.random.default_rng(5).gumbel(size=(6, 20, 2))

    out_a, diag_a = _mixture_sweeps(
        estimate.coefficients, bstar, noise, labels, gumbels, 1
    )
    out_b, diag_b = _mixture_sweeps(
        estimate.coefficients, bstar, noise, 1 - labels, gumbels[:, :, ::-1], 1
    )
    assert np.allclose(out_a, out_b, rtol=0, atol=1e-10)
    assert diag_a["final_component_sizes"] == diag_b["final_component_sizes"][::-1]


def test_mixture_single_sweep_matches_posterior_assembly():
    # one sweep, no burn-in: the output is the posterior-weighted combination
    # of the per-component rules fitted to the initial labels
    rng = np.random.default_rng(42)
    bundle, _ = whitened_bundle(rng, 40, 3, 21, 1.0)
    estimate, noise = fit_ols(bundle)
    bstar = standardize(estimate, noise)
    labels = _initial_labels(bstar, 2)
    counts = np.bincount(labels, minlength=2)
    assert counts.min() >= 2 and counts[0] != 3 and counts[1] != 3

    gumbels = np.random.default_rng(9).gumbel(size=(1, 21, 2))
    out, _ = _mixture_sweeps(estimate.coefficients, bstar, noise, labels, gumbels, 0)

    shrunk = []
    for comp in range(2):
        members = bstar[labels == comp]
        cnt = members.shape[0]
        s = members.T @ members / cnt
        shrunk.append(shrink_covariance(s, cnt, default_bandwidth(cnt, 3)))
    logs = np.empty((21, 2))
    for comp, c in enumerate(shrunk):
        prior = np.log(counts[comp] / counts.sum())
        logs[:, comp] = prior + log_density_rows_oracle(bstar, c.decomposition, c.values)
    weights = np.exp(logs - np.max(logs, axis=1, keepdims=True))
    weights /= np.sum(weights, axis=1, keepdims=True)
    expected = np.zeros_like(estimate.coefficients)
    for comp in range(2):
        rotate = (
            noise.q_half
            @ shrunk[comp].inverse()
            @ noise.q_half_inv
        )
        rows = estimate.coefficients @ (np.eye(3) - rotate).T
        expected += weights[:, comp, None] * rows
    assert np.allclose(out, expected, rtol=0, atol=1e-10)


def test_mixture_sweeps_pooled_reset_on_empty_component():
    rng = np.random.default_rng(43)
    bundle, _ = whitened_bundle(rng, 40, 3, 16, 1.0)
    estimate, noise = fit_ols(bundle)
    bstar = standardize(estimate, noise)
    gumbels = np.random.default_rng(1).gumbel(size=(1, 16, 2))
    _, diag = _mixture_sweeps(
        estimate.coefficients, bstar, noise, np.zeros(16, dtype=int), gumbels, 0
    )
    assert diag["pooled_resets"] >= 1


def oracle_case(k, sweeps, burn_in, empty_start, top=1.0):
    name = "%d-%d-%d-%s" % (k, sweeps, burn_in, empty_start)
    if top != 1.0:
        name += "-top%.0e" % top
    return pytest.param(k, sweeps, burn_in, empty_start, top, id=name)


@pytest.mark.parametrize(
    "k, sweeps, burn_in, empty_start, top",
    [
        oracle_case(1, 10, 2, False), oracle_case(2, 14, 3, False),
        oracle_case(3, 12, 4, False), oracle_case(3, 10, 2, True),
        # ill-conditioned components: the sampler works with their precisions
        oracle_case(1, 10, 2, False, 1e4), oracle_case(2, 14, 3, False, 1e2),
        oracle_case(2, 14, 3, False, 1e4), oracle_case(3, 12, 4, False, 1e3),
        oracle_case(3, 12, 4, False, 1e4), oracle_case(3, 10, 2, True, 1e4),
    ],
)
def test_mixture_sweeps_match_dense_oracle(k, sweeps, burn_in, empty_start, top):
    bundle = two_scale_bundle(60 + k, 30, 4, 45, top)
    estimate, noise = fit_ols(bundle)
    bstar = standardize(estimate, noise)
    n = bundle.n_sources
    # starting every row in component 0 empties the others: pooled resets
    labels = np.zeros(n, dtype=int) if empty_start else _initial_labels(bstar, k)
    gumbels = np.random.default_rng(k).gumbel(size=(sweeps, n, k))
    out, diag = _mixture_sweeps(
        estimate.coefficients, bstar, noise, labels, gumbels, burn_in
    )
    expected, expected_diag = dense_mixture_sweeps_oracle(
        estimate.coefficients, bstar, noise, labels, gumbels, burn_in
    )
    assert diag == expected_diag
    if empty_start:
        assert diag["pooled_resets"] >= k - 1
    # column by column, so the small columns of a scaled bundle count too
    scale = np.max(np.abs(expected), axis=0)
    assert np.all(np.max(np.abs(out - expected), axis=0) <= 1e-12 * scale)


def test_local_shrink_streams_the_up_front_draws():
    bundle = two_scale_bundle(70, 30, 4, 40)
    k, sweeps, burn_in, seed = 3, 11, 2, 123
    fit = local_shrink(bundle, k, sweeps=sweeps, burn_in=burn_in, seed=seed)
    estimate, noise = fit_ols(bundle)
    bstar = standardize(estimate, noise)
    gumbels = np.random.default_rng(seed).gumbel(size=(sweeps, bundle.n_sources, k))
    out, diag = _mixture_sweeps(
        estimate.coefficients, bstar, noise, _initial_labels(bstar, k), gumbels, burn_in
    )
    assert np.array_equal(fit.coefficients, out)
    assert fit.diagnostics["final_component_sizes"] == diag["final_component_sizes"]


def test_mixture_sweeps_reject_misshapen_draws():
    bundle = two_scale_bundle(71, 30, 3, 20)
    estimate, noise = fit_ols(bundle)
    bstar = standardize(estimate, noise)
    labels = _initial_labels(bstar, 2)
    rng = np.random.default_rng(0)
    short = [rng.gumbel(size=(20, 2)), rng.gumbel(size=(19, 2))]
    with pytest.raises(DimensionError):
        _mixture_sweeps(estimate.coefficients, bstar, noise, labels, short, 0)
    flat = [rng.gumbel(size=20)]
    with pytest.raises(DimensionError):
        _mixture_sweeps(estimate.coefficients, bstar, noise, labels, flat, 0)


def test_local_shrink_memory_does_not_grow_with_sweeps():
    n, p, k = 3000, 10, 3
    bundle = two_scale_bundle(72, 40, p, n)
    fit_ols(bundle)  # kept on the bundle, so the peaks below are the sampler's
    peaks = []
    for sweeps in (40, 400):
        tracemalloc.start()
        try:
            local_shrink(bundle, k, sweeps=sweeps, burn_in=10, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # drawing every Gumbel variate up front would add 360 * 3000 * 3 * 8 B
    assert peaks[1] - peaks[0] <= 1 << 20
    # one (n, k p) product buffer reused by every sweep plus a few (n, p)
    # arrays (2.9 n k p doubles); a fresh product per sweep reads 4.5
    assert max(peaks) <= 3.5 * n * k * p * 8


def test_initial_labels_split_by_row_norm():
    b = np.array([[3.0, 0.0], [0.1, 0.0], [2.0, 0.0], [0.2, 0.0]])
    labels = _initial_labels(b, 2)
    # two smallest norms land in group 0, two largest in group 1
    assert labels.tolist() == [1, 0, 1, 0]


def test_predictive_error_hand_value():
    coef = np.array([[2.0]])
    design = np.array([[1.0], [1.0]])
    responses = np.array([[3.0], [1.0]])
    assert predictive_error(coef, design, responses) == pytest.approx(1.0)


def test_select_components_single_candidate():
    rng = np.random.default_rng(50)
    bundle, _ = whitened_bundle(rng, 40, 3, 16, 1.0)
    best, table = select_components(bundle, [2], sweeps=6, burn_in=1, seed=0)
    assert best == 2
    assert set(table) == {2}
    assert np.isfinite(table[2])


def test_select_components_finds_two_scale_mixture():
    # sources split between a tight and a wide coefficient scale: the holdout
    # score should prefer two components over one in most replicates
    hits = 0
    for rep in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(200, spawn_key=(rep,)))
        x = rng.standard_normal((50, 5))
        q = np.linalg.inv(x.T @ x)
        q_half = np.linalg.cholesky(q)
        scale = np.where(rng.random(60) < 0.5, 0.1, 10.0)
        beta = (rng.standard_normal((60, 5)) * scale[:, None]) @ q_half.T
        y = x @ beta.T + rng.standard_normal((50, 60))
        bundle = SourceBundle(x, y)
        best, _ = select_components(bundle, [1, 2], sweeps=40, burn_in=10, seed=rep)
        hits += best == 2
    assert hits >= 16


def test_select_components_is_deterministic():
    rng = np.random.default_rng(51)
    bundle, _ = whitened_bundle(rng, 40, 3, 16, 1.0)
    a = select_components(bundle, [1, 2], sweeps=6, burn_in=1, seed=4)
    b = select_components(bundle, [1, 2], sweeps=6, burn_in=1, seed=4)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_select_components_validation():
    rng = np.random.default_rng(52)
    bundle, _ = whitened_bundle(rng, 40, 3, 16, 1.0)
    with pytest.raises(DomainError):
        select_components(bundle, [])
    with pytest.raises(DomainError):
        select_components(bundle, [1], holdout=1.0)
    with pytest.raises(DomainError):
        select_components(bundle, [9], sweeps=4, burn_in=0)
    small, _ = whitened_bundle(np.random.default_rng(53), 6, 4, 12, 1.0)
    with pytest.raises(InsufficientDataError):
        select_components(small, [1], holdout=0.4, sweeps=4, burn_in=0)
