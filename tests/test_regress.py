"""Tests for the multi-source regression layer.

Oracles here are deliberately naive: a cofactor-expansion 3x3 inverse for the
normal equations, a scalar Gaussian density for posterior weights, direct
recomposition of the shrinkage from public pieces, a dense mixture sampler
that assembles every component's p-by-p shrinkage operator each sweep, and
the sampler's sweep loop with every component refitted on every sweep.
"""

import itertools
import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    NumericalError,
    RegimeError,
    SingularityError,
    SourceBundle,
    default_bandwidth,
    estimate_with_method,
    fit_ols,
    global_shrink,
    local_shrink,
    predictive_error,
    sample_covariance,
    shrink_covariance,
)
from artifact import regress
from artifact.regress import (
    _component_shrunk,
    _component_terms,
    _components_shrunk,
    _gumbel_draws,
    _initial_labels,
    _log_posteriors,
    _mixture_sweeps,
    _posterior_weights,
    _sampled_labels,
)
from artifact.spectral import eigh
from artifact.tuning import default_bandwidth_grid, select_bandwidth

from loss_scenarios import dense_inverse


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


def lstsq_coefficients(x, y):
    """Per-source least squares (sources by predictors) by numpy's lstsq,
    with no shared code with the bundle's SVD."""
    return np.linalg.lstsq(x, y, rcond=None)[0].T


def noise_from_q(q):
    """Whitening factors (Q^1/2, Q^-1/2) of a coefficient covariance q.

    From the eigh q = W diag(lam) W', with no shared code with the bundle's
    factors from the SVD of the design.
    """
    lam, w = np.linalg.eigh(q)
    return (w * np.sqrt(lam)) @ w.T, (w / np.sqrt(lam)) @ w.T


def scalar_noise_bundle(rng, beta, scale, rows=12):
    """Bundle with sigma2 = 1 and Q = scale^2 I, up to round-off.

    The design is an orthonormal basis divided by scale, and each source's
    residual lies in its orthogonal complement with squared norm N - p.
    """
    n, p = beta.shape
    basis = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    x = basis[:, :p] / scale
    resid = basis[:, p:] @ rng.standard_normal((rows - p, n))
    resid *= np.sqrt(rows - p) / np.linalg.norm(resid, axis=0)
    return SourceBundle(x, x @ beta.T + resid)


def gaussian_density_oracle(x, variance):
    return np.exp(-x * x / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)


def log_density_rows_oracle(standardized, decomp, values):
    """Row-wise log N(b; 0, U diag(values) U') using a factored covariance."""
    rotated = standardized @ decomp.eigenvectors
    quad = np.sum(rotated * rotated / values, axis=1)
    logdet = float(np.sum(np.log(values)))
    p = standardized.shape[1]
    return -0.5 * (p * np.log(2.0 * np.pi) + logdet + quad)


def component_log_posteriors(rows, vectors, values, counts):
    """The sampler's (k, n) log posteriors and (k, p, n) products of rows.

    vectors[c] and values[c] are component c's eigenvectors and shrunk
    values, each component's terms coming from _component_terms.
    """
    n, p = rows.shape
    k = len(values)
    columns = np.ascontiguousarray(rows.T)
    products, quads, logdets = np.empty((k, p, n)), np.empty((k, n)), np.empty((k, 1))
    for comp in range(k):
        logdets[comp] = _component_terms(columns, vectors[comp], values[comp],
                                         products[comp], quads[comp])
    return _log_posteriors(quads, logdets, np.asarray(counts), p), products


def posterior_weights(rows, variances, counts):
    """Sampler weights for rows under N(0, diag(variances[c])) components.

    Returns the (components, rows) log posteriors and weights.
    """
    values = np.asarray(variances, dtype=float)
    identities = [np.eye(values.shape[1])] * values.shape[0]
    logs, _ = component_log_posteriors(np.asarray(rows, dtype=float), identities, values,
                                       counts)
    return logs, _posterior_weights(logs)


def dense_mixture_sweeps_oracle(standardized, labels, gumbels, burn_in):
    # the sampler written out densely: all draws up front, one density pass and
    # one p-by-p operator, the shrunk whitened rows B* (I - Sigma_k^-1), per
    # component per sweep, and the posterior mean built on every sweep
    sweeps, n, k = gumbels.shape
    p = standardized.shape[1]
    labels = np.asarray(labels, dtype=int).copy()
    pooled = _component_shrunk(standardized)
    accum = np.zeros_like(standardized)
    kept = pooled_resets = clamp_total = 0
    frozen, reused, previous = 0, 0, None
    for s in range(sweeps):
        frozen, reused, previous = count_unchanged(frozen, reused, previous, labels, k)
        fitted = []
        for comp in range(k):
            members = standardized[labels == comp]
            shrunk = pooled
            if members.shape[0] >= 2:
                try:
                    shrunk = _component_shrunk(members)
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
        estimate = np.zeros_like(standardized)
        for comp, shrunk in enumerate(fitted):
            u = shrunk.decomposition.eigenvectors
            inv = u @ np.diag(1.0 / shrunk.values) @ u.T
            estimate += weights[:, comp, None] * (standardized @ (np.eye(p) - inv))
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
        "frozen_sweeps": frozen,
        "reused_fits": reused,
    }
    return accum / kept, diagnostics


def count_unchanged(frozen, reused, previous, labels, k):
    """Add a sweep to the frozen-sweep and reused-fit counts, from the labels alone.

    A sweep is frozen when its labels equal the previous sweep's, and a
    component's fit is reused when its member mask equals the previous one.
    Returns the new counts and the labels to compare the next sweep with.
    """
    if previous is not None:
        frozen += bool(np.array_equal(labels, previous))
        reused += sum(bool(np.array_equal(labels == c, previous == c)) for c in range(k))
    return frozen, reused, labels.copy()


def refit_every_sweep_oracle(standardized, labels, gumbels, burn_in):
    # the sweep loop with no reuse, the reference that reuse must match bit for
    # bit: every component is gathered, factored and shrunk, its product,
    # quadratic forms and log determinant rebuilt, and the labels taken by
    # argmax, on every sweep
    n, p = standardized.shape
    labels = np.asarray(labels, dtype=int).copy()
    pooled = _component_shrunk(standardized)
    accum = np.zeros((p, n))
    k = gumbels.shape[2]
    kept = pooled_resets = clamp_total = 0
    frozen, reused, previous = 0, 0, None
    for sweeps, draw in enumerate(gumbels, start=1):
        frozen, reused, previous = count_unchanged(frozen, reused, previous, labels, k)
        vectors, values = [], []
        for comp in range(k):
            members = standardized[labels == comp]
            shrunk = pooled
            if members.shape[0] >= 2:
                try:
                    shrunk = _component_shrunk(members)
                except SingularityError:
                    pass
            pooled_resets += shrunk is pooled
            clamp_total += shrunk.clamp_count
            vectors.append(shrunk.decomposition.eigenvectors)
            values.append(shrunk.values)
        counts = np.bincount(labels, minlength=k)
        logs, products = component_log_posteriors(standardized, vectors, values, counts)
        if sweeps > burn_in:
            accum += np.einsum("kn,kpn->pn", _posterior_weights(logs), products)
            kept += 1
        labels = np.argmax(logs + draw.T, axis=0)
    diagnostics = {
        "sweeps": sweeps,
        "burn_in": burn_in,
        "pooled_resets": pooled_resets,
        "clamp_count": clamp_total,
        "final_component_sizes": np.bincount(labels, minlength=k).tolist(),
        "frozen_sweeps": frozen,
        "reused_fits": reused,
    }
    return accum.T / kept, diagnostics


def two_scale_data(seed, n_samples, p, n_sources, top=1.0):
    # half the sources carry tight coefficients and half wide ones, so a
    # mixture sampler has components to find; top > 1 scales the coefficient
    # columns geometrically from 1 to top, so the component covariances have
    # condition numbers near top^2.  Returns the design and the responses.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, p))
    scale = np.where(rng.random(n_sources) < 0.5, 0.1, 3.0)
    beta = rng.standard_normal((n_sources, p)) * scale[:, None] * np.geomspace(1.0, top, p)
    y = x @ beta.T + rng.standard_normal((n_samples, n_sources))
    return x, y


def two_scale_bundle(seed, n_samples, p, n_sources, top=1.0):
    return SourceBundle(*two_scale_data(seed, n_samples, p, n_sources, top))


def whitened_data(rng, n_samples, p, n_sources, signal_scale):
    # coefficient rows drawn with covariance signal_scale^2 * (X'X)^-1 so the
    # standardized rows have a known spherical law; returns x, y and beta
    x = rng.standard_normal((n_samples, p))
    q = np.linalg.inv(x.T @ x)
    q_half = np.linalg.cholesky(q)
    beta = rng.standard_normal((n_sources, p)) @ q_half.T * signal_scale
    y = x @ beta.T + rng.standard_normal((n_samples, n_sources))
    return x, y, beta


def whitened_bundle(rng, n_samples, p, n_sources, signal_scale):
    x, y, beta = whitened_data(rng, n_samples, p, n_sources, signal_scale)
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
    assert (bundle.n_predictors, bundle.n_sources) == (2, 4)
    assert fit_ols(bundle).coefficients.shape == bundle.standardized.shape == (4, 2)
    q_half_inv = np.linalg.inv(bundle.q_half)
    assert bundle.q_half.shape == q_half_inv.shape == (2, 2)
    # sigma2 Q^-1 = X'X
    gram = bundle.sigma2 * q_half_inv @ q_half_inv
    assert np.allclose(gram, x.T @ x, atol=1e-12)


def test_ols_single_predictor_hand_value():
    # X = e1 in R^3, y = (2, 0, 0): beta_hat = 2, zero residual hits the floor
    x = np.array([[1.0], [0.0], [0.0]])
    y = np.array([[2.0], [0.0], [0.0]])
    estimate = fit_ols(SourceBundle(x, y))
    assert np.allclose(estimate.coefficients, [[2.0]], atol=1e-14)
    assert estimate.diagnostics["sigma2"] == 1e-12
    assert estimate.method == "ols"


def test_ols_noiseless_recovery():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4))
    beta = rng.standard_normal((6, 4))
    estimate = fit_ols(SourceBundle(x, x @ beta.T))
    assert np.allclose(estimate.coefficients, beta, atol=1e-10)


def test_ols_error_grows_with_cond_not_its_square():
    # cond(X) = 1e5: through the normal equations the error is of order
    # cond(X)^2 * eps = 2e-6, through the SVD of order cond(X) * eps
    rng = np.random.default_rng(21)
    singular_values = np.logspace(0, -5, 5)
    x = designed_matrix(rng, 60, singular_values)
    beta = rng.standard_normal((4, 5))
    estimate = fit_ols(SourceBundle(x, x @ beta.T))
    error = np.max(np.abs(estimate.coefficients - beta)) / np.max(np.abs(beta))
    assert error <= 100 * 1e5 * np.finfo(float).eps


def test_ols_matches_cofactor_inverse_oracle():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 3))
    y = rng.standard_normal((50, 4))
    bundle = SourceBundle(x, y)
    estimate = fit_ols(bundle)
    gram_inv = inverse_3x3_oracle(x.T @ x)
    expected = (gram_inv @ x.T @ y).T
    assert np.allclose(estimate.coefficients, expected, rtol=0, atol=1e-10)
    # pooled residual variance and its induced coefficient covariance
    resid = y - x @ expected.T
    sigma2 = np.mean(np.sum(resid * resid, axis=0) / (50 - 3))
    assert bundle.sigma2 == pytest.approx(sigma2, rel=1e-12)
    assert estimate.diagnostics["sigma2"] == bundle.sigma2
    q = bundle.q_half @ bundle.q_half
    assert np.allclose(q, sigma2 * gram_inv, rtol=1e-10)


def test_ols_fit_is_fresh_and_the_bundle_read_only():
    # the bundle is fitted once and every estimator run on it shares its
    # arrays, which cannot be written through; each OLS fit un-whitens them
    # into arrays of its own, so writing to one estimate leaves the next as
    # it was
    rng = np.random.default_rng(12)
    bundle, _ = whitened_bundle(rng, 30, 3, 8, 1.0)
    first = fit_ols(bundle)
    second = fit_ols(bundle)
    assert second is not first and second.diagnostics is not first.diagnostics
    assert not np.shares_memory(first.coefficients, second.coefficients)
    for array in (bundle.q_half, bundle.standardized):
        assert not np.shares_memory(first.coefficients, array)
    assert np.array_equal(first.coefficients, second.coefficients)
    first.coefficients[0, 0] += 1.0
    assert np.array_equal(fit_ols(bundle).coefficients, second.coefficients)
    for array in (bundle.q_half, bundle.standardized):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    assert type(bundle.sigma2) is float


@pytest.mark.parametrize("method, name", [
    ("ols", "ols"),
    ("global", "global"),
    ("local-2", "local(2)"),
])
def test_non_finite_coefficients_raise_through_the_one_exit(method, name):
    # a finite Q^1/2 scaled by 1e300 overflows each estimator's un-whitening
    # of rows near 1e10 to inf, and the estimators' one exit refuses the
    # estimate under the method's name
    rng = np.random.default_rng(15)
    bundle = scalar_noise_bundle(rng, 1e10 * rng.standard_normal((8, 3)), 1.0)
    bundle.q_half = 1e300 * bundle.q_half
    assert np.all(np.isfinite(bundle.q_half))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError,
                           match="^%s coefficients are non-finite$" % re.escape(name)):
            estimate_with_method(bundle, method, sweeps=6, burn_in=1)


def unblocked_sigma2(x, y):
    """The pooled residual variance from one N by n residual array Y - U U'Y,
    with U from an SVD of the test's own."""
    u = np.linalg.svd(x, full_matrices=False)[0]
    resid = y - u @ (u.T @ y)
    samples, predictors = x.shape
    return max(float(np.mean(np.sum(resid * resid, axis=0) / (samples - predictors))),
               regress.NOISE_FLOOR)


@pytest.mark.parametrize("shape", [
    (40, 3, 7),
    (40, 3, regress.BLOCK_SOURCES),
    (40, 3, 2 * regress.BLOCK_SOURCES + 1),
    (200, 20, 6000),
], ids=["one-partial-block", "one-whole-block", "two-blocks-and-one-source", "wide"])
def test_blocked_residual_sums_match_the_unblocked_formula(shape):
    # the residual sums of squares are formed BLOCK_SOURCES sources at a
    # time; each source's sum adds its N squares in the same order as over
    # the whole N by n array, so sigma2 is the same bit for bit
    samples, p, sources = shape
    rng = np.random.default_rng(sources)
    x = rng.standard_normal((samples, p))
    y = x @ rng.standard_normal((p, sources)) + rng.standard_normal((samples, sources))
    bundle = SourceBundle(x, y)
    assert bundle.sigma2 == unblocked_sigma2(x, y)


def test_bundle_keeps_no_reference_to_its_inputs():
    # a caller that drops its responses after building the bundle frees them
    rng = np.random.default_rng(13)
    x = rng.standard_normal((30, 3))
    y = rng.standard_normal((30, 2 * regress.BLOCK_SOURCES + 1))
    refs = weakref.ref(x), weakref.ref(y)
    bundle = SourceBundle(x, y)
    del x, y
    assert [ref() for ref in refs] == [None, None]
    assert bundle.n_sources == 2 * regress.BLOCK_SOURCES + 1


def test_bundle_working_memory_is_a_fraction_of_the_responses():
    # beyond its inputs, building the bundle allocates U'Y and the whitened
    # rows (each p by n), a byte per entry of Y for the finiteness check and
    # one N by BLOCK_SOURCES block of residuals: a peak of 0.28 N n doubles
    # here (numpy 2.4.6, OpenBLAS), where one N by n residual array made it
    # 1.30
    rng = np.random.default_rng(14)
    x = rng.standard_normal((200, 20))
    y = x @ rng.standard_normal((20, 6000)) + rng.standard_normal((200, 6000))
    SourceBundle(x, y)  # first-call caches
    tracemalloc.start()
    try:
        SourceBundle(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * y.nbytes


def test_noise_model_square_root_factors():
    # Q^1/2 squared is sigma2 (X'X)^-1 and matches the factors from its eigh;
    # the whitened rows are the coefficients times Q^-1/2 from that eigh
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal((6, 4))
    bundle = SourceBundle(x, y)
    q = bundle.sigma2 * inverse_3x3_oracle(x.T @ x)
    assert np.allclose(bundle.q_half @ bundle.q_half, q, atol=1e-12)
    q_half, q_half_inv = noise_from_q(q)
    assert np.allclose(bundle.q_half @ q_half_inv, np.eye(3), atol=1e-10)
    assert np.allclose(bundle.q_half, q_half, atol=1e-12)
    assert np.allclose(bundle.standardized, lstsq_coefficients(x, y) @ q_half_inv, atol=1e-10)


def test_standardize_identity_noise_is_identity_map():
    beta = np.array([[1.0, 2.0], [3.0, -1.0]])
    bundle = scalar_noise_bundle(np.random.default_rng(2), beta, 1.0)
    assert np.allclose(fit_ols(bundle).coefficients, beta)
    assert np.allclose(bundle.standardized, beta)


def test_standardize_scalar_covariance():
    # Q = 4I halves every coordinate
    bundle = scalar_noise_bundle(np.random.default_rng(3), np.array([[2.0, 2.0]]), 2.0)
    assert np.allclose(fit_ols(bundle).coefficients, [[2.0, 2.0]])
    assert np.allclose(bundle.standardized, [[1.0, 1.0]])


def test_standardize_round_trip():
    # above and below p sources, with a spread design
    rng = np.random.default_rng(9)
    for sources in (2, 7):
        x = designed_matrix(rng, 12, [3.0, 1.0, 0.1])
        y = rng.standard_normal((12, sources))
        bundle = SourceBundle(x, y)
        back = bundle.standardized @ bundle.q_half
        assert np.allclose(back, lstsq_coefficients(x, y), rtol=0, atol=1e-12)


def test_global_shrink_matches_manual_recomposition():
    rng = np.random.default_rng(12)
    x, y, _ = whitened_data(rng, 40, 3, 25, 2.0)
    bundle = SourceBundle(x, y)
    fit = global_shrink(bundle)

    s = sample_covariance(bundle.standardized)
    shrunk = shrink_covariance(s, 25, default_bandwidth(25, 3))
    q_half, q_half_inv = noise_from_q(bundle.sigma2 * np.linalg.inv(x.T @ x))
    rotate = q_half @ dense_inverse(shrunk) @ q_half_inv
    expected = lstsq_coefficients(x, y) @ (np.eye(3) - rotate).T
    assert np.allclose(fit.coefficients, expected, rtol=0, atol=1e-12)
    assert fit.method == "global"
    assert fit.diagnostics["h"] == pytest.approx(default_bandwidth(25, 3))


def design_scaled_data(seed):
    # design columns scaled geometrically from 1e-2 to 1e3 (cond(X) up to
    # about 2e5) and pure-noise responses, so the pooled rule shrinks most of
    # each row away and the estimate is small next to the coefficients.
    # Returns the design and the responses.
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 15))
    sources = int(rng.integers(2, 40))
    sources += sources == p
    rows = p + int(rng.integers(3, 30))
    x = rng.standard_normal((rows, p)) * np.geomspace(1e-2, 1e3, p)
    return x, rng.standard_normal((rows, sources))


def global_shrink_longdouble(x, y, bundle):
    """The default-bandwidth estimate B* E diag(1 - 1/delta) E' Q^1/2 in np.longdouble.

    Evaluated from the float64 SVD factors of the design x and the float64 E
    and delta of the whitened rows of bundle, the bundle of x and y.
    """
    n, p = bundle.n_sources, bundle.n_predictors
    bstar = bundle.standardized
    shrunk = shrink_covariance(eigh(bstar.T @ bstar / n), n, default_bandwidth(n, p))
    ld = np.longdouble
    u, s, vt = (f.astype(ld) for f in np.linalg.svd(x, full_matrices=False))
    sigma = np.sqrt(ld(bundle.sigma2))
    e = shrunk.decomposition.eigenvectors.astype(ld)
    keep = 1 - 1 / shrunk.values.astype(ld)
    whitened = (u.T @ y.astype(ld)).T @ vt / sigma
    return whitened @ ((e * keep) @ e.T) @ ((vt.T * (sigma / s)) @ vt)


def test_global_shrink_assembly_matches_extended_precision():
    # on these 200 bundles the worst error relative to max |estimate| was
    # 8.4e-15 for this shrink-then-un-whiten assembly, and 1.8e-11 (above
    # 1e-12 on 91 of them) for the form B (I - Q^1/2 Sigma^-1 Q^-1/2)', whose
    # subtraction leaves round-off at the scale of B; the bound is about
    # ten times the former
    for seed in range(200):
        x, y = design_scaled_data(seed)
        bundle = SourceBundle(x, y)
        want = global_shrink_longdouble(x, y, bundle)
        got = global_shrink(bundle).coefficients
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), seed


def test_global_shrink_identity_spread_kills_signal(monkeypatch):
    # if the fitted spread were exactly I the whitened rule removes everything
    import artifact.regress as regress

    class FakeShrunk:
        clamp_count = 0
        decomposition = eigh(np.eye(3))
        values = np.ones(3)

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
        ols = fit_ols(bundle)
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


@pytest.mark.parametrize("seed, edge", [(128, True), (32, False)])
def test_global_shrink_auto_reports_the_chosen_grid_index(seed, edge):
    # seed 128 picks the last bandwidth of the default grid, and seed 32 one
    # inside it; the fixed and default policies have no grid to report
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 4))
    y = x @ rng.standard_normal((4, 25)) + rng.standard_normal((30, 25))
    bundle = SourceBundle(x, y)
    bstar = bundle.standardized
    grid = default_bandwidth_grid(25, 4)
    chosen = select_bandwidth(eigh(bstar.T @ bstar / 25), 25, grid)
    diag = global_shrink(bundle, "auto").diagnostics
    assert (diag["h_grid_index"], diag["h_grid_edge"]) == (chosen.index, edge)
    assert diag["h"] == grid[chosen.index]
    assert edge == (chosen.index in (0, grid.size - 1))
    for h in ("default", 0.3):
        assert "h_grid_index" not in global_shrink(bundle, h).diagnostics


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
# sources, or rescaling every response moves the coefficients the same way,
# and scaling the design columns by D scales the coefficient columns by D^-1.
# Source counts span both regimes; "auto" falls back to the default bandwidth
# when there are too few sources to tune.

equivariance_cases = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=14),
    st.sampled_from(["default", "auto"]),
)


def equivariance_data(seed, p, sources):
    """The generator after the draws, the design and the responses."""
    rng = np.random.default_rng(seed)
    if sources == p:  # the pooled rule is undefined there
        sources += 1
    x, y, _ = whitened_data(rng, 3 * p + 8, p, sources, 1.5)
    return rng, x, y


def assert_close(got, want, tol=1e-8):
    assert np.max(np.abs(got - want)) <= tol * (1.0 + np.max(np.abs(want)))


def assert_columns_close(got, want, tol):
    # column by column, so the small columns of a scaled design count too
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(got - want), axis=0) <= tol * scale)


def column_scales(rng, p):
    """A positive diagonal D, as its diagonal, with entries from 1e-2 to 1e2."""
    return 10.0 ** rng.uniform(-2.0, 2.0, p)


@settings(max_examples=40, deadline=None)
@given(equivariance_cases)
def test_global_shrink_rotating_design_rotates_coefficients(case):
    seed, p, sources, h = case
    rng, x, y = equivariance_data(seed, p, sources)
    r, _ = np.linalg.qr(rng.standard_normal((p, p)))
    base = global_shrink(SourceBundle(x, y), h)
    turned = global_shrink(SourceBundle(x @ r, y), h)
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
    rng, x, y = equivariance_data(seed, p, sources)
    perm = rng.permutation(y.shape[1])
    base = global_shrink(SourceBundle(x, y), h)
    shuffled = global_shrink(SourceBundle(x, y[:, perm]), h)
    assert_close(shuffled.coefficients, base.coefficients[perm])
    assert shuffled.diagnostics["h"] == base.diagnostics["h"]


@settings(max_examples=40, deadline=None)
@given(equivariance_cases)
def test_global_shrink_scaling_design_columns_unscales_coefficients(case):
    # the whitened rows only rotate, so the estimate is global_shrink(X, Y) D^-1
    # up to the SVD of the scaled design: the worst column-relative gap was
    # 8.8e-11 in 1500 draws of these cases, and the tolerance is about ten
    # times that
    seed, p, sources, h = case
    rng, x, y = equivariance_data(seed, p, sources)
    d = column_scales(rng, p)
    base = global_shrink(SourceBundle(x, y), h)
    scaled = global_shrink(SourceBundle(x * d, y), h)
    assert_columns_close(scaled.coefficients, base.coefficients / d, 1e-9)


@settings(max_examples=40, deadline=None)
@given(equivariance_cases, st.floats(min_value=0.01, max_value=100.0), st.booleans())
def test_global_shrink_scaling_responses_scales_coefficients(case, c, flip):
    seed, p, sources, h = case
    c = -c if flip else c
    _, x, y = equivariance_data(seed, p, sources)
    base = global_shrink(SourceBundle(x, y), h)
    scaled = global_shrink(SourceBundle(x, c * y), h)
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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="component count must be a positive integer"):
            local_shrink(bundle, bad)
        with pytest.raises(DomainError, match="sweeps and burn_in must be integers"):
            local_shrink(bundle, 2, sweeps=bad, burn_in=1)
        with pytest.raises(DomainError, match="sweeps and burn_in must be integers"):
            local_shrink(bundle, 2, sweeps=5, burn_in=bad)


def test_mixture_sweeps_component_relabeling_invariance():
    # swapping the two component slots (initial labels and the matching Gumbel
    # columns) must reproduce the same trajectory and estimate
    rng = np.random.default_rng(41)
    bundle, _ = whitened_bundle(rng, 40, 3, 20, 1.0)
    bstar = bundle.standardized
    labels = _initial_labels(bstar, 2)
    gumbels = np.random.default_rng(5).gumbel(size=(6, 20, 2))

    out_a, diag_a = _mixture_sweeps(bstar, labels, gumbels, 1)
    out_b, diag_b = _mixture_sweeps(bstar, 1 - labels, gumbels[:, :, ::-1], 1)
    assert np.allclose(out_a, out_b, rtol=0, atol=1e-10)
    assert diag_a["final_component_sizes"] == diag_b["final_component_sizes"][::-1]


def test_mixture_single_sweep_matches_posterior_assembly():
    # one sweep, no burn-in: the output is the posterior-weighted combination
    # of the per-component rules fitted to the initial labels
    rng = np.random.default_rng(42)
    bundle, _ = whitened_bundle(rng, 40, 3, 21, 1.0)
    bstar = bundle.standardized
    labels = _initial_labels(bstar, 2)
    counts = np.bincount(labels, minlength=2)
    assert counts.min() >= 2 and counts[0] != 3 and counts[1] != 3

    gumbels = np.random.default_rng(9).gumbel(size=(1, 21, 2))
    out, _ = _mixture_sweeps(bstar, labels, gumbels, 0)

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
    expected = np.zeros_like(bstar)
    for comp in range(2):
        expected += weights[:, comp, None] * (bstar @ (np.eye(3) - dense_inverse(shrunk[comp])))
    assert np.allclose(bstar - out, expected, rtol=0, atol=1e-10)


def test_mixture_sweeps_pooled_reset_on_empty_component():
    rng = np.random.default_rng(43)
    bundle, _ = whitened_bundle(rng, 40, 3, 16, 1.0)
    bstar = bundle.standardized
    gumbels = np.random.default_rng(1).gumbel(size=(1, 16, 2))
    _, diag = _mixture_sweeps(bstar, np.zeros(16, dtype=int), gumbels, 0)
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
    bstar = bundle.standardized
    n = bundle.n_sources
    # starting every row in component 0 empties the others: pooled resets
    labels = np.zeros(n, dtype=int) if empty_start else _initial_labels(bstar, k)
    gumbels = np.random.default_rng(k).gumbel(size=(sweeps, n, k))
    term, diag = _mixture_sweeps(bstar, labels, gumbels, burn_in)
    expected, expected_diag = dense_mixture_sweeps_oracle(bstar, labels, gumbels, burn_in)
    assert diag == expected_diag
    if empty_start:
        assert diag["pooled_resets"] >= k - 1
    # the shrunk rows, not E[B* P] alone, whose round-off sits at the scale of
    # B*; column by column, so the small columns of a scaled bundle count too
    out = bstar - term
    scale = np.max(np.abs(expected), axis=0)
    assert np.all(np.max(np.abs(out - expected), axis=0) <= 1e-12 * scale)


def moved(labels, rows, to):
    out = labels.copy()
    out[rows] = to
    return out


def forced_draws(path, k):
    """Gumbel stand-ins that make the sampler follow a designed label path.

    path[0] is the initial labelling and path[s] the labels that sweep s hands
    on.  One entry of each row's draw is so large that the argmax takes it
    whatever the log posteriors are.
    """
    later = np.asarray(path[1:])
    draws = np.zeros(later.shape + (k,))
    np.put_along_axis(draws, later[..., None], 1e6, axis=2)
    return draws


def forced_paths(bstar):
    """Designed label paths: (path, k, burn_in, frozen, reused, pooled resets)."""
    a = _initial_labels(bstar, 2)
    b = moved(a, slice(0, 5), 1 - a[0:5])
    c = moved(a, slice(5, 10), 1 - a[5:10])
    d = moved(c, slice(10, 15), 1 - c[10:15])
    e = moved(d, slice(0, 3), 1 - d[0:3])
    # k = 3: rows of components 1 and 2 change places one pair per sweep
    three = [_initial_labels(bstar, 3)]
    ones, twos = np.flatnonzero(three[0] == 1), np.flatnonzero(three[0] == 2)
    for i in range(8):
        three.append(moved(three[-1], [ones[i], twos[i]], [2, 1]))
    # component 2 of 3 starts empty and stays empty for six sweeps
    a1 = moved(a, slice(0, 4), 1 - a[0:4])
    a2 = moved(a1, slice(4, 7), 1 - a1[4:7])
    filled = moved(a2, slice(7, 13), 2)
    return {
        # frozen in sweeps 4-7, across the end of burn-in, and in sweep 10
        "move-freeze-move": ([a, b, c, c, c, c, c, d, e, e, e], 2, 4, 5, 10, 0),
        "one-component-fixed": (three, 3, 2, 0, 7, 0),
        "empty-component": ([a, a, a1, a1, a1, a2, filled, filled, filled], 3, 3, 4, 14, 6),
    }


@pytest.mark.parametrize("case", ["move-freeze-move", "one-component-fixed", "empty-component"])
def test_mixture_sweeps_reuse_matches_refitting_every_sweep(case):
    bundle = two_scale_bundle(80, 30, 4, 45)
    bstar = bundle.standardized
    path, k, burn_in, frozen, reused, resets = forced_paths(bstar)[case]
    gumbels = forced_draws(path, k)
    out, diag = _mixture_sweeps(bstar, path[0], gumbels, burn_in)
    expected, expected_diag = refit_every_sweep_oracle(bstar, path[0], gumbels, burn_in)
    assert np.array_equal(out, expected)
    assert diag == expected_diag
    assert diag["final_component_sizes"] == np.bincount(path[-1], minlength=k).tolist()
    assert (diag["frozen_sweeps"], diag["reused_fits"], diag["pooled_resets"]) == (
        frozen, reused, resets)


def test_mixture_sweeps_compute_a_kept_components_terms_once(monkeypatch):
    # on the one-component-fixed path component 0 keeps its members in every
    # sweep, so its product, quadratic forms and log determinant come from
    # sweep 1 alone, while components 1 and 2 get new ones on every sweep
    bundle = two_scale_bundle(80, 30, 4, 45)
    bstar = bundle.standardized
    path, k, burn_in, _, reused, _ = forced_paths(bstar)["one-component-fixed"]
    gumbels = forced_draws(path, k)
    slots = []

    def recording_terms(columns, vectors, values, product, quad):
        slots.append(product.ctypes.data)
        return _component_terms(columns, vectors, values, product, quad)

    monkeypatch.setattr(regress, "_component_terms", recording_terms)
    out, diag = _mixture_sweeps(bstar, path[0], gumbels, burn_in)
    monkeypatch.undo()
    # the products of components 0, 1 and 2 lie in that order in one array
    components = np.searchsorted(sorted(set(slots)), slots).tolist()
    sweeps = len(gumbels)
    assert len(slots) == k * sweeps - reused == 17
    assert components == [0, 1, 2] + [1, 2] * (sweeps - 1)
    expected, expected_diag = refit_every_sweep_oracle(bstar, path[0], gumbels, burn_in)
    assert np.array_equal(out, expected)
    assert diag == expected_diag


def labels_cells():
    """Every (log posterior, draw) pair from a few values, but -inf with +inf.

    The values make exact ties of the sums (-1 + 1 == 0 + 0), +inf draws (u
    = 0) and -inf log posteriors; -inf + inf is NaN, which never reaches the
    labels.
    """
    return [(log, draw) for log in (-np.inf, -1.0, 0.0) for draw in (0.0, 1.0, np.inf)
            if not (log == -np.inf and draw == np.inf)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sampled_labels_match_argmax_bit_for_bit(k):
    cells = np.array(list(itertools.product(labels_cells(), repeat=k)))  # (rows, k, 2)
    logs, draw = cells[:, :, 0].T.copy(), cells[:, :, 1].copy()
    scores = logs + draw.T
    # the cases the comparisons must keep: exact ties, finite or +inf, keep
    # the first index, and a row of all -inf scores takes component 0
    if k > 1:
        tied = scores[0] == scores[1]
        assert np.any(tied & (scores[0] == np.inf)) and np.any(tied & np.isfinite(scores[0]))
    all_lost = np.all(scores == -np.inf, axis=0)
    assert np.any(all_lost) and not np.any(np.isnan(scores))
    rng = np.random.default_rng(k)
    cases = [(logs, draw), (rng.standard_normal((k, 500)), rng.gumbel(size=(500, k)))]
    for case_logs, case_draw in cases:
        want = np.argmax(case_logs + case_draw.T, axis=0)
        got = _sampled_labels(case_logs, case_draw)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.all(_sampled_labels(logs, draw)[all_lost] == 0)


def four_case_rows(p=4):
    """Whitened rows in five components that meet every case of a component fit.

    Component 0 has one member (pooled fit), component 1 has p - 1 (the over
    regime), component 2 has 2 p members whose last column is zero (a
    rank-deficient Gram, which the rule rejects), and components 3 and 4 have
    3 p members each (ordinary fits).  Returns the rows and their labels.
    """
    sizes = [1, p - 1, 2 * p, 3 * p, 3 * p]
    rows = np.random.default_rng(90).standard_normal((sum(sizes), p))
    labels = np.repeat(np.arange(5), sizes)
    rows[labels == 2, -1] = 0.0
    return rows, labels


def test_components_shrunk_matches_component_shrunk_bit_for_bit():
    rows, labels = four_case_rows()
    p = rows.shape[1]
    # six rows spread over two decades: one shrunk eigenvalue clamps
    clamping = np.random.default_rng(53).standard_normal((6, p)) * np.geomspace(1, 100, p)
    blocks = [rows[labels == 3], clamping, rows[labels == 4]]
    stacked = _components_shrunk(blocks)
    assert stacked.clamp_count.tolist() == [0, 1, 0]
    for r, block in enumerate(blocks):
        alone = _component_shrunk(block)
        assert np.array_equal(stacked.decomposition.eigenvectors[r],
                              alone.decomposition.eigenvectors)
        assert np.array_equal(stacked.values[r], alone.values)
        assert stacked.clamp_count[r] == alone.clamp_count
    # one rejected spectrum rejects the stack, naming it
    with pytest.raises(SingularityError, match="spectrum 1 of the stack"):
        _components_shrunk([blocks[0], rows[labels == 2], blocks[2]])


def test_mixture_sweeps_stacked_stage_matches_refitting_one_at_a_time(monkeypatch):
    # sweep 1 refits all five components: the stack of components 2-4 is
    # rejected for component 2, so they go one at a time, and only 0 and 2
    # take the pooled fit; sweep 2 refits components 3 and 4 as one stack;
    # sweep 3 refits 1 and 3, and 3 alone has more than p members, so both
    # go one at a time
    rows, labels = four_case_rows()
    p = rows.shape[1]
    swapped = labels.copy()
    three, four = np.flatnonzero(labels == 3)[:2], np.flatnonzero(labels == 4)[:3]
    swapped[three], swapped[four] = 4, 3
    moved = swapped.copy()
    moved[np.flatnonzero(labels == 1)[0]] = 3
    gumbels = forced_draws([labels, swapped, moved, moved], 5)
    shapes = []

    def recording_eigh(matrix):
        shapes.append(np.shape(matrix))
        return eigh(matrix)

    monkeypatch.setattr(regress, "eigh", recording_eigh)
    out, diag = _mixture_sweeps(rows, labels, gumbels, 0)
    monkeypatch.undo()
    expected, expected_diag = refit_every_sweep_oracle(rows, labels, gumbels, 0)
    assert np.array_equal(out, expected)
    assert diag == expected_diag
    assert (diag["pooled_resets"], diag["reused_fits"]) == (6, 6)
    one = (p, p)
    assert shapes == [one, (3, p, p), one, one, one, one, (2, p, p), one, one]


def test_mixture_sweeps_pool_a_component_of_p_members_with_a_singular_gram():
    # component 0 has exactly p members and a zero last column: at p == n the
    # rule has no null-space constant, so _shrink_spectrum rejects the zero
    # eigenvalue and the component takes the pooled fit on every sweep
    p = 4
    rows = np.random.default_rng(91).standard_normal((4 * p, p))
    rows[:p, -1] = 0.0
    labels = np.repeat([0, 1], [p, 3 * p])
    with pytest.raises(SingularityError, match="zero sample eigenvalues need p > n"):
        _component_shrunk(rows[:p])
    moved = labels.copy()
    moved[p] = 0  # from sweep 4 on, p + 1 members and a full-rank Gram
    gumbels = forced_draws([labels, labels, labels, moved, moved], 2)
    out, diag = _mixture_sweeps(rows, labels, gumbels, 1)
    expected, expected_diag = refit_every_sweep_oracle(rows, labels, gumbels, 1)
    assert np.array_equal(out, expected)
    assert diag == expected_diag
    assert (diag["pooled_resets"], diag["frozen_sweeps"]) == (3, 2)


def test_mixture_sweeps_burn_in_of_every_draw_leaves_nothing_to_average():
    bundle = two_scale_bundle(80, 30, 4, 45)
    bstar = bundle.standardized
    gumbels = np.random.default_rng(0).gumbel(size=(3, 45, 2))
    for burn_in in (3, 4):
        with pytest.raises(DomainError, match="burn-in leaves no sweeps to average"):
            _mixture_sweeps(bstar, _initial_labels(bstar, 2), gumbels, burn_in)


def test_mixture_sweeps_keep_each_stacked_components_clamp_count(monkeypatch):
    # sweep 1 fits components 0 and 1 as one stack, whose clamp counts differ
    # (1 and 0); sweep 2 moves a row from component 2 to 1, so it refits 1
    # and 2 and keeps component 0's fit, which must add component 0's own
    # clamp count again, not its stack neighbour's
    rows, labels = four_case_rows()
    p = rows.shape[1]
    clamping = np.random.default_rng(53).standard_normal((6, p)) * np.geomspace(1, 100, p)
    ordinary, small = rows[labels == 3], rows[labels == 1]
    rows = np.vstack([clamping, ordinary, small])
    labels = np.repeat([0, 1, 2], [len(clamping), len(ordinary), len(small)])
    moved = labels.copy()
    moved[-1] = 1
    gumbels = forced_draws([labels, moved, moved], 3)
    shapes = []

    def recording_eigh(matrix):
        shapes.append(np.shape(matrix))
        return eigh(matrix)

    monkeypatch.setattr(regress, "eigh", recording_eigh)
    out, diag = _mixture_sweeps(rows, labels, gumbels, 0)
    monkeypatch.undo()
    expected, expected_diag = refit_every_sweep_oracle(rows, labels, gumbels, 0)
    assert np.array_equal(out, expected)
    assert diag == expected_diag
    one = (p, p)
    assert shapes == [one, (2, p, p), one, one, one]
    assert _components_shrunk([clamping, ordinary]).clamp_count.tolist() == [1, 0]
    assert (diag["clamp_count"], diag["reused_fits"]) == (2, 1)


def up_front_gumbels(seed, shape):
    # the sampler's stream drawn at once: numpy's formula for gumbel(0, 1)
    # over uniform doubles u = rng.random
    return -np.log(-np.log(1.0 - np.random.default_rng(seed).random(shape)))


def test_gumbel_draws_are_the_up_front_uniform_stream():
    rows, components, sweeps = 40, 3, 300
    draws = [d.copy() for d in _gumbel_draws(np.random.default_rng(5), sweeps, rows, components)]
    want = up_front_gumbels(5, (sweeps, rows, components))
    assert np.array_equal(np.array(draws), want)
    bundle = two_scale_bundle(70, 30, 4, rows)
    fit = local_shrink(bundle, components, sweeps=sweeps, burn_in=50, seed=5)
    bstar = bundle.standardized
    term, diag = _mixture_sweeps(bstar, _initial_labels(bstar, components), want, 50)
    assert np.array_equal(fit.coefficients, (bstar - term) @ bundle.q_half)
    assert fit.diagnostics["final_component_sizes"] == diag["final_component_sizes"]


def test_gumbel_draws_match_generator_gumbel_to_round_off():
    # the same uniforms and formula as Generator.gumbel, which rounds its two
    # logs in libm where np.log may use a vectorized log: the gaps are a few
    # units in the last place of draws no larger than about 37 (u = 2^-53),
    # 8.9e-16 at most in 3.6 M variates, and the bound is 1e-14
    shape = (50, 2000, 3)
    draws = np.array([d.copy() for d in _gumbel_draws(np.random.default_rng(8), *shape)])
    want = np.random.default_rng(8).gumbel(size=shape)
    assert np.max(np.abs(draws - want)) <= 1e-14


def test_gumbel_draws_at_u_zero_are_plus_infinity():
    # u = 0 (1 - u = 1), where Generator.gumbel draws again, gives +inf with
    # no floating-point error, and the row takes the first such component
    class StubGenerator:
        def random(self, out):
            out[...] = 0.5
            out[1, 1:] = 0.0

    with np.errstate(all="raise"):
        (draw,) = _gumbel_draws(StubGenerator(), 1, 3, 3)
        labels = _sampled_labels(np.zeros((3, 3)), draw)
    half = -np.log(-np.log(1.0 - np.full(1, 0.5)))[0]
    assert np.array_equal(draw[1], [half, np.inf, np.inf])
    assert np.all(draw[[0, 2]] == half)
    assert labels.tolist() == [0, 1, 0]


def refuse_thread_start(monkeypatch):
    def refuse(thread):
        raise AssertionError("the sampler started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def test_gumbel_draws_join_their_helper_thread(monkeypatch):
    # the draws run in the caller's thread: no thread is started, and none is
    # left running after a fit, an early close or a raising sweep
    refuse_thread_start(monkeypatch)
    bundle = two_scale_bundle(70, 30, 4, 40)
    before = threading.active_count()
    local_shrink(bundle, 3, sweeps=300, burn_in=50, seed=1)
    assert threading.active_count() == before
    draws = _gumbel_draws(np.random.default_rng(1), 300, 40, 3)
    next(draws)
    assert threading.active_count() == before
    draws.close()
    assert threading.active_count() == before

    def failing(*args):
        raise RegimeError("stop")

    monkeypatch.setattr(regress, "_log_posteriors", failing)
    with pytest.raises(RegimeError) as caught:
        local_shrink(bundle, 3, sweeps=300, burn_in=50, seed=1)
    assert caught.tb is not None and threading.active_count() == before


def test_gumbel_draws_in_one_block_start_no_thread(monkeypatch):
    # a k = 2 fit, the size whose labels freeze, draws every sweep inline
    refuse_thread_start(monkeypatch)
    local_shrink(two_scale_bundle(70, 30, 4, 40), 2, sweeps=200, burn_in=50, seed=1)


def test_local_shrink_streams_the_up_front_draws():
    bundle = two_scale_bundle(70, 30, 4, 40)
    k, sweeps, burn_in, seed = 3, 11, 2, 123
    fit = local_shrink(bundle, k, sweeps=sweeps, burn_in=burn_in, seed=seed)
    bstar = bundle.standardized
    gumbels = up_front_gumbels(seed, (sweeps, bundle.n_sources, k))
    term, diag = _mixture_sweeps(bstar, _initial_labels(bstar, k), gumbels, burn_in)
    assert np.array_equal(fit.coefficients, (bstar - term) @ bundle.q_half)
    assert fit.diagnostics["final_component_sizes"] == diag["final_component_sizes"]


def test_local_shrink_assembly_matches_extended_precision():
    # (B* - E[B* P]) Q^1/2 with B* and Q^1/2 in np.longdouble from the float64
    # SVD factors and E[B* P] as the sampler returns it; two components where
    # there are four sources.  The worst error relative to max |estimate| was
    # 3.6e-15 on these 200 bundles (1.0e-14 for the form B - E[B* P] Q^1/2),
    # and the bound is about ten times the former
    ld = np.longdouble
    for seed in range(200):
        x, y = design_scaled_data(seed)
        bundle = SourceBundle(x, y)
        n = bundle.n_sources
        k = 2 if n >= 4 else 1
        bstar = bundle.standardized
        gumbels = up_front_gumbels(seed, (20, n, k))
        term, _ = _mixture_sweeps(bstar, _initial_labels(bstar, k), gumbels, 5)
        u, s, vt = (f.astype(ld) for f in np.linalg.svd(x, full_matrices=False))
        sigma = np.sqrt(ld(bundle.sigma2))
        whitened = (u.T @ y.astype(ld)).T @ vt / sigma
        want = (whitened - term) @ ((vt.T * (sigma / s)) @ vt)
        got = local_shrink(bundle, k, sweeps=20, burn_in=5, seed=seed).coefficients
        assert np.max(np.abs(got - want)) <= 4e-14 * np.max(np.abs(want)), seed


# equivariance of the mixture sampler.  The bundles have two well-separated
# coefficient scales and at least 15 sources per predictor, so every
# component keeps well over p members in every sweep (at least 4.25 p in 600
# draws): a component near p members magnifies round-off, which could flip a
# label.  While the labels follow the same path, the outputs differ by
# round-off only; each tolerance is about ten times the worst relative gap
# of those 600 draws (scaling 8.5e-16, rotation 9.0e-15, permutation 1.8e-16,
# the last on the shrunk whitened rows B* - E[B* P]).

mixture_cases = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=60, max_value=100),
    st.integers(min_value=1, max_value=2),
)


def mixture_fit(bundle, k, seed):
    fit = local_shrink(bundle, k, sweeps=12, burn_in=3, seed=seed)
    assert min(fit.diagnostics["final_component_sizes"]) > 3 * bundle.n_predictors
    return fit


@settings(max_examples=25, deadline=None)
@given(mixture_cases, st.floats(min_value=0.01, max_value=100.0), st.booleans())
def test_local_shrink_scaling_responses_scales_coefficients(case, c, flip):
    seed, p, sources, k = case
    c = -c if flip else c
    x, y = two_scale_data(seed, 3 * p + 20, p, sources)
    base = mixture_fit(SourceBundle(x, y), k, seed)
    scaled = mixture_fit(SourceBundle(x, c * y), k, seed)
    assert_close(scaled.coefficients, c * base.coefficients, tol=1e-14)


@settings(max_examples=25, deadline=None)
@given(mixture_cases)
def test_local_shrink_rotating_design_rotates_coefficients(case):
    seed, p, sources, k = case
    x, y = two_scale_data(seed, 3 * p + 20, p, sources)
    r, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    base = mixture_fit(SourceBundle(x, y), k, seed)
    turned = mixture_fit(SourceBundle(x @ r, y), k, seed)
    assert_close(turned.coefficients, base.coefficients @ r, tol=1e-13)


@settings(max_examples=25, deadline=None)
@given(mixture_cases)
def test_local_shrink_scaling_design_columns_unscales_coefficients(case):
    # as for the pooled rule; the worst column-relative gap was 6.8e-12 in 600
    # draws of these cases (no label path changed), and the tolerance is
    # about ten times that
    seed, p, sources, k = case
    x, y = two_scale_data(seed, 3 * p + 20, p, sources)
    d = column_scales(np.random.default_rng(seed), p)
    base = mixture_fit(SourceBundle(x, y), k, seed)
    scaled = mixture_fit(SourceBundle(x * d, y), k, seed)
    assert (scaled.diagnostics["final_component_sizes"]
            == base.diagnostics["final_component_sizes"])
    assert_columns_close(scaled.coefficients, base.coefficients / d, 1e-10)


@settings(max_examples=25, deadline=None)
@given(mixture_cases)
def test_mixture_sweeps_permuting_rows_permutes_output(case):
    seed, p, sources, k = case
    bundle = two_scale_bundle(seed, 3 * p + 20, p, sources)
    bstar = bundle.standardized
    labels = _initial_labels(bstar, k)
    rng = np.random.default_rng(seed)
    gumbels = rng.gumbel(size=(12, sources, k))
    perm = rng.permutation(sources)
    base, diag = _mixture_sweeps(bstar, labels, gumbels, 3)
    moved, moved_diag = _mixture_sweeps(bstar[perm], labels[perm], gumbels[:, perm], 3)
    assert moved_diag == diag
    assert min(diag["final_component_sizes"]) > 3 * p
    assert_close(bstar[perm] - moved, (bstar - base)[perm], tol=3e-15)


def test_mixture_sweeps_reject_misshapen_draws():
    bundle = two_scale_bundle(71, 30, 3, 20)
    bstar = bundle.standardized
    labels = _initial_labels(bstar, 2)
    rng = np.random.default_rng(0)
    short = [rng.gumbel(size=(20, 2)), rng.gumbel(size=(19, 2))]
    with pytest.raises(DimensionError):
        _mixture_sweeps(bstar, labels, short, 0)
    flat = [rng.gumbel(size=20)]
    with pytest.raises(DimensionError):
        _mixture_sweeps(bstar, labels, flat, 0)


def test_local_shrink_memory_does_not_grow_with_sweeps():
    n, p, k = 3000, 10, 3
    bundle = two_scale_bundle(72, 40, p, n)  # fitted at construction
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
    # the (k, p, n) products reused by every sweep, plus a few (p, n) and
    # (n, p) arrays, the copy of B*' among them (2.6 n k p doubles, the
    # whitened rows being the bundle's); fresh products per sweep read 3.4
    assert max(peaks) <= 3.0 * n * k * p * 8


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
