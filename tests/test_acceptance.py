"""Acceptance gate: nine end-to-end checks at fixed seeds and tolerances.

Each test prints one [PASS]/[FAIL] verdict line (echoed again in the terminal
summary) carrying the measured numbers, then asserts the stated bound.
"""

import numpy as np

from artifact import (
    COEFFICIENT_DESIGNS,
    SourceBundle,
    eigh,
    empirical_loss,
    global_shrink,
    local_shrink,
    loss_convergence,
    precision_diagonals,
    prial_experiment,
    risk_estimate,
    run_experiment,
    sample_covariance,
    shrink_covariance,
    true_covariance,
    zeta_derivative_trace,
)
from artifact.regress import _log_posteriors, _posterior_weights


def test_criterion_01_identity_data_stretches_to_one(criterion_report):
    # identity-covariance Gaussian data: the rule should map the spread-out
    # sample spectrum back toward one, improving with n at aspect one half
    medians = []
    for n in (100, 500, 1000):
        p = n // 2
        z = np.random.default_rng(20260815 + n).standard_normal((n, p))
        shrunk = shrink_covariance(sample_covariance(z), n)
        lo = int(np.floor(0.05 * p))
        hi = int(np.ceil(0.95 * p))
        medians.append(float(np.median(np.abs(shrunk.values[lo:hi] - 1.0))))
    ok = medians[2] <= 0.15 and medians[0] > medians[1] > medians[2]
    assert criterion_report(
        1, ok,
        "bulk medians of |stretch - 1| at n=100/500/1000: %.4f/%.4f/%.4f "
        "(need final <= 0.15 and strictly decreasing)" % tuple(medians),
    )


def test_criterion_02_scaled_inverse_moment_is_unbiased(criterion_report):
    # E[(n - p - 1) (Z'Z)^-1] = I for identity-covariance Gaussian rows
    n, p, reps = 50, 5, 10000
    rng = np.random.default_rng(22)
    acc = np.zeros((p, p))
    for _ in range(reps):
        z = rng.standard_normal((n, p))
        acc += np.linalg.inv(z.T @ z)
    mean = (n - p - 1) * acc / reps
    diag_dev = float(np.max(np.abs(np.diag(mean) - 1.0)))
    off = mean - np.diag(np.diag(mean))
    off_dev = float(np.max(np.abs(off)))
    ok = diag_dev <= 0.05 and off_dev <= 0.05
    assert criterion_report(
        2, ok,
        "scaled inverse second moment vs identity over %d reps: "
        "max diagonal deviation %.4f (<= 0.05 relative), "
        "max off-diagonal %.4f (<= 0.05)" % (reps, diag_dev, off_dev),
    )


def test_criterion_03_risk_estimate_tracks_monte_carlo_risk(criterion_report):
    # the risk estimate with precision anchors is compared against the Monte
    # Carlo mean of the realized loss trace, cell by cell
    n, p, reps = 100, 20, 500
    bandwidths = (0.05, 0.1, 0.2, 0.4)
    scenarios = {
        "identity": np.eye(p),
        "ar1": true_covariance("ar1", p, rho=0.5),
    }
    worst = 0.0
    details = []
    for name, cov in sorted(scenarios.items()):
        chol = np.linalg.cholesky(cov)
        truth_inv = np.linalg.inv(cov)
        rng = np.random.default_rng(14)
        estimates = np.zeros((reps, len(bandwidths)))
        losses = np.zeros((reps, len(bandwidths)))
        for rep in range(reps):
            z = rng.standard_normal((n, p)) @ chol.T
            decomp = eigh(sample_covariance(z))
            diagonals = precision_diagonals(z)
            for bi, h in enumerate(bandwidths):
                est = shrink_covariance(decomp, n, h)
                losses[rep, bi] = p * empirical_loss(
                    truth_inv, decomp, 1.0 / est.values, 1
                )
                estimates[rep, bi] = risk_estimate(decomp, n, h, diagonals).value
        for bi, h in enumerate(bandwidths):
            target = float(np.mean(losses[:, bi]))
            rel = abs(float(np.mean(estimates[:, bi])) - target) / target
            worst = max(worst, rel)
            details.append("%s h=%.2f: %.3f%%" % (name, h, 100 * rel))
    ok = worst <= 0.05
    assert criterion_report(
        3, ok,
        "relative gap between mean risk estimate and Monte Carlo risk over "
        "8 cells, worst %.2f%% (<= 5%%): %s" % (100 * worst, "; ".join(details)),
    )


def test_criterion_04_derivative_trace_matches_finite_differences(criterion_report):
    def zeta_matrix(m, n, h):
        shrunk = shrink_covariance((m + m.T) / (2.0 * n), n, h)
        lam = shrunk.decomposition.eigenvalues
        u = shrunk.decomposition.eigenvectors
        return u @ np.diag(n * lam / shrunk.values) @ u.T

    def divergence_fd(s, n, h):
        m = n * np.asarray(s, dtype=float)
        step = 1e-6 * float(np.mean(np.abs(s)))
        total = 0.0
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                up = m.copy()
                up[i, j] += step
                dn = m.copy()
                dn[i, j] -= step
                total += (zeta_matrix(up, n, h)[i, j]
                          - zeta_matrix(dn, n, h)[i, j]) / (2.0 * step)
        return total

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 11))
        n = int(p + 2 + rng.integers(0, 30))
        rows = p + 1 + int(rng.integers(1, 20))
        a = rng.standard_normal((rows, p))
        s = a.T @ a / rows
        h = float(10.0 ** rng.uniform(-1.3, 0.0))
        analytic = zeta_derivative_trace(s, n, h)
        numeric = divergence_fd(s, n, h)
        rel = abs(analytic - numeric) / max(abs(analytic), 1e-8)
        worst = max(worst, rel)
    ok = worst <= 1e-4
    assert criterion_report(
        4, ok,
        "derivative trace vs central finite differences on 50 instances "
        "(p <= 10): worst relative gap %.2e (<= 1e-4)" % worst,
    )


def test_criterion_05_loss_falls_with_n_and_rises_with_aspect(criterion_report):
    cs = (0.1, 0.5, 0.9)
    recs = loss_convergence("independence", (50, 1000), cs, reps=100, seed=5)
    means = {}
    for r in recs:
        means.setdefault((r["n"], r["c"]), []).append(r["loss"])
    pairs = [(float(np.mean(means[(50, c)])), float(np.mean(means[(1000, c)])))
             for c in cs]
    ok_n = all(large < small for small, large in pairs)

    recs = loss_convergence("independence", (200,), cs, reps=100, seed=5)
    by_c = [float(np.mean([r["loss"] for r in recs if r["c"] == c])) for c in cs]
    ok_c = by_c[0] < by_c[1] < by_c[2]
    ok = ok_n and ok_c
    assert criterion_report(
        5, ok,
        "mean loss n=50 -> n=1000 per aspect %s: %s; at n=200 across aspects: "
        "%s (must increase)" % (
            list(cs),
            "; ".join("%.4f -> %.4f" % pair for pair in pairs),
            "/".join("%.4f" % v for v in by_c),
        ),
    )


def test_criterion_06_frobenius_and_trace_risk_differences_agree(criterion_report):
    # with a known row covariance, the gap in squared-error risk between two
    # whitened linear rules equals the gap in their loss traces; checked
    # against Monte Carlo within three standard errors
    p, n, reps = 5, 200, 2000
    omega = np.diag([3.0, 2.0, 1.5, 1.0, 0.5])
    sigma_star = np.eye(p) + omega
    sigma_star_inv = np.linalg.inv(sigma_star)
    rot = np.linalg.qr(np.random.default_rng(7).standard_normal((p, p)))[0]
    a1 = np.diag([1.2, 1.4, 1.8, 2.5, 3.0])
    a2 = rot @ np.diag([1.1, 1.3, 2.0, 2.2, 4.0]) @ rot.T
    rules = [np.linalg.inv(a1), np.linalg.inv(a2)]
    traces = [
        n * float(np.trace((a - sigma_star_inv) @ (a - sigma_star_inv) @ sigma_star))
        for a in rules
    ]

    rng = np.random.default_rng(62)
    scale = np.sqrt(np.diag(omega))
    gaps = np.empty(reps)
    for rep in range(reps):
        b = rng.standard_normal((n, p)) * scale[None, :]
        bhat = b + rng.standard_normal((n, p))
        losses = [float(np.sum((bhat @ (np.eye(p) - a).T - b) ** 2)) for a in rules]
        gaps[rep] = (losses[0] - losses[1]) - (traces[0] - traces[1])
    mean_gap = float(np.mean(gaps))
    se = float(np.std(gaps, ddof=1)) / np.sqrt(reps)
    ok = abs(mean_gap) <= 3.0 * se
    assert criterion_report(
        6, ok,
        "risk-difference identity over %d reps: |mean gap| %.3f vs 3 SE %.3f"
        % (reps, abs(mean_gap), 3.0 * se),
    )


def test_criterion_07_desk_scale_simulation_table(criterion_report):
    res = run_experiment("scale-mixture", 40, 10, rho=0.0, n_samples=200,
                         methods=("global",), reps=20, seed=2)
    mean_mix = float(res.values("global", "mse").mean())
    ok_scale = 0.005 / 3.0 <= mean_mix <= 0.005 * 3.0

    cells = []
    for design in COEFFICIENT_DESIGNS:
        for p in (10, 20, 30):
            res = run_experiment(design, 40, p, rho=0.5, n_samples=200,
                                 methods=("ols", "global"), reps=20, seed=2)
            pooled = float(res.values("global", "mse").mean())
            raw = float(res.values("ols", "mse").mean())
            cells.append(pooled < raw)
    ok = ok_scale and all(cells)
    assert criterion_report(
        7, ok,
        "two-scale cell (40, 10, rho=0) mean MSE %.5f (within factor 3 of "
        "0.005); pooled rule beats least squares in %d of 12 cells at rho=0.5"
        % (mean_mix, sum(cells)),
    )


def test_criterion_08_improvement_positivity_and_tuned_bandwidth(criterion_report):
    recs = prial_experiment(np_product=2000, aspect_ratios=(0.3, 0.5, 0.7),
                            reps=100, seed=0, policies=("default",))
    good = sum(1 for r in recs
               if not r["undefined"] and 0.0 < r["prial"] <= 100.0)
    ok_positive = good >= int(np.ceil(0.9 * len(recs)))

    # risk tuning is asymptotically optimal, not optimal at every size: its
    # unbiased but noisy per-replication picks may trail the default at
    # n - p - 1 = 9, so the same aspect-0.8 cell is also run at 16x np_product
    # (p = 160) and the tuned policy must close in on the oracle there
    cells = []
    for np_product in (2000, 32000):
        recs = prial_experiment(np_product=np_product, aspect_ratios=(0.8,),
                                reps=100, seed=0, policies=("default", "sure"))
        by_policy = {r["policy"]: r["prial"] for r in recs}
        cells.append((recs[0]["p"], by_policy["sure"], by_policy["default"]))
    p_small, sure_small, default_small = cells[0]
    p_large, sure_large, default_large = cells[1]
    regret_small, regret_large = 100.0 - sure_small, 100.0 - sure_large
    shortfall_small = default_small - sure_small
    shortfall_large = default_large - sure_large
    ok_tuned = sure_small >= default_small or (
        regret_large < regret_small and shortfall_large <= 0.5 * shortfall_small
    )
    ok = ok_positive and ok_tuned
    assert criterion_report(
        8, ok,
        "default-bandwidth improvement in (0, 100] in %d of 3 aspect cells; "
        "at aspect 0.8 tuned %.2f vs default %.2f (regret %.2f) at p=%d, "
        "tuned %.2f vs default %.2f (regret %.2f) at p=%d (tuned must not be "
        "lower at p=%d, or its regret must fall and its shortfall at least "
        "halve at p=%d)"
        % (good, sure_small, default_small, regret_small, p_small,
           sure_large, default_large, regret_large, p_large, p_small, p_large),
    )


def test_criterion_09_single_component_reduction_and_determinism(criterion_report):
    rng = np.random.default_rng(90)
    x = rng.standard_normal((40, 4))
    q_half = np.linalg.cholesky(np.linalg.inv(x.T @ x))
    beta = rng.standard_normal((30, 4)) @ q_half.T * 2.0
    bundle = SourceBundle(x, x @ beta.T + rng.standard_normal((40, 30)))

    pooled = global_shrink(bundle)
    single = local_shrink(bundle, 1, sweeps=5, burn_in=0, seed=0)
    gap = float(np.max(np.abs(single.coefficients - pooled.coefficients)))
    ok_single = gap <= 1e-8

    # the sampler's weights for covariances I, 4I and diag(1, 2, 3), given as
    # eigen stacks, with proportions 0.2/0.3/0.5 from counts (2, 3, 5)
    rows = rng.standard_normal((30, 3)) * 2.0
    vectors = np.repeat(np.eye(3)[:, None, :], 3, axis=1)
    values = np.array([[1.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 2.0, 3.0]])
    logs, _ = _log_posteriors(rows, vectors, values, np.array([2, 3, 5]))
    sums = _posterior_weights(logs).sum(axis=0)
    weight_dev = float(np.max(np.abs(sums - 1.0)))
    ok_weights = weight_dev <= 1e-12

    a = local_shrink(bundle, 2, sweeps=10, burn_in=2, seed=3)
    b = local_shrink(bundle, 2, sweeps=10, burn_in=2, seed=3)
    ok_bits = bool(np.array_equal(a.coefficients, b.coefficients))
    ok = ok_single and ok_weights and ok_bits
    assert criterion_report(
        9, ok,
        "one-component vs pooled max gap %.1e (<= 1e-8); weight-sum deviation "
        "%.1e (<= 1e-12); same-seed runs bit-identical: %s"
        % (gap, weight_dev, ok_bits),
    )
