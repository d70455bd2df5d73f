import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import artifact.tuning as tuning
from artifact.errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    SingularityError,
    TuningError,
)
from artifact.shrinkage import (
    CLAMP_FLOOR,
    ShrinkageRule,
    _shrink_spectrum,
    default_bandwidth,
    shrink_covariance,
)
from artifact.spectral import eigh, sample_covariance
from artifact.tuning import (
    COALESCENCE_RTOL,
    RiskEstimate,
    default_bandwidth_grid,
    precision_diagonals,
    risk_estimate,
    select_bandwidth,
    zeta_derivative_trace,
)


# Finite-difference oracles for the derivative trace.  zeta_j is the j-th
# unnormalized eigenvalue over its shrunk value; perturbations move the
# kernel along with the evaluation point (the rule is re-built each time).

def zeta_vector(lams, n, h):
    lams = np.asarray(lams, dtype=float)
    rule = ShrinkageRule(lams, n, lams.size, h)
    return n * lams / rule.evaluate(lams)[0]


def trace_fd_oracle(lams, n, h, rel_step):
    lams = np.asarray(lams, dtype=float)
    p = lams.size
    total = 0.0
    for j in range(p):
        step = rel_step * lams[j]
        up, dn = lams.copy(), lams.copy()
        up[j] += step
        dn[j] -= step
        diff = zeta_vector(up, n, h)[j] - zeta_vector(dn, n, h)[j]
        total += diff / (2.0 * n * step)
    zeta = zeta_vector(lams, n, h)
    star = n * lams
    for i in range(p):
        for j in range(p):
            if i != j:
                total += 0.5 * (zeta[j] - zeta[i]) / (star[j] - star[i])
    return total


def divergence_fd_oracle(s, n, h, step):
    """Matrix-level divergence of M -> U zeta(Lambda*) U' at the unnormalized
    second-moment matrix, perturbing every entry with symmetrization inside."""
    sm = np.asarray(s, dtype=float)
    p = sm.shape[0]

    def zeta_matrix(m):
        decomp = eigh(0.5 * (m + m.T) / n)
        lam = decomp.eigenvalues
        rule = ShrinkageRule(lam, n, p, h)
        vals = n * lam / rule.evaluate(lam)[0]
        u = decomp.eigenvectors
        return u @ np.diag(vals) @ u.T

    base = n * sm
    total = 0.0
    for i in range(p):
        for j in range(p):
            bump = np.zeros((p, p))
            bump[i, j] = step
            total += (zeta_matrix(base + bump)[i, j] - zeta_matrix(base - bump)[i, j]) / (
                2.0 * step
            )
    return total


# precision diagonals


def test_precision_single_column_closed_form():
    y = np.array([[1.0], [2.0], [-1.0], [0.5], [3.0]])
    got = precision_diagonals(y)
    assert got.shape == (1,)
    assert got[0] == pytest.approx((5 - 2) / float(y.ravel() @ y.ravel()), rel=1e-14)


def test_precision_identity_monte_carlo_mean():
    acc = np.zeros(3)
    for rep in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(rep,)))
        acc += precision_diagonals(rng.standard_normal((500, 3)))
    acc /= 200
    assert np.max(np.abs(acc - 1.0)) <= 0.05


def test_precision_diagonal_covariance_single_draw():
    z = np.random.default_rng(1).standard_normal((1000, 2)) @ np.diag([1.0, 2.0])
    got = precision_diagonals(z)
    assert got[0] == pytest.approx(1.0, rel=0.1)
    assert got[1] == pytest.approx(0.25, rel=0.1)


def test_precision_preconditions():
    rng = np.random.default_rng(2)
    with pytest.raises(InsufficientDataError):
        precision_diagonals(rng.standard_normal((4, 3)))
    z = rng.standard_normal((20, 2))
    z = np.column_stack([z, z[:, 0]])  # third column duplicates the first
    with pytest.raises(SingularityError):
        precision_diagonals(z)
    with pytest.raises(DimensionError):
        precision_diagonals(np.ones(5))


def test_precision_outputs_positive():
    z = np.random.default_rng(3).standard_normal((60, 4))
    assert np.all(precision_diagonals(z) > 0)


# derivative trace


def test_trace_single_eigenvalue_is_zero():
    """With one eigenvalue the shrunk value is a fixed multiple of it, so the
    ratio zeta is constant and its derivative vanishes identically."""
    for lam, n, h in ((2.5, 10, 0.3), (0.2, 50, 1.0)):
        got = zeta_derivative_trace(eigh(np.array([[lam]])), n, h)
        assert abs(got) <= 1e-12
        assert abs(trace_fd_oracle([lam], n, h, 1e-6)) <= 1e-6


def test_trace_two_eigenvalues_matches_finite_differences():
    got = zeta_derivative_trace(eigh(np.diag([1.0, 2.0])), 10, 0.7)
    assert got == pytest.approx(trace_fd_oracle([1.0, 2.0], 10, 0.7, 1e-5), rel=1e-5)


def test_trace_matches_matrix_level_divergence():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((12, 3))
    s = sample_covariance(a)
    n, h = 12, 0.5
    got = zeta_derivative_trace(eigh(s), n, h)
    fd = divergence_fd_oracle(s, n, h, 1e-6 * float(np.mean(np.abs(s))))
    assert got == pytest.approx(fd, rel=1e-6)


def test_trace_equal_eigenvalues_finite():
    got = zeta_derivative_trace(eigh(np.eye(3) * 2.0), 12, 0.4)
    assert np.isfinite(got)


def test_trace_continuous_through_near_ties():
    tied = zeta_derivative_trace(eigh(np.diag([1.0, 1.0, 2.0])), 15, 0.6)
    near = zeta_derivative_trace(eigh(np.diag([1.0, 1.0 + 1e-12, 2.0])), 15, 0.6)
    assert np.isfinite(tied) and np.isfinite(near)
    assert near == pytest.approx(tied, rel=1e-6)


def test_trace_accepts_plain_matrices_and_checks_n():
    s = np.diag([1.0, 2.0, 4.0])
    assert zeta_derivative_trace(s, 20, 0.5) == pytest.approx(
        zeta_derivative_trace(eigh(s), 20, 0.5), abs=0
    )
    with pytest.raises(InsufficientDataError):
        zeta_derivative_trace(s, 4, 0.5)


# risk estimate


def test_risk_assembly_identity_exact():
    z = np.random.default_rng(5).standard_normal((40, 6))
    s = sample_covariance(z)
    diags = precision_diagonals(z)
    r = risk_estimate(s, 40, 0.3, diags)
    n, p = r.n, r.p
    expect = (
        r.quadratic / n
        - 2.0 * (n - p - 1) * r.inverse_sum / n
        - 4.0 * r.derivative_trace / n
        + r.diagonal_sum
    )
    assert r.value == expect


def test_risk_components_recompute_from_shrunk_spectrum():
    z = np.random.default_rng(6).standard_normal((30, 4))
    s = sample_covariance(z)
    h = 0.4
    r = risk_estimate(s, 30, h)
    est = shrink_covariance(s, 30, h)
    lam = est.decomposition.eigenvalues
    assert r.quadratic == pytest.approx(np.sum(30 * lam / est.values ** 2), rel=1e-12)
    assert r.inverse_sum == pytest.approx(np.sum(1.0 / est.values), rel=1e-12)
    assert r.derivative_trace == pytest.approx(
        zeta_derivative_trace(eigh(s), 30, h), abs=0
    )
    assert r.diagonal_sum is None


def test_risk_anchor_term_constant_in_h():
    z = np.random.default_rng(7).standard_normal((50, 5))
    s = sample_covariance(z)
    diags = precision_diagonals(z)
    r1 = risk_estimate(s, 50, 0.1, diags)
    r2 = risk_estimate(s, 50, 1.0, diags)
    assert r1.diagonal_sum == r2.diagonal_sum == pytest.approx(np.sum(diags), abs=0)
    without = risk_estimate(s, 50, 0.1)
    assert r1.value - without.value == pytest.approx(np.sum(diags), rel=1e-12)


def test_risk_scalar_closed_chain():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((30, 1))
    s = sample_covariance(y)
    lam = float(s[0, 0])
    diags = precision_diagonals(y)
    r = risk_estimate(s, 30, 0.25, diags)
    delta = lam * 30 / 29
    expect = (30 * lam / delta ** 2) / 30 - 2 * 28 * (1 / delta) / 30 + diags[0]
    assert r.value == pytest.approx(expect, rel=1e-12)


def test_risk_reports_clamping():
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 4)))
    s = q @ np.diag([0.95, 1.0, 1.0, 1.0]) @ q.T
    r = risk_estimate(s, 7, 0.001)
    assert r.clamp_count >= 1
    assert np.isfinite(r.value)


# grid


def test_grid_centers_on_default_bandwidth_exactly():
    grid = default_bandwidth_grid(100, 20)
    h0 = default_bandwidth(100, 20)
    assert grid.size == 15
    assert grid[7] == h0
    assert grid[0] == pytest.approx(h0 / 10, rel=1e-12)
    assert grid[-1] == pytest.approx(10 * h0, rel=1e-12)
    assert np.all(np.diff(grid) > 0)


def test_grid_even_size_and_span():
    grid = default_bandwidth_grid(60, 12, size=8, span=4.0)
    h0 = default_bandwidth(60, 12)
    assert grid.size == 8
    assert grid[0] == pytest.approx(h0 / 4, rel=1e-12)
    assert grid[-1] == pytest.approx(4 * h0, rel=1e-12)


def test_grid_validation():
    with pytest.raises(DomainError):
        default_bandwidth_grid(50, 5, size=1)
    with pytest.raises(DomainError):
        default_bandwidth_grid(50, 5, span=1.0)


# selection


def test_select_single_point_grid():
    s = sample_covariance(np.random.default_rng(10).standard_normal((25, 3)))
    chosen = select_bandwidth(s, 25, [0.37])
    assert chosen.h == 0.37
    assert chosen.index == 0
    assert chosen.risks.shape == (1,)


def test_select_achieves_grid_minimum():
    s = sample_covariance(np.random.default_rng(11).standard_normal((60, 8)))
    h0 = default_bandwidth(60, 8)
    grid = [h0 / 4, h0, 4 * h0]
    chosen = select_bandwidth(s, 60, grid)
    risks = [risk_estimate(s, 60, h).value for h in grid]
    assert chosen.h == grid[int(np.argmin(risks))]
    assert np.allclose(chosen.risks, risks)


def test_select_keeps_each_grid_estimate():
    # the risk grid's own rule evaluation is the shrunk spectrum itself
    n, p = 40, 6
    decomp = eigh(sample_covariance(np.random.default_rng(13).standard_normal((n, p))))
    grid = default_bandwidth_grid(n, p)
    chosen = select_bandwidth(decomp, n, grid)
    assert len(chosen.estimates) == grid.size
    for h, est, risk in zip(grid, chosen.estimates, chosen.risks):
        assert est.h == h and est.value == risk
        assert np.array_equal(est.values, _shrink_spectrum(decomp, n, p, h).values)


def test_select_grid_order_invariance():
    s = sample_covariance(np.random.default_rng(12).standard_normal((40, 5)))
    grid = default_bandwidth_grid(40, 5, size=7)
    shuffled = grid[[3, 0, 6, 1, 5, 2, 4]]
    assert select_bandwidth(s, 40, grid).h == select_bandwidth(s, 40, shuffled).h


# The risk grid is evaluated in blocks; these fakes replace one block's
# evaluation, so selection is tested on chosen risks.

def fake_risks(values):
    def block(self, hs):
        return [SimpleNamespace(value=values[float(h)], magnitude=abs(values[float(h)]))
                for h in hs]
    return block


def test_select_tie_break_prefers_larger_h(monkeypatch):
    s = np.diag([1.0, 2.0])
    monkeypatch.setattr(
        tuning._RiskGrid, "block", fake_risks({1.0: 1.5, 2.0: 1.5, 3.0: 2.0})
    )
    assert select_bandwidth(s, 30, [1.0, 2.0, 3.0]).h == 2.0
    # a gap at round-off level is a tie; a larger one is not
    monkeypatch.setattr(
        tuning._RiskGrid, "block", fake_risks({1.0: -1.5, 2.0: -1.5 * (1 - 4e-14)})
    )
    assert select_bandwidth(s, 30, [1.0, 2.0]).h == 2.0
    monkeypatch.setattr(
        tuning._RiskGrid, "block", fake_risks({1.0: -1.5, 2.0: -1.5 * (1 - 1e-10)})
    )
    assert select_bandwidth(s, 30, [1.0, 2.0]).h == 1.0


def test_select_skips_non_finite_risks(monkeypatch):
    s = np.diag([1.0, 2.0])
    monkeypatch.setattr(
        tuning._RiskGrid, "block", fake_risks({1.0: np.nan, 2.0: 5.0})
    )
    assert select_bandwidth(s, 30, [1.0, 2.0]).h == 2.0

    def singular_at_one(self, hs):
        # both bandwidths share one block, which fails as a whole
        if 1.0 in hs:
            raise SingularityError("no rule at h = 1")
        return [SimpleNamespace(value=5.0, magnitude=5.0) for _ in hs]

    monkeypatch.setattr(tuning._RiskGrid, "block", singular_at_one)
    chosen = select_bandwidth(s, 30, [1.0, 2.0])
    assert chosen.h == 2.0 and np.isnan(chosen.risks[0])
    assert chosen.estimates[0] is None and chosen.estimates[1].value == 5.0
    monkeypatch.setattr(
        tuning._RiskGrid, "block", fake_risks({1.0: np.nan, 2.0: np.inf})
    )
    with pytest.raises(TuningError):
        select_bandwidth(s, 30, [1.0, 2.0])


def test_select_singular_spectrum_has_no_finite_risk():
    # the rule's rank check holds for every h, so no bandwidth has an estimate
    with pytest.raises(TuningError):
        select_bandwidth(np.diag([0.0, 1.0, 2.0]), 30, [0.5, 1.0])
    with pytest.raises(SingularityError):
        risk_estimate(np.diag([0.0, 1.0, 2.0]), 30, 0.5)


def risk_oracle(decomp, n, h, diagonals=None):
    """The risk estimate at one bandwidth, computed directly: one rule
    evaluation at the kernel and one p x p divided-difference table per h."""
    lam = np.sort(decomp.eigenvalues)
    p = lam.size
    inv = 1.0 / lam
    u = inv[None, :] - inv[:, None]
    b2 = (h * inv[None, :]) ** 2
    g = np.sum(inv * u / (u * u + b2), axis=1) / p
    dg = np.sum(inv * (u * u - b2) / (u * u + b2) ** 2, axis=1) / p
    aspect = p / n
    bracket = (1.0 - aspect) * inv + 2.0 * aspect * inv * g
    floor = CLAMP_FLOOR * inv
    clamped = bracket < floor
    delta = 1.0 / np.where(clamped, floor, bracket)
    lamstar = n * lam
    zeta = lamstar / delta

    c2 = 2.0 * p / n
    diag = -c2 * inv * (inv * dg + 1.0 / (p * h * h))
    diag = np.where(clamped, 0.0, diag)
    trace = float(np.sum(diag))
    if p > 1:
        coalescent = np.abs(lam[:, None] - lam[None, :]) <= COALESCENCE_RTOL * lam[-1]
        np.fill_diagonal(coalescent, True)
        dl = lamstar[:, None] - lamstar[None, :]
        ratio = (zeta[:, None] - zeta[None, :]) / np.where(coalescent, 1.0, dl)
        limit = 0.5 * (diag[:, None] + diag[None, :])
        off = coalescent.copy()
        np.fill_diagonal(off, False)
        terms = np.where(off, limit, np.where(coalescent, 0.0, ratio))
        trace += 0.5 * float(np.sum(terms))
    diagonal_sum = None if diagonals is None else float(np.sum(diagonals))
    return RiskEstimate(h, n, p, delta, np.sum(lamstar / delta ** 2), np.sum(1.0 / delta),
                        trace, diagonal_sum, np.sum(clamped))


def assert_grid_matches_oracle(s, n, grid=None, diagonals=None):
    decomp = eigh(s)
    chosen = select_bandwidth(decomp, n, grid, diagonals)
    for h, est, risk in zip(chosen.grid, chosen.estimates, chosen.risks):
        want = risk_oracle(decomp, n, h, diagonals)
        assert est.h == want.h and est.value == want.value == risk
        assert est.quadratic == want.quadratic
        assert est.inverse_sum == want.inverse_sum
        assert est.derivative_trace == want.derivative_trace
        assert est.clamp_count == want.clamp_count
        assert est.diagonal_sum == want.diagonal_sum
        assert est.magnitude == want.magnitude
        assert np.array_equal(est.values, want.values)
    return chosen


def block_size(p):
    return max(1, tuning.BLOCK_TERMS // (p * p))


def test_grid_matches_oracle_in_one_block():
    n, p = 40, 6
    assert block_size(p) >= 15
    assert_grid_matches_oracle(sample_covariance(
        np.random.default_rng(14).standard_normal((n, p))), n)


def test_grid_matches_oracle_over_blocks_with_a_short_last_block():
    n, p = 128, 64
    assert 1 < block_size(p) < 15 and 15 % block_size(p) != 0
    assert_grid_matches_oracle(sample_covariance(
        np.random.default_rng(15).standard_normal((n, p))), n)


def test_grid_matches_oracle_on_coalescent_spectra():
    assert_grid_matches_oracle(np.diag([1.0, 1.0, 2.0]), 15)
    assert_grid_matches_oracle(np.diag([1.0, 1.0 + 1e-12, 2.0]), 15)


def test_grid_matches_oracle_on_a_clamped_spectrum():
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 4)))
    s = q @ np.diag([0.95, 1.0, 1.0, 1.0]) @ q.T
    grid = np.append(default_bandwidth_grid(7, 4), 0.001)
    chosen = assert_grid_matches_oracle(s, 7, grid)
    assert chosen.estimates[0].clamp_count >= 1


def test_grid_matches_oracle_on_a_user_grid_with_diagonals():
    n, p = 60, 8
    z = np.random.default_rng(16).standard_normal((n, p))
    assert_grid_matches_oracle(sample_covariance(z), n, np.geomspace(0.01, 10.0, 40),
                               precision_diagonals(z))


def test_grid_memory_stays_a_few_p_by_p_arrays():
    # the prial-large-p cell: at p = 447 a block holds one bandwidth, and the
    # grid keeps two p x p kernel-difference arrays and two block buffers
    n, p = 894, 447
    decomp = eigh(sample_covariance(np.random.default_rng(17).standard_normal((n, p))))
    assert block_size(p) == 1
    select_bandwidth(np.diag([1.0, 2.0, 3.0]), 10)  # first-call caches are not the grid's
    tracemalloc.start()
    try:
        select_bandwidth(decomp, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * p * p * 8


def test_select_validation():
    s = np.diag([1.0, 2.0])
    with pytest.raises(DomainError):
        select_bandwidth(s, 30, [])
    with pytest.raises(DomainError):
        select_bandwidth(s, 30, [0.5, -1.0])
    with pytest.raises(InsufficientDataError):
        select_bandwidth(np.eye(4), 5, [0.5])
