import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from artifact.spectral import SpectralDecomposition, eigh, sample_covariance
from artifact.tuning import (
    COALESCENCE_RTOL,
    NEAR_RTOL,
    default_bandwidth_grid,
    precision_diagonals,
    risk_estimate,
    select_bandwidth,
    zeta_derivative_trace,
)

from loss_scenarios import factor_covariance


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
    # every column is the sum of the others, yet any three have full rank
    z = rng.standard_normal((50, 3))
    z = np.column_stack([z, z.sum(axis=1)])
    with pytest.raises(SingularityError):
        precision_diagonals(z)
    with pytest.raises(DimensionError):
        precision_diagonals(np.ones(5))


def test_precision_outputs_positive():
    z = np.random.default_rng(3).standard_normal((60, 4))
    assert np.all(precision_diagonals(z) > 0)


def precision_diagonals_oracle(data):
    """One least-squares regression of each column on the others."""
    z = np.asarray(data, dtype=float)
    n, p = z.shape
    out = np.empty(p)
    for j in range(p):
        y = z[:, j]
        if p == 1:
            resid = y
        else:
            x = np.delete(z, j, axis=1)
            coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
            if rank < p - 1:
                raise SingularityError(
                    "columns other than %d are collinear (rank %d < %d)"
                    % (j, rank, p - 1)
                )
            resid = y - x @ coef
        rss = float(resid @ resid)
        if rss <= 0 or not np.isfinite(rss):
            raise SingularityError(
                "column %d is exactly explained by the others; residual norm is zero" % j
            )
        out[j] = (n - p - 1) / rss
    return out


@pytest.mark.parametrize("condition", [1.0, 1e3])
@pytest.mark.parametrize("n,p", [(3, 1), (40, 1), (9, 7), (60, 5), (45, 39), (400, 24)])
def test_precision_matches_loop_oracle(n, p, condition):
    # Gaussian rows mixed by a matrix with singular values spread over
    # [1/condition, 1].  The two methods differ by a few times condition *
    # 1e-16 relative, which is also how far each is from the exact value.
    for rep in range(8):
        rng = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(n, p, rep)))
        left, _ = np.linalg.qr(rng.standard_normal((p, p)))
        right, _ = np.linalg.qr(rng.standard_normal((p, p)))
        mixing = (left * np.logspace(0, -np.log10(condition), p)) @ right
        z = rng.standard_normal((n, p)) @ mixing
        want = precision_diagonals_oracle(z)
        got = precision_diagonals(z)
        assert np.max(np.abs(got - want) / want) <= 1e-12


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
    assert r.index == 0 and r.h == 0.3
    n, p = 40, 6
    expect = (
        float(r.quadratic[0]) / n
        - 2.0 * (n - p - 1) * float(r.inverse_sum[0]) / n
        - 4.0 * float(r.derivative_trace[0]) / n
        + r.diagonal_sum
    )
    assert r.risks[0] == expect


def test_risk_components_recompute_from_shrunk_spectrum():
    z = np.random.default_rng(6).standard_normal((30, 4))
    s = sample_covariance(z)
    h = 0.4
    r = risk_estimate(s, 30, h)
    est = shrink_covariance(s, 30, h)
    lam = est.decomposition.eigenvalues
    assert r.quadratic[0] == pytest.approx(np.sum(30 * lam / est.values ** 2), rel=1e-12)
    assert r.inverse_sum[0] == pytest.approx(np.sum(1.0 / est.values), rel=1e-12)
    assert r.derivative_trace[0] == pytest.approx(
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
    assert r1.risks[0] - without.risks[0] == pytest.approx(np.sum(diags), rel=1e-12)


def test_risk_scalar_closed_chain():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((30, 1))
    s = sample_covariance(y)
    lam = float(s[0, 0])
    diags = precision_diagonals(y)
    r = risk_estimate(s, 30, 0.25, diags)
    delta = lam * 30 / 29
    expect = (30 * lam / delta ** 2) / 30 - 2 * 28 * (1 / delta) / 30 + diags[0]
    assert r.risks[0] == pytest.approx(expect, rel=1e-12)


def test_risk_reports_clamping():
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 4)))
    s = q @ np.diag([0.95, 1.0, 1.0, 1.0]) @ q.T
    r = risk_estimate(s, 7, 0.001)
    assert r.clamp_counts[0] >= 1
    assert np.isfinite(r.risks[0])


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
    # int() alone raises ValueError on NaN and OverflowError on inf
    for bad in (np.nan, np.inf, 7.5):
        with pytest.raises(DomainError, match="grid needs at least two points"):
            default_bandwidth_grid(50, 5, size=bad)


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
    risks = [risk_estimate(s, 60, h).risks[0] for h in grid]
    assert chosen.h == grid[int(np.argmin(risks))]
    assert np.allclose(chosen.risks, risks)


def test_select_keeps_each_grid_estimate():
    # the risk grid's own rule evaluation is the shrunk spectrum itself
    n, p = 40, 6
    decomp = eigh(sample_covariance(np.random.default_rng(13).standard_normal((n, p))))
    grid = default_bandwidth_grid(n, p)
    chosen = select_bandwidth(decomp, n, grid)
    assert chosen.values.shape == (grid.size, p)
    for h, values, risk in zip(grid, chosen.values, chosen.risks):
        assert risk == risk_estimate(decomp, n, h).risks[0]
        assert np.array_equal(values, _shrink_spectrum(decomp, n, h).values)


def test_select_grid_order_invariance():
    s = sample_covariance(np.random.default_rng(12).standard_normal((40, 5)))
    grid = default_bandwidth_grid(40, 5, size=7)
    shuffled = grid[[3, 0, 6, 1, 5, 2, 4]]
    assert select_bandwidth(s, 40, grid).h == select_bandwidth(s, 40, shuffled).h


# The risk grid is evaluated in blocks; these fakes replace one block's
# evaluation, so selection is tested on chosen risks.  Each test selects for
# one spectrum, so a block has one row of spectra.

def fake_risks(values):
    def block(self, rows, hs):
        # with the other terms zero, the risk is quadratic / n and its
        # magnitude the risk's absolute value
        risks = np.array([[values[float(h)] for h in hs]])
        zeros = np.zeros_like(risks)
        return (np.ones(risks.shape + (self.rule.p,)), self.rule.n * risks,
                zeros, zeros, zeros)
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


def rule_oracle(lam, n, h, pairwise=False):
    """The rule at its own kernel for one ascending spectrum and one h: the
    shrunk values, clamp mask, zeta and the diagonal of the derivative trace.
    g' comes from q = 1/den by two matrix-vector products, as in the grid,
    or with pairwise, term by term as (u^2 - b^2) / den^2."""
    p = lam.size
    inv = 1.0 / lam
    u = inv[None, :] - inv[:, None]
    b2 = (h * inv[None, :]) ** 2
    den = u * u + b2
    g = np.sum(inv * u / den, axis=1) / p
    if pairwise:
        dg = np.sum(inv * (u * u - b2) / den ** 2, axis=1) / p
    else:
        q = 1.0 / den
        dg = (q @ inv - 2.0 * (h * h) * ((q * q) @ inv ** 3)) / p
    aspect = p / n
    bracket = (1.0 - aspect) * inv + 2.0 * aspect * inv * g
    floor = CLAMP_FLOOR * inv
    clamped = bracket < floor
    delta = 1.0 / np.where(clamped, floor, bracket)
    c2 = 2.0 * p / n
    diag = -c2 * inv * (inv * dg + 1.0 / (p * h * h))
    diag = np.where(clamped, 0.0, diag)
    return delta, clamped, n * lam / delta, diag


def risk_oracle(decomp, n, h, diagonals=None):
    """The risk estimate at one bandwidth, computed directly in the grid's
    arithmetic, one spectrum and one h at a time: the off-diagonal trace
    comes from the row sums r_j over the pairs spaced apart, then each
    coalescent and each near pair on its own."""
    lam = np.sort(decomp.eigenvalues)
    p = lam.size
    delta, clamped, zeta, diag = rule_oracle(lam, n, h)
    lamstar = n * lam
    trace = float(np.sum(diag))
    if p > 1:
        gap = np.abs(lam[:, None] - lam[None, :])
        coalescent = gap <= COALESCENCE_RTOL * lam[-1]
        near = gap <= NEAR_RTOL * np.minimum(lam[:, None], lam[None, :])
        apart = ~(coalescent | near)
        dl = np.where(apart, lamstar[:, None] - lamstar[None, :], 1.0)
        rowsums = np.sum(np.where(apart, 1.0 / dl, 0.0), axis=1)
        trace += float(np.sum(zeta * rowsums))
        for j, k in zip(*np.nonzero(np.triu(coalescent, 1))):
            trace += 0.5 * (diag[j] + diag[k])
        for j, k in zip(*np.nonzero(np.triu(near & ~coalescent, 1))):
            trace += (zeta[j] - zeta[k]) / (lamstar[j] - lamstar[k])
    quadratic = float(np.sum(lamstar / delta ** 2))
    inverse_sum = float(np.sum(1.0 / delta))
    diagonal_sum = None if diagonals is None else float(np.sum(diagonals))
    risk = quadratic / n - 2.0 * (n - p - 1) * inverse_sum / n - 4.0 * trace / n
    if diagonal_sum is not None:
        risk += diagonal_sum
    magnitude = (
        abs(quadratic) + 2.0 * (n - p - 1) * abs(inverse_sum) + 4.0 * abs(trace)
    ) / n + abs(diagonal_sum or 0.0)
    return SimpleNamespace(
        risk=risk, magnitude=magnitude, values=delta, quadratic=quadratic,
        inverse_sum=inverse_sum, derivative_trace=trace,
        clamp_count=int(np.sum(clamped)), diagonal_sum=diagonal_sum,
    )


def pairwise_trace_oracle(lam, n, h):
    """The derivative trace at one bandwidth from the whole p x p table of
    divided differences of zeta, coalescent pairs at their limit, with g'
    summed term by term: the form that the grid's row sums replace."""
    _, _, zeta, diag = rule_oracle(lam, n, h, pairwise=True)
    trace = float(np.sum(diag))
    if lam.size > 1:
        coalescent = np.abs(lam[:, None] - lam[None, :]) <= COALESCENCE_RTOL * lam[-1]
        np.fill_diagonal(coalescent, True)
        lamstar = n * lam
        dl = lamstar[:, None] - lamstar[None, :]
        ratio = (zeta[:, None] - zeta[None, :]) / np.where(coalescent, 1.0, dl)
        limit = 0.5 * (diag[:, None] + diag[None, :])
        off = coalescent.copy()
        np.fill_diagonal(off, False)
        terms = np.where(off, limit, np.where(coalescent, 0.0, ratio))
        trace += 0.5 * float(np.sum(terms))
    return trace


def assert_grid_matches_oracle(s, n, grid=None, diagonals=None):
    decomp = eigh(s)
    chosen = select_bandwidth(decomp, n, grid, diagonals)
    for b, h in enumerate(chosen.grid):
        want = risk_oracle(decomp, n, h, diagonals)
        assert chosen.risks[b] == want.risk
        assert chosen.quadratic[b] == want.quadratic
        assert chosen.inverse_sum[b] == want.inverse_sum
        assert chosen.derivative_trace[b] == want.derivative_trace
        assert chosen.clamp_counts[b] == want.clamp_count
        assert chosen.diagonal_sum == want.diagonal_sum
        assert chosen.magnitudes[b] == want.magnitude
        assert np.array_equal(chosen.values[b], want.values)
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
    # near pairs, taken pairwise, next to coalescent ones
    assert_grid_matches_oracle(np.diag([1.0, 1.0, 1.0 + 1e-6, 2.0, 2.0 + 3e-5]), 15)


def test_grid_matches_oracle_on_a_clamped_spectrum():
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 4)))
    s = q @ np.diag([0.95, 1.0, 1.0, 1.0]) @ q.T
    grid = np.append(default_bandwidth_grid(7, 4), 0.001)
    chosen = assert_grid_matches_oracle(s, 7, grid)
    assert chosen.clamp_counts[0] >= 1


def test_grid_matches_oracle_on_a_user_grid_with_diagonals():
    n, p = 60, 8
    z = np.random.default_rng(16).standard_normal((n, p))
    assert_grid_matches_oracle(sample_covariance(z), n, np.geomspace(0.01, 10.0, 40),
                               precision_diagonals(z))


def pairwise_case(kind, seed, *args):
    """An ascending spectrum and its sample count n for the pairwise test."""
    rng = np.random.default_rng(np.random.SeedSequence(31, spawn_key=(seed,)))
    if kind == "factor":
        p, = args
        n = 2 * p
        chol = np.linalg.cholesky(factor_covariance(p, rng))
        z = rng.standard_normal((n, p)) @ chol.T
    else:
        n, p = (60, 20) if kind == "planted" else args
        z = rng.standard_normal((n, p))
    lam = eigh(sample_covariance(z)).eigenvalues
    if kind == "planted":
        # eigenvalue `at` moves to within `gap` (relative) above the one below it
        gap, at = args
        lam[at] = lam[at - 1] * (1.0 + gap)
        lam.sort()
    return lam, n


@pytest.mark.parametrize("case", [
    *[("wishart", seed, n, p) for seed in range(4) for n, p in ((40, 6), (60, 20), (128, 64))],
    *[("planted", seed, gap, at) for seed in range(2) for gap in (1e-3, 1e-5, 1e-7, 2e-8)
      for at in (1, 10, 19)],
    *[("factor", seed, p) for seed in range(2) for p in (24, 37)],
    ("factor", 0, 447),
], ids=str)
def test_grid_trace_matches_the_pairwise_table(case):
    # The grid sums the pairs spaced apart through the row sums r_j and takes
    # g' from two matrix-vector products; the pairwise table is the direct
    # form.  Worst gaps measured on these cases (numpy 2.4.6, OpenBLAS):
    # 4.2e-14 of the largest |trace| along the grid (the trace can cross
    # zero there) and 3.6e-15 of the magnitude on the risks, with no index
    # moved; the bounds are about ten times those.  Near pairs (the planted
    # gaps 1e-5 to 2e-8) are taken pairwise: left in the row sums they gave
    # gaps of 2.7e-11 on the trace and 1.0e-11 on the risks.
    lam, n = pairwise_case(*case)
    p = lam.size
    chosen = select_bandwidth(SpectralDecomposition(lam, np.eye(p)), n)
    trace = np.array([pairwise_trace_oracle(lam, n, h) for h in chosen.grid])
    assert np.all(np.abs(chosen.derivative_trace - trace) <= 5e-13 * np.max(np.abs(trace)))
    risks = chosen.quadratic / n - 2.0 * (n - p - 1) * chosen.inverse_sum / n - 4.0 * trace / n
    magnitudes = (np.abs(chosen.quadratic) + 2.0 * (n - p - 1) * np.abs(chosen.inverse_sum)
                  + 4.0 * np.abs(trace)) / n
    assert np.all(np.abs(chosen.risks - risks) <= 4e-14 * magnitudes)
    lowest = int(np.argmin(risks))
    tied = risks <= risks[lowest] + tuning.RISK_TIE_RTOL * magnitudes[lowest]
    # the last tied grid point is the largest h
    assert chosen.index == chosen.grid.size - 1 - int(np.argmax(tied[::-1]))


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


TABLE_COLUMNS = ("values", "quadratic", "inverse_sum", "derivative_trace",
                 "clamp_counts", "risks", "magnitudes")


def assert_stack_matches_each_spectrum(stack, n, grid, diagonals=None):
    """select_bandwidth of a stack against one call per spectrum, bit for bit."""
    batch = select_bandwidth(stack, n, grid, diagonals)
    for k, s in enumerate(stack):
        single = select_bandwidth(s, n, grid, None if diagonals is None else diagonals[k])
        for name in TABLE_COLUMNS:
            assert np.array_equal(getattr(batch, name)[k], getattr(single, name),
                                  equal_nan=True), (k, name)
        assert batch.index[k] == single.index and batch.h[k] == single.h
        assert (batch.diagonal_sum is None) == (single.diagonal_sum is None)
        if single.diagonal_sum is not None:
            assert batch.diagonal_sum[k] == single.diagonal_sum
    return batch


def test_select_on_a_stack_matches_each_spectrum():
    # one batch holds a coalescent pair, a pair within round-off, a clamped
    # spectrum and a tie within RISK_TIE_RTOL
    n = 15
    q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 4)))
    stack = np.stack([
        np.diag([1.0, 1.0, 2.0, 3.0]),
        np.diag([1.0, 1.0 + 1e-12, 2.0, 3.0]),
        q @ np.diag([0.95, 1.0, 1.0, 1.0]) @ q.T,
        sample_covariance(np.random.default_rng(18).standard_normal((n, 4))),
    ])
    base = np.append(default_bandwidth_grid(n, 4), 0.001)
    # the tie: a grid point one ulp below the tie spectrum's minimum, where
    # the risk comes out lower by round-off
    best = select_bandwidth(stack[3], n, base).h
    grid = np.unique(np.append(base, np.nextafter(best, 0.0)))
    assert block_size(4) >= grid.size * len(stack)  # the whole batch is one block
    batch = assert_stack_matches_each_spectrum(stack, n, grid)
    assert batch.clamp_counts[2, grid == 0.001] >= 1
    tied = batch.risks[3]
    low = int(np.argmin(tied))
    assert batch.index[3] == low + 1 and grid[low + 1] == best
    assert abs(tied[low + 1] - tied[low]) <= tuning.RISK_TIE_RTOL * batch.magnitudes[3, low]
    assert np.all(np.isfinite(batch.risks))


@pytest.mark.parametrize("n, p, count", [(60, 30, 5), (128, 64, 3)])
def test_select_on_a_stack_over_several_blocks(n, p, count):
    # p = 30 holds two spectra at the whole grid per block and leaves a short
    # last block of spectra; p = 64 holds one spectrum at 8 bandwidths
    rng = np.random.default_rng(19)
    z = rng.standard_normal((count, n, p))
    # one spectrum past the first block has eigenvalues repeated up to
    # round-off, and one of them moved by 2e-6 relative, so its coalescent
    # and near pairs sit at an offset within a block
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    scales = np.repeat([1.0, 2.0], [p // 2, p - p // 2])
    scales[0] *= 1.0 + 1e-6
    z[-2] = np.sqrt(n) * q[:, :p] * scales
    stack = np.stack([sample_covariance(x) for x in z])
    grid = default_bandwidth_grid(n, p)
    risk_grid = tuning._RiskGrid(eigh(stack), n, grid, None)
    assert np.any(risk_grid.coalescent[0] == count - 2)
    assert np.any(risk_grid.near[0] == count - 2)
    diagonals = np.stack([precision_diagonals(x) for x in z])
    assert_stack_matches_each_spectrum(stack, n, grid, diagonals)


def test_select_on_a_stack_rejects_mismatched_diagonals_and_spectra():
    stack = np.stack([np.diag([1.0, 2.0]), np.diag([1.0, 3.0])])
    with pytest.raises(DimensionError):
        select_bandwidth(stack, 30, [0.5], np.ones(2))
    with pytest.raises(TuningError, match="spectrum 1 of the stack"):
        select_bandwidth(np.stack([np.eye(2), np.diag([0.0, 1.0])]), 30, [0.5])


def test_select_validation():
    s = np.diag([1.0, 2.0])
    with pytest.raises(DomainError):
        select_bandwidth(s, 30, [])
    with pytest.raises(DomainError):
        select_bandwidth(s, 30, [0.5, -1.0])
    with pytest.raises(InsufficientDataError):
        select_bandwidth(np.eye(4), 5, [0.5])
    # precision diagonals are positive by construction; zero or less is refused
    for bad in ([1.0, 0.0], [-1.0, 2.0]):
        with pytest.raises(DomainError, match="precision diagonals must be positive"):
            select_bandwidth(s, 30, [0.5], bad)


# Scale equivariance.  Scaling the spectrum by c scales the quadratic,
# inverse-sum and derivative-trace columns of the risk table by 1/c (the
# rule maps c x to c delta(x)), and the precision diagonals of cZ by 1/c^2.
# Each tolerance is about ten times the worst gap measured on 12000 draws of
# these cases (c from 1e-3 to 1e3, p from 1 to 59, numpy 2.4.6).

def scaled_data(seed, p, count):
    """count Gaussian data sets of n > p + 1 rows, columns scaled from 1e-1
    to 1e1."""
    rng = np.random.default_rng(seed)
    n = int(p + 2 + rng.integers(0, 3 * p))
    scales = 10.0 ** rng.uniform(-1.0, 1.0, (count, 1, p))
    return n, rng.standard_normal((count, n, p)) * scales


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=29),
       st.integers(min_value=1, max_value=3), st.floats(min_value=-3.0, max_value=3.0),
       st.booleans())
# three spectra at p = 30 fill two blocks of spectra; at p = 48 a block
# holds 14 bandwidths of one spectrum, so each spectrum spans two
@example(7, 30, 3, 2.0, True)
@example(8, 48, 2, -2.0, False)
def test_risk_table_is_scale_equivariant(seed, p, count, log_c, anchored):
    # the spectra are scaled in the decomposition, so the gap is the risk
    # table's own: worst 5.5e-13 of the magnitudes, and no index moved
    n, z = scaled_data(seed, p, count)
    c = 10.0 ** log_c
    decomp = eigh(np.stack([sample_covariance(x) for x in z]))
    scaled = SpectralDecomposition(c * decomp.eigenvalues, decomp.eigenvectors)
    diagonals = np.stack([precision_diagonals(x) for x in z]) if anchored else None
    grid = default_bandwidth_grid(n, p)
    base = select_bandwidth(decomp, n, grid, diagonals)
    other = select_bandwidth(scaled, n, grid, None if diagonals is None else diagonals / c)
    assert np.all(np.abs(c * other.risks - base.risks) <= 5e-12 * base.magnitudes)
    rows = np.arange(count)
    # an index that moves stays within the tie band of the minimum
    gap = base.risks[rows, other.index] - base.risks[rows, base.index]
    band = (tuning.RISK_TIE_RTOL + 5e-12) * base.magnitudes[rows, base.index]
    assert np.all(np.abs(gap) <= band)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=29),
       st.floats(min_value=-3.0, max_value=3.0))
def test_precision_diagonals_are_scale_equivariant(seed, p, log_c):
    # precision_diagonals(cZ) = precision_diagonals(Z) / c^2: worst relative
    # gap 1.2e-13
    _, z = scaled_data(seed, p, 1)
    c = 10.0 ** log_c
    want = precision_diagonals(z[0]) / c ** 2
    assert np.all(np.abs(precision_diagonals(c * z[0]) - want) <= 1e-12 * want)
