import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artifact.errors import (
    DimensionError,
    DomainError,
    InputError,
    RegimeError,
    SingularityError,
)
from artifact.shrinkage import (
    ShrinkageRule,
    default_bandwidth,
    empirical_loss,
    shrink_covariance,
    stein_transform,
    stein_transform_derivative,
)
from artifact.spectral import eigh, sample_covariance, zero_tolerance

from loss_scenarios import dense_inverse


# Independent straight-line oracles: plain loops over the displayed formulas,
# no shared code with the implementation.

def score_oracle(x, lams, h, divisor):
    total = 0.0
    for lam in lams:
        inv = 1.0 / lam
        total += inv * (inv - x) / ((inv - x) ** 2 + (h * inv) ** 2)
    return total / divisor


def delta_under_oracle(x, lams, n, p, h):
    c = p / n
    g = score_oracle(1.0 / x, lams, h, p)
    return 1.0 / ((1.0 - c) / x + 2.0 * c * g / x)


def delta_over_oracle(x, nonzero, n, p, h):
    c = p / n
    g = score_oracle(1.0 / x, nonzero, h, n)
    return 1.0 / ((c - 1.0) / x + 2.0 * g / x)


def rotation(dim, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def dense(shrunk):
    """The shrunk covariance as a matrix: U diag(values) U'."""
    u = shrunk.decomposition.eigenvectors
    return u @ np.diag(shrunk.values) @ u.T


# smoothed score


def test_score_vanishes_at_kernel_point():
    for h in (0.01, 0.3, 2.0):
        assert stein_transform(0.5, [2.0], h, 1) == 0.0


def test_score_single_eigenvalue_hand_value():
    # {1}, x=0, h=1: 1*(1-0)/((1)^2+1) = 0.5
    assert stein_transform(0.0, [1.0], 1.0, 1) == pytest.approx(0.5, abs=1e-15)


def test_score_matches_loop_oracle():
    lams = [0.5, 1.5, 2.5]
    got = stein_transform(1.2, lams, 0.3, 3)
    assert got == pytest.approx(score_oracle(1.2, lams, 0.3, 3), abs=1e-12)


def test_score_vector_form_matches_scalars():
    lams = [0.7, 1.1, 3.0]
    xs = np.array([0.2, 0.9, 1.4])
    vec = stein_transform(xs, lams, 0.25, 3)
    for xi, vi in zip(xs, vec):
        assert vi == pytest.approx(stein_transform(float(xi), lams, 0.25, 3))


def test_score_derivative_matches_finite_differences():
    lams = [0.6, 1.0, 1.9, 4.2]
    h, div = 0.4, 4
    for x in (0.3, 0.8, 2.0):
        eps = 1e-7 * max(1.0, abs(x))
        fd = (
            stein_transform(x + eps, lams, h, div)
            - stein_transform(x - eps, lams, h, div)
        ) / (2 * eps)
        got = stein_transform_derivative(x, lams, h, div)
        assert got == pytest.approx(fd, rel=1e-6)


def test_score_bandwidth_axis_matches_scalar_calls():
    lams = [0.6, 1.0, 1.9, 4.2]
    xs = np.array([0.3, 0.8, 2.0])
    hs = np.array([0.05, 0.4, 3.0])
    for fn in (stein_transform, stein_transform_derivative):
        rows = fn(xs, lams, hs, 4)
        assert rows.shape == (3, 3)
        for h, row in zip(hs, rows):
            assert np.array_equal(row, fn(xs, lams, h, 4))
        at_point = fn(0.8, lams, hs, 4)
        assert at_point.shape == (3,)
        assert all(v == fn(0.8, lams, h, 4) for h, v in zip(hs, at_point))


def test_score_input_validation():
    with pytest.raises(DomainError):
        stein_transform(1.0, [1.0, -2.0], 0.5, 2)
    with pytest.raises(DomainError):
        stein_transform(1.0, [1.0], 0.0, 1)
    with pytest.raises(DimensionError):
        stein_transform(1.0, [], 0.5, 1)
    with pytest.raises(InputError):
        stein_transform(1.0, [np.nan], 0.5, 1)
    with pytest.raises(DomainError):
        stein_transform(1.0, [1.0], [0.5, -0.5], 1)
    with pytest.raises(DomainError):
        stein_transform(1.0, [1.0], [], 1)


# default bandwidth


def test_default_bandwidth_formula_value():
    assert default_bandwidth(100, 50) == pytest.approx(
        0.5 ** 0.7 * 50 ** -0.35, rel=1e-15
    )


def test_default_bandwidth_unit_case():
    assert default_bandwidth(1, 1) == 1.0


def test_default_bandwidth_shrinks_with_dimension_at_fixed_aspect():
    assert default_bandwidth(200, 100) < default_bandwidth(100, 50)
    assert default_bandwidth(2000, 1000) < default_bandwidth(200, 100)


def test_default_bandwidth_validation():
    with pytest.raises(DomainError):
        default_bandwidth(0, 1)
    with pytest.raises(DomainError):
        default_bandwidth(10.5, 2)
    # NaN and +-inf are no integers either; int() alone raises ValueError
    # and OverflowError on them
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="n and p must be integers"):
            default_bandwidth(bad, 2)
        with pytest.raises(DomainError, match="n and p must be integers"):
            default_bandwidth(10, bad)


# rule construction


def test_rule_regimes_and_kernels():
    under = ShrinkageRule([1.0, 2.0, 3.0], 10, 3, 0.5)
    assert under.regime == "under"
    assert under.divisor == 3
    assert under.p - under.kernel.size == 0
    assert under.zero_rule_value is None

    over = ShrinkageRule([0.0, 0.0, 1.0, 3.0], 2, 4, 0.4)
    assert over.regime == "over"
    assert over.divisor == 2
    assert over.p - over.kernel.size == 2
    assert np.array_equal(over.kernel, [1.0, 3.0])

    square = ShrinkageRule([0.0, 1.0, 2.0], 3, 3, 0.4)
    assert square.regime == "over"
    assert square.zero_rule_value is None


def test_rule_construction_validation():
    with pytest.raises(DimensionError):
        ShrinkageRule([1.0, 2.0], 10, 3, 0.5)
    with pytest.raises(DomainError):
        ShrinkageRule([1.0], 10, 1, 0.0)
    with pytest.raises(InputError):
        ShrinkageRule([-1.0, 2.0], 10, 2, 0.5)
    with pytest.raises(SingularityError):
        ShrinkageRule([0.0, 0.0], 1, 2, 0.5)
    # a numerically zero eigenvalue is not allowed when p < n
    with pytest.raises(SingularityError):
        ShrinkageRule([0.0, 1.0], 10, 2, 0.5)
    for n in (10.5, 0, -3, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="n must be a positive integer"):
            ShrinkageRule([1.0, 2.0], n, 2, 0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError, match="eigenvalues must be finite"):
            ShrinkageRule([1.0, bad], 10, 2, 0.5)


def test_rule_checks_each_spectrum_of_a_stack():
    stack = ShrinkageRule([[3.0, 1.0, 2.0], [1.0, 1.0, 4.0]], 10, 3, [0.5, 1.0])
    assert stack.regime == "under"
    assert np.array_equal(stack.kernel, [[1.0, 2.0, 3.0], [1.0, 1.0, 4.0]])
    with pytest.raises(SingularityError, match=r"eigenvalue 0 .*spectrum 1 of the stack"):
        ShrinkageRule([[1.0, 2.0], [0.0, 1.0]], 10, 2, 0.5)
    with pytest.raises(SingularityError):
        ShrinkageRule([[1.0, 2.0], [0.0, 0.0]], 10, 2, 0.5)
    with pytest.raises(InputError):
        ShrinkageRule([[1.0, 2.0], [-1.0, 2.0]], 10, 2, 0.5)
    with pytest.raises(DimensionError):
        ShrinkageRule([[1.0, 2.0], [1.0, 2.0]], 10, 3, 0.5)
    # the over regime drops each spectrum's own zeros, so it takes one spectrum
    with pytest.raises(RegimeError):
        ShrinkageRule([[0.0, 1.0, 3.0], [0.0, 2.0, 3.0]], 2, 3, 0.4)


def test_rule_with_one_n_and_h_per_spectrum_matches_single_rules():
    # the first spectrum clamps at its n and h (as in the adversarial test below)
    spectra = np.array([[0.95, 1.0, 1.0, 1.0], [0.2, 0.9, 1.5, 4.0], [1.0, 2.0, 3.0, 8.0]])
    counts, hs = np.array([5, 40, 9]), [0.01, 0.3, 1.2]
    rule = ShrinkageRule(spectra, counts, 4, hs)
    assert rule.regime == "under" and rule.aspect.shape == (3, 1)
    values, clamped = rule.evaluate(spectra)
    assert values.shape == clamped.shape == (3, 4) and clamped[0].any()
    for lam, n, h, row, mask in zip(spectra, counts, hs, values, clamped):
        want, want_mask = ShrinkageRule(lam, int(n), 4, h).evaluate(lam)
        assert np.array_equal(row, want) and np.array_equal(mask, want_mask)
    with pytest.raises(DimensionError):
        ShrinkageRule(spectra, counts[:2], 4, hs[:2])
    with pytest.raises(DimensionError):
        ShrinkageRule(spectra, counts, 4, 0.5)
    with pytest.raises(DimensionError):
        ShrinkageRule(spectra[0], counts[:1], 4, hs[:1])
    with pytest.raises(DomainError):
        ShrinkageRule(spectra, counts + 0.5, 4, hs)
    # a count at or below p puts its spectrum in the over regime
    with pytest.raises(RegimeError):
        ShrinkageRule(spectra, np.array([5, 4, 9]), 4, hs)


def test_rule_bandwidth_axis_matches_scalar_rules():
    hs = np.array([0.01, 0.3, 2.0])
    x = np.array([0.5, 1.0, 2.5])
    for lams, n in (([1.0, 2.0, 3.0], 10), ([0.0, 0.0, 1.0, 3.0], 2)):
        values, clamped = ShrinkageRule(lams, n, len(lams), hs).evaluate(x)
        assert values.shape == clamped.shape == (3, 3)
        for h, row, mask in zip(hs, values, clamped):
            want, want_mask = ShrinkageRule(lams, n, len(lams), h).evaluate(x)
            assert np.array_equal(row, want) and np.array_equal(mask, want_mask)
    with pytest.raises(DomainError):
        ShrinkageRule([1.0, 2.0], 10, 2, [0.5, np.inf])
    with pytest.raises(DomainError):
        ShrinkageRule([1.0, 2.0], 10, 2, np.ones((2, 2)))


# under-sampled rule


def test_under_rule_single_eigenvalue_closed_form():
    for lam in (0.5, 1.0, 7.3):
        rule = ShrinkageRule([lam], 10, 1, 0.3)
        values, clamped = rule.evaluate(lam)
        assert values.shape == (1,) and not clamped[0]
        assert values[0] == pytest.approx(lam * 10 / 9, rel=1e-12)


def test_under_rule_matches_formula_oracle():
    lams = [1.0, 2.0, 3.0]
    rule = ShrinkageRule(lams, 10, 3, 0.5)
    got = rule.evaluate(2.0)[0][0]
    assert got == pytest.approx(delta_under_oracle(2.0, lams, 10, 3, 0.5), rel=1e-12)


def test_under_rule_identity_spectrum_constant():
    # equal eigenvalues zero the score, so delta = 1/(1-c) exactly
    for n, p in ((1000, 100), (5000, 100)):
        rule = ShrinkageRule(np.ones(p), n, p, default_bandwidth(n, p))
        got = rule.evaluate(1.0)[0][0]
        assert got == pytest.approx(1.0 / (1.0 - p / n), rel=1e-12)
    # and approaches the population value 1 as the aspect ratio vanishes
    gaps = [
        abs(ShrinkageRule(np.ones(100), n, 100, 0.2).evaluate(1.0)[0][0] - 1.0)
        for n in (200, 1000, 10000)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_rule_evaluation_domain_errors():
    for rule in (ShrinkageRule([1.0, 2.0], 5, 2, 0.5),
                 ShrinkageRule([0.0, 1.0, 2.0, 3.0], 3, 4, 0.5)):
        for bad in (0.0, -1.0, np.inf, [1.0, np.nan]):
            with pytest.raises(DomainError):
                rule.evaluate(bad)


# over-sampled rule


def test_over_rule_single_nonzero_closed_form():
    rule = ShrinkageRule([0.0, 5.0], 1, 2, 0.3)
    assert rule.evaluate(5.0)[0][0] == pytest.approx(5.0, rel=1e-12)


def test_over_rule_matches_formula_oracle():
    rule = ShrinkageRule([0.0, 0.0, 1.0, 3.0], 2, 4, 0.4)
    got = rule.evaluate(1.0)[0][0]
    assert got == pytest.approx(delta_over_oracle(1.0, [1.0, 3.0], 2, 4, 0.4), rel=1e-12)


def test_over_rule_top_eigenvalue_positive_finite():
    z = np.random.default_rng(6).standard_normal((50, 100))
    decomp = eigh(sample_covariance(z))
    rule = ShrinkageRule(decomp.eigenvalues, 50, 100, default_bandwidth(50, 100))
    top = float(decomp.eigenvalues[-1])
    got = rule.evaluate(top)[0][0]
    assert np.isfinite(got) and got > 0


# null-space constant


def test_zero_rule_hand_values():
    rule = ShrinkageRule([0.0, 0.0, 1.0, 1.0], 2, 4, 0.4)
    # (p/n - 1) * (1/n) * sum(1/lam) = 1 * 0.5 * 2 = 1
    assert rule.zero_rule_value == pytest.approx(1.0, rel=1e-12)
    rule = ShrinkageRule([0.0, 2.0], 1, 2, 0.4)
    assert rule.zero_rule_value == pytest.approx(2.0, rel=1e-12)


def test_zero_rule_requires_over_regime():
    # no null-space constant when p < n, and none when p == n
    assert ShrinkageRule([1.0, 2.0], 5, 2, 0.5).zero_rule_value is None
    assert ShrinkageRule([0.0, 1.0, 2.0], 3, 3, 0.5).zero_rule_value is None


# whole-matrix shrinkage


def test_shrink_scalar_matrix():
    est = shrink_covariance(np.array([[4.0]]), 6)
    assert est.values[0] == pytest.approx(4.0 * 6 / 5, rel=1e-12)
    assert est.clamp_count == 0


def test_shrink_keeps_sample_eigenvectors():
    s = sample_covariance(np.random.default_rng(8).standard_normal((30, 5)))
    est = shrink_covariance(s, 30)
    assert np.array_equal(est.decomposition.eigenvectors, eigh(s).eigenvectors)
    # a decomposition passed in is used as is, with the same result
    assert np.array_equal(shrink_covariance(eigh(s), 30).values, est.values)


def test_shrink_rotation_invariance():
    s = sample_covariance(np.random.default_rng(9).standard_normal((40, 6)))
    r = rotation(6, 10)
    direct = dense(shrink_covariance(r @ s @ r.T, 40))
    rotated = r @ dense(shrink_covariance(s, 40)) @ r.T
    assert np.max(np.abs(direct - rotated)) <= 1e-8


def test_shrink_over_regime_fills_null_space():
    z = np.random.default_rng(11).standard_normal((4, 9))
    est = shrink_covariance(sample_covariance(z), 4)
    rule = est.rule
    assert rule.regime == "over"
    decomp = est.decomposition
    zero_count = int(np.sum(decomp.eigenvalues <= decomp.zero_tolerance))
    assert rule.p - rule.kernel.size == zero_count == 9 - 4
    null_values = est.values[:zero_count]
    assert np.allclose(null_values, rule.zero_rule_value)
    inv = dense_inverse(est)
    assert np.all(np.isfinite(inv))
    assert np.max(np.abs(dense(est) @ inv - np.eye(9))) <= 1e-8


def test_shrink_rejects_square_aspect_and_bad_n():
    s = np.eye(3)
    with pytest.raises(RegimeError):
        shrink_covariance(s, 3)
    for n in (2.5, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="n must be a positive integer"):
            shrink_covariance(s, n)


def test_shrink_bulk_agreement_improves_with_sample_size():
    """Identity covariance: the rule's bulk values tighten around 1 as n grows."""
    for seed_off, c in enumerate((0.5, 0.6, 0.7)):
        medians = []
        for n in (100, 1000):
            p = int(round(c * n))
            rng = np.random.default_rng(1000 + seed_off)
            est = shrink_covariance(
                sample_covariance(rng.standard_normal((n, p))), n
            )
            lo, hi = int(np.floor(0.05 * p)), int(np.ceil(0.95 * p))
            medians.append(np.median(np.abs(est.values[lo:hi] - 1.0)))
        assert medians[1] < medians[0]


def test_shrink_clamp_floor_engages_on_adversarial_spectrum():
    q = rotation(4, 3)
    s = q @ np.diag([0.95, 1.0, 1.0, 1.0]) @ q.T
    est = shrink_covariance(s, 5, h=0.01)
    assert est.clamp_count >= 1
    assert np.all(est.values > 0)


# loss


def dense_loss(a, b, s):
    """Reference: (1/p) tr[(A - B)^2 S] with dense matrix products."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.trace(diff @ diff @ np.asarray(s, dtype=float))) / diff.shape[0]


def in_eigenbasis(decomp, values):
    """B = U diag(values) U', an estimate that keeps S's eigenvectors."""
    u = decomp.eigenvectors
    return u @ np.diag(values) @ u.T


def test_loss_zero_at_truth():
    # a diagonal S has the coordinate axes as eigenvectors, so the rotation
    # is exact and a truth equal to the estimate gives exactly zero
    decomp = eigh(np.diag([3.0, 1.0, 2.0]))
    a = np.diag([1.0 / 3.0, 1.0, 0.5])
    assert empirical_loss(a, decomp, 1.0 / decomp.eigenvalues) == 0.0


def test_loss_matches_triple_loop_oracle():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 5))
    s = rng.standard_normal((5, 5))
    a, s = [0.5 * (m + m.T) for m in (a, s)]
    decomp = eigh(s)
    values = rng.standard_normal(5)
    diff = a - in_eigenbasis(decomp, values)
    expect = 0.0
    for i in range(5):
        for j in range(5):
            for k in range(5):
                expect += diff[i, j] * diff[j, k] * s[k, i]
    expect /= 5
    assert empirical_loss(a, decomp, values) == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("n, p", [(60, 12), (8, 20)])
def test_loss_factored_form_matches_dense_oracle(n, p):
    # p > n leaves p - n zero sample eigenvalues; an arbitrary spectrum and
    # two shrunk ones are scored both one at a time and as one 2-d batch
    rng = np.random.default_rng(100 * n + p + 1)
    loadings = rng.standard_normal((p, 3))
    cov = loadings @ loadings.T + np.eye(p)
    truth_inv = np.linalg.inv(cov)
    s = sample_covariance(rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T)
    decomp = eigh(s)
    rows = np.vstack([
        rng.uniform(0.5, 2.0, p),
        1.0 / shrink_covariance(decomp, n).values,
        1.0 / shrink_covariance(decomp, n, 0.5).values,
    ])
    batch = empirical_loss(truth_inv, decomp, rows)
    assert batch.shape == (3,)
    for values, got in zip(rows, batch):
        want = dense_loss(truth_inv, in_eigenbasis(decomp, values), s)
        single = empirical_loss(truth_inv, decomp, values)
        assert isinstance(single, float)
        assert abs(single - want) <= 1e-12 * abs(want)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_loss_of_a_stack_matches_each_matrix_bit_for_bit():
    # the stacked rotation and products must give each matrix's own loss,
    # not one equal to round-off
    rng = np.random.default_rng(21)
    n, p, count = 30, 7, 4
    loadings = rng.standard_normal((p, 2))
    truth_inv = np.linalg.inv(loadings @ loadings.T + np.eye(p))
    stack = np.stack([sample_covariance(rng.standard_normal((n, p))) for _ in range(count)])
    decomp = eigh(stack)
    values = rng.uniform(0.5, 2.0, (count, 3, p))
    batch = empirical_loss(truth_inv, decomp, values)
    assert batch.shape == (count, 3)
    for k, s in enumerate(stack):
        assert np.array_equal(batch[k], empirical_loss(truth_inv, eigh(s), values[k]))
    with pytest.raises(DimensionError):
        empirical_loss(truth_inv, decomp, values[0])
    with pytest.raises(DimensionError):
        empirical_loss(truth_inv, decomp, values[:2])
    with pytest.raises(DimensionError):
        empirical_loss(np.stack([truth_inv] * count), decomp, values)


def test_loss_validation():
    decomp = eigh(np.eye(2))
    with pytest.raises(DimensionError):
        empirical_loss(np.eye(3), decomp, [1.0, 1.0])
    with pytest.raises(DimensionError):
        empirical_loss(np.eye(2), decomp, [1.0, 1.0, 1.0])
    with pytest.raises(DimensionError):
        empirical_loss(np.eye(2), decomp, np.ones((1, 1, 2)))


# properties

positive = st.floats(min_value=0.05, max_value=20.0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(positive, min_size=1, max_size=6),
    st.floats(min_value=0.01, max_value=2.0),
    st.booleans(),
)
def test_rule_outputs_stay_positive(lams, h, under):
    p = len(lams)
    n = 3 * p + 1 if under else max(1, p // 2)
    if n == p:
        n += 1
    rule = ShrinkageRule(lams, n, p, h)
    values, _ = rule.evaluate(np.array(lams))
    assert np.all(np.isfinite(values))
    assert np.all(values > 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=3))
def test_loss_nonnegative_on_psd_weight(dim, seed):
    rng = np.random.default_rng(dim * 7 + seed)
    a = rng.standard_normal((dim, dim))
    z = rng.standard_normal((dim + 2, dim))
    loss = empirical_loss(
        0.5 * (a + a.T), eigh(sample_covariance(z)), rng.standard_normal(dim)
    )
    assert loss >= -1e-12


# Scale equivariance.  Scaling a spectrum by c scales the Stein transform's
# kernel differences and bandwidth terms alike by 1/c, so the rule maps cx
# to c delta(x).  Each tolerance is about ten times the worst gap measured
# on 18000 draws of these cases (c from 1e-3 to 1e3, p from 1 to 29, numpy
# 2.4.6).

scaling_cases = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=29),
    st.booleans(),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-1.0, max_value=1.0),
)


def scaling_case(seed, p, under, log_c, log_h):
    """n, a sample covariance of Gaussian data with columns scaled from 1e-1
    to 1e1 (p < n when under, else p > n), the scale c and a bandwidth
    within a decade of the default."""
    rng = np.random.default_rng(seed)
    n = int(p + 2 + rng.integers(0, 3 * p)) if under or p == 1 else int(rng.integers(1, p))
    z = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-1.0, 1.0, p)
    return n, sample_covariance(z), 10.0 ** log_c, default_bandwidth(n, p) * 10.0 ** log_h


@settings(max_examples=60, deadline=None)
@given(scaling_cases)
@example((3, 12, False, 2.5, 0.0))  # the over regime, with a null space
def test_rule_is_scale_equivariant(case):
    # delta_{c lam}(c x) = c delta_lam(x) at fixed h, with the spectrum scaled
    # directly: worst relative gap 3.9e-13 in the values and 9.0e-16 in
    # zero_rule_value
    n, s, c, h = scaling_case(*case)
    lam = eigh(s).eigenvalues
    p = lam.size
    rule, scaled = ShrinkageRule(lam, n, p, h), ShrinkageRule(c * lam, n, p, h)
    x = lam[lam > zero_tolerance(lam)]
    values, _ = rule.evaluate(x)
    scaled_values, _ = scaled.evaluate(c * x)
    assert np.all(np.abs(scaled_values - c * values) <= 4e-12 * c * values)
    assert scaled.regime == rule.regime
    if rule.zero_rule_value is None:
        assert scaled.zero_rule_value is None
    else:
        want = c * rule.zero_rule_value
        assert abs(scaled.zero_rule_value - want) <= 1e-14 * want


@settings(max_examples=60, deadline=None)
@given(scaling_cases)
@example((3, 12, False, 2.5, 0.0))  # the over regime, with a null space
def test_shrink_covariance_is_scale_equivariant(case):
    # shrink_covariance(cS) = c shrink_covariance(S), up to eigh of the scaled
    # matrix: its eigenvalue errors of order eps ||S|| move every shrunk value
    # through the kernel, a worst gap of 1.2e-10 of the largest one
    n, s, c, h = scaling_case(*case)
    base, scaled = shrink_covariance(s, n, h), shrink_covariance(c * s, n, h)
    want = c * base.values
    assert np.max(np.abs(scaled.values - want)) <= 1e-9 * np.max(want)
