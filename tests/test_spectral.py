import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact.errors import DimensionError, InputError, SingularityError
from artifact.spectral import (
    SpectralDecomposition,
    eigh,
    sample_covariance,
    spectral_apply,
    spectral_inverse,
    symmetrize,
    zero_tolerance,
)


def spd(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def recompose(decomp):
    """U diag(lambda) U' from a decomposition."""
    u = decomp.eigenvectors
    return u @ np.diag(decomp.eigenvalues) @ u.T


# construction


def test_symmetrize_averages_off_diagonal():
    a = np.array([[1.0, 4.0], [0.0, 3.0]])
    out = symmetrize(a)
    assert np.array_equal(out, [[1.0, 2.0], [2.0, 3.0]])
    # the input is left as it was
    assert np.array_equal(a, [[1.0, 4.0], [0.0, 3.0]])


def test_symmetrize_rejects_non_square():
    with pytest.raises(DimensionError):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        symmetrize(np.ones(4))


def test_symmetric_outputs_are_exactly_symmetric():
    # so eigh and empirical_loss take them without a copy
    z = np.random.default_rng(6).standard_normal((30, 7))
    s = sample_covariance(z)
    assert np.array_equal(s, s.T)
    assert symmetrize(s) is s
    for fn in (np.sqrt, lambda v: 1.0 / v):
        out = spectral_apply(s, fn)
        assert np.array_equal(out, out.T)
        assert symmetrize(out) is out


# sample covariance


def test_sample_covariance_two_point_column():
    s = sample_covariance([[1.0], [-1.0]])
    assert np.array_equal(s, [[1.0]])


def test_sample_covariance_identity_rows():
    s = sample_covariance(np.eye(2))
    assert np.allclose(s, 0.5 * np.eye(2), atol=1e-15)


def test_sample_covariance_matches_triple_loop():
    z = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    n, p = z.shape
    expect = np.zeros((p, p))
    for j in range(p):
        for k in range(p):
            acc = 0.0
            for i in range(n):
                acc += z[i, j] * z[i, k]
            expect[j, k] = acc / n
    assert np.max(np.abs(sample_covariance(z) - expect)) <= 1e-12


def test_sample_covariance_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        sample_covariance(np.ones(3))
    with pytest.raises(DimensionError):
        sample_covariance(np.empty((0, 2)))


def test_sample_covariance_nearly_psd():
    z = np.random.default_rng(0).standard_normal((4, 9))
    lam = eigh(sample_covariance(z)).eigenvalues
    assert np.all(lam >= -1e-10)


# eigendecomposition


def test_eigh_diagonal_matrix():
    d = eigh(np.diag([3.0, 1.0]))
    assert np.allclose(d.eigenvalues, [1.0, 3.0])
    assert np.allclose(np.abs(d.eigenvectors), np.eye(2)[:, [1, 0]], atol=1e-14)


def test_eigh_two_by_two_analytic():
    d = eigh([[2.0, 1.0], [1.0, 2.0]])
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(d.eigenvalues, [1.0, 3.0], atol=1e-14)
    # sign rule: leading (largest magnitude, first on ties) entry positive
    assert np.allclose(d.eigenvectors[:, 0], [r, -r], atol=1e-14)
    assert np.allclose(d.eigenvectors[:, 1], [r, r], atol=1e-14)


def test_eigh_coerces_integer_lists():
    d = eigh([[2, 1], [1, 2]])
    assert d.eigenvalues.dtype == float
    assert np.array_equal(d.eigenvalues, eigh([[2.0, 1.0], [1.0, 2.0]]).eigenvalues)


def test_eigh_wishart_reconstruction():
    a = spd(6, 1)
    d = eigh(a)
    assert np.max(np.abs(recompose(d) - symmetrize(a))) <= 1e-8 * (
        1 + np.max(np.abs(a))
    )
    assert np.max(np.abs(d.eigenvectors.T @ d.eigenvectors - np.eye(6))) <= 1e-10


def test_eigh_is_deterministic_and_sign_fixed():
    a = spd(5, 2)
    d1, d2 = eigh(a), eigh(a)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    lead = np.argmax(np.abs(d1.eigenvectors), axis=0)
    assert np.all(d1.eigenvectors[lead, np.arange(5)] > 0)


def test_eigh_twice_stable_eigenvalues():
    d = eigh(spd(4, 3))
    again = eigh(recompose(d))
    assert np.max(np.abs(d.eigenvalues - again.eigenvalues)) <= 1e-8


def test_eigh_rejects_non_finite():
    with pytest.raises(InputError):
        eigh([[np.inf, 0.0], [0.0, 1.0]])


def test_rank_counts_eigenvalues_above_tolerance():
    v = np.array([[1.0], [2.0], [2.0]])
    assert eigh(v @ v.T).rank == 1
    assert eigh(np.eye(3)).rank == 3


def test_zero_tolerance_scales_with_top_eigenvalue():
    assert zero_tolerance([0.0, 0.0, 2.0]) == 3 * np.finfo(float).eps * 2.0
    assert zero_tolerance([-1.0]) == 0.0


# spectral maps


def test_inverse_two_by_two_analytic():
    out = spectral_inverse([[2.0, 1.0], [1.0, 2.0]])
    expect = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
    assert np.max(np.abs(out - expect)) <= 1e-12


def test_spectral_apply_identity_map():
    a = spd(4, 5)
    out = spectral_apply(a, lambda v: v)
    assert np.max(np.abs(out - symmetrize(a))) <= 1e-8


def test_spectral_apply_accepts_decomposition():
    d = eigh(np.diag([1.0, 9.0]))
    out = spectral_apply(d, np.sqrt)
    assert np.allclose(out, np.diag([1.0, 3.0]), atol=1e-14)


def test_inverse_of_singular_names_eigenvalue():
    v = np.array([[1.0], [1.0]])
    with pytest.raises(SingularityError, match="eigenvalue"):
        spectral_inverse(v @ v.T)


def test_spectral_apply_flags_non_finite_map():
    with np.errstate(divide="ignore"):
        with pytest.raises(SingularityError):
            spectral_apply(np.diag([0.0, 1.0]), lambda v: np.log(v))


# properties

sym_entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def random_symmetric(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    flat = draw(
        st.lists(sym_entries, min_size=dim * dim, max_size=dim * dim)
    )
    return symmetrize(np.array(flat).reshape(dim, dim))


@settings(max_examples=60, deadline=None)
@given(random_symmetric())
def test_eigh_invariants_hold_generically(a):
    d = eigh(a)
    dim = a.shape[0]
    assert np.all(np.diff(d.eigenvalues) >= 0)
    assert np.max(np.abs(d.eigenvectors.T @ d.eigenvectors - np.eye(dim))) <= 1e-10
    assert np.max(np.abs(recompose(d) - a)) <= 1e-8 * (1 + np.max(np.abs(a)))


@settings(max_examples=60, deadline=None)
@given(random_symmetric())
def test_symmetrize_is_idempotent(a):
    # an exactly symmetric input comes back as the same object, not a copy
    assert symmetrize(a) is a
