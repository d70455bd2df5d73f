"""Symmetric-matrix primitives: deterministic eigendecomposition and spectral maps.

Conventions used throughout the package:
  * symmetric matrices are plain float ndarrays; eigh symmetrizes its input
    as (A + A')/2, which leaves an exactly symmetric matrix as it is,
  * eigenvalues are returned in ascending order,
  * each eigenvector is scaled so its largest-magnitude entry is positive,
  * an eigenvalue counts as zero iff it is <= dim * eps * max(eigenvalue, 0).
"""

import numpy as np

from .errors import DimensionError, InputError, SingularityError


def as_matrix(a):
    """Coerce input to a float ndarray with finite entries."""
    m = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(m)):
        raise InputError("matrix has non-finite entries")
    return m


def symmetrize(a):
    """Return (A + A')/2 for a square, finite matrix A.

    An exactly symmetric float ndarray comes back as the same object, so a
    matrix that is symmetric by construction passes through without a copy.
    """
    m = as_matrix(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError("expected a square matrix, got shape %s" % (m.shape,))
    if m.shape[0] < 1:
        raise DimensionError("matrix dimension must be at least 1")
    if np.array_equal(m, m.T):
        return m
    return 0.5 * (m + m.T)


def zero_tolerance(eigenvalues):
    """Relative threshold below which an eigenvalue is treated as zero."""
    lam = np.asarray(eigenvalues, dtype=float)
    top = max(float(lam[-1]) if lam.size else 0.0, 0.0)
    return lam.size * np.finfo(float).eps * top


class SpectralDecomposition:
    """Eigensystem of a symmetric matrix with fixed ordering and sign conventions."""

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=float)
        self.dim = self.eigenvalues.size
        self.zero_tolerance = zero_tolerance(self.eigenvalues)
        self.rank = int(np.sum(self.eigenvalues > self.zero_tolerance))


def eigh(matrix):
    """Decompose a symmetric matrix, fixing eigenvector signs deterministically.

    Eigenvalues come back ascending; each eigenvector column is flipped if
    needed so that its largest-magnitude entry (first such, on ties) is positive.
    """
    lam, vec = np.linalg.eigh(symmetrize(matrix))
    lead = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[lead, np.arange(vec.shape[1])])
    signs[signs == 0] = 1.0
    return SpectralDecomposition(lam, vec * signs)


def spectral_apply(matrix, fn):
    """Apply a scalar map to the spectrum: U diag(fn(lambda)) U'.

    `matrix` may be a square array or a SpectralDecomposition.  The result
    is symmetrized, so eigh and empirical_loss take it without a copy.
    Raises SingularityError if fn produces a non-finite value, naming the
    offending eigenvalue.
    """
    decomp = matrix if isinstance(matrix, SpectralDecomposition) else eigh(matrix)
    mapped = np.asarray([float(fn(v)) for v in decomp.eigenvalues])
    bad = ~np.isfinite(mapped)
    if np.any(bad):
        idx = int(np.nonzero(bad)[0][0])
        raise SingularityError(
            "spectral map undefined at eigenvalue %d (value %.6g)"
            % (idx, decomp.eigenvalues[idx])
        )
    u = decomp.eigenvectors
    return symmetrize((u * mapped) @ u.T)


def require_positive_definite(matrix, what):
    """Decomposition of matrix, or SingularityError naming `what` if it is singular.

    An eigenvalue at or below the zero tolerance counts as singular.
    """
    decomp = matrix if isinstance(matrix, SpectralDecomposition) else eigh(matrix)
    tol = decomp.zero_tolerance
    small = decomp.eigenvalues <= tol
    if np.any(small):
        idx = int(np.nonzero(small)[0][0])
        raise SingularityError(
            "%s requires a positive definite matrix; eigenvalue %d is %.6g"
            % (what, idx, decomp.eigenvalues[idx])
        )
    return decomp


def spectral_inverse(matrix):
    """Inverse through the eigensystem; positive definite input required."""
    return spectral_apply(require_positive_definite(matrix, "inverse"),
                          lambda v: 1.0 / v)


def sample_covariance(data):
    """Second-moment matrix Z'Z / n for an n-by-p data matrix Z (rows = samples).

    numpy forms Z'Z with a symmetric rank-k update, so the result is exactly
    symmetric.
    """
    z = as_matrix(data)
    if z.ndim != 2:
        raise DimensionError("data must be a 2-d array, got shape %s" % (z.shape,))
    n, p = z.shape
    if n < 1 or p < 1:
        raise DimensionError("data must have at least one row and one column")
    return z.T @ z / n

