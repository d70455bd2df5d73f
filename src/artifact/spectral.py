"""Symmetric-matrix primitives: deterministic eigendecomposition and spectral maps.

Conventions used throughout the package:
  * symmetric matrices are plain float ndarrays; eigh symmetrizes its input
    as (A + A')/2, which leaves an exactly symmetric matrix as it is,
  * eigh, symmetrize and require_positive_definite also take an (R, p, p)
    stack of matrices, and then work on each matrix of the stack alike,
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
    """Return (A + A')/2 for a square, finite matrix A, or for each of a stack.

    An exactly symmetric float ndarray comes back as the same object, so a
    matrix that is symmetric by construction passes through without a copy.
    """
    m = as_matrix(a)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise DimensionError("expected a square matrix, got shape %s" % (m.shape,))
    if m.shape[-1] < 1:
        raise DimensionError("matrix dimension must be at least 1")
    mt = m.swapaxes(-1, -2)
    if np.array_equal(m, mt):
        return m
    return 0.5 * (m + mt)


def zero_tolerance(eigenvalues):
    """Relative threshold below which an eigenvalue is treated as zero.

    One threshold per spectrum: a scalar for p eigenvalues, one per row of
    an (R, p) stack.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    top = np.maximum(lam[..., -1], 0.0) if lam.size else 0.0
    return lam.shape[-1] * np.finfo(float).eps * top


class SpectralDecomposition:
    """Eigensystem of a symmetric matrix with fixed ordering and sign conventions.

    For a stack of R matrices the eigenvalues are (R, p), the eigenvectors
    (R, p, p) and zero_tolerance has one entry per matrix; dim is p.
    """

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(eigenvectors, dtype=float)
        self.dim = self.eigenvalues.shape[-1]
        self.zero_tolerance = zero_tolerance(self.eigenvalues)


def eigh(matrix):
    """Decompose a symmetric matrix, fixing eigenvector signs deterministically.

    Eigenvalues come back ascending; each eigenvector column is flipped if
    needed so that its largest-magnitude entry (first such, on ties) is positive.
    An (R, p, p) stack is decomposed by one LAPACK call, matrix by matrix,
    exactly as each matrix would be on its own.
    """
    lam, vec = np.linalg.eigh(symmetrize(matrix))
    p = vec.shape[-1]
    lead = np.abs(vec).argmax(axis=-2)
    # entry (lead[c], c) of each matrix, read from its row-major flattening
    flat = vec.reshape(-1, p * p)
    signs = np.sign(flat[np.arange(len(flat))[:, None], lead.reshape(-1, p) * p + np.arange(p)])
    signs[signs == 0] = 1.0
    return SpectralDecomposition(lam, vec * signs.reshape(lam.shape)[..., None, :])


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

    An eigenvalue at or below the zero tolerance counts as singular.  Every
    matrix of a stack is checked, and the error names the first singular one.
    """
    decomp = matrix if isinstance(matrix, SpectralDecomposition) else eigh(matrix)
    lam = decomp.eigenvalues
    small = lam <= np.asarray(decomp.zero_tolerance)[..., None]
    if np.any(small):
        first = tuple(int(i[0]) for i in np.nonzero(small))
        where = " (matrix %d of the stack)" % first[0] if lam.ndim == 2 else ""
        raise SingularityError(
            "%s requires a positive definite matrix; eigenvalue %d is %.6g%s"
            % (what, first[-1], lam[first], where)
        )
    return decomp


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

