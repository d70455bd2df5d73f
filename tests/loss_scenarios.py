"""Loss-convergence scenarios for the simulation tests and criterion 5, and
the oracles that several test modules share: the dense inverse of a shrunk
covariance, the inverse through the eigensystem and the factor-model
covariance.

Only tests call them, so they are not part of the package API.
"""

import numpy as np

from artifact.errors import DomainError
from artifact.shrinkage import ShrinkageRule, default_bandwidth, empirical_loss, shrink_covariance
from artifact.simlab import _replication_seed, factor_model
from artifact.spectral import require_positive_definite, sample_covariance, spectral_apply


def dense_inverse(shrunk):
    """The inverse of a shrunk covariance as a matrix: U diag(1 / values) U'."""
    u = shrunk.decomposition.eigenvectors
    return (u * (1.0 / shrunk.values)) @ u.T


def spectral_inverse(matrix):
    """Inverse through the eigensystem; positive definite input required."""
    return spectral_apply(require_positive_definite(matrix, "inverse"),
                          lambda v: 1.0 / v)


def factor_covariance(p, rng=None):
    """The covariance of factor_model(p, rng)."""
    return factor_model(p, rng)[0]


def true_covariance(model, p, rho=0.5, spike=0.5):
    """Population covariance for the loss-convergence scenarios."""
    if model == "independence":
        return np.eye(p)
    if model == "ar1":
        idx = np.arange(p)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    if model == "spike":
        return np.eye(p) + spike * np.ones((p, p))
    raise DomainError("unknown covariance model %r" % (model,))


def dense_loss(truth_inv, s, n):
    """The degree-1 loss of the default-bandwidth shrunk inverse of s, a
    sample covariance of n samples, against the true inverse."""
    est = shrink_covariance(s, n)
    return empirical_loss(truth_inv, est.decomposition, 1.0 / est.values)


def identity_loss(s, n):
    """dense_loss against the identity, from the spectrum of s alone.

    With A = I the loss is sum_i (1 - 1/delta_i)^2 lambda_i / p over the
    eigenvalues lambda_i of s and their shrunk values delta_i: no
    eigenvectors and no rotation of the truth.  s must have p < n and full
    rank, as in every loss-convergence cell.
    """
    lam = np.linalg.eigvalsh(s)
    p = lam.size
    delta, _ = ShrinkageRule(lam, n, p, default_bandwidth(n, p)).evaluate(lam)
    return float(np.sum((1.0 - 1.0 / delta) ** 2 * lam) / p)


def loss_convergence(model, sample_sizes, aspect_ratios, reps=10, seed=0):
    """Monte Carlo mean of the degree-1 loss across (n, c) cells.

    Returns records {model, n, c, p, replication, loss} using the default
    bandwidth at every cell.  p is round(c n) kept strictly below n.  The
    independence model scores its draws Z as they are (Z I' is Z bit for
    bit) with the spectrum form identity_loss; the others take dense_loss.
    """
    records = []
    for ni, n in enumerate(sample_sizes):
        for ci, c in enumerate(aspect_ratios):
            p = max(1, min(int(round(c * n)), int(n) - 1))
            cov = true_covariance(model, p)
            truth_inv = spectral_inverse(cov)
            chol = np.linalg.cholesky(cov)
            for rep in range(int(reps)):
                rng = np.random.default_rng(
                    _replication_seed(seed, ni, ci, rep)
                )
                z = rng.standard_normal((int(n), p))
                if model == "independence":
                    loss = identity_loss(sample_covariance(z), int(n))
                else:
                    loss = dense_loss(truth_inv, sample_covariance(z @ chol.T), int(n))
                records.append({
                    "model": model,
                    "n": int(n),
                    "c": float(c),
                    "p": p,
                    "replication": rep,
                    "loss": loss,
                })
    return records
