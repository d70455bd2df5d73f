"""Rotation-invariant eigenvalue shrinkage for sample covariance matrices.

The estimator keeps the sample eigenvectors and replaces each sample
eigenvalue x by a nonlinear map delta(x) built from a smoothed score of the
whole spectrum.  Two regimes exist: fewer variables than samples (p < n,
kernel averaged over all p eigenvalues) and more variables than samples
(p >= n, kernel averaged with divisor n over the nonzero eigenvalues, plus a
separate constant for the null space).
"""

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InputError,
    RegimeError,
    SingularityError,
)
from .spectral import SpectralDecomposition, eigh, symmetrize, zero_tolerance

# Lower bound on the inverse shrunk eigenvalue, relative to 1/x.  Evaluations
# hitting it are counted so callers can see when the raw rule went negative.
CLAMP_FLOOR = 1e-8


def default_bandwidth(n, p):
    """Closed-form kernel bandwidth (p/n)^0.7 * p^(-0.35)."""
    if int(n) != n or int(p) != p:
        raise DomainError("n and p must be integers")
    n, p = int(n), int(p)
    if n < 1 or p < 1:
        raise DomainError("n and p must be positive")
    return (p / n) ** 0.7 * p ** (-0.35)


def _check_kernel(eigenvalues, h, divisor):
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    if lam.size < 1:
        raise DimensionError("kernel needs at least one eigenvalue")
    if not np.all(np.isfinite(lam)):
        raise InputError("kernel eigenvalues must be finite")
    if np.any(lam <= 0):
        raise DomainError("kernel eigenvalues must be strictly positive")
    hv = _bandwidths(h)
    if not (divisor > 0):
        raise DomainError("divisor must be positive")
    return lam, hv


def _bandwidths(h):
    """h as a 1-d array: a scalar is one bandwidth, a 1-d array one per entry."""
    hv = np.atleast_1d(np.asarray(h, dtype=float))
    # min and max also reject NaN, which fails every comparison
    if hv.ndim != 1 or hv.size < 1 or not (hv.min() > 0 and hv.max() < np.inf):
        raise DomainError("bandwidth h must be positive and finite (a scalar or a 1-d array)")
    return hv


def _kernel_differences(inv, x):
    """u[j, k] = inv[k] - x[j] and u**2; they do not depend on the bandwidth."""
    u = inv - x[:, None]
    return u, u * u


def _stein_sums(inv, u, u2, h, divisor, derivative=False, out=None):
    """Stein-transform sums at the points x of u = _kernel_differences(inv, x).

    h is a 1-d array of bandwidths; the result has shape (h.size, x.size).
    With derivative, returns (g, g') where g' is the x-derivative.  out, if
    given, is a pair of (h.size, x.size, inv.size) buffers the terms are
    formed in; a caller that evaluates many bandwidths reuses them.
    """
    b2 = (h[:, None] * inv) ** 2
    if out is None:
        out = (np.empty((h.size,) + u.shape), np.empty((h.size,) + u.shape))
    den, terms = out
    np.add(u2, b2[:, None, :], out=den)
    np.multiply(inv, u, out=terms)
    terms /= den
    g = terms.sum(axis=-1) / divisor
    if not derivative:
        return g
    np.subtract(u2, b2[:, None, :], out=terms)
    terms *= inv
    den *= den
    terms /= den
    return g, terms.sum(axis=-1) / divisor


def _shaped(out, x, h):
    """Drop the bandwidth axis for scalar h and the point axis for scalar x."""
    if np.ndim(h) == 0:
        out = out[0]
    if np.ndim(x) == 0:
        out = out[..., 0]
    return float(out) if out.ndim == 0 else out


def stein_transform(x, eigenvalues, h, divisor):
    """Smoothed spectral score at x.

    Sum over kernel eigenvalues lam_k of
        lam_k^-1 (lam_k^-1 - x) / ((lam_k^-1 - x)^2 + h^2 lam_k^-2),
    divided by `divisor`.  Accepts scalar or 1-d x, and scalar or 1-d h; a
    1-d h puts one row per bandwidth on a leading axis of the result.
    """
    lam, hv = _check_kernel(eigenvalues, h, divisor)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    inv = 1.0 / lam
    return _shaped(_stein_sums(inv, *_kernel_differences(inv, xv), hv, divisor), x, h)


def stein_transform_derivative(x, eigenvalues, h, divisor):
    """d/dx of stein_transform with the kernel held fixed; same shapes."""
    lam, hv = _check_kernel(eigenvalues, h, divisor)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    inv = 1.0 / lam
    _, dg = _stein_sums(inv, *_kernel_differences(inv, xv), hv, divisor, derivative=True)
    return _shaped(dg, x, h)


class ShrinkageRule:
    """Frozen eigenvalue map for one (spectrum, n, p, h) configuration.

    h is a scalar, or a 1-d array of bandwidths that share the spectrum's
    checks; evaluate then returns one row per bandwidth.

    regime is "under" when p < n (kernel over all p eigenvalues, divisor p)
    and "over" when p >= n (kernel over the nonzero eigenvalues, divisor n).
    In the over regime, zero sample eigenvalues map to `zero_rule_value`,
    which is None when p == n (the constant is undefined there).

    Instances are immutable after construction; evaluation is pure and
    returns the clamp mask to the caller instead of mutating state.
    """

    def __init__(self, eigenvalues, n, p, h):
        lam = np.sort(np.asarray(eigenvalues, dtype=float).ravel())
        if lam.size != p:
            raise DimensionError(
                "expected %d eigenvalues, got %d" % (p, lam.size)
            )
        if int(n) != n or n < 1:
            raise DomainError("n must be a positive integer")
        if not np.all(np.isfinite(lam)):
            raise InputError("eigenvalues must be finite")
        hv = _bandwidths(h)
        n = int(n)
        tol = zero_tolerance(lam)
        if lam.size and lam[-1] <= 0:
            raise SingularityError("spectrum has no positive eigenvalue")
        if np.any(lam < -max(tol, 0.0)):
            raise InputError("spectrum has a negative eigenvalue (%.6g)" % lam[0])

        self.n = n
        self.p = int(p)
        self.h = float(hv[0]) if np.ndim(h) == 0 else hv
        self.aspect = self.p / self.n

        if self.p < self.n:
            self.regime = "under"
            small = lam <= tol
            if np.any(small):
                idx = int(np.nonzero(small)[0][0])
                raise SingularityError(
                    "eigenvalue %d is numerically zero (%.6g) but p < n requires "
                    "a full-rank spectrum" % (idx, lam[idx])
                )
            self.kernel = lam
            self.divisor = self.p
            self.zero_count = 0
            self.zero_rule_value = None
        else:
            self.regime = "over"
            keep = lam > tol
            self.kernel = lam[keep]
            if self.kernel.size == 0:
                raise SingularityError("spectrum has no nonzero eigenvalue")
            self.divisor = self.n
            self.zero_count = int(np.sum(~keep))
            if self.p > self.n:
                inv_delta0 = (self.aspect - 1.0) * np.sum(1.0 / self.kernel) / self.n
                self.zero_rule_value = float(1.0 / inv_delta0)
            else:
                # p == n: the null-space constant is undefined
                self.zero_rule_value = None

    def evaluate(self, x):
        """Map positive sample eigenvalues x through the rule.

        Returns (values, clamped), where clamped marks entries whose raw
        bracket fell below the floor: 1-d arrays for a scalar h, and one row
        per bandwidth for a 1-d h.  x may be scalar or 1-d; entries must be
        strictly positive (zeros are the caller's job via zero_rule_value).
        """
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xv <= 0) or not np.all(np.isfinite(xv)):
            raise DomainError("rule evaluation needs strictly positive finite x")
        inv_x = 1.0 / xv
        # the kernel and h were checked when the rule was built
        inv = 1.0 / self.kernel
        g = _stein_sums(inv, *_kernel_differences(inv, inv_x), np.atleast_1d(self.h),
                        self.divisor)
        values, clamped = self._apply(inv_x, g)
        return (values, clamped) if np.ndim(self.h) else (values[0], clamped[0])

    def _apply(self, inv_x, g):
        """Values and clamp mask from the Stein transform g at the points inv_x = 1/x."""
        if self.regime == "under":
            bracket = (1.0 - self.aspect) * inv_x + 2.0 * self.aspect * inv_x * g
        else:
            bracket = (self.aspect - 1.0) * inv_x + 2.0 * inv_x * g
        floor = CLAMP_FLOOR * inv_x
        clamped = bracket < floor
        bracket = np.where(clamped, floor, bracket)
        return 1.0 / bracket, clamped


class ShrunkCovariance:
    """Shrunk covariance in factored form: sample eigenvectors, new eigenvalues."""

    def __init__(self, decomposition, values, rule, clamp_count):
        self.decomposition = decomposition
        self.values = np.asarray(values, dtype=float)
        self.rule = rule
        self.clamp_count = int(clamp_count)
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise SingularityError("shrunk eigenvalues must be positive and finite")

    def inverse(self):
        u = self.decomposition.eigenvectors
        return (u * (1.0 / self.values)) @ u.T


def _shrink_spectrum(decomp, n, p, h):
    """Shared kernel: build the rule and push the whole spectrum through it."""
    rule = ShrinkageRule(decomp.eigenvalues, n, p, h)
    lam = decomp.eigenvalues
    tol = zero_tolerance(lam)
    values = np.empty(p)
    clamps = 0
    positive = lam > tol
    if np.any(positive):
        mapped, clamped = rule.evaluate(lam[positive])
        values[positive] = mapped
        clamps = int(np.sum(clamped))
    if np.any(~positive):
        if rule.zero_rule_value is None:
            raise SingularityError(
                "zero sample eigenvalues need p > n; got p == %d, n == %d" % (p, n)
            )
        values[~positive] = rule.zero_rule_value
    return ShrunkCovariance(decomp, values, rule, clamps)


def shrink_covariance(s, n, h=None):
    """Shrink a sample covariance matrix given its sample count n.

    s is the p-by-p second-moment matrix (Z'Z / n) or its decomposition.  h
    defaults to default_bandwidth(n, p).  p == n is rejected: neither
    regime's formulas are complete there.
    """
    decomp = s if isinstance(s, SpectralDecomposition) else eigh(s)
    p = decomp.dim
    if int(n) != n or n < 1:
        raise DomainError("n must be a positive integer")
    n = int(n)
    if p == n:
        raise RegimeError(
            "aspect ratio p == n (%d) is unsupported; add or drop a sample" % p
        )
    if h is None:
        h = default_bandwidth(n, p)
    return _shrink_spectrum(decomp, n, p, h)


def empirical_loss(true_inverse, decomposition, inverse_values, degree=1):
    """Relative savings loss (1/p) tr[(A - B)^2 S^degree] in the eigenbasis of S.

    A is the true inverse (a p-by-p matrix) and S = U diag(lambda) U' the
    sample second-moment matrix, given as its decomposition.  The estimate B
    must share S's eigenvectors, B = U diag(inverse_values) U', as every
    estimate built from S's spectrum does (the raw inverse and each shrunk
    inverse).  With M = U'AU - diag(inverse_values) the loss is
    sum_ij M_ij^2 lambda_i^degree / p, so A is rotated once per call and each
    estimate then costs O(p^2).

    inverse_values is 1-d (one estimate; returns a float) or 2-d (one row per
    estimate; returns one loss per row).  degree must be a nonnegative integer.
    """
    a = symmetrize(true_inverse)
    if int(degree) != degree or degree < 0:
        raise DomainError("degree must be a nonnegative integer")
    values = np.asarray(inverse_values, dtype=float)
    lam = decomposition.eigenvalues
    p = lam.size
    if a.shape[0] != p or values.ndim not in (1, 2) or values.shape[-1] != p:
        raise DimensionError("the truth, S and every estimate must share dimension p")
    u = decomposition.eigenvectors
    rotated = u.T @ a @ u
    weight = lam ** int(degree)
    diagonal = np.diag(rotated)
    off = rotated * rotated
    np.fill_diagonal(off, 0.0)
    # only the diagonal of M depends on the estimate
    shared = float(np.sum(off, axis=1) @ weight)
    losses = (shared + ((diagonal - values) ** 2) @ weight) / p
    return float(losses) if values.ndim == 1 else losses
