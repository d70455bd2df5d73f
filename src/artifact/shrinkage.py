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
    require_integer,
)
from .spectral import SpectralDecomposition, eigh, symmetrize, zero_tolerance

# Lower bound on the inverse shrunk eigenvalue, relative to 1/x.  Evaluations
# hitting it are counted so callers can see when the raw rule went negative.
CLAMP_FLOOR = 1e-8


def default_bandwidth(n, p):
    """Closed-form kernel bandwidth (p/n)^0.7 * p^(-0.35)."""
    n = require_integer(n, "n and p must be integers")
    p = require_integer(p, "n and p must be integers")
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
    """inv[k] u[j, k] and u[j, k]**2 for u[j, k] = inv[k] - x[j].

    Neither depends on the bandwidth.  inv and x may carry a leading axis of
    spectra, (R, p) each, which the results keep: (R, x.size, p).
    """
    u = inv[..., None, :] - x[..., :, None]
    u2 = u * u
    u *= inv[..., None, :]
    return u, u2


def _stein_sums(inv, iu, u2, h, divisor, derivative=False, out=None):
    """Stein-transform sums at the points x of iu, u2 = _kernel_differences(inv, x).

    h is a 1-d array of bandwidths; the result has shape (h.size, x.size),
    after the leading axis of spectra if inv has one.  With a stack, h may
    instead be an (R, 1) column, one bandwidth per spectrum, which gives
    (R, 1, x.size).  With derivative,
    returns (g, g') where g' is the x-derivative.  out, if given, is a pair
    of buffers of the shape of the terms, ([R,] h.size, x.size, inv.size),
    that the terms are formed in; a caller that evaluates many bandwidths
    reuses them.
    """
    inv = inv[..., None, :]
    b2 = (h[:, None] * inv) ** 2
    if out is None:
        shape = b2.shape[:-1] + iu.shape[-2:]
        out = (np.empty(shape), np.empty(shape))
    den, terms = out
    np.add(u2[..., None, :, :], b2[..., :, None, :], out=den)
    np.divide(iu[..., None, :, :], den, out=terms)
    g = terms.sum(axis=-1) / divisor
    if not derivative:
        return g
    # with q = 1 / den the terms inv (u^2 - b^2) q^2 of g' are inv q - 2 h^2 inv^3 q^2,
    # so g' is two matrix-vector products against vectors that do not depend on h
    q = np.reciprocal(den, out=den)
    np.multiply(q, q, out=terms)
    column = inv[..., :, None]
    dg = q @ column - 2.0 * (h * h)[:, None, None] * (terms @ column ** 3)
    return g, dg[..., 0] / divisor


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
    which is None when p == n (the constant is undefined there).  In the
    under regime the eigenvalues may also be an (R, p) stack of spectra,
    each checked as a single one is; the kernel is then the (R, p) stack.
    The risk grid builds such a rule with one n and a grid of h that every
    spectrum shares, and evaluates it itself.  A stack may instead take one
    sample count per spectrum, n a 1-d integer array, and then one bandwidth
    per spectrum, h of the same length: n, h and aspect are then (R, 1)
    columns, and evaluate maps an (R, q) array of points, row r through
    spectrum r, exactly as R single-spectrum rules would.

    Instances are immutable after construction; evaluation is pure and
    returns the clamp mask to the caller instead of mutating state.
    """

    def __init__(self, eigenvalues, n, p, h):
        lam = np.asarray(eigenvalues, dtype=float)
        lam = np.sort(lam if lam.ndim == 2 else lam.ravel(), axis=-1)
        if lam.shape[-1] != p:
            raise DimensionError(
                "expected %d eigenvalues, got %d" % (p, lam.shape[-1])
            )
        per_spectrum = np.ndim(n) == 1
        if per_spectrum:
            n = np.asarray(n)
            if lam.ndim != 2 or n.shape != lam.shape[:1] or np.shape(h) != n.shape:
                raise DimensionError("one n and one h per spectrum need a stack of as many")
            if n.dtype.kind not in "iu" or n.min() < 1:
                raise DomainError("n must be positive integers")
        else:
            n = require_integer(n, "n must be a positive integer", minimum=1)
        if not np.all(np.isfinite(lam)):
            raise InputError("eigenvalues must be finite")
        hv = _bandwidths(h)
        if per_spectrum:
            n, hv = n[:, None], hv[:, None]
        tol = np.asarray(zero_tolerance(lam))[..., None]
        if lam.size and (lam[..., -1] <= 0).any():
            raise SingularityError("spectrum has no positive eigenvalue")
        if (lam < -tol).any():
            raise InputError("spectrum has a negative eigenvalue (%.6g)" % lam.min())

        self.n = n
        self.p = int(p)
        self.h = float(hv[0]) if np.ndim(h) == 0 else hv
        self.aspect = self.p / self.n

        if self.p < (self.n.min() if per_spectrum else self.n):
            self.regime = "under"
            small = lam <= tol
            if small.any():
                first = tuple(int(i[0]) for i in np.nonzero(small))
                where = " (spectrum %d of the stack)" % first[0] if lam.ndim == 2 else ""
                raise SingularityError(
                    "eigenvalue %d is numerically zero (%.6g) but p < n requires "
                    "a full-rank spectrum%s" % (first[-1], lam[first], where)
                )
            self.kernel = lam
            self.divisor = self.p
            self.zero_rule_value = None
        else:
            self.regime = "over"
            if lam.ndim == 2:
                raise RegimeError("a stack of spectra needs p < n")
            # never empty: the top eigenvalue is positive and tol = p eps lam[-1]
            self.kernel = lam[lam > tol]
            self.divisor = self.n
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
        A rule with one n and h per spectrum takes and returns (R, q) arrays.
        """
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xv <= 0) or not np.all(np.isfinite(xv)):
            raise DomainError("rule evaluation needs strictly positive finite x")
        inv_x = 1.0 / xv
        # the kernel and h were checked when the rule was built
        inv = 1.0 / self.kernel
        g = _stein_sums(inv, *_kernel_differences(inv, inv_x), np.atleast_1d(self.h),
                        self.divisor)
        if np.ndim(self.n):
            # one bandwidth per spectrum: g is (R, 1, q)
            return self._apply(inv_x, g[:, 0])
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
    """Shrunk covariance in factored form: sample eigenvectors, new eigenvalues.

    For a stack of spectra, values are (R, p) and clamp_count has one entry
    per spectrum.
    """

    def __init__(self, decomposition, values, rule, clamp_count):
        self.decomposition = decomposition
        self.values = np.asarray(values, dtype=float)
        self.rule = rule
        self.clamp_count = int(clamp_count) if np.ndim(clamp_count) == 0 else clamp_count
        if np.any(self.values <= 0) or not np.all(np.isfinite(self.values)):
            raise SingularityError("shrunk eigenvalues must be positive and finite")


def _shrink_spectrum(decomp, n, h):
    """Shared kernel: build the rule and push the whole spectrum through it.

    A stack of spectra takes one n and h per spectrum.  Its rule is in the
    under regime, which accepts full-rank spectra only, so every eigenvalue
    is mapped.
    """
    p = decomp.dim
    rule = ShrinkageRule(decomp.eigenvalues, n, p, h)
    lam = decomp.eigenvalues
    if lam.ndim == 2:
        values, clamped = rule.evaluate(lam)
        return ShrunkCovariance(decomp, values, rule, np.sum(clamped, axis=-1))
    values = np.empty(p)
    clamps = 0
    positive = lam > decomp.zero_tolerance
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
    n = require_integer(n, "n must be a positive integer", minimum=1)
    if p == n:
        raise RegimeError(
            "aspect ratio p == n (%d) is unsupported; add or drop a sample" % p
        )
    if h is None:
        h = default_bandwidth(n, p)
    return _shrink_spectrum(decomp, n, h)


def empirical_loss(true_inverse, decomposition, inverse_values):
    """Relative savings loss (1/p) tr[(A - B)^2 S] in the eigenbasis of S.

    A is the true inverse (a p-by-p matrix) and S = U diag(lambda) U' the
    sample second-moment matrix, given as its decomposition.  The estimate B
    must share S's eigenvectors, B = U diag(inverse_values) U', as every
    estimate built from S's spectrum does (the raw inverse and each shrunk
    inverse).  With M = U'AU - diag(inverse_values) the loss is
    sum_ij M_ij^2 lambda_i / p, so A is rotated once per call and each
    estimate then costs O(p^2).

    inverse_values is 1-d (one estimate; returns a float) or 2-d (one row per
    estimate; returns one loss per row).  A decomposition of an (R, p, p)
    stack takes (R, E, p) inverse values, E estimates per matrix, and
    returns (R, E) losses, each equal to the loss of that matrix alone.
    """
    a = symmetrize(true_inverse)
    values = np.asarray(inverse_values, dtype=float)
    lam = decomposition.eigenvalues
    p = lam.shape[-1]
    ndims = (3,) if lam.ndim == 2 else (1, 2)
    if (a.shape != (p, p) or values.ndim not in ndims or values.shape[-1] != p
            or values.shape[:-2] != lam.shape[:-1]):
        raise DimensionError("the truth, S and every estimate must share dimension p")
    u = decomposition.eigenvectors
    rotated = np.swapaxes(u, -1, -2) @ a @ u
    weight = lam[..., None]
    diagonal = np.diagonal(rotated, axis1=-2, axis2=-1)[..., None, :]
    off = rotated * rotated
    off[..., np.arange(p), np.arange(p)] = 0.0
    # only the diagonal of M depends on the estimate; each product is a
    # matrix-vector product, one BLAS call per matrix of a stack
    shared = np.sum(off, axis=-1)[..., None, :] @ weight
    losses = ((shared + ((diagonal - values) ** 2) @ weight) / p)[..., 0]
    return float(losses[0]) if values.ndim == 1 else losses
