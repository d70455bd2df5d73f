"""Unbiased risk estimation and bandwidth selection for the shrinkage rule.

Everything here lives in the p < n - 1 regime: the risk estimate needs the
inverse-Wishart moment constant n - p - 1 to be positive.
"""

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    SingularityError,
    TuningError,
)
from .shrinkage import (
    ShrinkageRule,
    default_bandwidth,
    stein_transform_derivative,
)
from .spectral import SpectralDecomposition, as_matrix, as_symmetric, eigh

# Relative spacing below which two eigenvalues are treated as coalescent in
# the divided-difference part of the derivative trace.
COALESCENCE_RTOL = 1e-8

# Risks within this share of the minimum's term magnitude are tied.  Where
# the risk curve is flat in h (p = 1 is flat exactly), round-off in the last
# digits would otherwise pick the bandwidth.
RISK_TIE_RTOL = 1e-12


def precision_diagonals(data):
    """Estimate the diagonal of the inverse population second-moment matrix.

    For each column j of the n-by-p data matrix, regress it on the remaining
    columns (no intercept) and return (n - p - 1) / ||residual||^2.  Under
    Gaussian sampling the residual norm is an inverse-moment pivot, making
    each estimate exactly mean-unbiased for the corresponding diagonal.
    """
    z = as_matrix(data)
    if z.ndim != 2:
        raise DimensionError("data must be a 2-d array")
    n, p = z.shape
    if n <= p + 1:
        raise InsufficientDataError(
            "need n > p + 1 samples for the precision diagonals (n=%d, p=%d)" % (n, p)
        )
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


def zeta_derivative_trace(decomp, n, h):
    """Trace of the Jacobian of j -> lambda*_j / delta(lambda_j).

    lambda*_j = n lambda_j are the eigenvalues of the unnormalized matrix.
    This is the derivative_trace component of risk_estimate; decomp may be
    a SpectralDecomposition or a plain second-moment matrix.
    """
    return risk_estimate(decomp, n, h).derivative_trace


def _derivative_trace(rule, delta, clamped):
    """Derivative trace from one evaluation of the rule at its own kernel.

    The diagonal part differentiates through both the evaluation point and
    the j-th kernel entry (the self-term contributes 2(p/n)/(p h^2) inside
    the bracket); cross-kernel terms cancel and the remaining off-diagonal
    contribution is the usual half-sum of divided differences.  Coalescent
    pairs fall back to the diagonal derivative at the shared eigenvalue.
    """
    p, n, h = rule.p, rule.n, rule.h
    lam = rule.kernel
    lamstar = n * lam
    zeta = lamstar / delta

    c2 = 2.0 * p / n
    inv_lam = 1.0 / lam
    dg = stein_transform_derivative(inv_lam, lam, h, p)
    # unclamped, 1/delta is the bracket (c1 + c2 g) / lam with c1 = 1 - p/n,
    # so the diagonal 1/delta - (c1 + c2 g + c2 dg / lam + c2 / (p h^2)) / lam
    # reduces to the c2 terms alone
    diag = -c2 * inv_lam * (inv_lam * dg + 1.0 / (p * h * h))
    # on a clamped stretch the realized rule is delta(x) = x / CLAMP_FLOOR,
    # so zeta there is constant and its derivative is exactly zero
    diag = np.where(clamped, 0.0, diag)

    total = float(np.sum(diag))
    if p > 1:
        gap_tol = COALESCENCE_RTOL * lam[-1]
        coalescent = np.abs(lam[:, None] - lam[None, :]) <= gap_tol
        np.fill_diagonal(coalescent, True)
        dl = lamstar[:, None] - lamstar[None, :]
        ratio = (zeta[:, None] - zeta[None, :]) / np.where(coalescent, 1.0, dl)
        # coalescent pairs take the limit of the divided difference: the
        # diagonal derivative at the (numerically) shared eigenvalue
        limit = 0.5 * (diag[:, None] + diag[None, :])
        off = coalescent.copy()
        np.fill_diagonal(off, False)
        terms = np.where(off, limit, np.where(coalescent, 0.0, ratio))
        total += 0.5 * float(np.sum(terms))
    return total


class RiskEstimate:
    """Unbiased risk value at one bandwidth, with its four components.

    value = quadratic/n - 2 (n-p-1) inverse_sum/n - 4 derivative_trace/n
            + diagonal_sum, where the last term is only present when
    precision diagonals were supplied (it does not depend on h).  magnitude
    is the sum of the absolute values of those terms, the scale of the
    round-off in value.  values are the shrunk eigenvalues delta(lambda) the
    components were computed from, in ascending order of the sample
    eigenvalues.
    """

    def __init__(self, h, n, p, values, quadratic, inverse_sum, derivative_trace,
                 diagonal_sum=None, clamp_count=0):
        self.h = float(h)
        self.values = values
        self.n = int(n)
        self.p = int(p)
        self.quadratic = float(quadratic)
        self.inverse_sum = float(inverse_sum)
        self.derivative_trace = float(derivative_trace)
        self.diagonal_sum = None if diagonal_sum is None else float(diagonal_sum)
        self.clamp_count = int(clamp_count)
        value = (
            self.quadratic / n
            - 2.0 * (n - p - 1) * self.inverse_sum / n
            - 4.0 * self.derivative_trace / n
        )
        if self.diagonal_sum is not None:
            value += self.diagonal_sum
        self.value = value
        self.magnitude = (
            abs(self.quadratic) + 2.0 * (n - p - 1) * abs(self.inverse_sum)
            + 4.0 * abs(self.derivative_trace)
        ) / n + abs(self.diagonal_sum or 0.0)


def risk_estimate(s, n, h, diagonals=None):
    """Unbiased estimate of the inverse-covariance risk at bandwidth h.

    s is the p-by-p sample second-moment matrix (or its decomposition); n the
    sample count; diagonals, if given, the precision_diagonals of the raw
    data (adds the h-independent anchor term so the value estimates the risk
    itself instead of the risk up to a constant).
    """
    decomp = s if isinstance(s, SpectralDecomposition) else eigh(as_symmetric(s))
    p = decomp.dim
    if n <= p + 1:
        raise InsufficientDataError(
            "risk estimation needs n > p + 1 (n=%d, p=%d)" % (n, p)
        )
    rule = ShrinkageRule(decomp.eigenvalues, n, p, h)
    if diagonals is not None:
        diagonals = np.asarray(diagonals, dtype=float).ravel()
        if diagonals.size != p:
            raise DimensionError("need one precision diagonal per variable")
        if np.any(diagonals <= 0):
            raise DomainError("precision diagonals must be positive")
    lam = rule.kernel
    delta, clamped = rule.evaluate(lam)
    lamstar = rule.n * lam
    quadratic = float(np.sum(lamstar / delta ** 2))
    inverse_sum = float(np.sum(1.0 / delta))
    trace = _derivative_trace(rule, delta, clamped)
    diagonal_sum = None if diagonals is None else float(np.sum(diagonals))
    return RiskEstimate(h, n, p, delta, quadratic, inverse_sum, trace, diagonal_sum,
                        int(np.sum(clamped)))


def default_bandwidth_grid(n, p, size=15, span=10.0):
    """Log-spaced bandwidth grid centered on the closed-form default.

    Spans [h0/span, h0*span]; with odd size the default itself is the middle
    point.
    """
    if size < 2:
        raise DomainError("grid needs at least two points")
    if not (span > 1):
        raise DomainError("span must exceed 1")
    h0 = default_bandwidth(n, p)
    grid = h0 * np.logspace(-np.log10(span), np.log10(span), int(size))
    if size % 2 == 1:
        grid[int(size) // 2] = h0  # center is the default exactly, not up to rounding
    return grid


class BandwidthSelection:
    """Chosen bandwidth plus the (h, risk) table behind the choice.

    grid is sorted ascending and index points into it.  estimates holds the
    RiskEstimate of each grid point, or None where the estimate raised; its
    `values` are the shrunk spectrum at that h, so callers that need the
    estimator on every grid point need not evaluate the rule again.
    """

    def __init__(self, h, grid, risks, index, estimates):
        self.h = float(h)
        self.grid = np.asarray(grid, dtype=float)
        self.risks = np.asarray(risks, dtype=float)
        self.index = int(index)
        self.estimates = list(estimates)


def select_bandwidth(s, n, grid=None, diagonals=None):
    """Minimize the risk estimate over a bandwidth grid.

    Risks within round-off of the minimum (RISK_TIE_RTOL times its
    magnitude) are ties, and ties prefer the larger h (smoother estimate).
    Grid entries whose risk is non-finite are skipped; if none survive, a
    TuningError is raised.  The diagonal anchor term is constant in h, so
    diagonals may be omitted.
    """
    decomp = s if isinstance(s, SpectralDecomposition) else eigh(as_symmetric(s))
    p = decomp.dim
    if grid is None:
        grid = default_bandwidth_grid(n, p)
    grid = np.unique(np.asarray(grid, dtype=float).ravel())
    if grid.size < 1:
        raise DomainError("bandwidth grid is empty")
    if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise DomainError("bandwidth grid must be positive and finite")

    risks = np.empty(grid.size)
    estimates = []
    for i, h in enumerate(grid):
        try:
            estimate = risk_estimate(decomp, n, h, diagonals)
        except (SingularityError, FloatingPointError):
            estimate = None
        estimates.append(estimate)
        risks[i] = np.nan if estimate is None else estimate.value
    finite = np.isfinite(risks)
    if not np.any(finite):
        raise TuningError("no bandwidth in the grid produced a finite risk estimate")
    lowest = int(np.nanargmin(np.where(finite, risks, np.nan)))
    bound = risks[lowest] + RISK_TIE_RTOL * estimates[lowest].magnitude
    index = int(np.nonzero(finite & (risks <= bound))[0][-1])
    return BandwidthSelection(grid[index], grid, risks, index, estimates)
