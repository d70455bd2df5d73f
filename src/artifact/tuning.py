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
    _kernel_differences,
    _stein_sums,
    default_bandwidth,
)
from .spectral import SpectralDecomposition, as_matrix, eigh

# Relative spacing below which two eigenvalues are treated as coalescent in
# the divided-difference part of the derivative trace.
COALESCENCE_RTOL = 1e-8

# Risks within this share of the minimum's term magnitude are tied.  Where
# the risk curve is flat in h (p = 1 is flat exactly), round-off in the last
# digits would otherwise pick the bandwidth.
RISK_TIE_RTOL = 1e-12

# Entries in each (B, p, p) buffer of one block of the risk grid: a block holds
# B = BLOCK_TERMS // p^2 bandwidths, at least one.  Larger blocks spread the
# Python overhead over more bandwidths until the buffers outgrow the cache.
# Timed at block sizes 1-15 and p = 24-160 (15-point grids, one BLAS
# thread), the fastest block held the whole grid up to p = 37, 8 bandwidths
# at p = 64, 3 at p = 100 and 2 at p = 128 and 160.  This value gives those
# sizes up to p = 128; from p = 129 on a block holds one bandwidth.
BLOCK_TERMS = 2 ** 15


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
    This is the derivative_trace component of risk_estimate at h (the risk
    grid of one bandwidth); decomp may be a SpectralDecomposition or a plain
    second-moment matrix.
    """
    return risk_estimate(decomp, n, h).derivative_trace


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


class _RiskGrid:
    """The risk estimate of one spectrum, evaluated a block of bandwidths at a time.

    What does not depend on h is built once: the rule's checks, the kernel
    differences 1/lam_k - 1/lam_j with their squares, and the coalescent
    eigenvalue pairs of the derivative trace.  block(hs) forms everything
    that does depend on h for up to `size` bandwidths at once, in two
    preallocated (size, p, p) buffers.
    """

    def __init__(self, decomp, n, grid, diagonals):
        p = decomp.dim
        if n <= p + 1:
            raise InsufficientDataError(
                "risk estimation needs n > p + 1 (n=%d, p=%d)" % (n, p)
            )
        self.rule = ShrinkageRule(decomp.eigenvalues, n, p, grid)
        if diagonals is not None:
            diagonals = np.asarray(diagonals, dtype=float).ravel()
            if diagonals.size != p:
                raise DimensionError("need one precision diagonal per variable")
            if np.any(diagonals <= 0):
                raise DomainError("precision diagonals must be positive")
        self.diagonal_sum = None if diagonals is None else float(np.sum(diagonals))
        lam = self.rule.kernel
        self.lamstar = self.rule.n * lam
        if p > 1:
            # pairs spaced within round-off of each other take the limit of
            # the divided difference, the diagonal derivative at the
            # (numerically) shared eigenvalue
            coalescent = np.abs(lam[:, None] - lam[None, :]) <= COALESCENCE_RTOL * lam[-1]
            np.fill_diagonal(coalescent, True)
            self.coalescent = np.nonzero(coalescent)
            np.fill_diagonal(coalescent, False)
            self.off = np.nonzero(coalescent)
        self.inv = 1.0 / lam
        self.u, self.u2 = _kernel_differences(self.inv, self.inv)
        self.size = min(grid.size, max(1, BLOCK_TERMS // (p * p)))
        self.work = (np.empty((self.size, p, p)), np.empty((self.size, p, p)))

    def block(self, hs):
        """RiskEstimates at the bandwidths hs, a 1-d array of at most `size`."""
        rule, inv, lamstar = self.rule, self.inv, self.lamstar
        n, p = rule.n, rule.p
        den, terms = (w[:hs.size] for w in self.work)
        g, dg = _stein_sums(inv, self.u, self.u2, hs, p, derivative=True, out=(den, terms))
        delta, clamped = rule._apply(inv, g)
        quadratic = np.sum(lamstar / delta ** 2, axis=-1)
        inverse_sum = np.sum(1.0 / delta, axis=-1)

        # The diagonal of the derivative trace differentiates through both the
        # evaluation point and the j-th kernel entry (the self-term
        # contributes 2(p/n)/(p h^2) inside the bracket).  Unclamped, 1/delta
        # is the bracket (c1 + c2 g) / lam with c1 = 1 - p/n, so the diagonal
        # 1/delta - (c1 + c2 g + c2 g' / lam + c2 / (p h^2)) / lam reduces to
        # the c2 terms alone.
        c2 = 2.0 * p / n
        diag = -c2 * inv * (inv * dg + 1.0 / (p * hs * hs)[:, None])
        # on a clamped stretch the realized rule is delta(x) = x / CLAMP_FLOOR,
        # so zeta there is constant and its derivative is exactly zero
        diag = np.where(clamped, 0.0, diag)
        trace = np.sum(diag, axis=-1)
        if p > 1:
            # cross-kernel terms cancel; the off-diagonal part is the half-sum
            # of the divided differences of zeta = lamstar / delta
            zeta = lamstar / delta
            # den is free once g and g' are formed: it takes the lamstar
            # differences, so no third p x p array is allocated
            dl = den[0]
            np.subtract.outer(lamstar, lamstar, out=dl)
            ci, cj = self.coalescent
            dl[ci, cj] = 1.0
            np.subtract(zeta[:, :, None], zeta[:, None, :], out=terms)
            terms /= dl
            terms[:, ci, cj] = 0.0
            i, j = self.off
            terms[:, i, j] = 0.5 * (diag[:, i] + diag[:, j])
            trace += 0.5 * terms.sum(axis=(1, 2))
        return [
            RiskEstimate(h, n, p, delta[b], quadratic[b], inverse_sum[b], trace[b],
                         self.diagonal_sum, np.sum(clamped[b]))
            for b, h in enumerate(hs)
        ]

    def estimates(self, hs):
        """block(hs), with None for each bandwidth whose evaluation raised."""
        try:
            return self.block(hs)
        except (SingularityError, FloatingPointError):
            if hs.size == 1:
                return [None]
            # the block failed as a whole: each bandwidth stands or fails alone
            return [self.estimates(hs[b:b + 1])[0] for b in range(hs.size)]


def risk_estimate(s, n, h, diagonals=None):
    """Unbiased estimate of the inverse-covariance risk at bandwidth h.

    s is the p-by-p sample second-moment matrix (or its decomposition); n the
    sample count; diagonals, if given, the precision_diagonals of the raw
    data (adds the h-independent anchor term so the value estimates the risk
    itself instead of the risk up to a constant).  This is the risk grid of
    select_bandwidth at a grid of one point.
    """
    decomp = s if isinstance(s, SpectralDecomposition) else eigh(s)
    hs = np.array([h], dtype=float)
    return _RiskGrid(decomp, n, hs, diagonals).block(hs)[0]


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

    The grid is evaluated in blocks of bandwidths (BLOCK_TERMS sets the
    block size from p): the h-free parts of the risk are built once per
    grid, and each block forms the rest for all of its bandwidths at once.
    A bandwidth whose evaluation raises SingularityError or
    FloatingPointError gets no estimate (None) and a NaN risk; the other
    bandwidths stand.  Risks within round-off of the minimum (RISK_TIE_RTOL
    times its magnitude) are ties, and ties prefer the larger h (smoother
    estimate).  Grid entries whose risk is non-finite are skipped; if none
    survive, a TuningError is raised.  The diagonal anchor term is constant
    in h, so diagonals may be omitted.
    """
    decomp = s if isinstance(s, SpectralDecomposition) else eigh(s)
    p = decomp.dim
    if grid is None:
        grid = default_bandwidth_grid(n, p)
    grid = np.unique(np.asarray(grid, dtype=float).ravel())
    if grid.size < 1:
        raise DomainError("bandwidth grid is empty")
    if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise DomainError("bandwidth grid must be positive and finite")

    try:
        risk_grid = _RiskGrid(decomp, n, grid, diagonals)
    except (SingularityError, FloatingPointError) as exc:
        # a check that holds for every h failed, so no h has an estimate
        raise TuningError(
            "no bandwidth in the grid produced a risk estimate: %s" % exc
        ) from exc
    estimates = []
    for start in range(0, grid.size, risk_grid.size):
        estimates += risk_grid.estimates(grid[start:start + risk_grid.size])
    risks = np.array([np.nan if e is None else e.value for e in estimates])
    finite = np.isfinite(risks)
    if not np.any(finite):
        raise TuningError("no bandwidth in the grid produced a finite risk estimate")
    lowest = int(np.nanargmin(np.where(finite, risks, np.nan)))
    bound = risks[lowest] + RISK_TIE_RTOL * estimates[lowest].magnitude
    index = int(np.nonzero(finite & (risks <= bound))[0][-1])
    return BandwidthSelection(grid[index], grid, risks, index, estimates)
