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

    Regressing column j of the n-by-p data matrix Z on the remaining columns
    (no intercept) leaves a residual sum of squares with 1 / RSS_j =
    [(Z'Z)^-1]_jj, and the estimate is (n - p - 1) / RSS_j.  Under Gaussian
    sampling RSS_j is an inverse-moment pivot, making each estimate exactly
    mean-unbiased for the corresponding diagonal.  All p come from one thin
    SVD Z = U diag(s) V' as (n - p - 1) sum_k V_jk^2 / s_k^2.  Z must pass
    lstsq's default rank test, s_min > max(n, p) eps s_max; collinear
    columns raise SingularityError.
    """
    z = as_matrix(data)
    if z.ndim != 2:
        raise DimensionError("data must be a 2-d array")
    n, p = z.shape
    if n <= p + 1:
        raise InsufficientDataError(
            "need n > p + 1 samples for the precision diagonals (n=%d, p=%d)" % (n, p)
        )
    _, s, vt = np.linalg.svd(z, full_matrices=False)
    if s[-1] <= max(n, p) * np.finfo(float).eps * s[0]:
        raise SingularityError("data columns are collinear; Z'Z is singular")
    return (n - p - 1) * np.sum((vt / s[:, None]) ** 2, axis=0)


def zeta_derivative_trace(decomp, n, h):
    """Trace of the Jacobian of j -> lambda*_j / delta(lambda_j).

    lambda*_j = n lambda_j are the eigenvalues of the unnormalized matrix.
    This is the derivative_trace column of risk_estimate at h (the risk
    table of one bandwidth); decomp may be a SpectralDecomposition or a plain
    second-moment matrix.
    """
    return float(risk_estimate(decomp, n, h).derivative_trace[0])


class _RiskGrid:
    """The risk estimate of one spectrum, evaluated a block of bandwidths at a time.

    What does not depend on h is built once: the rule's checks, the kernel
    differences 1/lam_k - 1/lam_j with their squares, and the coalescent
    eigenvalue pairs of the derivative trace.  block(hs) forms everything
    that does depend on h for up to `size` bandwidths at once, in two
    preallocated (size, p, p) buffers, and table() runs the grid through it.
    """

    def __init__(self, decomp, n, grid, diagonals):
        p = decomp.dim
        if n <= p + 1:
            raise InsufficientDataError(
                "risk estimation needs n > p + 1 (n=%d, p=%d)" % (n, p)
            )
        self.rule = ShrinkageRule(decomp.eigenvalues, n, p, grid)
        self.grid = grid
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
        """Shrunk spectra (B, p) and the quadratic, inverse-sum, derivative-trace
        and clamp-count columns at the B bandwidths hs, B at most `size`."""
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
        return delta, quadratic, inverse_sum, trace, np.sum(clamped, axis=-1)

    def table(self):
        """The BandwidthSelection of the grid, index 0 (no selection made)."""
        grid, p = self.grid, self.rule.p
        values = np.full((grid.size, p), np.nan)
        columns = np.full((4, grid.size), np.nan)
        for start in range(0, grid.size, self.size):
            part = slice(start, start + self.size)
            self._fill(grid[part], [values[part], *columns[:, part]])
        return BandwidthSelection(grid, self.rule.n, p, values, *columns, self.diagonal_sum)

    def _fill(self, hs, out):
        """Write block(hs) into the columns out; a bandwidth whose evaluation
        raised keeps NaN in every column."""
        try:
            parts = self.block(hs)
        except (SingularityError, FloatingPointError):
            if hs.size > 1:
                # the block failed as a whole: each bandwidth stands or fails alone
                for b in range(hs.size):
                    self._fill(hs[b:b + 1], [column[b:b + 1] for column in out])
            return
        for column, part in zip(out, parts):
            column[...] = part


def risk_estimate(s, n, h, diagonals=None):
    """Unbiased estimate of the inverse-covariance risk at bandwidth h.

    s is the p-by-p sample second-moment matrix (or its decomposition); n the
    sample count; diagonals, if given, the precision_diagonals of the raw
    data (adds the h-independent anchor term so the risk estimates the risk
    itself instead of the risk up to a constant).  This is the risk table of
    select_bandwidth at a grid of one point, with no selection made.
    """
    decomp = s if isinstance(s, SpectralDecomposition) else eigh(s)
    return _RiskGrid(decomp, n, np.array([h], dtype=float), diagonals).table()


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
    """The risk table of a bandwidth grid, and the bandwidth chosen from it.

    grid is sorted ascending; every other array has one entry per grid point
    (values one row).  risks = quadratic/n - 2 (n-p-1) inverse_sum/n
    - 4 derivative_trace/n + diagonal_sum, where the last term is present
    only when precision diagonals were supplied (it does not depend on h;
    diagonal_sum is None otherwise).  magnitudes sum the absolute values of
    those terms, the scale of the round-off in each risk.  values are the
    shrunk spectra delta(lambda) the terms were computed from, in ascending
    order of the sample eigenvalues, so callers that need the estimator at a
    grid point need not evaluate the rule again; clamp_counts counts their
    clamped eigenvalues.  A bandwidth whose evaluation raised has NaN in
    every column.  index points at the chosen bandwidth h.
    """

    def __init__(self, grid, n, p, values, quadratic, inverse_sum, derivative_trace,
                 clamp_counts, diagonal_sum):
        self.grid = grid
        self.values = values
        self.quadratic = quadratic
        self.inverse_sum = inverse_sum
        self.derivative_trace = derivative_trace
        self.clamp_counts = clamp_counts
        self.diagonal_sum = diagonal_sum
        self.risks = (
            quadratic / n
            - 2.0 * (n - p - 1) * inverse_sum / n
            - 4.0 * derivative_trace / n
        )
        if diagonal_sum is not None:
            self.risks += diagonal_sum
        self.magnitudes = (
            np.abs(quadratic) + 2.0 * (n - p - 1) * np.abs(inverse_sum)
            + 4.0 * np.abs(derivative_trace)
        ) / n + abs(diagonal_sum or 0.0)
        self.index = 0

    @property
    def h(self):
        return float(self.grid[self.index])


def select_bandwidth(s, n, grid=None, diagonals=None):
    """Minimize the risk estimate over a bandwidth grid.

    The grid is evaluated in blocks of bandwidths (BLOCK_TERMS sets the
    block size from p): the h-free parts of the risk are built once per
    grid, and each block forms the rest for all of its bandwidths at once.
    A bandwidth whose evaluation raises SingularityError or
    FloatingPointError gets a NaN row in the table and a NaN risk; the other
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
    table = risk_grid.table()
    risks = table.risks
    finite = np.isfinite(risks)
    if not np.any(finite):
        raise TuningError("no bandwidth in the grid produced a finite risk estimate")
    lowest = int(np.nanargmin(np.where(finite, risks, np.nan)))
    bound = risks[lowest] + RISK_TIE_RTOL * table.magnitudes[lowest]
    table.index = int(np.nonzero(finite & (risks <= bound))[0][-1])
    return table
