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
    require_integer,
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

# Spacing, relative to the smaller eigenvalue, below which a pair's divided
# difference is taken on its own, not from the row sums of the derivative trace.
NEAR_RTOL = 1e-4

# Risks within this share of the minimum's term magnitude are tied.  Where
# the risk curve is flat in h (p = 1 is flat exactly), round-off in the last
# digits would otherwise pick the bandwidth.
RISK_TIE_RTOL = 1e-12

# Entries in each (Rc, B, p, p) buffer of one block of the risk grid: a block
# holds up to Rc spectra at B bandwidths each, with B = BLOCK_TERMS // p^2
# bandwidths (at least one, at most the grid) and then as many spectra as
# still fit, at least one.  Larger blocks spread the Python overhead over
# more bandwidths until the buffers outgrow the cache.  This value gives the
# whole grid up to p = 37, 8 bandwidths at p = 64, 3 at p = 100 and 2 at
# p = 128; from p = 129 on a block holds one bandwidth of one spectrum.
# Timed with the row-sum derivative trace (15-point grids, one BLAS thread,
# 2 vCPUs, OpenBLAS 0.3.31) on single spectra at p = 10-160 and on prial
# stacks at p = 24-37: half this value was up to 1.6 times slower from
# p = 37 up, and twice it 10-20% faster per spectrum from p = 64 up and on
# the stacks, but four alternating pairs of the sim-study benchmark showed no
# difference in wall time (medians 0.352 and 0.355 s), so the value stays.
# prial_experiment stacks up to BLOCK_TERMS // p^2 replicates per call, so
# the h-free (R, p, p) arrays of a stack stay within the same budget.
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


def _pair_terms(lam, lamstar):
    """The h-free pair terms of the derivative trace of an (R, p) stack of
    ascending spectra lam, with lamstar = n lam.

    A pair spaced within round-off (coalescent) takes the limit of its
    divided difference; a near pair, spaced within NEAR_RTOL of its smaller
    eigenvalue, takes its divided difference on its own, because in the row
    sums it would cancel about 1/spacing of their digits.  Both are rare and
    come back as (spectrum, j, k) triples with j < k, sorted by spectrum.
    Every other pair goes into the row sums r_j = sum_k 1 / (lamstar_j -
    lamstar_k), one (R, p) array, built in a single p x p difference array
    per spectrum so that the grid's memory stays a few p x p arrays.
    Returns (coalescent, near, rowsums).
    """
    diff = lam[:, :, None] - lam[:, None, :]
    top = COALESCENCE_RTOL * lam[:, -1, None, None]
    coalescent = diff <= top
    coalescent &= diff >= -top
    # lam ascends, so the smaller of lam_j and lam_k is lam_k where diff >= 0
    # and lam_j where diff <= 0; the diagonal counts as near
    skip = diff <= NEAR_RTOL * lam[:, None, :]
    skip &= diff >= -NEAR_RTOL * lam[:, :, None]
    skip |= coalescent
    r, j, k = np.nonzero(skip)
    upper = j < k
    r, j, k = r[upper], j[upper], k[upper]
    limit = coalescent[r, j, k]
    del coalescent
    np.subtract(lamstar[:, :, None], lamstar[:, None, :], out=diff)
    np.copyto(diff, np.inf, where=skip)
    rowsums = np.reciprocal(diff, out=diff).sum(axis=-1)
    return (r[limit], j[limit], k[limit]), (r[~limit], j[~limit], k[~limit]), rowsums


class _RiskGrid:
    """The risk estimates of a stack of spectra, a block of them at a time.

    decomp holds one spectrum or an (R, p) stack of them; one spectrum is a
    stack of one.  What does not depend on h is built once: the rule's
    checks, the kernel terms of _kernel_differences, and the pair terms of
    each spectrum's derivative trace (_pair_terms: the row sums r_j and the
    coalescent and near pairs).  block(rows, hs) forms everything that does
    depend on h for the spectra `rows` (a slice) at the bandwidths hs, in two
    preallocated buffers of `shape` = (Rc, B) blocks of p x p terms, and
    table() runs the stack and the grid through it.  The p x p passes of a
    block are those of the Stein sum g and its derivative g' (two
    matrix-vector products); the off-diagonal part of the derivative trace
    costs O(p) per bandwidth, sum_j zeta_j r_j plus the rare pairs.
    The rule's checks hold or fail for the whole grid, so block() raises
    nothing of its own: a term that overflows comes out non-finite, and
    numpy floating-point errors (under np.seterr(all="raise")) propagate
    uncaught.
    """

    def __init__(self, decomp, n, grid, diagonals):
        p = decomp.dim
        if n <= p + 1:
            raise InsufficientDataError(
                "risk estimation needs n > p + 1 (n=%d, p=%d)" % (n, p)
            )
        self.rule = ShrinkageRule(decomp.eigenvalues, n, p, grid)
        self.grid = grid
        self.single = decomp.eigenvalues.ndim == 1
        lam = self.rule.kernel.reshape(-1, p)
        if diagonals is not None:
            diagonals = np.asarray(diagonals, dtype=float)
            if diagonals.size != lam.size:
                raise DimensionError("need one precision diagonal per variable")
            if np.any(diagonals <= 0):
                raise DomainError("precision diagonals must be positive")
            diagonals = np.sum(diagonals.reshape(lam.shape), axis=-1)
        self.diagonal_sum = diagonals
        self.lamstar = self.rule.n * lam
        if p > 1:
            self.coalescent, self.near, self.rowsums = _pair_terms(lam, self.lamstar)
        self.inv = 1.0 / lam
        self.iu, self.u2 = _kernel_differences(self.inv, self.inv)
        bandwidths = min(grid.size, max(1, BLOCK_TERMS // (p * p)))
        self.shape = (min(lam.shape[0], max(1, BLOCK_TERMS // (bandwidths * p * p))),
                      bandwidths)
        terms = self.shape[0] * bandwidths * p * p
        self.work = (np.empty(terms), np.empty(terms))

    def block(self, rows, hs):
        """Shrunk spectra (Rc, B, p) and the (Rc, B) quadratic, inverse-sum,
        derivative-trace and clamp-count columns of the spectra `rows` at the
        bandwidths hs, Rc and B at most `shape`."""
        rule, inv, spectra = self.rule, self.inv[rows], self.lamstar[rows]
        n, p = rule.n, rule.p
        shape = (inv.shape[0], hs.size, p, p)
        den, terms = (w[:shape[0] * hs.size * p * p].reshape(shape) for w in self.work)
        g, dg = _stein_sums(inv, self.iu[rows], self.u2[rows], hs, p, derivative=True,
                            out=(den, terms))
        inv, lamstar = inv[:, None, :], spectra[:, None, :]
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
            # of the divided differences of zeta = lamstar / delta, which is
            # sum_j zeta_j r_j over the pairs spaced apart, plus each
            # coalescent and near pair on its own
            zeta = lamstar / delta
            trace += np.sum(zeta * self.rowsums[rows, None, :], axis=-1)
            r, j, k = self._pairs(self.coalescent, rows)
            np.add.at(trace, r, 0.5 * (diag[r, :, j] + diag[r, :, k]))
            r, j, k = self._pairs(self.near, rows)
            np.add.at(trace, r, (zeta[r, :, j] - zeta[r, :, k])
                      / (spectra[r, j] - spectra[r, k])[:, None])
        return delta, quadratic, inverse_sum, trace, np.sum(clamped, axis=-1)

    @staticmethod
    def _pairs(triples, rows):
        """The (spectrum, j, k) triples of the spectra `rows`, spectrum
        counted from rows.start."""
        r, j, k = triples
        lo, hi = np.searchsorted(r, (rows.start, rows.stop))
        return r[lo:hi] - rows.start, j[lo:hi], k[lo:hi]

    def table(self):
        """The BandwidthSelection of the grid, index 0 (no selection made),
        with a leading axis of spectra unless decomp held a single one."""
        grid, p, count = self.grid, self.rule.p, self.inv.shape[0]
        values = np.empty((count, grid.size, p))
        columns = np.empty((4, count, grid.size))
        spectra, bandwidths = self.shape
        for first in range(0, count, spectra):
            rows = slice(first, min(first + spectra, count))
            for start in range(0, grid.size, bandwidths):
                part = slice(start, start + bandwidths)
                values[rows, part], *columns[:, rows, part] = self.block(rows, grid[part])
        diagonal_sum = self.diagonal_sum
        if self.single:
            values, columns = values[0], columns[:, 0]
            diagonal_sum = None if diagonal_sum is None else float(diagonal_sum[0])
        return BandwidthSelection(grid, self.rule.n, p, values, *columns, diagonal_sum)


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
    return default_bandwidth(n, p) * relative_bandwidth_grid(size, span)


def relative_bandwidth_grid(size=15, span=10.0):
    """default_bandwidth_grid in units of the default: [1/span, span], log-spaced.

    It needs no data, so a caller can check size and span before reading any.
    """
    size = require_integer(size, "grid needs at least two points", minimum=2)
    if not (span > 1):
        raise DomainError("span must exceed 1")
    grid = np.logspace(-np.log10(span), np.log10(span), size)
    if size % 2 == 1:
        grid[size // 2] = 1.0  # center is the default exactly, not up to rounding
    return grid


def check_bandwidth_grid(grid):
    """The distinct points of a bandwidth grid in ascending order.

    DomainError unless there is at least one and all are positive and finite.
    """
    grid = np.unique(np.asarray(grid, dtype=float).ravel())
    if grid.size < 1:
        raise DomainError("bandwidth grid is empty")
    if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise DomainError("bandwidth grid must be positive and finite")
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
    clamped eigenvalues.  A term that overflowed is non-finite, and so is its
    risk; numpy floating-point errors are not caught, so under
    np.seterr(all="raise") no table is built.  index points at the chosen
    bandwidth h.

    The table of a stack of R spectra puts a leading axis of length R on
    every array but grid: each row is the table of that spectrum alone, and
    diagonal_sum, index and h have one entry per spectrum.
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
        anchor = 0.0
        if diagonal_sum is not None:
            # one constant per spectrum, along the grid
            anchor = np.asarray(diagonal_sum)[..., None]
            self.risks += anchor
        self.magnitudes = (
            np.abs(quadratic) + 2.0 * (n - p - 1) * np.abs(inverse_sum)
            + 4.0 * np.abs(derivative_trace)
        ) / n + np.abs(anchor)
        self.index = 0

    @property
    def h(self):
        h = self.grid[self.index]
        return float(h) if np.ndim(h) == 0 else h


def select_bandwidth(s, n, grid=None, diagonals=None):
    """Minimize the risk estimate over a bandwidth grid, for one spectrum or a stack.

    s is a p-by-p second-moment matrix, an (R, p, p) stack of them, or the
    decomposition of either; the table of a stack has one row per spectrum,
    each equal to the table of that spectrum alone (diagonals then holds one
    row of p per spectrum).  The stack and the grid are evaluated in blocks
    of spectra and bandwidths (BLOCK_TERMS sets the block shape from p): the
    h-free parts of the risk are built once per call, among them the row
    sums and rare pairs that make up the off-diagonal derivative trace, and
    each block forms the rest for all of its spectra and bandwidths at once,
    with p x p passes only for the Stein sum and its derivative.  A spectrum the
    rule rejects (SingularityError) leaves no bandwidth with an estimate,
    and TuningError is raised.  Per spectrum, risks within round-off of the
    minimum (RISK_TIE_RTOL times its magnitude) are ties, and ties prefer
    the larger h (smoother estimate).  Grid entries whose risk is non-finite
    are skipped; if none survive for some spectrum, a TuningError is raised.
    numpy floating-point errors are not caught: under np.seterr(all="raise")
    they propagate from here, as from every other numpy call in the package.
    The diagonal anchor term is constant in h, so diagonals may be omitted.
    """
    decomp = s if isinstance(s, SpectralDecomposition) else eigh(s)
    p = decomp.dim
    if grid is None:
        grid = default_bandwidth_grid(n, p)
    grid = check_bandwidth_grid(grid)

    try:
        risk_grid = _RiskGrid(decomp, n, grid, diagonals)
    except SingularityError as exc:
        # a check that holds for every h failed, so no h has an estimate
        raise TuningError(
            "no bandwidth in the grid produced a risk estimate: %s" % exc
        ) from exc
    table = risk_grid.table()
    risks = table.risks.reshape(-1, grid.size)
    finite = np.isfinite(risks)
    dead = ~finite.any(axis=1)
    if dead.any():
        raise TuningError("no bandwidth in the grid produced a finite risk estimate%s"
                          % ("" if risk_grid.single
                             else " for spectrum %d of the stack" % dead.argmax()))
    rows = np.arange(risks.shape[0])
    lowest = np.where(finite, risks, np.inf).argmin(axis=1)
    bound = (risks[rows, lowest]
             + RISK_TIE_RTOL * table.magnitudes.reshape(risks.shape)[rows, lowest])
    # the last tied grid point is the largest h
    tied = finite & (risks <= bound[:, None])
    index = grid.size - 1 - tied[:, ::-1].argmax(axis=1)
    table.index = int(index[0]) if risk_grid.single else index
    return table
