"""Multi-source linear regression with covariance-shrinkage coefficient pooling.

A bundle fits one response per source (N by n) on one shared design X (N
samples by p predictors) once, as the whitened least-squares rows B* and the
factor Q^1/2 that un-whitens them.  Each estimator shrinks B* and un-whitens
once: by the identity rule (OLS), by one pooled covariance of the spread
(global), or by a finite scale mixture fitted by a seeded sampler (local).
"""

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    NumericalError,
    RegimeError,
    SingularityError,
    require_integer,
)
from .shrinkage import (ShrunkCovariance, _shrink_spectrum, default_bandwidth,
                        shrink_covariance)
from .spectral import as_matrix, eigh, symmetrize
from .tuning import default_bandwidth_grid, select_bandwidth

MAX_DESIGN_CONDITION = 1e12
NOISE_FLOOR = 1e-12
# Sources per block of the residual sums of squares in SourceBundle
BLOCK_SOURCES = 512


class SourceBundle:
    """The fit of per-source responses on one shared design, made once.

    One thin SVD X = U diag(s) V' (singular values descending) gives the
    collinearity check and everything the estimators share.  The design is
    rejected as collinear when cond(X'X) = (s_max / s_min)^2 reaches
    MAX_DESIGN_CONDITION.  Neither X nor Y is kept, so a caller that drops
    its responses frees them once the bundle is built.  The fit is kept
    once, in two read-only arrays, sigma2, n_predictors (p) and n_sources (n):
      * `standardized` (sources by predictors): the whitened least-squares
        rows B* = (U'Y)' V' / sqrt(sigma2).  B* Q^1/2 is the per-source
        least-squares fit B = (V diag(1/s) U'Y)', whose error grows with
        cond(X) and not with cond(X)^2 as through the normal equations;
      * `q_half`: Q^1/2 of the coefficient noise covariance
        Q = sigma2 (X'X)^-1 = V diag(sigma2 / s^2) V', the columns of V
        scaled by sqrt(sigma2) / s, symmetrized so that the row form
        b* Q^1/2 is exactly Q^1/2 b*.  Neither Q nor Q^-1/2 is formed;
      * `sigma2`: the noise variance pooled across sources (mean of
        per-source residual variances with denominator N - p), floored at
        NOISE_FLOOR.  The residuals Y - U U'Y are formed BLOCK_SOURCES
        sources at a time, so the largest temporary is N by BLOCK_SOURCES,
        not N by the source count.
    """

    def __init__(self, design, responses):
        x = as_matrix(design)
        y = as_matrix(responses)
        if x.ndim != 2 or y.ndim != 2:
            raise DimensionError("design and responses must be 2-d arrays")
        if x.shape[0] != y.shape[0]:
            raise DimensionError(
                "design has %d rows but responses have %d" % (x.shape[0], y.shape[0])
            )
        samples, predictors = x.shape
        sources = y.shape[1]
        if sources < 1 or predictors < 1:
            raise DimensionError("need at least one source and one predictor")
        if samples <= predictors:
            raise InsufficientDataError(
                "need more samples than predictors (N=%d, p=%d)" % (samples, predictors)
            )
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        # (s_max / s_min)^2 >= MAX without dividing, so s_min = 0 is caught too
        if s[-1] * np.sqrt(MAX_DESIGN_CONDITION) <= s[0]:
            raise SingularityError("design is numerically collinear")
        uty = u.T @ y  # p by n
        rss = np.empty(sources)
        for first in range(0, sources, BLOCK_SOURCES):
            block = slice(first, first + BLOCK_SOURCES)
            # one block's residuals Y - U U'Y, squared in place
            squares = u @ uty[:, block]
            np.subtract(y[:, block], squares, out=squares)
            squares *= squares
            np.sum(squares, axis=0, out=rss[block])
        sigma2 = float(np.mean(rss / (samples - predictors)))
        self.sigma2 = max(sigma2, NOISE_FLOOR)
        sigma = np.sqrt(self.sigma2)
        self.n_predictors = predictors
        self.n_sources = sources
        self.q_half = symmetrize((vt.T * (sigma / s)) @ vt)
        self.standardized = uty.T @ (vt / sigma)
        for array in (self.q_half, self.standardized):
            array.flags.writeable = False


class CoefficientEstimate:
    """Coefficient matrix (sources by predictors) with its provenance."""

    def __init__(self, coefficients, method, diagnostics=None):
        self.coefficients = as_matrix(coefficients)
        self.method = str(method)
        self.diagnostics = dict(diagnostics or {})


def _estimate(bundle, coef, method, diagnostics):
    """The estimators' one exit: coef as an estimate of method with the bundle's
    sigma2 in its diagnostics, or NumericalError naming the method if non-finite."""
    if not np.all(np.isfinite(coef)):
        raise NumericalError("%s coefficients are non-finite" % method)
    return CoefficientEstimate(coef, method, {"sigma2": bundle.sigma2, **diagnostics})


def fit_ols(bundle):
    """Per-source least squares, B* Q^1/2: the identity rule, in a fresh array."""
    return _estimate(bundle, bundle.standardized @ bundle.q_half, "ols", {})


def _resolve_bandwidth(decomp, n, h):
    """Translate an h policy into (h, shrunk, notes).

    Under "auto", shrunk is the spectrum the risk grid already evaluated at
    the chosen h; otherwise it is None and the caller shrinks at h.  notes
    holds the diagnostics of the choice: `h_policy` and `h_fallback`, and,
    when the risk grid chose h, its `h_grid_index` and whether that index is
    the grid's first or last (`h_grid_edge`).
    """
    p = decomp.dim
    if isinstance(h, str):
        policy = h.lower()
        notes = {"h_policy": policy, "h_fallback": False}
        if policy == "default":
            return default_bandwidth(n, p), None, notes
        if policy == "auto":
            if n > p + 1:
                chosen = select_bandwidth(decomp, n, default_bandwidth_grid(n, p))
                i = chosen.index
                shrunk = ShrunkCovariance(decomp, chosen.values[i], None,
                                          chosen.clamp_counts[i])
                notes.update(h_grid_index=int(i), h_grid_edge=i in (0, chosen.grid.size - 1))
                return chosen.h, shrunk, notes
            notes["h_fallback"] = True
            return default_bandwidth(n, p), None, notes
        raise DomainError("unknown bandwidth policy %r" % h)
    hv = float(h)
    if not (hv > 0) or not np.isfinite(hv):
        raise DomainError("bandwidth must be positive and finite")
    return hv, None, {"h_policy": "fixed", "h_fallback": False}


def global_shrink(bundle, h="default"):
    """Shrink all coefficient rows with one pooled covariance of the spread.

    The whitened rows B* are shrunk and un-whitened once,
    B* E diag(1 - 1/delta) E' Q^1/2 (E, delta the eigenvectors and shrunk
    eigenvalues of B*'B*/n), so round-off stays at the scale of the estimate.
    h may be a positive number, "default" (closed-form bandwidth), or "auto"
    (risk-minimizing bandwidth when the source count allows it, else the
    default with a fallback note in the diagnostics).
    """
    bstar = bundle.standardized
    n, p = bundle.n_sources, bundle.n_predictors
    if p == n:
        raise RegimeError(
            "source count equals predictor count (%d); the pooled rule is undefined" % p
        )
    decomp = eigh(bstar.T @ bstar / n)
    hv, shrunk, notes = _resolve_bandwidth(decomp, n, h)
    if shrunk is None:
        shrunk = shrink_covariance(decomp, n, hv)
    e = shrunk.decomposition.eigenvectors
    coef = bstar @ ((e * (1.0 - 1.0 / shrunk.values)) @ e.T @ bundle.q_half)
    return _estimate(bundle, coef, "global",
                     {"h": hv, **notes, "clamp_count": shrunk.clamp_count})


def _component_terms(columns, vectors, values, product, quad):
    """One mixture component's posterior terms on the whitened rows.

    columns is B*' as a contiguous (p, n) array, and the component is
    N(0, U diag(v) U') with U = vectors and v = values.  With its precision
    P = U diag(1/v) U', writes the (p, n) product P B*' into product and the
    quadratic forms b* P b*' of the n rows into quad, and returns the log
    determinant sum(log v).  A component's terms depend on its own fit and
    B* alone, so a component that keeps its fit keeps them bit for bit.
    """
    np.matmul((vectors / values) @ vectors.T, columns, out=product)
    np.einsum("pn,pn->n", product, columns, out=quad)
    return np.sum(np.log(values))


def _log_posteriors(quads, logdets, counts, p):
    """Unnormalized (k, n) log posteriors of n rows of dimension p under k components.

    quads is the (k, n) array of quadratic forms and logdets the (k, 1) log
    determinants that _component_terms gives each component.  A component's
    prior weight is its member count, floored at 1/2 so an emptied component
    stays reachable.  The components run along axis 0, so that reductions
    over them are row reductions.
    """
    floored = np.maximum(counts, 0.5)
    prior = np.log(floored / floored.sum())[:, None]
    return prior - 0.5 * (p * np.log(2.0 * np.pi) + logdets + quads)


def _posterior_weights(logs):
    """Normalize (k, n) log posteriors into columns of component probabilities."""
    weights = logs - np.max(logs, axis=0)
    np.exp(weights, out=weights)
    weights /= np.sum(weights, axis=0)
    return weights


def _sampled_labels(logs, draw):
    """Each row's component: the first index of the maximum of logs[:, i] + draw[i].

    logs is (k, n) and draw (n, k).  k - 1 strict > comparisons, with
    np.maximum carrying the best score so far, give the labels of
    np.argmax(logs + draw.T, axis=0) bit for bit at a fraction of its cost:
    ties, the +inf draws at u = 0 among them, keep the first index, and a
    row of -inf scores takes component 0.  The two differ only on NaN, and
    none reaches the comparison.  Every shrunk value is positive and finite
    (ShrunkCovariance checks), so a log posterior is finite, or -inf where
    its quadratic form overflows, and a draw -log(-log(1 - u)) with
    1 - u >= 2**-53 lies in [-3.61, +inf].  A NaN score, -inf + inf, would
    need a quadratic form past 1e308 (a row some 1e154 times the scale of
    the component's members) and a u = 0 draw in the same cell.
    """
    scores = logs + draw.T
    best = scores[0]
    labels = np.zeros(scores.shape[1], dtype=int)
    for comp in range(1, scores.shape[0]):
        np.putmask(labels, scores[comp] > best, comp)
        np.maximum(best, scores[comp], out=best)
    return labels


def _component_shrunk(rows):
    """Shrink one component's second moment, allowing the p >= count regime."""
    count, p = rows.shape
    decomp = eigh(rows.T @ rows / count)
    return _shrink_spectrum(decomp, count, default_bandwidth(count, p))


def _components_shrunk(blocks):
    """Shrink the second moments of several components as one stack.

    blocks holds each component's member rows, more than p of them.  One
    eigh of the (m, p, p) stack of Grams and one rule with each component's
    n and h on the leading axis give, bit for bit, what _component_shrunk
    gives each block alone.  Raises SingularityError if any spectrum of the
    stack is rejected.
    """
    counts = np.array([rows.shape[0] for rows in blocks])
    decomp = eigh(np.stack([rows.T @ rows / rows.shape[0] for rows in blocks]))
    return _shrink_spectrum(decomp, counts, [default_bandwidth(c, decomp.dim) for c in counts])


def _initial_labels(standardized, k):
    """Rank rows by norm and cut into k contiguous, near-equal groups."""
    norms = np.linalg.norm(standardized, axis=1)
    order = np.argsort(norms, kind="stable")
    labels = np.empty(standardized.shape[0], dtype=int)
    for g, chunk in enumerate(np.array_split(order, k)):
        labels[chunk] = g
    return labels


def _mixture_sweeps(standardized, labels, gumbels, burn_in):
    """Run the label sweeps on the whitened rows B* with explicit Gumbel variates.

    gumbels is an iterable of per-sweep (rows, components) draws, consumed
    one at a time (a 3-d array iterates as one); each draw is used up before
    the next is requested, so the iterable may yield one reused buffer.
    Sweep s resamples labels by the first argmax_k of (log posterior
    numerator + draw_s[:, k]), taken by _sampled_labels, so permuting the
    component axis together with the initial labels permutes the whole
    trajectory.  Returns E[B* P], the post-burn-in average of the
    posterior-mean term sum_k w_k b* P_k (P_k the component precisions, the
    products P_k B*' from _component_terms), built up as a (p, n) array and
    returned as its (n, p) transpose, and a diagnostics dict.

    Guarantee: the result and the diagnostics are bit-identical to refitting
    every component on its own on every sweep.  Only what the new labels
    change is recomputed.  A component whose member mask is unchanged keeps
    its fit (spectrum, shrunk values, pooled fallback or not, clamp count)
    and its product, quadratic forms and log determinant.  These come from
    a product of the component's own, since a block of one product shared
    by all components need not match the product alone bit for bit.
    `reused_fits` counts the kept components, and a kept fit still adds its
    pooled reset and clamps on every sweep.  Two or more refitted components
    with more than p members are fitted as one stack by _components_shrunk;
    when any spectrum of the stack is rejected they go one at a time, so
    only the rejected one takes the pooled fit, as does any component below
    two members.  A sweep in which no component changed reuses the last log
    posteriors and posterior-mean term and does only the draw, the
    accumulation and the labels; `frozen_sweeps` counts these.  Working
    memory is one (p, n) copy of B*', the (k, p, n) products, a (p, n)
    average, and one byte per row and component for the masks, whatever
    the sweep count.
    """
    n, p = standardized.shape
    columns = np.ascontiguousarray(standardized.T)
    labels = np.asarray(labels, dtype=int).copy()
    pooled = _component_shrunk(standardized)
    accum = np.zeros((p, n))
    k = None
    kept = pooled_resets = clamp_total = frozen_sweeps = reused_fits = 0
    for sweeps, draw in enumerate(gumbels, start=1):
        draw = np.asarray(draw, dtype=float)
        if k is None and draw.ndim == 2:
            k = draw.shape[1]
            products, quads, logdets = np.empty((k, p, n)), np.empty((k, n)), np.empty((k, 1))
            keys, resets, clamps = [None] * k, [False] * k, [0] * k
        if draw.shape != (n, k) or k < 1:
            raise DimensionError("each Gumbel draw must be (rows, components)")
        refits = {}
        for comp in range(k):
            mask = labels == comp
            key = mask.tobytes()  # bytes compare by memcmp, far cheaper than np.array_equal
            if key == keys[comp]:
                reused_fits += 1
            else:
                keys[comp] = key
                refits[comp] = standardized[mask]
        changed = bool(refits)
        stack = [comp for comp, rows in refits.items() if rows.shape[0] > p]
        if len(stack) > 1:
            try:
                shrunk = _components_shrunk([refits[comp] for comp in stack])
            except SingularityError:
                pass
            else:
                for i, comp in enumerate(stack):
                    logdets[comp] = _component_terms(
                        columns, shrunk.decomposition.eigenvectors[i], shrunk.values[i],
                        products[comp], quads[comp])
                    resets[comp], clamps[comp] = False, int(shrunk.clamp_count[i])
                    del refits[comp]
        for comp, rows in refits.items():
            shrunk = pooled
            if rows.shape[0] >= 2:
                try:
                    shrunk = _component_shrunk(rows)
                except SingularityError:
                    pass
            logdets[comp] = _component_terms(columns, shrunk.decomposition.eigenvectors,
                                             shrunk.values, products[comp], quads[comp])
            resets[comp], clamps[comp] = shrunk is pooled, shrunk.clamp_count
        pooled_resets += sum(resets)
        clamp_total += sum(clamps)
        if changed:
            term = None
            logs = _log_posteriors(quads, logdets, np.bincount(labels, minlength=k), p)
        else:
            frozen_sweeps += 1
        if sweeps > burn_in:
            if term is None:
                term = np.einsum("kn,kpn->pn", _posterior_weights(logs), products)
            accum += term
            kept += 1
        labels = _sampled_labels(logs, draw)

    if kept < 1:
        raise DomainError("burn-in leaves no sweeps to average")
    diagnostics = {
        "sweeps": sweeps,
        "burn_in": burn_in,
        "pooled_resets": pooled_resets,
        "clamp_count": clamp_total,
        "final_component_sizes": np.bincount(labels, minlength=k).tolist(),
        "frozen_sweeps": frozen_sweeps,
        "reused_fits": reused_fits,
    }
    accum /= kept
    return accum.T, diagnostics


def _gumbel_draws(rng, sweeps, rows, components):
    """Yield one (rows, components) array of standard Gumbel variates per sweep.

    Each draw is G = -log(-log(1 - u)) over u = rng.random, numpy's own
    formula for gumbel(0, 1), computed in place in one buffer that every
    sweep reuses: a yielded draw is valid only until the next one is
    requested.  The stream is that of one up-front -log(-log(1 -
    rng.random((sweeps, rows, components)))).  It differs from
    rng.gumbel(size=(sweeps, rows, components)) only by the rounding of the
    vectorized log (about 0.4% of entries by at most a few units in the last
    place, none where numpy falls back to libm) and at u = 0, where
    Generator.gumbel would draw again and this gives +inf: that row takes
    the first component whose u is 0.
    """
    draw = np.empty((rows, components))
    for _ in range(sweeps):
        rng.random(out=draw)
        np.subtract(1.0, draw, out=draw)
        np.log(draw, out=draw)
        np.negative(draw, out=draw)
        with np.errstate(divide="ignore"):  # -log(1 - 0) = -0, whose log is -inf
            np.log(draw, out=draw)
        np.negative(draw, out=draw)
        yield draw


def _require_seed(seed):
    """Reject a negative integer seed as a DomainError; numpy raises a bare ValueError."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DomainError("seed must be a non-negative integer, got %d" % seed)


def _check_chain(sweeps, burn_in):
    """The sampler chain's (sweeps, burn_in) as ints, if 0 <= burn_in < sweeps.

    Raises DomainError for non-integers and for a burn-in that would leave
    no sweep to average.
    """
    sweeps = require_integer(sweeps, "sweeps and burn_in must be integers")
    burn_in = require_integer(burn_in, "sweeps and burn_in must be integers")
    if burn_in < 0 or burn_in >= sweeps:
        raise DomainError("need 0 <= burn_in < sweeps")
    return sweeps, burn_in


def local_shrink(bundle, n_components, sweeps=200, burn_in=50, seed=0):
    """Shrink coefficient rows under a fitted finite scale mixture.

    Rows are assigned latent component labels; each component carries its own
    shrunk covariance of the member rows (per-component bandwidth from the
    member count).  Labels are resampled from the row-wise posterior each
    sweep with a seeded generator, each row taking the first maximum of its
    scores, and the returned coefficients average the per-sweep posterior
    means after burn_in.  Components that empty out or lose their spectrum
    borrow the pooled all-rows covariance for that sweep.  As in
    global_shrink, the sampler sees only the whitened rows B*, and the
    estimate (B* - E[B* P]) Q^1/2 un-whitens once.  The Gumbel variates of
    each sweep come from _gumbel_draws.  The same bundle, arguments and seed
    give bit-identical coefficients and diagnostics.  Working memory is the
    (n_components, p, sources) products and one (p, sources) copy of B*',
    whatever the sweep count; _mixture_sweeps states what a sweep reuses
    (a kept component's fit, product, quadratic forms and log determinant)
    and the `reused_fits` and `frozen_sweeps` counts that the diagnostics
    carry.
    """
    k = require_integer(n_components, "component count must be a positive integer", minimum=1)
    sweeps, burn_in = _check_chain(sweeps, burn_in)
    _require_seed(seed)
    n = bundle.n_sources
    if n < 2 * k:
        raise InsufficientDataError(
            "need at least two rows per component (n=%d, components=%d)" % (n, k)
        )
    bstar = bundle.standardized
    labels = _initial_labels(bstar, k)
    draws = _gumbel_draws(np.random.default_rng(seed), sweeps, n, k)
    term, diagnostics = _mixture_sweeps(bstar, labels, draws, burn_in)
    diagnostics.update(n_components=k, seed=seed)
    return _estimate(bundle, (bstar - term) @ bundle.q_half, "local(%d)" % k, diagnostics)


def predictive_error(coefficients, design, responses):
    """Mean squared prediction error of a coefficient matrix on held-out data."""
    x = as_matrix(design)
    y = as_matrix(responses)
    resid = y - x @ as_matrix(coefficients).T
    return float(np.mean(resid * resid))

