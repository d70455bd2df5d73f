"""Multi-source linear regression with covariance-shrinkage coefficient pooling.

A bundle holds one shared design X (N samples by p predictors) and one
response per source (N by n).  Per-source least squares gives a coefficient
matrix whose rows are then shrunk toward zero along directions learned from
the cross-source spread, either with a single pooled covariance (global) or
with a finite scale mixture fitted by a seeded Gibbs-style sampler (local).
"""

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    NumericalError,
    RegimeError,
    SingularityError,
)
from .shrinkage import (ShrunkCovariance, _shrink_spectrum, default_bandwidth,
                        shrink_covariance)
from .spectral import as_matrix, eigh, symmetrize
from .tuning import default_bandwidth_grid, select_bandwidth

MAX_DESIGN_CONDITION = 1e12
NOISE_FLOOR = 1e-12


class SourceBundle:
    """Shared design plus per-source responses, validated and factorized once.

    `factor` is the thin SVD X = U diag(s) V' (numpy's (U, S, Vh) result,
    singular values descending); least squares, the collinearity check and
    the noise model's whitening factors all come from it.  The design is
    rejected as collinear when cond(X'X) = (s_max / s_min)^2 reaches
    MAX_DESIGN_CONDITION.  `design` and `responses` are read-only views,
    because the factor and the least-squares fit that fit_ols keeps on the
    bundle are computed from them once.
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
        factor = np.linalg.svd(x, full_matrices=False)
        s = factor.S
        # (s_max / s_min)^2 >= MAX without dividing, so s_min = 0 is caught too
        if s[-1] * np.sqrt(MAX_DESIGN_CONDITION) <= s[0]:
            raise SingularityError("design is numerically collinear")
        self.design = _read_only(x)
        self.responses = _read_only(y)
        self.n_samples = samples
        self.n_predictors = predictors
        self.n_sources = sources
        self.factor = factor
        self._ols = None


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


class NoiseModel:
    """Pooled noise scale and the whitening factors of the coefficient noise.

    Built from sigma2 and the design's right singular vectors V (columns)
    and singular values s: the coefficient noise covariance is
    Q = sigma2 (X'X)^-1 = V diag(sigma2 / s^2) V', and Q^1/2, Q^-1/2 scale
    the columns of V by sqrt(sigma2) / s and s / sqrt(sigma2).  Q itself is
    never formed.  Both factors are symmetrized, because standardize uses
    b Q^-1/2 for the whitening Q^-1/2 b of each row, and the mixture
    sampler magnifies round-off in the whitened rows by the condition of
    its component precisions.
    """

    def __init__(self, sigma2, vectors, singular_values):
        self.sigma2 = float(sigma2)
        v = np.asarray(vectors, dtype=float)
        s = np.asarray(singular_values, dtype=float)
        root = np.sqrt(self.sigma2) / s
        self.q_half = symmetrize((v * root) @ v.T)
        self.q_half_inv = symmetrize((v / root) @ v.T)


class CoefficientEstimate:
    """Coefficient matrix (sources by predictors) with its provenance."""

    def __init__(self, coefficients, method, diagnostics=None):
        self.coefficients = as_matrix(coefficients)
        self.method = str(method)
        self.diagnostics = dict(diagnostics or {})


def fit_ols(bundle):
    """Per-source least squares; returns (estimate, noise model).

    Coefficient rows are beta_hat = V diag(1/s) U' y for each source, from
    the bundle's thin SVD, so the error grows with cond(X) and not with
    cond(X)^2 as through the normal equations.  The noise variance is pooled
    across sources (mean of per-source residual variances with denominator
    N - p) and floored at NOISE_FLOOR; the coefficient noise covariance is
    sigma2 (X'X)^-1.  The fit is computed at the first call on a bundle and
    kept on it, with read-only arrays, so every estimator that starts from
    least squares shares one fit; each call returns a fresh estimate.
    """
    if bundle._ols is None:
        x, y = bundle.design, bundle.responses
        u, s, vt = bundle.factor
        coef = (vt.T / s) @ (u.T @ y)  # p by n
        # residuals squared in place: one N by n temporary, not three
        squares = x @ coef
        np.subtract(y, squares, out=squares)
        squares *= squares
        dof = bundle.n_samples - bundle.n_predictors
        sigma2 = float(np.mean(np.sum(squares, axis=0) / dof))
        sigma2 = max(sigma2, NOISE_FLOOR)
        noise = NoiseModel(sigma2, vt.T, s)
        noise.q_half.flags.writeable = False
        noise.q_half_inv.flags.writeable = False
        bundle._ols = _read_only(coef.T), noise
    coef, noise = bundle._ols
    return CoefficientEstimate(coef, "ols", {"sigma2": noise.sigma2}), noise


def standardize(estimate, noise):
    """Whiten coefficient rows: each beta_hat is mapped to Q^{-1/2} beta_hat."""
    b = estimate.coefficients
    if b.shape[1] != noise.q_half_inv.shape[0]:
        raise DimensionError("coefficient width does not match the noise model")
    return b @ noise.q_half_inv


def _resolve_bandwidth(decomp, n, p, h):
    """Translate an h policy into (h, policy, fell_back, shrunk).

    Under "auto", shrunk is the spectrum the risk grid already evaluated at
    the chosen h; otherwise it is None and the caller shrinks at h.
    """
    if isinstance(h, str):
        policy = h.lower()
        if policy == "default":
            return default_bandwidth(n, p), policy, False, None
        if policy == "auto":
            if n > p + 1:
                chosen = select_bandwidth(decomp, n, default_bandwidth_grid(n, p))
                best = chosen.estimates[chosen.index]
                shrunk = ShrunkCovariance(decomp, best.values, None, best.clamp_count)
                return chosen.h, policy, False, shrunk
            return default_bandwidth(n, p), policy, True, None
        raise DomainError("unknown bandwidth policy %r" % h)
    hv = float(h)
    if not (hv > 0) or not np.isfinite(hv):
        raise DomainError("bandwidth must be positive and finite")
    return hv, "fixed", False, None


def global_shrink(bundle, h="default"):
    """Shrink all coefficient rows with one pooled covariance of the spread.

    h may be a positive number, "default" (closed-form bandwidth), or "auto"
    (risk-minimizing bandwidth when the source count allows it, else the
    default with a fallback note in the diagnostics).
    """
    estimate, noise = fit_ols(bundle)
    bstar = standardize(estimate, noise)
    n, p = bundle.n_sources, bundle.n_predictors
    if p == n:
        raise RegimeError(
            "source count equals predictor count (%d); the pooled rule is undefined" % p
        )
    decomp = eigh(bstar.T @ bstar / n)
    hv, policy, fell_back, shrunk = _resolve_bandwidth(decomp, n, p, h)
    if shrunk is None:
        shrunk = shrink_covariance(decomp, n, hv)
    rotate = noise.q_half @ shrunk.inverse() @ noise.q_half_inv
    coef = estimate.coefficients @ (np.eye(p) - rotate).T
    if not np.all(np.isfinite(coef)):
        raise NumericalError("shrunk coefficients are non-finite")
    diagnostics = {
        "sigma2": noise.sigma2,
        "h": hv,
        "h_policy": policy,
        "h_fallback": fell_back,
        "clamp_count": shrunk.clamp_count,
    }
    return CoefficientEstimate(coef, "global", diagnostics)


def _log_posteriors(standardized, vectors, values, counts, out=None):
    """Unnormalized log posteriors of each row under each mixture component.

    Component c is N(0, U_c diag(v_c) U_c') with U_c = vectors[:, c] of a
    (p, k, p) stack and v_c = values[c]; its prior weight is its member
    count, floored at 1/2 so an emptied component stays reachable.  The
    posterior works in precision form: the k precisions
    P_c = U_c diag(1/v_c) U_c' form one (p, k, p) stack, one product
    b* [P_1 ... P_K] gives every t_c = b* P_c (written into out, an (n, k p)
    buffer, when given), and the quadratic form is b* . t_c.  Returns the
    (k, n) log posteriors, component-major so that reductions over the
    components run along axis 0, and the (n, k, p) view of the t_c, from
    which the posterior mean is built.
    """
    n, p = standardized.shape
    k = values.shape[0]
    floored = np.maximum(counts, 0.5)
    precisions = np.einsum("ikj,lkj->ikl", vectors / values, vectors)
    products = np.matmul(standardized, precisions.reshape(p, k * p), out=out)
    products = products.reshape(n, k, p)
    # summed row-major, the faster order, then copied component-major
    quad = np.einsum("nkp,np->nk", products, standardized).T.copy()
    logdet = np.sum(np.log(values), axis=1)[:, None]
    log_norm = p * np.log(2.0 * np.pi)
    prior = np.log(floored / floored.sum())[:, None]
    return prior - 0.5 * (log_norm + logdet + quad), products


def _posterior_weights(logs):
    """Normalize (k, n) log posteriors into columns of component probabilities."""
    weights = logs - np.max(logs, axis=0)
    np.exp(weights, out=weights)
    weights /= np.sum(weights, axis=0)
    return weights


def _component_shrunk(standardized_rows, count, p):
    """Shrink one component's second moment, allowing the p >= count regime."""
    decomp = eigh(standardized_rows.T @ standardized_rows / count)
    h = default_bandwidth(count, p)
    return _shrink_spectrum(decomp, count, p, h)


def _initial_labels(standardized, k):
    """Rank rows by norm and cut into k contiguous, near-equal groups."""
    norms = np.linalg.norm(standardized, axis=1)
    order = np.argsort(norms, kind="stable")
    labels = np.empty(standardized.shape[0], dtype=int)
    for g, chunk in enumerate(np.array_split(order, k)):
        labels[chunk] = g
    return labels


def _mixture_sweeps(coefficients, standardized, noise, labels, gumbels, burn_in):
    """Run the label/estimate sweeps with explicit Gumbel variates.

    gumbels is an iterable of per-sweep (rows, components) draws, consumed
    one at a time (a 3-d array iterates as one); sweep s resamples labels by
    argmax_k of (log posterior numerator + draw_s[:, k]), so permuting the
    component axis together with the initial labels permutes the whole
    trajectory.  Returns the averaged post-burn-in coefficient matrix and a
    diagnostics dict.

    The posterior-mean row is b - sum_k w_k t_k Q^1/2 with t_k = b* P_k
    from _log_posteriors (P_k the component precision), so each sweep makes
    one product and Q^1/2 is applied once at the end.  The log posteriors
    and weights are (components, rows).  Working memory is
    O(rows * components * p) whatever the sweep count: one (rows,
    components * p) product buffer, allocated once and reused by every sweep.
    """
    n, p = standardized.shape
    labels = np.asarray(labels, dtype=int).copy()
    pooled = _component_shrunk(standardized, n, p)
    accum = np.zeros((n, p))
    k = None
    kept = pooled_resets = clamp_total = 0
    for sweeps, draw in enumerate(gumbels, start=1):
        draw = np.asarray(draw, dtype=float)
        if k is None and draw.ndim == 2:
            k = draw.shape[1]
            buffer = np.empty((n, k * p))
        if draw.shape != (n, k) or k < 1:
            raise DimensionError("each Gumbel draw must be (rows, components)")
        vectors, values = np.empty((p, k, p)), np.empty((k, p))
        for comp in range(k):
            members = standardized[labels == comp]
            shrunk = pooled
            if members.shape[0] >= 2:
                try:
                    shrunk = _component_shrunk(members, members.shape[0], p)
                except SingularityError:
                    pass
            pooled_resets += shrunk is pooled
            clamp_total += shrunk.clamp_count
            vectors[:, comp] = shrunk.decomposition.eigenvectors
            values[comp] = shrunk.values
        counts = np.bincount(labels, minlength=k)
        logs, products = _log_posteriors(standardized, vectors, values, counts, buffer)
        if sweeps > burn_in:
            accum += np.einsum("kn,nkp->np", _posterior_weights(logs), products)
            kept += 1
        labels = np.argmax(logs + draw.T, axis=0)

    if kept < 1:
        raise DomainError("burn-in leaves no sweeps to average")
    diagnostics = {
        "sweeps": sweeps,
        "burn_in": burn_in,
        "pooled_resets": pooled_resets,
        "clamp_count": clamp_total,
        "final_component_sizes": np.bincount(labels, minlength=k).tolist(),
    }
    return coefficients - (accum / kept) @ noise.q_half, diagnostics


def local_shrink(bundle, n_components, sweeps=200, burn_in=50, seed=0):
    """Shrink coefficient rows under a fitted finite scale mixture.

    Rows are assigned latent component labels; each component carries its own
    shrunk covariance of the member rows (per-component bandwidth from the
    member count).  Labels are resampled from the row-wise posterior each
    sweep with a seeded generator, and the returned coefficients average the
    per-sweep posterior means after burn_in.  Components that empty out or
    lose their spectrum borrow the pooled all-rows covariance for that sweep.
    Each sweep draws its own (sources, n_components) Gumbel block, the same
    values as one up-front (sweeps, sources, n_components) draw.  Each sweep
    weighs the rows in precision form, with one product of the standardized
    rows and all component precisions into a buffer reused by every sweep,
    so working memory is O(sources * n_components * p) whatever the sweep
    count.
    """
    k = int(n_components)
    if k != n_components or k < 1:
        raise DomainError("component count must be a positive integer")
    if int(sweeps) != sweeps or int(burn_in) != burn_in:
        raise DomainError("sweeps and burn_in must be integers")
    sweeps, burn_in = int(sweeps), int(burn_in)
    if sweeps < 1 or burn_in < 0 or burn_in >= sweeps:
        raise DomainError("need 0 <= burn_in < sweeps")
    estimate, noise = fit_ols(bundle)
    n = bundle.n_sources
    if n < 2 * k:
        raise InsufficientDataError(
            "need at least two rows per component (n=%d, components=%d)" % (n, k)
        )
    bstar = standardize(estimate, noise)
    labels = _initial_labels(bstar, k)
    rng = np.random.default_rng(seed)
    gumbels = (rng.gumbel(size=(n, k)) for _ in range(sweeps))
    coef, diagnostics = _mixture_sweeps(
        estimate.coefficients, bstar, noise, labels, gumbels, burn_in
    )
    if not np.all(np.isfinite(coef)):
        raise NumericalError("mixture-shrunk coefficients are non-finite")
    diagnostics.update({"sigma2": noise.sigma2, "n_components": k, "seed": seed})
    return CoefficientEstimate(coef, "local(%d)" % k, diagnostics)


def predictive_error(coefficients, design, responses):
    """Mean squared prediction error of a coefficient matrix on held-out data."""
    x = as_matrix(design)
    y = as_matrix(responses)
    resid = y - x @ as_matrix(coefficients).T
    return float(np.mean(resid * resid))


def select_components(bundle, candidates, holdout=0.2, sweeps=200, burn_in=50, seed=0):
    """Pick the mixture size by holdout prediction error.

    Samples (rows of the design) are split once into train and validation
    with the given seed; each candidate component count is fitted on the
    training part and scored on the validation part.  Ties prefer the
    smaller count.  Returns (best_count, table) where table maps candidate
    to its validation error.
    """
    cands = sorted(set(int(c) for c in candidates))
    if not cands:
        raise DomainError("candidate list is empty")
    if not (0.0 < holdout < 1.0):
        raise DomainError("holdout fraction must lie in (0, 1)")
    total = bundle.n_samples
    n_val = int(round(holdout * total))
    if n_val < 1 or total - n_val <= bundle.n_predictors:
        raise InsufficientDataError(
            "holdout split leaves too few rows (total=%d, validation=%d, p=%d)"
            % (total, n_val, bundle.n_predictors)
        )
    for c in cands:
        if c < 1 or bundle.n_sources < 2 * c:
            raise DomainError(
                "candidate %d violates the sampler preconditions (n=%d)"
                % (c, bundle.n_sources)
            )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(total)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train = SourceBundle(bundle.design[train_idx], bundle.responses[train_idx])
    x_val, y_val = bundle.design[val_idx], bundle.responses[val_idx]

    table = {}
    for i, c in enumerate(cands):
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        fit = local_shrink(
            train, c, sweeps=sweeps, burn_in=burn_in,
            seed=child.generate_state(1)[0],
        )
        table[c] = predictive_error(fit.coefficients, x_val, y_val)
    best = min(cands, key=lambda c: (table[c], c))
    return best, table
