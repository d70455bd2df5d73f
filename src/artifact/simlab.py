"""Synthetic multi-source experiment harness.

Generates designs with equicorrelated predictors, coefficient matrices from
four canonical families, Gaussian responses, and runs estimator comparisons
with seeded, reproducible replication streams.  Metrics are normalized
squared error of the coefficient matrix and squared prediction error on a
fresh design.
"""

import numpy as np

from .errors import DomainError, require_integer
from .regress import SourceBundle, _require_seed, fit_ols, global_shrink, local_shrink
from .shrinkage import empirical_loss
from .spectral import require_positive_definite, sample_covariance, symmetrize
from .tuning import BLOCK_TERMS, default_bandwidth_grid, select_bandwidth

COEFFICIENT_DESIGNS = ("low-rank", "all-small", "heavy-tail", "scale-mixture")
LOW_RANK = 8
N_FACTORS = 5  # loadings of the prial experiment's factor-model covariance
SMALL_SCALE = 0.2
MIXTURE_SCALES = (0.1, 10.0)


def _require_rho(rho):
    if not (0.0 <= rho < 1.0):
        raise DomainError("rho must lie in [0, 1)")


def equicorrelated_design(n_samples, n_predictors, rho, rng):
    """Design rows drawn N(0, (1 - rho) I + rho J)."""
    _require_rho(rho)
    cov = (1.0 - rho) * np.eye(n_predictors) + rho * np.ones(
        (n_predictors, n_predictors)
    )
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((n_samples, n_predictors)) @ chol.T


def coefficient_matrix(kind, n_sources, n_predictors, rng):
    """Draw the true coefficient matrix (sources by predictors)."""
    n, p = n_sources, n_predictors
    if kind == "low-rank":
        r = min(LOW_RANK, n, p)
        left = rng.standard_normal((n, r))
        right = rng.standard_normal((p, r))
        return left @ right.T
    if kind == "all-small":
        return SMALL_SCALE * rng.standard_normal((n, p))
    if kind == "heavy-tail":
        # one global scale, one heavy-tailed scale per predictor shared by all sources
        tau = rng.random()
        lam = np.abs(rng.standard_cauchy(p))
        return rng.standard_normal((n, p)) * (tau * lam)[None, :]
    if kind == "scale-mixture":
        low, high = MIXTURE_SCALES
        scale = np.where(rng.random(n) < 0.5, low, high)
        return rng.standard_normal((n, p)) * scale[:, None]
    raise DomainError("unknown coefficient design %r" % (kind,))


def simulate_sources(kind, n_sources, n_predictors, rho=0.5, n_samples=200,
                     n_test=20, rng=None):
    """One synthetic replication: bundle, truth, and a held-out design."""
    _require_seed(rng)
    rng = np.random.default_rng(rng)
    x = equicorrelated_design(n_samples, n_predictors, rho, rng)
    truth = coefficient_matrix(kind, n_sources, n_predictors, rng)
    noise = rng.standard_normal((n_samples, n_sources))
    responses = x @ truth.T + noise
    x_test = equicorrelated_design(n_test, n_predictors, rho, rng)
    return SourceBundle(x, responses), truth, x_test


def matrix_error(coefficients, truth):
    """Mean squared entry error of the coefficient matrix."""
    diff = np.asarray(coefficients, dtype=float) - np.asarray(truth, dtype=float)
    return float(np.mean(diff * diff))


def design_error(coefficients, truth, design):
    """Mean squared prediction gap on a held-out design (noise-free)."""
    diff = np.asarray(coefficients, dtype=float) - np.asarray(truth, dtype=float)
    gap = np.asarray(design, dtype=float) @ diff.T
    return float(np.mean(gap * gap))


def _component_count(name):
    """K of a method token local-K, K a positive count in ASCII decimal
    digits, or None for ols, global and global-sure; DomainError otherwise."""
    if name in ("ols", "global", "global-sure"):
        return None
    if not name.startswith("local-"):
        raise DomainError(
            "unknown method %r (expected ols, global, global-sure, or local-K)" % name)
    digits = name[len("local-"):]
    if not (digits.isascii() and digits.isdigit()):
        raise DomainError("bad component count in method %r" % name)
    if int(digits) < 1:
        raise DomainError("component count must be positive in %r" % name)
    return int(digits)


def parse_method(name):
    """Validate a method token: ols, global, global-sure, or local-K."""
    _component_count(name)
    return name


def parse_methods(names):
    """Validate a method list: at least one token, each parses, and none names
    an estimator named before it (local-2 and local-02 are one)."""
    names, seen = list(names), {}
    if not names:
        raise DomainError("need at least one method")
    for name in names:
        key = _component_count(name) or name  # K for local-K, else the name
        if key in seen:
            raise DomainError("method %r repeats %r" % (name, seen[key]))
        seen[key] = name
    return names


def estimate_with_method(bundle, method, seed=0, sweeps=200, burn_in=50, h="default"):
    """Dispatch one estimator by its method token.

    h is the bandwidth policy of "global"; "global-sure" always tunes, and
    seed, sweeps and burn_in reach only the local-K mixture sampler.
    """
    k = _component_count(method)
    if k is not None:
        return local_shrink(bundle, k, sweeps=sweeps, burn_in=burn_in, seed=seed)
    if method == "ols":
        return fit_ols(bundle)
    return global_shrink(bundle, "auto" if method == "global-sure" else h)


class ExperimentResult:
    """Tidy per-replication records with recomputable summaries."""

    COLUMNS = ("design", "n_sources", "n_predictors", "rho", "method",
               "replication", "mse", "pe")

    def __init__(self, records):
        self.records = list(records)

    def values(self, method, metric):
        return np.array([r[metric] for r in self.records if r["method"] == method])

    def summary(self):
        """Mean and sample sd of each metric per method."""
        methods = sorted({r["method"] for r in self.records})
        out = {}
        for m in methods:
            for metric in ("mse", "pe"):
                vals = self.values(m, metric)
                sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
                out[(m, metric)] = (float(np.mean(vals)), sd)
        return out


def _replication_seed(seed, *key):
    return np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))


def check_experiment(n_sources, n_predictors, rho, n_samples, n_test, methods, reps, seed):
    """The checks of run_experiment's arguments that need no data: DomainError
    unless the methods pass parse_methods, the counts of replications, test
    samples, sources, predictors and samples are whole numbers of at least
    one (NaN is not), rho lies in [0, 1) and the seed is a non-negative
    integer."""
    parse_methods(methods)
    for count in (reps, n_test):
        require_integer(count, "need at least one replication and test sample", minimum=1)
    for size in (n_sources, n_predictors, n_samples):
        require_integer(size, "need at least one source, predictor and sample", minimum=1)
    _require_rho(rho)
    _require_seed(seed)


def run_experiment(kind, n_sources, n_predictors, rho=0.5, n_samples=200,
                   n_test=20, methods=("ols", "global"), reps=20, seed=0,
                   sweeps=200, burn_in=50):
    """Replicate one design cell across methods with a split seed stream.

    Replication r draws data from spawn key (r, 0) of the root seed and
    method m (by position) samples from spawn key (r, m + 1), so adding or
    reordering methods never changes the data nor the other methods' results.
    """
    methods = list(methods)
    check_experiment(n_sources, n_predictors, rho, n_samples, n_test, methods, reps, seed)
    records = []
    for rep in range(int(reps)):
        data_rng = np.random.default_rng(_replication_seed(seed, rep, 0))
        bundle, truth, x_test = simulate_sources(
            kind, n_sources, n_predictors, rho, n_samples, n_test, data_rng
        )
        for m_idx, method in enumerate(methods):
            child = _replication_seed(seed, rep, m_idx + 1)
            fit = estimate_with_method(
                bundle, method, seed=child.generate_state(1)[0],
                sweeps=sweeps, burn_in=burn_in,
            )
            records.append({
                "design": kind,
                "n_sources": n_sources,
                "n_predictors": n_predictors,
                "rho": rho,
                "method": method,
                "replication": rep,
                "mse": matrix_error(fit.coefficients, truth),
                "pe": design_error(fit.coefficients, truth, x_test),
            })
    return ExperimentResult(records)


def factor_model(p, rng=None):
    """Population covariance Xi Xi' + I with N_FACTORS standard normal factor
    loadings Xi, and its inverse.

    The inverse comes from the loadings by Woodbury, I - Xi (I + Xi'Xi)^-1
    Xi', symmetrized: one N_FACTORS x N_FACTORS solve in place of a p x p
    factorization.
    """
    loadings = np.random.default_rng(rng).standard_normal((p, N_FACTORS))
    core = np.eye(N_FACTORS) + loadings.T @ loadings
    inverse = symmetrize(np.eye(p) - loadings @ np.linalg.solve(core, loadings.T))
    return loadings @ loadings.T + np.eye(p), inverse


def prial_cells(np_product, aspect_ratios, reps, policies, seed):
    """The (p, n) of each aspect ratio's prial cell, after the checks of
    prial_experiment's arguments that need no data.

    DomainError unless there is at least one aspect ratio and known policy,
    the replication count is a whole number of at least one, np_product and
    every aspect ratio are positive and finite, every cell has n > p + 1,
    and the seed is a non-negative integer.
    """
    policies = list(policies)
    for pol in policies:
        if pol not in ("default", "sure", "oracle"):
            raise DomainError("unknown bandwidth policy %r" % (pol,))
    counts = "need at least one aspect ratio, policy and replication"
    if not (len(aspect_ratios) and policies):
        raise DomainError(counts)
    require_integer(reps, counts, minimum=1)
    if not (np_product > 0 and all(np.isfinite(c) and c > 0 for c in aspect_ratios)):
        raise DomainError("np_product and aspect ratios must be positive and finite")
    _require_seed(seed)
    cells = []
    for c in aspect_ratios:
        p = int(round(np.sqrt(c * np_product)))
        n = int(round(p / c))
        if n <= p + 1:
            raise DomainError(
                "aspect ratio %g leaves no room for risk estimation (n=%d, p=%d)"
                % (c, n, p)
            )
        cells.append((p, n))
    return cells


def prial_experiment(np_product=2000, aspect_ratios=(0.3, 0.5, 0.7), reps=100,
                     seed=0, policies=("default", "sure", "oracle"), grid_size=15):
    """Percentage improvement over the raw inverse, per aspect ratio and policy.

    For each aspect ratio c, the cell uses p = round(sqrt(c * np_product)) and
    n = round(p / c) (prial_cells), a factor-model covariance drawn once with
    its inverse from the loadings (factor_model), and common random numbers
    across bandwidth policies.  The oracle minimizes the Monte Carlo
    mean loss over the shared grid (which contains the default bandwidth at
    its center), so its improvement is 100 by construction and the default
    policy can never exceed it.  The sure policy picks a bandwidth per
    replication from the risk estimate, which is unbiased but noisy: the
    policy is asymptotically optimal, but at small n - p - 1 it can trail the
    default.  A nonpositive denominator flags the cell undefined.

    Replications are scored in chunks of up to BLOCK_TERMS // p^2 (at least
    one), so the stacked p x p arrays of a chunk stay within the risk grid's
    term budget.  Each replication draws from its own seed stream and forms
    its own S; then one stacked eigh factors the chunk's matrices (the only
    eigh of the cell, one per replication), one
    select_bandwidth call tunes them all, and one empirical_loss call scores
    them: the risk grid already evaluates the rule at every grid bandwidth,
    and the raw inverse and every grid estimate keep S's eigenvectors, so
    each S needs a single rotation of the true inverse.  Every number equals
    what one replication at a time would give.  A singular sample
    covariance raises SingularityError, as the raw inverse is undefined.
    """
    policies = list(policies)
    cells = prial_cells(np_product, aspect_ratios, reps, policies, seed)
    reps = int(reps)
    records = []
    for ci, (c, (p, n)) in enumerate(zip(aspect_ratios, cells)):
        cell_rng = np.random.default_rng(_replication_seed(seed, ci, 0))
        cov, truth_inv = factor_model(p, cell_rng)
        chol = np.linalg.cholesky(cov)
        grid = default_bandwidth_grid(n, p, grid_size)
        mid = int(grid_size) // 2

        raw_losses = np.empty(reps)
        grid_losses = np.empty((reps, grid.size))
        sure_losses = np.empty(reps)
        chunk = max(1, BLOCK_TERMS // (p * p))
        for first in range(0, reps, chunk):
            part = slice(first, min(first + chunk, reps))
            s = np.empty((part.stop - first, p, p))
            for k in range(s.shape[0]):
                rng = np.random.default_rng(_replication_seed(seed, ci, first + k + 1))
                s[k] = sample_covariance(rng.standard_normal((n, p)) @ chol.T)
            decomp = require_positive_definite(s, "inverse")
            del s  # freed before the risk grid allocates its buffers
            chosen = select_bandwidth(decomp, n, grid)
            # row 0 of each replication is the raw inverse, row 1 + i the
            # estimate at grid[i]
            inverse_values = 1.0 / np.concatenate(
                [decomp.eigenvalues[:, None, :], chosen.values], axis=1)
            losses = empirical_loss(truth_inv, decomp, inverse_values)
            raw_losses[part] = losses[:, 0]
            grid_losses[part] = losses[:, 1:]
            sure_losses[part] = losses[np.arange(losses.shape[0]), 1 + chosen.index]

        mean_raw = float(np.mean(raw_losses))
        mean_grid = np.mean(grid_losses, axis=0)
        oracle_idx = int(np.argmin(mean_grid))
        denominator = mean_raw - float(mean_grid[oracle_idx])
        policy_means = {
            "default": float(mean_grid[mid]),
            "sure": float(np.mean(sure_losses)),
            "oracle": float(mean_grid[oracle_idx]),
        }
        for pol in policies:
            mean_loss = policy_means[pol]
            undefined = denominator <= 0
            prial = np.nan if undefined else 100.0 * (mean_raw - mean_loss) / denominator
            records.append({
                "aspect": float(c),
                "n": n,
                "p": p,
                "policy": pol,
                "prial": float(prial),
                "mean_loss": mean_loss,
                "raw_mean_loss": mean_raw,
                "oracle_h": float(grid[oracle_idx]),
                "undefined": bool(undefined),
            })
    return records
