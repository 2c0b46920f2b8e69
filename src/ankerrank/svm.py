"""Binary kernel SVM trained by sequential minimal optimization.

Works on precomputed kernel values; the pipeline feeds it the analogy
kernel on item pairs.  Includes sigmoid (Platt) calibration of decision
values into probabilities and cost selection by repeated internal
cross-validation, whose fold scheme the linear RankSVM baseline shares.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kernel import KernelVariant

logger = logging.getLogger(__name__)

# Logarithmic cost grid replacing a full regularization path: 2^-6 .. 2^6.
DEFAULT_C_GRID: tuple[float, ...] = tuple(2.0**k for k in range(-6, 7, 2))

_ALPHA_SNAP = 1e-12
# Newton line searches (platt_fit here, btl_fit in ranker and RankSVM in
# baselines): Armijo constant and smallest step fraction.
_ARMIJO = 1e-4
_MIN_STEP = 1e-10


@dataclass(frozen=True)
class PlattParams:
    """Parameters of the calibrated sigmoid p = 1 / (1 + exp(a * s + b))."""

    a: float
    b: float


@dataclass(frozen=True)
class SvmModel:
    """A trained binary SVM in dual form.

    ``alpha`` and ``labels`` cover the full training set; ``support`` indexes
    the entries with alpha > 0.  Decision values are
    sum_i alpha_i y_i k(x, x_i) + bias over the support set.  ``converged``
    is False when training stopped at the iteration cap, or on a step that
    could not move, instead of meeting the KKT tolerance.
    """

    alpha: np.ndarray
    labels: np.ndarray
    support: np.ndarray
    bias: float
    C: float
    converged: bool = True
    variant: KernelVariant | None = None
    platt: PlattParams | None = None


def smo_train(kernel, labels, C: float, tol: float = 1e-3,
              max_iter: int = 10_000) -> SvmModel:
    """Solve the soft-margin SVM dual by SMO with maximal-violating-pair selection.

    Args:
        kernel: (n, n) kernel matrix.
        labels: Sequence of n labels in {-1, +1}; both classes required.
        C: Box constraint on the dual variables, finite and > 0.
        tol: KKT violation tolerance used as the stopping criterion.
        max_iter: Cap on working-pair updates.

    Returns:
        SvmModel with 0 <= alpha <= C, sum(alpha * labels) = 0, and the bias
        averaged over unbounded support vectors (midpoint of the feasible
        interval when there are none).  A solve that stops before meeting
        ``tol`` returns ``converged=False`` and logs a warning with the
        iteration count and the KKT violation.
    """
    y = np.asarray(labels, dtype=float)
    n = y.size
    if n < 2:
        raise ValueError("smo_train needs at least two examples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("training set contains a single class")
    if not 0 < C < np.inf:
        raise ValueError("C must be a finite positive number")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    K = np.asarray(kernel, dtype=float)
    if K.shape != (n, n):
        raise ValueError(f"kernel matrix shape {K.shape} does not match {n} labels")
    if not np.all(np.isfinite(K)):
        raise ValueError("kernel values must be finite")

    alpha = np.zeros(n)
    # v = -y * grad, where grad is the gradient of 1/2 a'(yy' * K)a - sum(a).
    # It is updated from columns of K directly, so no second n x n matrix is
    # needed; at alpha = 0 the gradient is -1, so v starts at y.
    v = y.copy()
    snap = _ALPHA_SNAP * max(1.0, C)

    # Feasible-direction masks, maintained incrementally (only the selected
    # pair changes per iteration).
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))

    converged = False
    m_bound = np.inf
    big_m_bound = -np.inf
    for iteration in range(max_iter):
        i = int(np.argmax(np.where(up, v, -np.inf)))
        j = int(np.argmin(np.where(low, v, np.inf)))
        m_bound = v[i]
        big_m_bound = v[j]
        if m_bound - big_m_bound <= tol:
            converged = True
            break

        # Move along alpha_i += y_i t, alpha_j -= y_j t, which preserves
        # sum(alpha * y); the unconstrained optimum is t = (m - M) / eta.
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = (m_bound - big_m_bound) / max(eta, 1e-12)
        limit_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        limit_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        step = min(step, limit_i, limit_j)
        if step <= 0.0:
            logger.warning("SMO stalled at iteration %d (KKT violation %.3e, tolerance %.1e)",
                           iteration, m_bound - big_m_bound, tol)
            break
        delta_i = y[i] * step
        delta_j = -y[j] * step
        alpha[i] += delta_i
        alpha[j] += delta_j
        # Fixed index order keeps float accumulation independent of which
        # element of the pair was selected first.
        first, second = (i, j) if i < j else (j, i)
        deltas = {i: delta_i, j: delta_j}
        v -= K[:, first] * (y[first] * deltas[first])
        v -= K[:, second] * (y[second] * deltas[second])
        for t in (i, j):
            if alpha[t] < snap:
                alpha[t] = 0.0
            elif alpha[t] > C - snap:
                alpha[t] = C
            up[t] = (y[t] > 0 and alpha[t] < C) or (y[t] < 0 and alpha[t] > 0)
            low[t] = (y[t] > 0 and alpha[t] > 0) or (y[t] < 0 and alpha[t] < C)
    else:
        logger.warning("SMO stopped unconverged at the iteration cap (%d) "
                       "(KKT violation %.3e, tolerance %.1e)", max_iter, m_bound - big_m_bound, tol)

    free = (alpha > 0.0) & (alpha < C)
    if np.any(free):
        bias = float(v[free].mean())
    else:
        bias = float((m_bound + big_m_bound) / 2.0)
    support = np.flatnonzero(alpha > 0.0)
    return SvmModel(alpha=alpha, labels=y, support=support, bias=bias, C=float(C),
                    converged=converged)


def decision_values(model: SvmModel, kernel_rows) -> np.ndarray:
    """Vectorized decision values; ``kernel_rows`` is (m, n_support)."""
    rows = np.asarray(kernel_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.support.size:
        raise ValueError(f"kernel rows have shape {rows.shape}, expected (m, {model.support.size})")
    coeffs = model.alpha[model.support] * model.labels[model.support]
    return rows @ coeffs + model.bias


def platt_fit(decisions, labels, max_iter: int = 100, tol: float = 1e-10) -> PlattParams:
    """Fit the calibration sigmoid by Newton iterations with backtracking.

    Minimizes the cross-entropy against prior-corrected targets
    (N+ + 1) / (N+ + 2) and 1 / (N- + 2), which regularizes the fit on
    separable data.
    """
    s = np.asarray(decisions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("decisions and labels must be 1-D and equally long")
    if not np.all(np.isfinite(s)):
        raise ValueError("decision values must be finite")
    n_pos = int(np.sum(y > 0))
    n_neg = int(np.sum(y < 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("platt_fit needs both classes")
    target = np.where(y > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def objective(a: float, b: float) -> float:
        z = a * s + b
        # log(1 + exp(-|z|)) + positive part, stable for large |z|
        return float(np.sum(np.where(z >= 0, target * z + np.log1p(np.exp(-z)),
                                     (target - 1.0) * z + np.log1p(np.exp(z)))))

    a = 0.0
    b = float(np.log((n_neg + 1.0) / (n_pos + 1.0)))
    value = objective(a, b)
    sigma = 1e-12  # Hessian ridge
    for _ in range(max_iter):
        z = a * s + b
        p = np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))
        q = 1.0 - p
        d1 = target - p
        grad_a = float(np.dot(s, d1))
        grad_b = float(np.sum(d1))
        if abs(grad_a) < tol and abs(grad_b) < tol:
            break
        w = p * q
        h11 = float(np.dot(s * s, w)) + sigma
        h22 = float(np.sum(w)) + sigma
        h12 = float(np.dot(s, w))
        det = h11 * h22 - h12 * h12
        step_a = -(h22 * grad_a - h12 * grad_b) / det
        step_b = -(h11 * grad_b - h12 * grad_a) / det
        gain = grad_a * step_a + grad_b * step_b

        stepsize = 1.0
        while stepsize >= _MIN_STEP:
            new_a = a + stepsize * step_a
            new_b = b + stepsize * step_b
            new_value = objective(new_a, new_b)
            if new_value < value + _ARMIJO * stepsize * gain:
                a, b, value = new_a, new_b, new_value
                break
            stepsize /= 2.0
        else:
            logger.debug("Platt line search failed; keeping current parameters")
            break
    return PlattParams(a=a, b=b)


def platt_prob(params: PlattParams, decision):
    """Calibrated probability 1 / (1 + exp(a * s + b)), clipped to (0, 1).

    Accepts a scalar or an array of decision values.
    """
    s = np.asarray(decision, dtype=float)
    # |z| > 40 already saturates past the output clip, so clipping z first
    # keeps exp() in range without changing any result.
    z = np.clip(params.a * s + params.b, -40.0, 40.0)
    p = np.clip(1.0 / (1.0 + np.exp(z)), 1e-12, 1.0 - 1e-12)
    if np.isscalar(decision) or np.ndim(decision) == 0:
        return float(p)
    return p


def _cv_splits(labels, folds: int = 2, repeats: int = 3,
               seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """(fit, validation) index arrays of repeated stratified cross-validation.

    In each repeat every class is shuffled and dealt round-robin to the
    folds.  Splits with an empty side are left out.
    """
    y = np.asarray(labels, dtype=float)
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(repeats):
        assignment = np.empty(y.size, dtype=int)
        for cls in (-1.0, 1.0):
            members = rng.permutation(np.flatnonzero(y == cls))
            assignment[members] = np.arange(members.size) % folds
        for fold in range(folds):
            val, fit = np.flatnonzero(assignment == fold), np.flatnonzero(assignment != fold)
            if val.size and fit.size:
                splits.append((fit, val))
    return splits


def select_c(kernel: np.ndarray, labels, grid=DEFAULT_C_GRID, folds: int = 2,
             repeats: int = 3, seed: int = 0, tol: float = 1e-3) -> float:
    """Pick the cost with the lowest mean 0/1 validation error.

    Runs ``repeats`` rounds of stratified ``folds``-fold cross-validation on
    the precomputed kernel; ties go to the smallest cost.
    """
    grid = sorted(float(c) for c in grid)
    if not grid:
        raise ValueError("the cost grid must not be empty")
    if len(grid) == 1:
        return grid[0]
    y = np.asarray(labels, dtype=float)
    K = np.asarray(kernel, dtype=float)
    splits = [(fit, val) for fit, val in _cv_splits(y, folds, repeats, seed)
              if np.any(y[fit] > 0) and np.any(y[fit] < 0)]
    if not splits:
        logger.debug("too few examples per class for cross-validation; using the smallest cost")
        return grid[0]

    errors = np.zeros(len(grid))
    for fit, val in splits:
        sub_kernel = K[np.ix_(fit, fit)]
        sub_labels = y[fit]
        for g, cost in enumerate(grid):
            model = smo_train(sub_kernel, sub_labels, cost, tol=tol)
            rows = K[np.ix_(val, fit[model.support])]
            predicted = np.where(decision_values(model, rows) > 0, 1.0, -1.0)
            errors[g] += float(np.mean(predicted != y[val]))
    errors /= len(splits)
    return grid[int(np.argmin(errors))]
