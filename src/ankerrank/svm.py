"""Binary kernel SVM trained by sequential minimal optimization.

Works on precomputed kernel values and knows nothing of the kernel; the
pipeline feeds it the analogy kernel on pair differences.  Includes sigmoid
(Platt) calibration of decision values into probabilities and cost
selection by repeated internal cross-validation, the one cost search that
the linear RankSVM baseline shares.

``_newton_minimize`` is the one damped Newton loop of the package: the
Platt fit here, the Bradley-Terry-Luce fit in ``ranker`` and the RankSVM
fit in ``baselines`` only define their gradient, Newton direction and
objective change, and share its line search, warning and stopping rule.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

logger = logging.getLogger(__name__)

# Logarithmic cost grid replacing a full regularization path: 2^-6 .. 2^6.
DEFAULT_C_GRID: tuple[float, ...] = tuple(2.0**k for k in range(-6, 7, 2))

_ALPHA_SNAP = 1e-12
_CV_REPEATS, _CV_FOLDS = 3, 2  # cost selection: 3 repeats of stratified 2-fold CV
# After the first repeat the search keeps a cost only if fewer than this many
# costs have a lower error sum; len(DEFAULT_C_GRID) keeps every cost.
_CV_KEEP = 3
# KKT tolerance of the cost search's solves, which only rank the grid by
# validation mistakes; the model that is kept is solved to smo_train's 1e-3.
_CV_TOL = 1e-2
# Every Newton fit's stopping rule, read by _newton_minimize alone: converged
# gradient max-norm, step cap.
_NEWTON_TOL, _NEWTON_MAX_STEPS = 1e-10, 100
# The Newton line search: Armijo constant and smallest step fraction.
_ARMIJO = 1e-4
_MIN_STEP = 1e-10
# np.einsum sums a row of up to 8 192 entries (its iterator buffer) in one
# pass whose rounding does not depend on the other rows of the block.
_ROW_PIECE = 8192


@dataclass(frozen=True)
class PlattParams:
    """Parameters of the calibrated sigmoid p = 1 / (1 + exp(a * s + b)).

    ``steps`` counts the Newton steps of the fit, and ``converged`` is False
    when it stopped at the step cap or on a step that could not lower the
    objective.
    """

    a: float
    b: float
    steps: int = 0
    converged: bool = True


@dataclass(frozen=True)
class SvmModel:
    """A trained binary SVM in dual form.

    ``alpha`` and ``labels`` cover the full training set; ``support`` indexes
    the entries with alpha > 0.  Decision values are
    sum_i alpha_i y_i k(x, x_i) + bias over the support set.
    ``iterations`` counts the working-pair updates taken, and
    ``kkt_violation`` is the maximal violation m - M at the returned alpha.
    ``converged`` is True exactly when that violation is at most the
    tolerance; a solve that stops at the iteration cap, or on a step that
    could not move, without meeting it is not converged.
    """

    alpha: np.ndarray
    labels: np.ndarray
    support: np.ndarray
    bias: float
    C: float
    converged: bool = True
    platt: PlattParams | None = None
    iterations: int = 0
    kkt_violation: float = 0.0


def _check_cap(value, name: str) -> None:
    """Raise ValueError unless the count ``value``, the argument ``name``, is an integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def _check_cost(C) -> None:
    """Raise ValueError unless the cost ``C`` is a finite positive real number, not a bool."""
    if isinstance(C, bool) or not isinstance(C, numbers.Real) or not 0 < C < np.inf:
        raise ValueError("C must be a finite positive number")


def smo_train(kernel, labels, C: float, tol: float = 1e-3,
              max_iter: int | None = None) -> SvmModel:
    """Solve the soft-margin SVM dual by SMO with maximal-violating-pair selection.

    Args:
        kernel: (n, n) kernel matrix.  It must be symmetric, as every kernel
            matrix is, because the solver reads row t where it needs column
            t.  It is not checked: ``np.array_equal(K, K.T)`` would cost
            about 17 % of a solve, and ``gram_matrix`` mirrors its triangle,
            which ``K[np.ix_(idx, idx)]`` keeps.
        labels: Sequence of n labels in {-1, +1}; both classes required.
        C: Box constraint on the dual variables, finite and > 0.
        tol: KKT violation tolerance used as the stopping criterion, >= 0.
        max_iter: Integer cap on working-pair updates, >= 1; None means
            max(10 000, 100 n), a cap that grows with the problem as LIBSVM's
            max(10^7, 100 n) does.

    Returns:
        SvmModel with 0 <= alpha <= C, sum(alpha * labels) = 0, and the bias
        averaged over unbounded support vectors (midpoint of the feasible
        interval when there are none).  ``kkt_violation``, ``converged`` and
        that midpoint describe the returned alpha; a solve that stops at the
        cap or on a stalled step without meeting ``tol`` logs one warning.
    """
    y = np.asarray(labels, dtype=float)
    n = y.size
    if n < 2:
        raise ValueError("smo_train needs at least two examples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("training set contains a single class")
    _check_cost(C)
    if not tol >= 0.0:
        raise ValueError("tol must be a non-negative number")
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    _check_cap(max_iter, "max_iter")
    K = np.asarray(kernel, dtype=float)
    if K.shape != (n, n):
        raise ValueError(f"kernel matrix shape {K.shape} does not match {n} labels")
    if not np.all(np.isfinite(K)):
        raise ValueError("kernel values must be finite")

    # The loop is bound by its Python overhead, not by its six numpy calls
    # over n-vectors.  Every method, function and constant it uses is bound
    # to a local name, since a local is one array read where an attribute or
    # global is a dictionary lookup per use.  The working pair's bookkeeping
    # is in Python floats and bools, and the vector work writes into
    # preallocated buffers.
    C = float(C)
    alpha = [0.0] * n
    positive = (y > 0).tolist()
    diag = K.diagonal().tolist()
    rows = list(K)  # row t stands for column t of the symmetric K
    snap = _ALPHA_SNAP * max(1.0, C)
    top = C - snap
    inf, neg_inf = np.inf, -np.inf

    # v = -y * grad, where grad is the gradient of 1/2 a'(yy' * K)a - sum(a);
    # at alpha = 0 the gradient is -1, so v starts at y.  v is kept as two
    # masked copies: ``up`` holds v_t where alpha_t can move up along y_t and
    # -inf elsewhere, ``low`` holds v_t where it can move down and +inf
    # elsewhere, so the working pair is up.argmax() and low.argmin().  An
    # update is v -= step * (K[i] - K[j]), one row difference subtracted from
    # both copies; +-inf entries stay as they are.  The finite entries of
    # both copies hold the same v_t, and up[i] and low[j] are finite, so
    # after the update they are v_i and v_j.
    up = np.where(y > 0, y, neg_inf)
    low = np.where(y > 0, inf, y)
    row_diff = np.empty(n)
    up_argmax, low_argmin, up_item, low_item, k_item = up.argmax, low.argmin, up.item, low.item, K.item
    subtract, multiply = np.subtract, np.multiply

    for iterations in range(max_iter + 1):
        i = int(up_argmax())
        j = int(low_argmin())
        m_bound = up_item(i)
        big_m_bound = low_item(j)
        converged = m_bound - big_m_bound <= tol
        if converged or iterations == max_iter:
            break

        # Move along alpha_i += y_i t, alpha_j -= y_j t, which preserves
        # sum(alpha * y); the unconstrained optimum is t = (m - M) / eta,
        # cut at the box.
        alpha_i, alpha_j = alpha[i], alpha[j]
        positive_i, positive_j = positive[i], positive[j]
        eta = diag[i] + diag[j] - 2.0 * k_item(i, j)
        if not eta >= 1e-12:  # also a NaN eta, inf - inf from finite entries near the float maximum
            eta = 1e-12
        step = (m_bound - big_m_bound) / eta
        limit = (C - alpha_i) if positive_i else alpha_i
        if limit < step:
            step = limit
        limit = alpha_j if positive_j else (C - alpha_j)
        if limit < step:
            step = limit
        if step <= 0.0:  # reachable with tol = 0 or an underflowing step
            break
        subtract(rows[i], rows[j], out=row_diff)
        multiply(row_diff, step, out=row_diff)
        subtract(up, row_diff, out=up)
        subtract(low, row_diff, out=low)

        # Take the step (y_t t is +-t), snap each alpha to the box and set its
        # masks from where it now is.
        alpha_i = alpha_i + step if positive_i else alpha_i - step
        if alpha_i < snap:
            alpha_i = 0.0
        elif alpha_i > top:
            alpha_i = C
        alpha[i] = alpha_i
        v_i = up_item(i)
        up[i] = v_i if (alpha_i < C if positive_i else alpha_i > 0.0) else neg_inf
        low[i] = v_i if (alpha_i > 0.0 if positive_i else alpha_i < C) else inf

        alpha_j = alpha_j - step if positive_j else alpha_j + step
        if alpha_j < snap:
            alpha_j = 0.0
        elif alpha_j > top:
            alpha_j = C
        alpha[j] = alpha_j
        v_j = low_item(j)
        up[j] = v_j if (alpha_j < C if positive_j else alpha_j > 0.0) else neg_inf
        low[j] = v_j if (alpha_j > 0.0 if positive_j else alpha_j < C) else inf
    if not converged:
        reason = f"iteration cap ({max_iter})" if iterations == max_iter else "a step that could not move"
        logger.warning("SMO stopped unconverged after %d updates, %s (KKT violation %.3e, tolerance %.1e)",
                       iterations, reason, m_bound - big_m_bound, tol)

    alpha = np.array(alpha)
    free = (alpha > 0.0) & (alpha < C)
    if np.any(free):
        bias = float(up[free].mean())  # a free alpha_t can move both ways
    else:
        bias = (m_bound + big_m_bound) / 2.0
    support = np.flatnonzero(alpha > 0.0)
    return SvmModel(alpha=alpha, labels=y, support=support, bias=bias, C=C,
                    converged=converged, iterations=iterations,
                    kkt_violation=m_bound - big_m_bound)


def decision_values(model: SvmModel, kernel_rows) -> np.ndarray:
    """Decision values of kernel rows, an (m, n_support) array, one per row.

    Each row is summed on its own, not by a BLAS mat-vec, whose rounding of a
    row depends on where it sits in the block and on the thread count.  So a
    row's value does not depend on the other rows: scoring rows in chunks
    gives the bytes of scoring them in one block, at any thread count.  A row
    longer than 8 192 entries is summed in pieces of that length, added in
    order.
    """
    rows = np.asarray(kernel_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.support.size:
        raise ValueError(f"kernel rows have shape {rows.shape}, expected (m, {model.support.size})")
    coeffs = model.alpha[model.support] * model.labels[model.support]
    sums = np.einsum("ij,j->i", rows[:, :_ROW_PIECE], coeffs[:_ROW_PIECE])
    for start in range(_ROW_PIECE, coeffs.size, _ROW_PIECE):
        sums += np.einsum("ij,j->i", rows[:, start:start + _ROW_PIECE], coeffs[start:start + _ROW_PIECE])
    return sums + model.bias


def _newton_minimize(x: np.ndarray, local, what: str):
    """Minimize a smooth convex function by Newton steps with Armijo backtracking.

    ``local(x)`` returns the gradient g and a function ``newton()``, which
    returns the Newton direction s and a function ``change(t)``: the
    objective change from x to x + t s, formed without cancellation so that
    tiny steps near the minimizer are judged exactly.  ``newton`` is called
    only after the stopping tests, so a point where the loop stops converged
    or at the step cap solves no Newton system.  The step fraction t starts
    at 1 and is halved until change(t) <= _ARMIJO t (g . s); a change that
    overflows to inf or NaN fails that test quietly (``local`` and ``newton``
    still warn).  This is every Newton fit's stopping rule: the loop stops
    converged when max |g| <= _NEWTON_TOL, and unconverged, with one warning
    naming ``what``, after _NEWTON_MAX_STEPS steps or when no t >= _MIN_STEP
    passes.  No caller sets a tolerance or a step cap of its own.

    Returns x, the number of steps taken, ``converged`` and the list of
    accepted objective changes.
    """
    changes = []
    while True:
        grad, newton = local(x)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= _NEWTON_TOL:
            return x, len(changes), True, changes
        if len(changes) == _NEWTON_MAX_STEPS:
            break
        direction, change = newton()
        slope = float(grad @ direction)
        t = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            while t >= _MIN_STEP:
                delta = change(t)
                if delta <= _ARMIJO * t * slope:
                    break
                t /= 2.0
            else:
                break
        x = x + t * direction
        changes.append(delta)
    logger.warning("%s stopped unconverged after %d Newton steps "
                   "(gradient max-norm %.3e, tolerance %.1e)", what, len(changes), grad_norm, _NEWTON_TOL)
    return x, len(changes), False, changes


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)) without overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def platt_fit(decisions, labels) -> PlattParams:
    """Fit the calibration sigmoid by damped Newton steps (Lin, Lin & Weng, MLJ 2007).

    Minimizes the cross-entropy sum_i l_i(a s_i + b), with
    l_i(z) = t_i z + log(1 + exp(-z)), against prior-corrected targets
    t_i = (N+ + 1) / (N+ + 2) and 1 / (N- + 2), which regularizes the fit on
    separable data.  A step changes term i by
    l_i(z + d) - l_i(z) = t_i d + log1p(p expm1(-d)) with p = 1 / (1 + exp(z)),
    so the line search stays exact near the optimum.  The fit stops by the
    driver's rule (``_newton_minimize``); one that stops unconverged logs a
    warning and returns ``converged=False``.
    """
    s = np.asarray(decisions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("decisions and labels must be 1-D and equally long")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not np.all(np.isfinite(s)):
        raise ValueError("decision values must be finite")
    n_pos = int(np.sum(y > 0))
    n_neg = int(np.sum(y < 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("platt_fit needs both classes")
    target = np.where(y > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    sigma = 1e-12  # Hessian ridge

    def local(x: np.ndarray):
        z = x[0] * s + x[1]
        p = _sigmoid(-z)
        d1 = target - p
        grad = np.array([np.dot(s, d1), np.sum(d1)])

        def newton():
            w = p * (1.0 - p)
            h12 = np.dot(s, w)
            hessian = np.array([[np.dot(s * s, w) + sigma, h12], [h12, np.sum(w) + sigma]])
            direction = -np.linalg.solve(hessian, grad)
            along = direction[0] * s + direction[1]

            def change(t: float) -> float:
                d = t * along
                return float(np.sum(target * d + np.log1p(p * np.expm1(-d))))

            return direction, change

        return grad, newton

    start = np.array([0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))])
    (a, b), steps, converged, _ = _newton_minimize(start, local, "Platt fit")
    return PlattParams(a=float(a), b=float(b), steps=steps, converged=converged)


def platt_prob(params: PlattParams, decision):
    """Calibrated probabilities 1 / (1 + exp(a * s + b)) of decision values, clipped to (0, 1)."""
    s = np.asarray(decision, dtype=float)
    return np.clip(_sigmoid(-(params.a * s + params.b)), 1e-12, 1.0 - 1e-12)


def _choose_cost(labels, seed: int, split_mistakes) -> float:
    """The cost of ``DEFAULT_C_GRID`` with the lowest validation error, raced over the repeats.

    In each of 3 repeats every class is shuffled and dealt round-robin to 2
    folds.  A split counts when its validation side is non-empty and its fit
    side holds every class of ``labels``; ``split_mistakes(fit, val, costs)``
    returns its integer mistake count on ``val`` for each cost of ``costs``,
    a tuple in grid order.  Error rates add up as exact fractions.  The first
    repeat asks for every cost; the later ones ask only for the costs whose
    sum after it is at most the ``_CV_KEEP``-th lowest (the third), so a tie
    at the cut keeps every tied cost, and a first repeat without a usable
    split, where every sum is 0, cuts nothing.  The choice is the kept cost
    with the lowest total; a tie, or a problem without a usable split, goes
    to the smallest cost.  A dropped cost is never chosen.
    """
    y = np.asarray(labels, dtype=float)
    rng = np.random.default_rng(seed)
    errors = dict.fromkeys(DEFAULT_C_GRID, Fraction(0))
    for repeat in range(_CV_REPEATS):
        if repeat == 1:
            cut = sorted(errors.values())[_CV_KEEP - 1]
            errors = {cost: e for cost, e in errors.items() if e <= cut}
        assignment = np.empty(y.size, dtype=int)
        for cls in (-1.0, 1.0):
            members = rng.permutation(np.flatnonzero(y == cls))
            assignment[members] = np.arange(members.size) % _CV_FOLDS
        for fold in range(_CV_FOLDS):
            val, fit = np.flatnonzero(assignment == fold), np.flatnonzero(assignment != fold)
            if val.size and np.array_equal(np.unique(y[fit]), np.unique(y)):
                mistakes = split_mistakes(fit, val, tuple(errors))
                errors = {cost: e + Fraction(n, val.size) for (cost, e), n in zip(errors.items(), mistakes)}
    return min(errors, key=errors.get)


def select_c(kernel: np.ndarray, labels, seed: int = 0) -> float:
    """Pick the cost from ``DEFAULT_C_GRID`` with the lowest 0/1 validation error.

    Runs 3 rounds of stratified 2-fold cross-validation on the precomputed
    kernel through ``_choose_cost``, which ``ranksvm_fit`` shares and which
    races the grid: after the first round only the costs that fewer than
    three others beat are solved again.  The solves stop at the KKT
    tolerance ``_CV_TOL`` = 1e-2, since they only rank the grid;
    ``anker_fit`` solves its final model at the chosen cost to
    ``smo_train``'s default 1e-3.  A split solves the costs it is asked for
    in grid order, puts each model's alpha * y in one column of an
    (m, number of costs) coefficient array and scores every cost on its
    validation side with one product against the kernel.  Once a split's
    solve is converged with every alpha below its cost, that model also
    solves each larger cost of the split, so those costs make no further
    SMO call.  Errors are compared exactly, so ties go to the smallest
    cost; a reused model errs exactly as the smaller cost's model does.
    Labels of one class, and a kernel that is not (m, m) for m labels,
    raise ``ValueError`` with ``smo_train``'s message.
    """
    y = np.asarray(labels, dtype=float)
    K = np.asarray(kernel, dtype=float)
    if K.shape != (y.size, y.size):
        raise ValueError(f"kernel matrix shape {K.shape} does not match {y.size} labels")

    def split_mistakes(fit, val, costs):
        # Gathered here, so one split's sub-kernel is freed before the next is.
        sub_kernel = K[np.ix_(fit, fit)]
        coeffs = np.zeros((y.size, len(costs)))
        biases = np.empty(len(costs))
        model = None
        for k, cost in enumerate(costs):
            # A converged model with every alpha below its cost C_k also solves
            # any larger cost C', asked for or not: alpha < C_k < C', so the
            # entries that can move up and down are the same at C', and v
            # depends on alpha alone.
            # m - M is therefore unchanged and still meets the tolerance, and
            # the bias is the same mean over the same free set (or the same
            # midpoint).  SMO from zero at C' usually returns this alpha too;
            # it may not where its path touched C_k or where the zero snap,
            # which grows with C, differs.
            if model is None or not (model.converged and model.alpha.max() < model.C):
                model = smo_train(sub_kernel, y[fit], cost, tol=_CV_TOL)
            coeffs[fit[model.support], k] = model.alpha[model.support] * model.labels[model.support]
            biases[k] = model.bias
        decisions = (K @ coeffs)[val] + biases
        return np.count_nonzero((decisions > 0) != (y[val, None] > 0), axis=0).tolist()

    return _choose_cost(y, seed, split_mistakes)
