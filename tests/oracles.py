"""Independent reference implementations used to freeze expected test values.

Everything here deliberately avoids the code paths under test: the QP oracle
is an accelerated projected-gradient method with an exact projection (sorted
kinks of the piecewise-linear constraint), scored like SMO by a dense
evaluation of the dual objective, the reference SMO takes the same steps
in a plain loop (column reads, ``np.where`` masks, numpy-scalar
bookkeeping), kept so that a test can hold the tuned ``smo_train`` to
bit-identical alpha, bias, ``converged``, support, update count and final
violation, the KS oracle enumerates
permutations, the inversion counter is a double loop (a tie counts one half), the BTL oracle is a
grid search on the simplex, the training-pair oracle draws one coin per
preference in a nested loop, the analogy-kernel oracle fills the whole
matrix one feature at a time, the squared-hinge RankSVM oracle is
scipy's L-BFGS-B, and the cost-search oracle solves every split and cost by
``smo_train`` and scores each model on its own gathered kernel block.
One oracle shares the code under test on purpose: the cold-start BTL fit is
``btl_fit`` as it was before its start rule, on the same Newton loop, kept
so that a test can hold a fit that starts at 0 to identical bytes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import optimize

from ankerrank.ranker import PREFERENCE_CLIP, BtlParams, btl_log_likelihood
from ankerrank.svm import _CV_TOL, DEFAULT_C_GRID, _choose_cost, _newton_minimize, _sigmoid, decision_values, smo_train


def project_box_hyperplane(v: np.ndarray, y: np.ndarray, box: float) -> np.ndarray:
    """Exact Euclidean projection onto {0 <= a <= box, y . a = 0}, y in {-1, +1}.

    The projection is a(lam) = clip(v - lam * y, 0, box) at the root of
    f(lam) = y . a(lam).  f is non-increasing and piecewise linear, with kinks
    where v_i - lam * y_i reaches 0 or box, at lam = y_i * v_i and
    y_i * (v_i - box).  f is evaluated at the sorted kinks, and the root is
    interpolated in the segment where f changes sign.
    """
    kinks = np.sort(np.concatenate([y * v, y * (v - box)]))
    f = np.clip(v - kinks[:, None] * y, 0.0, box) @ y
    # f at the smallest kink is box * #{y = +1} > 0, so j exists.
    j = int(np.flatnonzero(f >= 0.0)[-1])
    lam = kinks[j]
    if f[j] > 0.0 and j + 1 < kinks.size:
        lam += f[j] * (kinks[j + 1] - kinks[j]) / (f[j] - f[j + 1])
    return np.clip(v - lam * y, 0.0, box)


def projected_gradient_qp(kernel: np.ndarray, labels: np.ndarray, box: float,
                          block: int = 2000, max_blocks: int = 50) -> np.ndarray:
    """Accelerated projected gradient on the SVM dual (maximization form).

    Runs in blocks until the objective stabilizes below 1e-12 per block.
    """
    y = np.asarray(labels, dtype=float)
    Q = np.asarray(kernel, dtype=float) * np.outer(y, y)
    step = 1.0 / (float(np.linalg.eigvalsh(Q).max()) + 1e-9)

    def objective(a: np.ndarray) -> float:
        return float(a.sum() - 0.5 * a @ Q @ a)

    x = np.zeros(y.size)
    z = x.copy()
    t = 1.0
    best = objective(x)
    for _ in range(max_blocks):
        block_start = best
        for _ in range(block):
            grad = Q @ z - 1.0
            x_new = project_box_hyperplane(z - step * grad, y, box)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_new) * (x_new - x)
            x, t = x_new, t_new
            best = max(best, objective(x))
        if best - block_start < 1e-12:
            break
    return x


def dual_objective(kernel: np.ndarray, labels, alpha) -> float:
    """Value of the SVM dual objective sum(alpha) - 1/2 alpha' (yy' * K) alpha."""
    y = np.asarray(labels, dtype=float)
    a = np.asarray(alpha, dtype=float)
    Q = np.asarray(kernel, dtype=float) * np.outer(y, y)
    return float(a.sum() - 0.5 * a @ Q @ a)


def reference_smo(kernel, labels, C: float, tol: float = 1e-3, max_iter: int | None = None):
    """SMO with maximal-violating-pair selection, written plainly.

    The same algorithm, step, snap, order of accumulation and default cap
    as ``smo_train``, without its input checks or warnings.  It keeps v
    whole, where ``smo_train`` keeps it as two copies masked by +-inf, and
    moves it by the same one row difference per update: y_i alpha_i rises
    by ``step`` and y_j alpha_j falls by it, so v -= step * (K[i] - K[j]).
    Returns alpha, the bias, ``converged``, the support indices, the number
    of updates taken and the final violation m - M.
    """
    K = np.asarray(kernel, dtype=float)
    y = np.asarray(labels, dtype=float)
    n = y.size
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    alpha = np.zeros(n)
    v = y.copy()
    snap = 1e-12 * max(1.0, C)
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))

    for taken in range(max_iter + 1):
        i = int(np.argmax(np.where(up, v, -np.inf)))
        j = int(np.argmin(np.where(low, v, np.inf)))
        m_bound = v[i]
        big_m_bound = v[j]
        converged = m_bound - big_m_bound <= tol
        if converged or taken == max_iter:
            break
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        step = (m_bound - big_m_bound) / max(eta, 1e-12)
        limit_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        limit_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        step = min(step, limit_i, limit_j)
        if step <= 0.0:
            break
        delta_i = y[i] * step
        delta_j = -y[j] * step
        alpha[i] += delta_i
        alpha[j] += delta_j
        v -= (K[:, i] - K[:, j]) * step
        for t in (i, j):
            if alpha[t] < snap:
                alpha[t] = 0.0
            elif alpha[t] > C - snap:
                alpha[t] = C
            up[t] = (y[t] > 0 and alpha[t] < C) or (y[t] < 0 and alpha[t] > 0)
            low[t] = (y[t] > 0 and alpha[t] > 0) or (y[t] < 0 and alpha[t] < C)

    free = (alpha > 0.0) & (alpha < C)
    if np.any(free):
        bias = float(v[free].mean())
    else:
        bias = float((m_bound + big_m_bound) / 2.0)
    return alpha, bias, converged, np.flatnonzero(alpha > 0.0), taken, float(m_bound - big_m_bound)


def select_c_reference(kernel, labels, seed: int = 0) -> float:
    """``select_c`` without its shortcuts: one SMO solve per split and cost.

    The folds, the exact tie rule and the solves' KKT tolerance
    ``_CV_TOL`` are ``select_c``'s; each model is scored on its own
    ``K[np.ix_(val, fit[support])]`` block through ``decision_values``, and
    no solve is reused for a larger cost.
    """
    K = np.asarray(kernel, dtype=float)
    y = np.asarray(labels, dtype=float)

    def split_mistakes(fit, val):
        sub_kernel, mistakes = K[np.ix_(fit, fit)], []
        for cost in DEFAULT_C_GRID:
            model = smo_train(sub_kernel, y[fit], cost, tol=_CV_TOL)
            decisions = decision_values(model, K[np.ix_(val, fit[model.support])])
            mistakes.append(int(np.count_nonzero((decisions > 0) != (y[val] > 0))))
        return mistakes

    return _choose_cost(y, seed, split_mistakes)


def ks_exact_permutation_p(a, b) -> float:
    """Exact permutation p-value P(D >= observed) for the two-sample KS test."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    n = a.size

    def statistic(x: np.ndarray, y: np.ndarray) -> float:
        xs, ys = np.sort(x), np.sort(y)
        points = np.concatenate([xs, ys])
        cdf_x = np.searchsorted(xs, points, side="right") / xs.size
        cdf_y = np.searchsorted(ys, points, side="right") / ys.size
        return float(np.max(np.abs(cdf_x - cdf_y)))

    observed = statistic(a, b)
    total = 0
    at_least = 0
    for chosen in combinations(range(pooled.size), n):
        mask = np.zeros(pooled.size, dtype=bool)
        mask[list(chosen)] = True
        total += 1
        if statistic(pooled[mask], pooled[~mask]) >= observed - 1e-12:
            at_least += 1
    return at_least / total


def brute_force_ranking_loss(pi, pi_star) -> float:
    """Discordant-pair count by double loop, normalized by n(n-1)/2.

    A pair tied in ``pi`` but ordered in ``pi_star`` counts one half.
    """
    pi = list(pi)
    pi_star = list(pi_star)
    n = len(pi)
    discordant = 0.0
    for i in range(n):
        for j in range(n):
            if pi[i] < pi[j] and pi_star[i] > pi_star[j]:
                discordant += 1
            elif pi[i] == pi[j] and pi_star[i] < pi_star[j]:
                discordant += 0.5
    return discordant / (n * (n - 1) / 2)


def btl_grid_argmax(pref: np.ndarray, resolution: float = 1e-3) -> np.ndarray:
    """Grid-search maximizer of the BTL likelihood on the 3-simplex."""
    assert pref.shape == (3, 3)
    ticks = np.arange(resolution, 1.0, resolution)
    t1, t2 = np.meshgrid(ticks, ticks, indexing="ij")
    t1 = t1.ravel()
    t2 = t2.ravel()
    t3 = 1.0 - t1 - t2
    keep = t3 >= resolution - 1e-12
    t1, t2, t3 = t1[keep], t2[keep], t3[keep]
    theta = np.stack([t1, t2, t3], axis=1)

    loglik = np.zeros(theta.shape[0])
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            loglik += pref[i, j] * (np.log(theta[:, i]) - np.log(theta[:, i] + theta[:, j]))
    return theta[int(np.argmax(loglik))]


def btl_fit_cold(pref: np.ndarray, tol: float = 1e-10, max_iter: int = 1000) -> BtlParams:
    """``ranker.btl_fit`` as it was before the start rule: every fit starts at beta = 0."""
    pref = np.asarray(pref, dtype=float)
    if pref.ndim != 2 or pref.shape[0] != pref.shape[1]:
        raise ValueError("preference matrix must be square")
    n = pref.shape[0]
    if n == 0:
        raise ValueError("preference matrix must have at least one item")
    if not tol >= 0.0:
        raise ValueError("tol must be a non-negative number")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    off = ~np.eye(n, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf + -inf
        recip_gap = np.max(np.abs(pref[off] + pref.T[off] - 1.0), initial=0.0)
    # NaN fails this test, and a NaN or infinite entry makes the gap NaN or inf.
    if not recip_gap <= 1e-9:
        raise ValueError(f"preference matrix is not reciprocal and finite (max gap {recip_gap:.3e})")
    wins_matrix = np.where(off, np.clip(pref, PREFERENCE_CLIP, 1.0 - PREFERENCE_CLIP), 0.0)
    wins = wins_matrix.sum(axis=1)
    pair_weight = wins_matrix + wins_matrix.T

    def local(beta: np.ndarray):
        sigma = _sigmoid(beta[:, None] - beta[None, :])
        grad = wins - (pair_weight * sigma).sum(axis=1)

        def newton():
            h = pair_weight * sigma * sigma.T
            laplacian = np.diag(h.sum(axis=1)) - h
            # Adding 1/n to every entry is the 11'/n term.
            step = np.linalg.solve(laplacian + 1.0 / n, grad)

            def change(t: float) -> float:  # of the negative log-likelihood
                d = t * (step[:, None] - step[None, :])
                with np.errstate(over="ignore", invalid="ignore"):
                    return float(np.sum(wins_matrix * np.log1p(sigma.T * np.expm1(-d))))

            return step, change

        return -grad, newton

    beta, iterations, converged, changes = _newton_minimize(np.zeros(n), local, tol, max_iter, "BTL fit")
    path = np.cumsum([btl_log_likelihood(wins_matrix, np.full(n, 1.0 / n)), *(-c for c in changes)])
    theta = np.exp(beta - beta.max())
    return BtlParams(theta / theta.sum(), iterations, converged, path)


def coin_flip_pairs(data, seed: int, cap: int | None = None):
    """Labeled training pairs of the analogy-kernel ranker, one coin per pair.

    Walks each query's preferences (positions a < b of its ordering) and
    draws one fair coin per pair: heads stores (preferred, other) with label
    +1, tails (other, preferred) with label -1.  An optional cap keeps a
    sorted uniform subsample drawn from the same generator.  Returns the
    (firsts, seconds, labels) arrays.
    """
    rng = np.random.default_rng(seed)
    firsts, seconds, labels = [], [], []
    for query in data.queries:
        ordering = query.ordering
        for a in range(query.n_items - 1):
            for b in range(a + 1, query.n_items):
                preferred = query.items[ordering[a]]
                other = query.items[ordering[b]]
                if rng.random() < 0.5:
                    firsts.append(preferred)
                    seconds.append(other)
                    labels.append(1.0)
                else:
                    firsts.append(other)
                    seconds.append(preferred)
                    labels.append(-1.0)
    first, second, label = np.asarray(firsts), np.asarray(seconds), np.asarray(labels)
    if cap is not None and cap < label.size:
        keep = np.sort(rng.choice(label.size, size=cap, replace=False))
        first, second, label = first[keep], second[keep], label[keep]
    return first, second, label


def full_slab_kernel_matrix(pairs_a, pairs_b, poly2: bool = False, dtype=np.float64) -> np.ndarray:
    """Analogy kernel between two (firsts, seconds) pair collections.

    Makes one pass over the whole (na, nb) matrix per feature: the sign-gated
    term np.where(sign(u) == sign(v), 1 - |u - v|, 0) is added to the
    accumulator in feature order, then the sum is divided by the number of
    features and squared for the degree-2 variant.  The signs come from the
    float64 differences; u, v and all arithmetic after them are in ``dtype``.
    """
    diffs_a = np.asarray(pairs_a[0], dtype=float) - np.asarray(pairs_a[1], dtype=float)
    diffs_b = np.asarray(pairs_b[0], dtype=float) - np.asarray(pairs_b[1], dtype=float)
    n_dim = diffs_a.shape[1]
    acc = np.zeros((diffs_a.shape[0], diffs_b.shape[0]), dtype)
    for k in range(n_dim):
        u = diffs_a[:, k][:, None]
        v = diffs_b[:, k][None, :]
        agree = np.sign(u) == np.sign(v)
        acc += np.where(agree, 1.0 - np.abs(u.astype(dtype) - v.astype(dtype)), 0.0)
    out = acc / n_dim
    if poly2:
        out = out * out
    return out


def squared_hinge_objective(diffs: np.ndarray, C: float, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient of 1/2 |w|^2 + C sum_i max(0, 1 - w . d_i)^2."""
    slack = np.maximum(0.0, 1.0 - diffs @ w)
    return 0.5 * float(w @ w) + C * float(slack @ slack), w - 2.0 * C * (slack @ diffs)


def squared_hinge_lbfgs(diffs: np.ndarray, C: float) -> np.ndarray:
    """Minimizer of the squared-hinge RankSVM primal by L-BFGS-B from w = 0."""
    result = optimize.minimize(
        lambda w: squared_hinge_objective(diffs, C, w), np.zeros(diffs.shape[1]), jac=True,
        method="L-BFGS-B", options={"gtol": 1e-13, "ftol": 0.0, "maxiter": 100_000, "maxcor": 30},
    )
    return result.x
