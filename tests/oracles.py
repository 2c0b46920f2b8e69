"""Independent reference implementations used to freeze expected test values.

Everything here deliberately avoids the code paths under test: the QP oracle
is an accelerated projected-gradient method with an exact projection (sorted
kinks of the piecewise-linear constraint), scored like SMO by a dense
evaluation of the dual objective, the KS oracle enumerates
permutations, the inversion counter is a double loop (a tie counts one half), the BTL oracle is a
grid search on the simplex, the training-pair oracle draws one coin per
preference in a nested loop, the analogy-kernel oracle fills the whole
matrix one feature at a time, and the squared-hinge RankSVM oracle is
scipy's L-BFGS-B.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import optimize


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


def full_slab_kernel_matrix(pairs_a, pairs_b, poly2: bool = False) -> np.ndarray:
    """Analogy kernel between two (firsts, seconds) pair collections.

    Makes one pass over the whole (na, nb) matrix per feature: the sign-gated
    term np.where(sign(u) == sign(v), 1 - |u - v|, 0) is added to the
    accumulator in feature order, then the sum is divided by the number of
    features and squared for the degree-2 variant.
    """
    diffs_a = np.asarray(pairs_a[0], dtype=float) - np.asarray(pairs_a[1], dtype=float)
    diffs_b = np.asarray(pairs_b[0], dtype=float) - np.asarray(pairs_b[1], dtype=float)
    n_dim = diffs_a.shape[1]
    acc = np.zeros((diffs_a.shape[0], diffs_b.shape[0]))
    for k in range(n_dim):
        u = diffs_a[:, k][:, None]
        v = diffs_b[:, k][None, :]
        agree = np.sign(u) == np.sign(v)
        acc += np.where(agree, 1.0 - np.abs(u - v), 0.0)
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
