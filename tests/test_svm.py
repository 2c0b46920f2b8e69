import numpy as np
import pytest
from scipy import optimize as sp_optimize

from ankerrank.kernel import KernelVariant, gram_matrix
from ankerrank.svm import (
    DEFAULT_C_GRID,
    PlattParams,
    SvmModel,
    decision_values,
    platt_fit,
    platt_prob,
    select_c,
    smo_train,
)
from oracles import dual_objective, project_box_hyperplane, projected_gradient_qp


def random_instance(rng, n_max=6):
    """A small random training problem with a valid analogy-kernel Gram matrix."""
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, 6))
    gram = gram_matrix(rng.random((n, d)) - rng.random((n, d)), KernelVariant.MEAN)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0  # both classes present
    cost = float(rng.choice([0.1, 1.0, 10.0]))
    return gram, labels, cost


def test_two_example_analytic_solution():
    model = smo_train(np.eye(2), [1, -1], C=10.0, tol=1e-8)
    assert np.allclose(model.alpha, [1.0, 1.0])
    assert model.bias == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(model.support, [0, 1])
    assert decision_values(model, [[1.0, 0.0]])[0] == pytest.approx(1.0)


def test_duplicated_example_with_opposite_labels_hits_the_box():
    # Identical points with conflicting labels: the dual pushes both
    # multipliers to the bound.
    model = smo_train(np.ones((2, 2)), [1, -1], C=3.0, tol=1e-8)
    assert np.allclose(model.alpha, [3.0, 3.0])


def test_equality_constraint_holds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gram, labels, cost = random_instance(rng, n_max=12)
        model = smo_train(gram, labels, cost, tol=1e-6)
        assert abs(float(np.sum(model.alpha * model.labels))) <= 1e-8
        assert np.all((model.alpha >= 0.0) & (model.alpha <= cost))
        assert np.all(model.alpha[np.setdiff1d(np.arange(labels.size), model.support)] == 0.0)


def kkt_violation(model, gram):
    margins = model.labels * decision_values(model, gram[:, model.support])
    worst = 0.0
    for i in range(model.labels.size):
        a = model.alpha[i]
        if a == 0.0:
            worst = max(worst, 1.0 - margins[i])
        elif a == model.C:
            worst = max(worst, margins[i] - 1.0)
        else:
            worst = max(worst, abs(margins[i] - 1.0))
    return worst


def test_kkt_conditions_within_tolerance():
    rng = np.random.default_rng(1)
    for _ in range(25):
        gram, labels, cost = random_instance(rng, n_max=10)
        model = smo_train(gram, labels, cost, tol=1e-6)
        assert model.converged
        assert kkt_violation(model, gram) <= 1e-6 + 1e-12


def test_dual_objective_matches_projected_gradient_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        gram, labels, cost = random_instance(rng)
        model = smo_train(gram, labels, cost, tol=1e-9, max_iter=100_000)
        oracle_alpha = projected_gradient_qp(gram, labels, cost)
        ours = dual_objective(gram, labels, model.alpha)
        reference = dual_objective(gram, labels, oracle_alpha)
        assert ours == pytest.approx(reference, abs=1e-6)


def test_oracle_projection_is_feasible():
    # a = clip(v - lam * y, 0, box) is the projection for the lam that makes
    # it feasible, so feasibility checks the oracle's exact root.
    rng = np.random.default_rng(12)
    for trial in range(2000):
        n = int(rng.integers(2, 8))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        box = float(rng.choice([0.1, 1.0, 10.0]))
        v = rng.normal(size=n) * float(rng.choice([0.01, 1.0, 30.0]))
        if trial % 4 == 0:
            v[: n // 2] = np.round(v[: n // 2])  # coinciding kinks
        a = project_box_hyperplane(v, y, box)
        assert np.all((a >= 0.0) & (a <= box))
        assert abs(float(y @ a)) <= 1e-12 * max(1.0, float(np.max(np.abs(v))))


def test_label_flip_negates_decisions_exactly():
    rng = np.random.default_rng(3)
    gram, labels, cost = random_instance(rng, n_max=10)
    model = smo_train(gram, labels, cost, tol=1e-6)
    flipped = smo_train(gram, -labels, cost, tol=1e-6)
    rows = gram[:, model.support]
    rows_flipped = gram[:, flipped.support]
    assert np.array_equal(model.support, flipped.support)
    assert np.array_equal(decision_values(model, rows), -decision_values(flipped, rows_flipped))


def test_determinism():
    rng = np.random.default_rng(4)
    gram, labels, cost = random_instance(rng, n_max=10)
    a = smo_train(gram, labels, cost, tol=1e-6)
    b = smo_train(gram, labels, cost, tol=1e-6)
    assert np.array_equal(a.alpha, b.alpha) and a.bias == b.bias


def test_model_decision_on_own_free_support_vector():
    rng = np.random.default_rng(5)
    gram, labels, cost = random_instance(rng, n_max=10)
    model = smo_train(gram, labels, cost, tol=1e-8)
    free = np.flatnonzero((model.alpha > 0.0) & (model.alpha < cost))
    for i in free:
        margin = model.labels[i] * decision_values(model, gram[[i]][:, model.support])[0]
        assert margin == pytest.approx(1.0, abs=1e-8)


def test_empty_support_returns_bias():
    model = SvmModel(alpha=np.zeros(0), labels=np.zeros(0), support=np.zeros(0, dtype=int),
                     bias=0.3, C=1.0)
    assert decision_values(model, np.zeros((1, 0)))[0] == pytest.approx(0.3)


def test_smo_warns_when_it_stops_unconverged(caplog):
    rng = np.random.default_rng(6)
    gram = gram_matrix(rng.random((12, 3)) - rng.random((12, 3)), KernelVariant.MEAN)
    labels = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    with caplog.at_level("WARNING", logger="ankerrank.svm"):
        model = smo_train(gram, labels, C=1.0, tol=1e-8, max_iter=1)
    assert not model.converged
    assert "iteration cap (1)" in caplog.text and "KKT violation" in caplog.text


def test_single_class_and_bad_kernel_are_rejected():
    with pytest.raises(ValueError, match="single class"):
        smo_train(np.eye(2), [1, 1], C=1.0)
    kernel = np.eye(2)
    kernel[0, 1] = kernel[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        smo_train(kernel, [1, -1], C=1.0)


@pytest.mark.parametrize("C", [0.0, -1.0, np.inf, np.nan])
def test_cost_must_be_finite_and_positive(C):
    with pytest.raises(ValueError, match="C must be a finite positive number"):
        smo_train(np.eye(2), [1, -1], C=C)


# ---------------------------------------------------------------------------
# Platt calibration

def platt_objective(a, b, decisions, labels):
    n_pos = int(np.sum(labels > 0))
    n_neg = int(np.sum(labels < 0))
    target = np.where(labels > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    z = a * decisions + b
    return float(np.sum(np.where(z >= 0, target * z + np.log1p(np.exp(-z)),
                                 (target - 1.0) * z + np.log1p(np.exp(z)))))


def test_platt_symmetric_case_has_zero_offset():
    decisions = np.array([-1.0, 1.0])
    labels = np.array([-1.0, 1.0])
    params = platt_fit(decisions, labels)
    assert params.b == pytest.approx(0.0, abs=1e-6)
    # cross-check against an independent optimizer on the same objective
    reference = sp_optimize.minimize(
        lambda ab: platt_objective(ab[0], ab[1], decisions, labels),
        x0=np.array([0.0, 0.0]), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000},
    )
    assert params.a == pytest.approx(reference.x[0], abs=1e-4)
    assert params.b == pytest.approx(reference.x[1], abs=1e-4)


def test_platt_matches_direct_optimization_on_random_data():
    rng = np.random.default_rng(6)
    decisions = rng.normal(size=40) * 2.0
    labels = np.where(decisions + rng.normal(size=40) > 0, 1.0, -1.0)
    if not (np.any(labels > 0) and np.any(labels < 0)):
        labels[0] = -labels[0]
    params = platt_fit(decisions, labels)
    reference = sp_optimize.minimize(
        lambda ab: platt_objective(ab[0], ab[1], decisions, labels),
        x0=np.array([0.0, 0.0]), method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 10_000},
    )
    ours = platt_objective(params.a, params.b, decisions, labels)
    assert ours <= reference.fun + 1e-8


def test_platt_slope_is_negative_on_separable_data():
    decisions = np.array([-2.0, -1.0, 1.0, 2.0])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    assert platt_fit(decisions, labels).a < 0.0


def test_platt_prob_examples():
    assert platt_prob(PlattParams(-1.0, 0.0), 0.0) == pytest.approx(0.5)
    assert platt_prob(PlattParams(-2.0, 0.0), 0.5) == pytest.approx(1.0 / (1.0 + np.exp(-1.0)))
    # approaches 1 for large decision values but never reaches it
    assert platt_prob(PlattParams(-1.0, 0.0), 1e6) == 1.0 - 1e-12
    assert platt_prob(PlattParams(-1.0, 0.0), -1e6) == 1e-12


def test_platt_prob_monotone_for_negative_slope():
    params = PlattParams(-1.5, 0.3)
    values = platt_prob(params, np.linspace(-5, 5, 101))
    assert np.all(np.diff(values) > 0.0)


def test_platt_fit_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        platt_fit(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# Cost selection

def separable_instance(rng, n=24, gap=1.0):
    x = np.vstack([rng.normal(-gap, 0.3, size=(n // 2, 2)), rng.normal(gap, 0.3, size=(n // 2, 2))])
    labels = np.concatenate([-np.ones(n // 2), np.ones(n // 2)])
    return x @ x.T, labels


def test_select_c_tie_breaks_toward_smallest():
    # comfortably separable: every cost reaches zero validation error
    gram, labels = separable_instance(np.random.default_rng(8), gap=4.0)
    assert select_c(gram, labels, seed=1) == min(DEFAULT_C_GRID)


def test_select_c_reaches_zero_error_on_separable_data():
    rng = np.random.default_rng(9)
    gram, labels = separable_instance(rng, gap=3.0)
    chosen = select_c(gram, labels, seed=3)
    # re-running the same protocol at the chosen cost is its own oracle
    model = smo_train(gram, labels, chosen, tol=1e-3)
    predicted = np.where(decision_values(model, gram[:, model.support]) > 0, 1.0, -1.0)
    assert np.mean(predicted != labels) == 0.0
