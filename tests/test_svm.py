import inspect
import logging
import warnings

import numpy as np
import pytest
from scipy import optimize as sp_optimize

from ankerrank import svm
from ankerrank.kernel import KernelVariant, gram_matrix, pair_differences
from ankerrank.ranker import btl_fit, build_pair_instances
from ankerrank.svm import (
    DEFAULT_C_GRID,
    PlattParams,
    SvmModel,
    _choose_cost,
    _newton_minimize,
    decision_values,
    platt_fit,
    platt_prob,
    select_c,
    smo_train,
)
from oracles import dual_objective, project_box_hyperplane, projected_gradient_qp, reference_smo, select_c_reference
from synthetic import make_linear_dataset


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


def test_two_example_analytic_solution_takes_one_step():
    model = smo_train(np.eye(2), [1, -1], C=10.0, tol=1e-8)
    assert model.iterations == 1
    assert model.converged and model.kkt_violation == 0.0


def assert_matches_reference(gram, labels, C, **options):
    model = smo_train(gram, labels, C, **options)
    alpha, bias, converged, support, iterations, violation = reference_smo(gram, labels, C, **options)
    assert model.alpha.tobytes() == alpha.tobytes()
    assert model.bias == bias
    assert model.converged == converged
    assert np.array_equal(model.support, support)
    assert model.iterations == iterations
    assert model.kkt_violation == violation
    return model


@pytest.mark.parametrize("C", [2.0**-6, 1.0, 64.0])
@pytest.mark.parametrize("variant", list(KernelVariant))
@pytest.mark.parametrize("n", [12, 75, 300])
def test_smo_is_bit_identical_to_the_reference_loop(n, variant, C):
    rng = np.random.default_rng(n)
    gram = gram_matrix(rng.random((n, 5)) - rng.random((n, 5)), variant)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0
    assert_matches_reference(gram, labels, C)


def test_smo_is_bit_identical_to_the_reference_loop_at_cross_validation_size():
    # One fold of a 5-query, 20-item fit's 950 training pairs at the top grid
    # cost: a solve of the size and length that cost selection runs.
    data = make_linear_dataset(5, 20, 10, seed=0)
    rng = np.random.default_rng(0)
    pairs = build_pair_instances(data)
    labels = np.where(rng.random(len(pairs)) < 0.5, 1.0, -1.0)
    diffs = pair_differences(data.all_items(), *pairs.T, "training items") * labels[:, None]
    model = assert_matches_reference(gram_matrix(diffs, KernelVariant.POLY2), labels, DEFAULT_C_GRID[-1])
    assert labels.size == 950 and model.iterations > 2_500 and model.converged


def test_smo_is_bit_identical_to_the_reference_loop_at_the_cap_and_the_box():
    rng = np.random.default_rng(7)
    gram = gram_matrix(rng.random((12, 3)) - rng.random((12, 3)), KernelVariant.MEAN)
    labels = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    assert_matches_reference(gram, labels, 1.0, tol=1e-8, max_iter=1)
    # Zero curvature: the step is clipped at the box.
    assert_matches_reference(np.ones((2, 2)), np.array([1.0, -1.0]), 3.0, tol=1e-8)


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
    # Flipping the labels swaps the working pair, and the update
    # v -= step * (K[i] - K[j]) is negated exactly, as a - b = -(b - a).
    # A small instance, then 300 random pairs (the scale of a select_c
    # split) of both variants at the grid's smallest and largest cost.
    instances = [random_instance(np.random.default_rng(3), n_max=10)]
    rng = np.random.default_rng(7)
    diffs, labels = rng.random((300, 5)) - rng.random((300, 5)), np.where(rng.random(300) < 0.5, 1.0, -1.0)
    for variant in KernelVariant:
        instances += [(gram_matrix(diffs, variant), labels, cost) for cost in (DEFAULT_C_GRID[0], DEFAULT_C_GRID[-1])]
    for gram, labels, cost in instances:
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


def test_smo_warns_of_a_stalled_step_without_naming_the_cap(caplog):
    # eta overflows to inf, so the first step is 0 and the solve stops there.
    with caplog.at_level("WARNING", logger="ankerrank.svm"):
        model = smo_train(np.array([[1e308, 0.0], [0.0, 1e308]]), [1, -1], C=1.0, tol=0.0)
    assert not model.converged and model.iterations == 0
    assert len(caplog.records) == 1
    assert "after 0 updates, a step that could not move" in caplog.text
    assert "iteration cap" not in caplog.text


def test_smo_counts_the_update_it_takes_before_the_cap():
    rng = np.random.default_rng(6)
    gram = gram_matrix(rng.random((12, 3)) - rng.random((12, 3)), KernelVariant.MEAN)
    labels = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    model = smo_train(gram, labels, C=1.0, tol=1e-8, max_iter=1)
    assert model.iterations == 1 and not model.converged


def test_converged_exactly_when_the_kkt_violation_meets_the_tolerance():
    rng = np.random.default_rng(8)
    outcomes = set()
    for max_iter in (1, 3, 10, 10_000):
        for _ in range(10):
            gram, labels, cost = random_instance(rng, n_max=12)
            model = smo_train(gram, labels, cost, tol=1e-6, max_iter=max_iter)
            assert model.converged == (model.kkt_violation <= 1e-6)
            assert model.iterations <= max_iter
            outcomes.add(model.converged)
    assert outcomes == {True, False}


def test_smo_capped_at_the_updates_it_needs_returns_the_full_record(caplog):
    rng = np.random.default_rng(0)
    gram = gram_matrix(rng.random((40, 5)) - rng.random((40, 5)), KernelVariant.MEAN)
    labels = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0
    full = smo_train(gram, labels, C=1.0)
    assert full.converged and full.iterations > 1
    with caplog.at_level("WARNING", logger="ankerrank.svm"):
        capped = smo_train(gram, labels, C=1.0, max_iter=full.iterations)
    assert not caplog.records
    assert capped.alpha.tobytes() == full.alpha.tobytes()
    assert (capped.bias, capped.converged, capped.iterations, capped.kkt_violation) == (
        full.bias, True, full.iterations, full.kkt_violation)


def test_smo_record_describes_the_returned_alpha_at_every_cap():
    rng = np.random.default_rng(7)
    gram = gram_matrix(rng.random((12, 3)) - rng.random((12, 3)), KernelVariant.MEAN)
    labels = np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    full = smo_train(gram, labels, C=1.0, tol=1e-8)
    midpoints = 0
    for cap in range(1, full.iterations + 1):
        model = smo_train(gram, labels, C=1.0, tol=1e-8, max_iter=cap)
        alpha, y = model.alpha, model.labels
        v = y - gram @ (alpha * y)
        up = ((y > 0) & (alpha < 1.0)) | ((y < 0) & (alpha > 0.0))
        low = ((y > 0) & (alpha > 0.0)) | ((y < 0) & (alpha < 1.0))
        m_bound, big_m_bound = v[up].max(), v[low].min()
        assert model.kkt_violation == pytest.approx(m_bound - big_m_bound, abs=1e-12)
        if not np.any((alpha > 0.0) & (alpha < 1.0)):
            assert model.bias == pytest.approx((m_bound + big_m_bound) / 2.0, abs=1e-12)
            midpoints += 1
    assert midpoints > 0


@pytest.mark.parametrize("tol", [np.nan, -1.0])
def test_smo_rejects_a_nan_or_negative_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        smo_train(np.eye(2), [1, -1], C=10.0, tol=tol)


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


@pytest.mark.parametrize("kernel, labels, options, message", [
    (np.eye(1), [1], {}, "at least two examples"),
    (np.eye(2), [1, 0], {}, r"labels must be -1 or \+1"),
    (np.eye(2), [1, -1], {"max_iter": 0}, "max_iter must be at least 1"),
    (np.eye(2), [1, -1], {"max_iter": 1.5}, "max_iter must be an integer, not 1.5"),
    (np.eye(2), [1, -1], {"max_iter": 2.0}, "max_iter must be an integer, not 2.0"),
    (np.eye(3), [1, -1], {}, r"kernel matrix shape \(3, 3\) does not match 2 labels"),
], ids=["one-example", "label-zero", "max-iter-zero", "max-iter-fraction", "max-iter-float",
        "kernel-too-large"])
def test_smo_rejects_malformed_training_input(kernel, labels, options, message):
    with pytest.raises(ValueError, match=message):
        smo_train(kernel, labels, C=1.0, **options)


def test_smo_accepts_a_numpy_integer_cap():
    model = smo_train(np.eye(2), [1, -1], C=10.0, tol=1e-8, max_iter=np.int64(1))
    assert model.iterations == 1 and model.converged


def test_decision_values_need_one_kernel_column_per_support_vector():
    model = smo_train(np.eye(2), [1, -1], C=10.0)
    with pytest.raises(ValueError, match=r"kernel rows have shape \(1, 3\), expected \(m, 2\)"):
        decision_values(model, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# Platt calibration

@pytest.mark.parametrize("decisions, labels, message", [
    ([0.5, -0.5], [1.0, -1.0, 1.0], "1-D and equally long"),
    ([[0.5, -0.5]], [[1.0, -1.0]], "1-D and equally long"),
    ([0.5, np.nan], [1.0, -1.0], "decision values must be finite"),
    ([np.inf, -0.5], [1.0, -1.0], "decision values must be finite"),
    ([1.0, 2.0, 3.0], [1.0, 0.0, -1.0], r"labels must be -1 or \+1"),
], ids=["unequal-lengths", "two-dimensional", "nan", "inf", "label-zero"])
def test_platt_rejects_malformed_decisions(decisions, labels, message):
    with pytest.raises(ValueError, match=message):
        platt_fit(np.array(decisions), np.array(labels))


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


def test_platt_fit_records_its_steps_and_convergence():
    rng = np.random.default_rng(6)
    decisions = 2.0 * rng.normal(size=40)
    labels = np.where(decisions + rng.normal(size=40) > 0, 1.0, -1.0)
    params = platt_fit(decisions, labels)
    assert params.converged and params.steps >= 1


def test_platt_fit_at_its_step_cap_is_unconverged_and_warns(monkeypatch, caplog):
    monkeypatch.setattr(svm, "_NEWTON_MAX_STEPS", 1)
    decisions = np.array([-2.0, -1.0, 0.5, 1.0, 2.0])
    labels = np.array([-1.0, 1.0, -1.0, 1.0, 1.0])
    with caplog.at_level(logging.WARNING, logger="ankerrank.svm"):
        params = platt_fit(decisions, labels)
    assert (params.steps, params.converged) == (1, False)
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "Platt fit stopped unconverged after 1 Newton steps" in caplog.text


def test_platt_fit_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        platt_fit(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("seed", range(20))
def test_platt_reaches_its_gradient_tolerance_on_large_fits(seed):
    # fit-cv-sized problems, where a line search judged on the difference of
    # two sums of ~n terms gave up near the optimum
    rng = np.random.default_rng(seed)
    decisions = 2.0 * rng.normal(size=1900)
    labels = np.where(decisions + rng.normal(size=1900) > 0, 1.0, -1.0)
    params = platt_fit(decisions, labels)
    n_pos, n_neg = np.sum(labels > 0), np.sum(labels < 0)
    target = np.where(labels > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    residual = target - 1.0 / (1.0 + np.exp(params.a * decisions + params.b))
    assert max(abs(decisions @ residual), abs(residual.sum())) <= 1e-10


# ---------------------------------------------------------------------------
# The shared Newton driver

def _quadratic(hessian, minimizer, scale=1.0, requests=None):
    """local() of 1/2 (x - m)' H (x - m), whose direction is ``scale`` Newton steps.

    Each point at which the direction is requested is appended to ``requests``.
    """
    def local(x):
        grad = hessian @ (x - minimizer)

        def newton():
            if requests is not None:
                requests.append(x)
            step = -scale * np.linalg.solve(hessian, grad)

            def change(t):
                return t * (grad @ step) + 0.5 * t * t * (step @ hessian @ step)

            return step, change

        return grad, newton
    return local


def test_newton_driver_takes_one_full_step_on_a_quadratic(caplog):
    hessian = np.array([[2.0, 0.5], [0.5, 1.0]])
    minimizer = np.array([0.25, -1.0])
    requests = []
    with caplog.at_level("WARNING", logger="ankerrank.svm"):
        x, steps, converged, changes = _newton_minimize(
            np.zeros(2), _quadratic(hessian, minimizer, requests=requests), 1e-12, 10, "quadratic")
    assert converged and steps == 1 and len(changes) == 1
    # The direction is solved for at the start only, not at the minimizer.
    assert len(requests) == 1 and np.array_equal(requests[0], np.zeros(2))
    assert np.allclose(x, minimizer, rtol=0.0, atol=1e-15)
    assert changes[0] == pytest.approx(-0.5 * minimizer @ hessian @ minimizer)
    assert caplog.text == ""


def test_newton_driver_halves_a_step_that_lowers_the_objective_too_little():
    # A step of 1.99995 Newton steps lowers 1/2 |x|^2 by less than the Armijo
    # bound; its half lowers it by 1/2 |x|^2 (5 at x = (1, 2)) exactly.
    *_, changes = _newton_minimize(np.array([1.0, 2.0]), _quadratic(np.eye(2), np.zeros(2), 1.99995),
                                   1e-12, 10, "quadratic")
    assert changes[0] == pytest.approx(-2.5)


def test_newton_driver_warns_when_no_step_lowers_the_objective(caplog):
    start = np.array([1.0, 2.0])
    with caplog.at_level("WARNING", logger="ankerrank.svm"):
        x, steps, converged, changes = _newton_minimize(
            start, _quadratic(np.eye(2), np.zeros(2), -1.0), 1e-12, 10, "quadratic")
    assert not converged and steps == 0 and changes == []
    assert np.array_equal(x, start)
    assert len(caplog.records) == 1
    assert "quadratic stopped unconverged after 0 Newton steps" in caplog.text
    assert "gradient max-norm 2.000e+00" in caplog.text


def _overflowing_at_full_step(local):
    """``local`` whose change(t) overflows to NaN at t = 1 and is exact at t <= 1/2."""
    def wrapped(x):
        grad, newton = local(x)

        def wrapped_newton():
            step, change = newton()
            return step, lambda t: change(t) + (np.exp(1e3 * t) - np.exp(1e3 * t))

        return grad, wrapped_newton
    return wrapped


def test_newton_driver_halves_a_step_whose_change_overflows_without_a_warning():
    start = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, steps, converged, changes = _newton_minimize(
            start, _overflowing_at_full_step(_quadratic(np.eye(2), np.zeros(2))), 1e-12, 1, "quadratic")
    # The full step's NaN change fails the Armijo test, so the half step is taken.
    assert (steps, converged) == (1, False)
    assert np.array_equal(x, start / 2.0)
    assert changes == [pytest.approx(-1.875)]


def test_newton_driver_still_warns_on_an_overflow_in_the_gradient():
    def local(x):
        return np.exp(1e3 * x), None

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            _newton_minimize(np.ones(1), local, 1e-12, 1, "overflow")


def test_every_newton_fit_stops_by_one_rule():
    assert (svm._NEWTON_TOL, svm._NEWTON_MAX_STEPS) == (1e-10, 100)
    parameters = inspect.signature(btl_fit).parameters
    assert (parameters["tol"].default, parameters["max_iter"].default) == (svm._NEWTON_TOL, svm._NEWTON_MAX_STEPS)


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


def pair_gram(variant, d, flipped=0.0):
    """The Gram and labels of a 4-query, 8-item linear dataset's 112 training pairs.

    Pairs are oriented by a seeded coin as ``anker_fit`` does; then a
    ``flipped`` share of the labels is drawn and flipped, so those pairs
    contradict the ranking.
    """
    data = make_linear_dataset(4, 8, d, seed=0)
    rng = np.random.default_rng(0)
    pairs = build_pair_instances(data)
    labels = np.where(rng.random(len(pairs)) < 0.5, 1.0, -1.0)
    diffs = pair_differences(data.all_items(), *pairs.T, "training items") * labels[:, None]
    labels = np.where(rng.random(len(pairs)) < flipped, -labels, labels)
    return gram_matrix(diffs, variant), labels


# Separable pairs: late costs keep every alpha below the box.  Noisy pairs
# (14 of 112 labels flipped): every solve has some alpha at its cost.
SEPARABLE = {"d": 3}
NOISY = {"d": 1, "flipped": 0.1}
SOLVES_PER_SEARCH = svm._CV_REPEATS * svm._CV_FOLDS * len(DEFAULT_C_GRID)


@pytest.mark.parametrize("instance", [SEPARABLE, NOISY], ids=["separable", "noisy"])
@pytest.mark.parametrize("variant", list(KernelVariant))
def test_select_c_matches_the_oracle_that_solves_every_cost(variant, instance):
    gram, labels = pair_gram(variant, **instance)
    for seed in (0, 1, 2):
        assert select_c(gram, labels, seed=seed) == select_c_reference(gram, labels, seed=seed)


def record_solves(monkeypatch):
    solves = []

    def counting_smo_train(*args, **kwargs):
        solves.append(smo_train(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(svm, "smo_train", counting_smo_train)
    return solves


@pytest.mark.parametrize("variant", list(KernelVariant))
def test_select_c_skips_the_costs_above_a_solve_whose_box_never_binds(variant, monkeypatch):
    gram, labels = pair_gram(variant, **SEPARABLE)
    solves = record_solves(monkeypatch)
    select_c(gram, labels, seed=0)
    assert len(solves) < SOLVES_PER_SEARCH


@pytest.mark.parametrize("variant", list(KernelVariant))
def test_select_c_solves_every_cost_where_the_box_binds(variant, monkeypatch):
    gram, labels = pair_gram(variant, **NOISY)
    solves = record_solves(monkeypatch)
    select_c(gram, labels, seed=0)
    assert [m.alpha.max() for m in solves] == [m.C for m in solves]
    assert len(solves) == SOLVES_PER_SEARCH


def record_tolerances(monkeypatch):
    """Record the ``tol`` of every ``smo_train`` call, given or defaulted."""
    tols, signature = [], inspect.signature(smo_train)

    def recording_smo_train(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        tols.append(call.arguments["tol"])
        return smo_train(*args, **kwargs)

    monkeypatch.setattr(svm, "smo_train", recording_smo_train)
    return tols


@pytest.mark.parametrize("instance", [SEPARABLE, NOISY], ids=["separable", "noisy"])
def test_every_solve_of_the_cost_search_stops_at_the_cv_tolerance(instance, monkeypatch):
    gram, labels = pair_gram(KernelVariant.POLY2, **instance)
    tols = record_tolerances(monkeypatch)
    select_c(gram, labels, seed=0)
    assert tols and set(tols) == {svm._CV_TOL}
    assert svm._CV_TOL == 1e-2


@pytest.mark.parametrize("variant", list(KernelVariant))
def test_a_solve_whose_box_never_binds_is_smo_at_every_larger_cost(variant):
    gram, labels = pair_gram(variant, **SEPARABLE)
    fit = np.arange(0, labels.size, 2)  # one fixed split's fit side
    sub_kernel, y = gram[np.ix_(fit, fit)], labels[fit]
    models = [smo_train(sub_kernel, y, cost) for cost in DEFAULT_C_GRID]
    first = next(k for k, m in enumerate(models) if m.converged and m.alpha.max() < m.C)
    assert first < len(DEFAULT_C_GRID) - 1
    for model in models[first + 1:]:
        assert model.alpha.tobytes() == models[first].alpha.tobytes()
        assert model.bias == models[first].bias


def test_select_c_rejects_a_single_class():
    gram, _ = separable_instance(np.random.default_rng(8))
    with pytest.raises(ValueError, match="single class"):
        select_c(gram, -np.ones(len(gram)), seed=0)


@pytest.mark.parametrize("kernel", [np.vstack([np.eye(4), np.ones((1, 4))]), np.ones((4, 5))],
                         ids=["extra-row", "extra-column"])
def test_select_c_rejects_a_kernel_that_is_not_one_row_and_column_per_label(kernel):
    with pytest.raises(ValueError, match=r"kernel matrix shape \(\d, \d\) does not match 4 labels"):
        select_c(kernel, [1.0, -1.0, 1.0, -1.0])


def test_choose_cost_compares_error_sums_exactly():
    # Costs 0 and 3 both err on 6/5 of a split in all.  As floats their
    # rates sum to 1.2000000000000002 and 1.2, which would pick cost 3.
    per_cost = {0: [0, 0, 0, 1, 2, 3], 3: [0, 0, 0, 2, 3, 1]}
    splits = []

    def split_mistakes(fit, val):
        splits.append((fit.size, val.size))
        return [per_cost.get(g, [5] * 6)[len(splits) - 1] for g in range(len(DEFAULT_C_GRID))]

    assert _choose_cost(np.ones(10), 0, split_mistakes) == DEFAULT_C_GRID[0]
    assert splits == [(5, 5)] * 6


def test_choose_cost_without_a_usable_split_takes_the_smallest_cost():
    def split_mistakes(fit, val):
        raise AssertionError("no split holds both classes on its fit side")

    assert _choose_cost(np.array([1.0, -1.0]), 0, split_mistakes) == DEFAULT_C_GRID[0]
