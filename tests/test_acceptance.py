"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are pinned here and not configurable.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ankerrank.cli import main as cli_main
from ankerrank.data import NormalizationScope, RankedDataset, choose_normalization_scope, save_dataset
from ankerrank.evaluate import MethodConfig, competition_ranks, ranking_loss, run_experiment
from ankerrank.kernel import KernelVariant, boolean_proportion, gram_matrix, kernel_matrix, proportion_degree
from ankerrank.ranker import btl_fit
from ankerrank.svm import decision_values, smo_train
from oracles import brute_force_ranking_loss, btl_grid_argmax, dual_objective, projected_gradient_qp
from synthetic import make_linear_dataset, make_rule_dataset, threshold_rule


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_kernel_validity():
    with criterion(1, "kernel validity on 200 random pair sets"):
        start = time.monotonic()
        rng = np.random.default_rng(20_240_001)
        worst = np.inf
        for _ in range(200):
            size = int(rng.integers(2, 51))
            dim = int(rng.integers(1, 21))
            diffs = rng.random((size, dim)) - rng.random((size, dim))
            for variant in (KernelVariant.MEAN, KernelVariant.POLY2):
                gram = gram_matrix(diffs, variant)
                low = float(np.linalg.eigvalsh(gram).min())
                worst = min(worst, low)
                assert low >= -1e-8
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"kernel validity sweep took {elapsed:.1f}s"


def test_criterion_2_boolean_consistency():
    with criterion(2, "Boolean table consistency"):
        ones = 0
        for code in range(16):
            quad = tuple((code >> shift) & 1 for shift in (3, 2, 1, 0))
            degree = proportion_degree(*(float(x) for x in quad))
            table = boolean_proportion(*quad)
            assert degree == float(table)
            ones += table
        assert ones == 6


def test_criterion_3_kernel_equals_proportion_degree():
    with criterion(3, "kernel/proportion equivalence on 1e5 quadruples"):
        rng = np.random.default_rng(20_240_003)
        quads = rng.random((100_000, 4))
        # The pipeline's kernel on one feature, for the pairs (a, b) and
        # (c, d) of each quadruple, passed as their differences: the
        # diagonal of 1 000 x 1 000 blocks.
        for start in range(0, len(quads), 1000):
            chunk = quads[start:start + 1000]
            a, b, c, d = (chunk[:, i:i + 1] for i in range(4))
            kernel = np.diag(kernel_matrix(a - b, c - d, KernelVariant.MEAN))
            expected = [proportion_degree(*quad) for quad in chunk]
            assert np.array_equal(kernel, expected)


def test_criterion_4_smo_against_projected_gradient_oracle():
    with criterion(4, "SMO dual objective and KKT conditions"):
        rng = np.random.default_rng(20_240_004)
        tol = 1e-9
        for _ in range(50):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, 6))
            gram = gram_matrix(rng.random((n, d)) - rng.random((n, d)), KernelVariant.MEAN)
            labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            labels[0], labels[1] = 1.0, -1.0
            cost = float(rng.choice([0.1, 1.0, 10.0]))

            model = smo_train(gram, labels, cost, tol=tol)
            oracle = projected_gradient_qp(gram, labels, cost)
            ours = dual_objective(gram, labels, model.alpha)
            reference = dual_objective(gram, labels, oracle)
            assert abs(ours - reference) <= 1e-6

            margins = labels * decision_values(model, gram[:, model.support])
            for i in range(n):
                if model.alpha[i] == 0.0:
                    assert margins[i] >= 1.0 - tol - 1e-10
                elif model.alpha[i] == cost:
                    assert margins[i] <= 1.0 + tol + 1e-10
                else:
                    assert abs(margins[i] - 1.0) <= tol + 1e-10


def test_criterion_5_btl_correctness():
    with criterion(5, "BTL closed form, grid oracle, monotone likelihood"):
        for p in (0.55, 0.75, 0.9):
            pref = np.array([[0.5, p], [1.0 - p, 0.5]])
            params = btl_fit(pref)
            assert abs(params.theta[0] / params.theta[1] - p / (1.0 - p)) <= 1e-6
            assert np.all(np.diff(params.log_likelihood_path) >= -1e-9)

        pref3 = np.array([
            [0.5, 0.64, 0.73],
            [0.36, 0.5, 0.58],
            [0.27, 0.42, 0.5],
        ])
        params = btl_fit(pref3)
        oracle = btl_grid_argmax(pref3, resolution=1e-3)
        assert np.max(np.abs(params.theta - oracle)) <= 1e-2
        assert np.all(np.diff(params.log_likelihood_path) >= -1e-9)


def test_criterion_6_ranking_loss():
    with criterion(6, "ranking loss identities and brute-force agreement"):
        identity = np.arange(4)
        assert ranking_loss(identity, identity) == 0.0
        assert ranking_loss(identity, identity[::-1]) == 1.0
        assert ranking_loss(np.array([0, 1, 2]), np.array([1, 0, 2])) == pytest.approx(1 / 3)

        rng = np.random.default_rng(20_240_006)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            pi, pi_star = rng.permutation(n), rng.permutation(n)
            assert ranking_loss(pi, pi_star) == pytest.approx(brute_force_ranking_loss(pi, pi_star))


def test_criterion_7_end_to_end_synthetic_experiment():
    with criterion(7, "synthetic train-to-test experiment"):
        start = time.monotonic()
        weights = np.linspace(1.0, 2.0, 10)
        train = make_linear_dataset(5, 20, 10, seed=20_240_107, weights=weights)
        test = make_linear_dataset(5, 20, 10, seed=20_240_207, weights=weights)
        config = MethodConfig(variant=KernelVariant.POLY2, C=None)
        results = run_experiment(train, test, ["anker", "ranksvm"],
                                 repeats=20, seed=20_240_307, config=config)
        by_name = {r.method: r for r in results}
        elapsed = time.monotonic() - start
        print(f"\n[acceptance]   anker mean d_RL = {by_name['anker'].mean_loss:.4f}, "
              f"ranksvm mean d_RL = {by_name['ranksvm'].mean_loss:.4f}, {elapsed:.0f}s")
        assert by_name["anker"].mean_loss <= 0.10
        assert by_name["ranksvm"].mean_loss <= 0.05
        assert by_name["anker"].losses.shape == (20,)
        assert elapsed < 300.0, f"experiment took {elapsed:.0f}s"


def test_criterion_8_protocol_fidelity(tmp_path):
    with criterion(8, "benchmark reproducibility and tie convention"):
        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        save_dataset(make_linear_dataset(3, 8, 3, seed=20_240_108), train_path)
        test = make_linear_dataset(2, 8, 3, seed=20_240_208)
        save_dataset(test, test_path)

        # byte-identical CSV for a fixed seed, two methods
        argv = ["benchmark", "--train", str(train_path), "--test", str(test_path),
                "--methods", "anker,err", "--repeats", "2", "--seed", "13", "--C", "1.0"]
        first, second = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        # 20 repeats: mean +- std recorded, ranks follow the shared-lower-rank
        # convention (two external methods with the same orderings tie exactly)
        reversed_path = tmp_path / "reversed.json"
        reversed_path.write_text(json.dumps([{"ordering": q.ordering[::-1].tolist()} for q in test.queries]))
        out = tmp_path / "r20.csv"
        assert cli_main(["benchmark", "--train", str(train_path), "--test", str(test_path),
                         "--methods", "worst,worse,err,able2rank", "--repeats", "20",
                         "--external", f"worst={reversed_path}", "--external", f"worse={reversed_path}",
                         "--seed", "13", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "problem,method,mean,std,rank"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        means = [float(r[2]) for r in rows]
        ranks = [int(r[4]) for r in rows]
        assert means[0] == means[1]
        assert ranks == competition_ranks(means).tolist()
        assert ranks[0] == ranks[1] == 3  # equal means share the lower rank
        for r in rows:
            float(r[3])  # std column parses


def test_criterion_9_normalization_gate():
    with criterion(9, "KS normalization gate"):
        rng = np.random.default_rng(20_240_009)
        train = rng.normal(size=(100, 4))

        assert choose_normalization_scope(train, train.copy()) is NormalizationScope.TRAIN_PLUS_TEST

        test = rng.normal(size=(100, 4))
        test[:, 2] += 10.0 * train[:, 2].std(ddof=1)
        assert choose_normalization_scope(train, test) is NormalizationScope.TEST_ONLY


def test_criterion_10_analogy_kernel_learns_a_nonlinear_rule():
    with criterion(10, "anker beats RankSVM on a threshold rule"):
        # h(u) depends on the sign pattern of u, which the kernel's sign
        # classes see and a linear score w . u does not.  Seeds fixed in advance.
        config = MethodConfig(scope=NormalizationScope.TRAIN_PLUS_TEST)
        for seed in range(200, 206):
            data = make_rule_dataset(16, 12, 3, seed, threshold_rule)
            train = RankedDataset(data.schema, data.queries[:8])
            test = RankedDataset(data.schema, data.queries[8:])
            loss = {r.method: r.mean_loss for r in run_experiment(train, test, ["anker", "ranksvm"],
                                                                  repeats=1, config=config)}
            print(f"\n[acceptance]   seed {seed}: anker d_RL = {loss['anker']:.4f}, "
                  f"ranksvm d_RL = {loss['ranksvm']:.4f}")
            assert loss["anker"] <= loss["ranksvm"] - 0.02
