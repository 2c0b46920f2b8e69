import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ankerrank
from ankerrank.cli import _apply_thread_cap, main
from ankerrank.data import RankedDataset, RankedQuery, save_dataset
from synthetic import make_linear_dataset


@pytest.fixture(scope="module")
def csv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    train = make_linear_dataset(3, 8, 3, seed=0)
    test = make_linear_dataset(2, 8, 3, seed=1)
    query = make_linear_dataset(1, 6, 3, seed=2)
    paths = {}
    for name, ds in (("train", train), ("test", test), ("query", query)):
        paths[name] = root / f"{name}.csv"
        save_dataset(ds, paths[name])
    return paths


def test_rank_happy_path(csv_files, tmp_path, capsys):
    out = tmp_path / "ranking.json"
    code = main(["rank", "--train", str(csv_files["train"]), "--query", str(csv_files["query"]),
                 "--out", str(out), "--C", "1.0", "--seed", "5"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert sorted(payload["ordering"]) == list(range(6))
    assert len(payload["theta"]) == 6
    assert "preference_matrix" not in payload


def test_rank_writes_json_to_stdout(csv_files, capsys):
    code = main(["rank", "--train", str(csv_files["train"]), "--query", str(csv_files["query"]),
                 "--C", "1.0", "--include-matrix"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert "ordering" in payload and "preference_matrix" in payload
    assert len(payload["preference_matrix"]) == 6


def test_rank_missing_flag_exits_2(csv_files):
    with pytest.raises(SystemExit) as excinfo:
        main(["rank", "--query", str(csv_files["query"])])
    assert excinfo.value.code == 2


def test_rank_wrong_feature_count_exits_2(csv_files, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("query_id,rank,f0:numeric,f1:numeric\nq,1,0.1,0.2\nq,2,0.3,0.4\n")
    code = main(["rank", "--train", str(csv_files["train"]), "--query", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "expected 3 feature columns" in captured.err


def test_rank_multi_query_file_exits_2(csv_files, capsys):
    code = main(["rank", "--train", str(csv_files["train"]), "--query", str(csv_files["test"])])
    captured = capsys.readouterr()
    assert code == 2
    assert "exactly one query_id" in captured.err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_rank_non_finite_feature_exits_2(csv_files, tmp_path, capsys, cell):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"query_id,rank,f0,f1,f2\nq,1,0.1,0.2,0.3\nq,2,0.4,{cell},0.6\n")
    code = main(["rank", "--train", str(csv_files["train"]), "--query", str(bad), "--C", "1.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "non-finite" in captured.err
    assert captured.out == ""


def _with_one_item_query(path, source):
    """Save ``source`` plus one extra query that holds a single item."""
    single = RankedQuery("single", source.queries[0].items[:1], np.array([0]))
    save_dataset(RankedDataset(source.schema, source.queries + (single,)), path)


def test_rank_one_item_query_exits_2(csv_files, tmp_path, capsys):
    bad = tmp_path / "one.csv"
    bad.write_text("query_id,rank,f0,f1,f2\nq,1,0.1,0.2,0.3\n")
    code = main(["rank", "--train", str(csv_files["train"]), "--query", str(bad), "--C", "1.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "at least two items" in captured.err and "internal error" not in captured.err
    assert captured.out == ""


def test_rank_one_item_training_query_exits_2(csv_files, tmp_path, capsys):
    train = tmp_path / "train.csv"
    _with_one_item_query(train, make_linear_dataset(2, 6, 3, seed=3))
    code = main(["rank", "--train", str(train), "--query", str(csv_files["query"]), "--C", "1.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "'single' has fewer than two items" in captured.err
    assert captured.out == ""


def test_benchmark_one_item_test_query_exits_2(csv_files, tmp_path, capsys):
    test = tmp_path / "test.csv"
    _with_one_item_query(test, make_linear_dataset(1, 6, 3, seed=4))
    code = main(["benchmark", "--train", str(csv_files["train"]), "--test", str(test),
                 "--methods", "err", "--repeats", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "'single' has fewer than two items" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n_items", [2, 3])
def test_rank_too_few_training_pairs_exits_2(tmp_path, capsys, n_items):
    # One training query of n items gives n(n - 1)/2 pairs; with 1 pair, or
    # 3 pairs whose coins all land alike, the pairs hold a single label.
    train, query = tmp_path / "train.csv", tmp_path / "query.csv"
    save_dataset(make_linear_dataset(1, n_items, 3, seed=6), train)
    save_dataset(make_linear_dataset(1, 4, 3, seed=7), query)
    codes = []
    for seed in range(1, 9):
        codes.append(main(["rank", "--train", str(train), "--query", str(query), "--C", "1",
                           "--seed", str(seed)]))
        captured = capsys.readouterr()
        if codes[-1] == 2:
            assert "too few training pairs" in captured.err and captured.out == ""
    assert set(codes) == ({2} if n_items == 2 else {0, 2})


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("options,env", [
    ("rank --pair-cap 0", None),
    ("rank --pair-cap -3", None),
    ("benchmark --pair-cap 0", None),
    ("benchmark --able2rank-k 0", None),
    ("benchmark --repeats 0", None),
    ("benchmark --repeats 2.5", None),
    ("kernel-check --samples 0", None),
    ("kernel-check --dim 0", None),
    ("--threads 0 kernel-check", None),
    ("--threads two kernel-check", None),
    ("kernel-check", "two"),
    ("kernel-check", "0"),
])
def test_count_options_must_be_positive_integers(csv_files, capsys, monkeypatch, options, env):
    if env is None:
        monkeypatch.delenv("ANKERRANK_THREADS", raising=False)
    else:
        monkeypatch.setenv("ANKERRANK_THREADS", env)
    inputs = {"rank": ["--train", str(csv_files["train"]), "--query", str(csv_files["query"])],
              "benchmark": ["--train", str(csv_files["train"]), "--test", str(csv_files["test"]),
                            "--methods", "anker,able2rank"]}
    argv = options.split()
    command = next(word for word in argv if word in ("rank", "benchmark", "kernel-check"))
    assert _exit_code(argv + inputs.get(command, [])) == 2
    captured = capsys.readouterr()
    assert "positive integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("options,message", [
    ("rank --C inf", "finite positive number"),
    ("rank --C=-inf", "finite positive number"),
    ("rank --C nan", "finite positive number"),
    ("benchmark --C inf", "finite positive number"),
    ("benchmark --C nan", "finite positive number"),
    ("rank --seed -1", "non-negative integer"),
    ("benchmark --seed -1", "non-negative integer"),
    ("kernel-check --seed -1", "non-negative integer"),
    ("kernel-check --tol nan", "finite non-negative number"),
    ("kernel-check --tol inf", "finite non-negative number"),
    ("kernel-check --tol=-1e-8", "finite non-negative number"),
])
def test_cost_seed_and_tolerance_options_are_checked(csv_files, capsys, options, message):
    inputs = {"rank": ["--train", str(csv_files["train"]), "--query", str(csv_files["query"])],
              "benchmark": ["--train", str(csv_files["train"]), "--test", str(csv_files["test"]),
                            "--methods", "anker,able2rank"]}
    argv = options.split()
    assert _exit_code(argv + inputs.get(argv[0], [])) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_thread_flag_overrides_the_environment(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "4")
    _apply_thread_cap(1)
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def _run_cli(argv):
    """Run the CLI in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(ankerrank.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "ankerrank.cli", *argv],
                          capture_output=True, env=env)


def test_rank_output_does_not_depend_on_the_thread_count(csv_files):
    argv = ["rank", "--train", str(csv_files["train"]), "--query", str(csv_files["query"]),
            "--seed", "11", "--include-matrix"]
    one = _run_cli(["--threads", "1", *argv])
    two = _run_cli(["--threads", "2", *argv])
    assert one.returncode == 0 and two.returncode == 0
    assert one.stdout == two.stdout


def test_rank_is_byte_identical_for_a_fixed_seed(csv_files, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["rank", "--train", str(csv_files["train"]), "--query", str(csv_files["query"]),
            "--seed", "11", "--C", "1.0"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_benchmark_filters_methods_and_reports(csv_files, tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(["benchmark", "--train", str(csv_files["train"]), "--test", str(csv_files["test"]),
                 "--methods", "err,able2rank", "--repeats", "2", "--seed", "3",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "problem,method,mean,std,rank"
    assert len(lines) == 3
    assert {line.split(",")[1] for line in lines[1:]} == {"err", "able2rank"}
    assert "err" in captured.err  # human table goes to stderr


def test_benchmark_unknown_method_exits_2(csv_files, capsys):
    code = main(["benchmark", "--train", str(csv_files["train"]), "--test", str(csv_files["test"]),
                 "--methods", "ranknet"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unsupported method" in captured.err


def test_benchmark_same_seed_is_byte_identical(csv_files, tmp_path):
    argv = ["benchmark", "--train", str(csv_files["train"]), "--test", str(csv_files["test"]),
            "--methods", "anker,err", "--repeats", "2", "--seed", "4", "--C", "1.0"]
    first = tmp_path / "r1.csv"
    second = tmp_path / "r2.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_benchmark_accepts_external_rankings(csv_files, tmp_path):
    # produce a ranking JSON for each test query with the rank command's format
    from ankerrank.data import load_dataset

    test_ds = load_dataset(csv_files["test"])
    payload = [{"ordering": q.ordering.tolist()} for q in test_ds.queries]
    external = tmp_path / "external.json"
    external.write_text(json.dumps(payload))
    out = tmp_path / "results.csv"
    code = main(["benchmark", "--train", str(csv_files["train"]), "--test", str(csv_files["test"]),
                 "--methods", "err,upstream", "--external", f"upstream={external}",
                 "--repeats", "2", "--seed", "5", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    by_name = {r[1]: r for r in rows}
    assert float(by_name["upstream"][2]) == 0.0
    assert int(by_name["upstream"][4]) == 1


@pytest.mark.parametrize("malform", [
    lambda truth: truth[:-1],
    lambda truth: [[0, 0]] + truth[1:],
    lambda truth: [["a", "b"]] + truth[1:],
    lambda truth: [[0, [1]]] + truth[1:],
    lambda truth: [[k + 0.5 for k in ordering] for ordering in truth],
    lambda truth: [[bool(k) for k in ordering] for ordering in truth],
], ids=["one-ordering-short", "not-a-permutation", "strings", "nested", "fractions", "booleans"])
def test_benchmark_malformed_external_rankings_exit_2(csv_files, tmp_path, capsys, malform):
    # Two-item test queries: the fractions truncate to, and the booleans read
    # as, the true orderings, so a lenient parser would score them as perfect.
    test = make_linear_dataset(3, 2, 3, seed=9)
    save_dataset(test, tmp_path / "test.csv")
    truth = [q.ordering.tolist() for q in test.queries]
    external = tmp_path / "external.json"
    external.write_text(json.dumps([{"ordering": o} for o in malform(truth)]))
    code = main(["benchmark", "--train", str(csv_files["train"]), "--test", str(tmp_path / "test.csv"),
                 "--methods", "err,upstream", "--external", f"upstream={external}", "--repeats", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "external ordering" in captured.err
    assert captured.out == ""


def test_benchmark_missing_external_file_is_a_usage_error(csv_files, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["benchmark", "--train", str(csv_files["train"]), "--test", str(csv_files["test"]),
              "--methods", "err,mine", "--external", "mine=/nonexistent/ext.json"])
    assert excinfo.value.code == 2


def test_kernel_check_passes_and_reports(capsys):
    code = main(["kernel-check", "--samples", "25", "--dim", "6", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["ok"] is True
    assert payload["passes"] == 25
    assert payload["boolean_matches"] == 16
    assert payload["min_eigenvalue"] >= -1e-8
    assert "25/25 trials" in captured.err
    assert "16/16 Boolean quadruples match" in captured.err


def test_kernel_check_zero_tolerance_may_fail(capsys):
    # tolerance semantics: demanding an exactly non-negative spectrum can
    # fail due to round-off, and the command then signals failure
    code = main(["kernel-check", "--samples", "40", "--dim", "8", "--tol", "0", "--seed", "2"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == (0 if payload["ok"] else 1)


def test_cli_entry_point_runs_as_subprocess(csv_files, tmp_path):
    # the installed console script path: run via python -m equivalent
    result = _run_cli(["kernel-check", "--samples", "3", "--dim", "3"])
    assert result.returncode == 0
    assert json.loads(result.stdout)["ok"] is True
