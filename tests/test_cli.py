import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ankerrank
from ankerrank.cli import build_parser, main
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


def _identical_items(source):
    return [RankedQuery(q.query_id, np.tile(q.items[:1], (q.n_items, 1)), q.ranking) for q in source.queries]


def _single_items(source):
    return [RankedQuery(q.query_id, q.items[:1], np.array([0])) for q in source.queries]


@pytest.mark.parametrize("make_queries,options,message", [
    (_identical_items, "--methods ranksvm", "no usable preference pairs"),
    (_single_items, "--methods ranksvm", "no usable preference pairs"),
    (_single_items, "--methods able2rank", "no training preferences"),
    (lambda source: _single_items(source)[:1], "--methods err --normalize test-only", "at least two rows"),
], ids=["ranksvm-identical-items", "ranksvm-single-items", "able2rank-single-items", "err-one-row"])
def test_benchmark_training_data_without_preferences_exits_2(csv_files, tmp_path, capsys,
                                                             make_queries, options, message):
    source = make_linear_dataset(2, 6, 3, seed=8)
    train = tmp_path / "train.csv"
    save_dataset(RankedDataset(source.schema, tuple(make_queries(source))), train)
    code = main(["benchmark", "--train", str(train), "--test", str(csv_files["test"]),
                 "--repeats", "1", *options.split()])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err and "internal error" not in captured.err
    assert captured.out == ""


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# The ids end in "-None" so that the cases keep the names under which
# earlier results were recorded.
@pytest.mark.parametrize("options", [
    "rank --pair-cap 0",
    "rank --pair-cap -3",
    "benchmark --pair-cap 0",
    "benchmark --able2rank-k 0",
    "benchmark --repeats 0",
    "benchmark --repeats 2.5",
], ids=lambda options: f"{options}-None")
def test_count_options_must_be_positive_integers(csv_files, capsys, options):
    inputs = {"rank": ["--train", str(csv_files["train"]), "--query", str(csv_files["query"])],
              "benchmark": ["--train", str(csv_files["train"]), "--test", str(csv_files["test"]),
                            "--methods", "anker,able2rank"]}
    argv = options.split()
    assert _exit_code(argv + inputs.get(argv[0], [])) == 2
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


def _run_cli(argv, **env):
    """Run the CLI in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(ankerrank.__file__).resolve().parents[1]), **env)
    return subprocess.run([sys.executable, "-m", "ankerrank.cli", *argv],
                          capture_output=True, env=env)


def test_rank_output_does_not_depend_on_the_thread_count(tmp_path):
    # Large enough for OpenBLAS to split the work across threads.  The BLAS
    # mat-vec of the decision values and the LAPACK solve of BTL then round
    # differently, so the output is close, not byte-identical.
    train, query = tmp_path / "train.csv", tmp_path / "query.csv"
    save_dataset(make_linear_dataset(10, 20, 10, seed=21), train)
    save_dataset(make_linear_dataset(1, 100, 10, seed=22), query)
    argv = ["rank", "--train", str(train), "--query", str(query), "--C", "1", "--include-matrix"]
    outputs = []
    for threads in ("1", "2"):
        run = _run_cli(argv, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert run.returncode == 0, run.stderr
        outputs.append(json.loads(run.stdout))
    one, two = outputs
    assert one["ordering"] == two["ordering"]
    for key in ("theta", "preference_matrix"):
        assert np.allclose(two[key], one[key], rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("options,message", [
    ("--methods err,err", "method err given more than once"),
    ("--methods err,anker --external anker={reversed}", "method anker has the name of a built-in method"),
    ("--methods err,mine --external mine={reversed} --external mine={reversed}",
     "--external NAME is given more than once"),
], ids=["repeated-method", "external-shadows-built-in", "repeated-external"])
def test_benchmark_method_names_have_one_meaning(csv_files, tmp_path, capsys, options, message):
    from ankerrank.data import load_dataset

    reversed_path = tmp_path / "reversed.json"
    reversed_path.write_text(json.dumps(
        [{"ordering": q.ordering[::-1].tolist()} for q in load_dataset(csv_files["test"]).queries]))
    # The training file does not exist: names are checked before any data is loaded.
    code = main(["benchmark", "--train", str(tmp_path / "missing.csv"), "--test", str(csv_files["test"]),
                 "--repeats", "1", *options.format(reversed=reversed_path).split()])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_benchmark_scores_a_ranker_without_information_at_one_half(csv_files, tmp_path):
    # Training queries whose items are all identical carry no preference, so
    # both rankers tie every test item; save_dataset writes the test rows in
    # rank order, so breaking the ties by row index would score 0.
    source = make_linear_dataset(3, 8, 3, seed=0)
    train = tmp_path / "train.csv"
    save_dataset(RankedDataset(source.schema, tuple(_identical_items(source))), train)
    out = tmp_path / "results.csv"
    code = main(["benchmark", "--train", str(train), "--test", str(csv_files["test"]),
                 "--methods", "anker,able2rank", "--repeats", "2", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert {r[1]: r[2] for r in rows} == {"anker": "0.500000", "able2rank": "0.500000"}


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


def test_cli_entry_point_runs_as_subprocess(csv_files):
    # the installed console script path: run via python -m equivalent
    result = _run_cli(["rank", "--train", str(csv_files["train"]), "--query", str(csv_files["query"]),
                       "--C", "1"])
    assert result.returncode == 0, result.stderr
    assert sorted(json.loads(result.stdout)["ordering"]) == list(range(6))


def test_the_commands_are_rank_and_benchmark(capsys):
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert set(commands) == {"rank", "benchmark"}
    assert _exit_code(["kernel-check"]) == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'kernel-check'" in captured.err
    assert captured.out == ""
