import csv
from fractions import Fraction

import pytest

import paired_study
from ankerrank import baselines, ranker, svm
from ankerrank.svm import DEFAULT_C_GRID


def test_the_sign_test_is_the_exact_binomial_tail():
    assert paired_study.sign_test_p(9, 1) == Fraction(22, 1024)
    assert paired_study.sign_test_p(1, 9) == Fraction(22, 1024)
    assert paired_study.sign_test_p(3, 3) == 1
    assert paired_study.sign_test_p(0, 0) == 1


def library_state():
    return svm._CV_TOL, svm._CV_KEEP, svm._choose_cost, baselines._choose_cost, ranker.select_c


def run_one_rule_on_two_seeds(capsys, tmp_path, args, method, values):
    """Run the study on the threshold rule, seeds 100-101, and check its table, CSV and the library after it."""
    found = library_state()
    out = tmp_path / "losses.csv"
    paired_study.main(["--family", "threshold", "--seeds", "100-101", "--csv", str(out), *args])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    cells = [cell.strip() for cell in lines[2].strip("|").split("|")]
    assert cells[:3] == ["threshold", method, "2"]
    assert lines[0].count("|") == len(cells) + 1
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["seed"]) for r in rows] == [100, 101]
    for row in rows:
        assert (float(row["value_a"]), float(row["value_b"])) == values
        assert float(row["C_a"]) in DEFAULT_C_GRID and float(row["C_b"]) in DEFAULT_C_GRID
        assert 0.0 <= float(row["loss_a"]) <= 1.0 and 0.0 <= float(row["loss_b"]) <= 1.0
    # the study leaves the library as it found it
    assert library_state() == found
    assert svm._CV_TOL == 1e-2 and svm._CV_KEEP == 3
    assert svm._choose_cost is baselines._choose_cost and ranker.select_c is svm.select_c


def test_the_paired_study_runs_one_rule_on_two_seeds(capsys, tmp_path):
    run_one_rule_on_two_seeds(capsys, tmp_path, [], "anker poly2", (1e-3, 1e-2))


@pytest.mark.parametrize("method, label", [("anker", "anker poly2"), ("ranksvm", "ranksvm")])
def test_the_paired_study_races_each_method_on_two_seeds(capsys, tmp_path, method, label):
    args = ["--constant", "_CV_KEEP", "--values", "7", "3", "--method", method]
    run_one_rule_on_two_seeds(capsys, tmp_path, args, label, (7, 3))
