import csv
from fractions import Fraction

import paired_study
from ankerrank import ranker, svm
from ankerrank.svm import DEFAULT_C_GRID


def test_the_sign_test_is_the_exact_binomial_tail():
    assert paired_study.sign_test_p(9, 1) == Fraction(22, 1024)
    assert paired_study.sign_test_p(1, 9) == Fraction(22, 1024)
    assert paired_study.sign_test_p(3, 3) == 1
    assert paired_study.sign_test_p(0, 0) == 1


def test_the_paired_study_runs_one_rule_on_two_seeds(capsys, tmp_path):
    out = tmp_path / "losses.csv"
    paired_study.main(["--family", "threshold", "--seeds", "100-101", "--csv", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    cells = [cell.strip() for cell in lines[2].strip("|").split("|")]
    assert cells[:3] == ["threshold", "poly2", "2"]
    assert lines[0].count("|") == len(cells) + 1
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["seed"]) for r in rows] == [100, 101]
    for row in rows:
        assert (float(row["tol_a"]), float(row["tol_b"])) == (1e-3, 1e-2)
        assert float(row["C_a"]) in DEFAULT_C_GRID and float(row["C_b"]) in DEFAULT_C_GRID
        assert 0.0 <= float(row["loss_a"]) <= 1.0 and 0.0 <= float(row["loss_b"]) <= 1.0
    # the study leaves the library as it found it
    assert svm._CV_TOL == 1e-2 and ranker.select_c is svm.select_c
