import numpy as np

import rule_table
from synthetic import linear_rule, make_linear_dataset, make_rule_dataset, majority_rule, threshold_rule


def test_the_linear_rule_ranks_as_the_linear_utility():
    by_rule = make_rule_dataset(3, 9, 4, 5, linear_rule)
    by_utility = make_linear_dataset(3, 9, 4, 5)
    for ours, theirs in zip(by_rule.queries, by_utility.queries):
        assert np.array_equal(ours.items, theirs.items)
        assert np.array_equal(ours.ranking, theirs.ranking)


def test_the_majority_rule_is_intransitive():
    # a beats b on f0 and f1, b beats c on f1 and f2, c beats a on f0 and f2
    a, b, c = np.array([0.5, 0.9, 0.1]), np.array([0.3, 0.5, 0.8]), np.array([0.7, 0.2, 0.4])
    assert majority_rule(np.array([a - b, b - c, c - a])).tolist() == [1.0, 1.0, 1.0]


def test_the_rule_table_runs_one_rule_on_one_seed():
    lines = rule_table.table({"threshold": threshold_rule}, seeds=[100]).splitlines()
    assert len(lines) == 3
    cells = [cell.strip() for cell in lines[2].strip("|").split("|")]
    assert cells[0] == "threshold"
    # A cell is "mean ± standard error"; with one seed the error is NaN.
    losses = [float(cell.split(" ± ")[0]) for cell in cells[1:]]
    assert len(losses) == len(rule_table.COLUMNS)
    assert all(0.0 <= loss <= 1.0 for loss in losses)
