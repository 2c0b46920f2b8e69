"""Rule x method table: mean ranking loss on data ranked by known pairwise rules.

Each problem has items uniform in [0, 1]^3, 12 per query, and queries in
the Copeland order of a rule h(x_i - x_j) (``synthetic.make_rule_dataset``);
8 queries train and 8 test.  ``run_experiment`` runs every method once with
C chosen by cross-validation and the normalization scope fixed to
train+test.  Each cell is the mean loss over seeds 100-129 +- its standard
error.  pytest does not collect this file; run it from the repository root
with

    PYTHONPATH=src:tests python tests/rule_table.py
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ankerrank.data import NormalizationScope, RankedDataset
from ankerrank.evaluate import METHOD_NAMES, MethodConfig, run_experiment
from ankerrank.kernel import KernelVariant
from synthetic import first_threshold_rule, linear_rule, majority_rule, make_rule_dataset, threshold_rule

RULES = {
    "linear, weights 1…2": linear_rule,
    "sign u₀ if \\|u₀\\| > 0.2, else sign u₁": first_threshold_rule,
    "sign u₁ if \\|u₁\\| > 0.3, else sign u₀": threshold_rule,
    "sign of Σ sign uₖ (majority of features; intransitive)": majority_rule,
}
COLUMNS = ("anker POLY2", "anker MEAN", "err", "ranksvm", "able2rank")
SEEDS = tuple(range(100, 130))


def rule_problem(rule, seed: int) -> tuple[RankedDataset, RankedDataset]:
    """One seeded rule problem: 8 training and 8 test queries of 12 items in [0, 1]^3."""
    data = make_rule_dataset(16, 12, 3, seed, rule)
    return RankedDataset(data.schema, data.queries[:8]), RankedDataset(data.schema, data.queries[8:])


def rule_losses(rule, seed: int) -> dict[str, float]:
    """Mean test loss of each column's method on one seeded rule problem."""
    train, test = rule_problem(rule, seed)
    config = MethodConfig(scope=NormalizationScope.TRAIN_PLUS_TEST)
    losses = {r.method: r.mean_loss for r in run_experiment(train, test, METHOD_NAMES, repeats=1, config=config)}
    losses["anker POLY2"] = losses.pop("anker")
    mean_config = replace(config, variant=KernelVariant.MEAN)
    losses["anker MEAN"] = run_experiment(train, test, ["anker"], repeats=1, config=mean_config)[0].mean_loss
    return losses


def mean_se(values, digits: int = 3) -> str:
    """``values``' mean +- its standard error (NaN for a single value), to ``digits`` decimals."""
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / np.sqrt(values.size) if values.size > 1 else float("nan")
    return f"{values.mean():.{digits}f} ± {se:.{digits}f}"


def table(rules=RULES, seeds=SEEDS) -> str:
    """The markdown table of mean losses +- standard errors, one row per rule."""
    lines = ["| rule h(u) | " + " | ".join(COLUMNS) + " |", "|---" * (len(COLUMNS) + 1) + "|"]
    for label, rule in rules.items():
        per_seed = [rule_losses(rule, seed) for seed in seeds]
        cells = [mean_se([losses[c] for losses in per_seed]) for c in COLUMNS]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table())
