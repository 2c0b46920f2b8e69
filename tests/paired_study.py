"""Paired study: anker's test loss under two KKT tolerances of the cost search.

For each seed of a range, one problem of a family is ranked twice by anker
with C chosen by cross-validation (``select_c``): once with the cost
search's SMO tolerance ``svm._CV_TOL`` set to the first value and once to
the second.  The value is set in process for the study only; the library has
no option for it.  Both fits see the same data and the same seeds, so the
losses pair up by seed.

The families:

- ``linear``, ``first-threshold``, ``threshold`` and ``majority``: the rule
  table's problems (``rule_table.rule_problem``), 8 training and 8 test
  queries of 12 items in [0, 1]^3, ranked by a pairwise rule;
- ``linear-10d``: the perfbench fit-cv shape, 10 training queries of 20
  items and 10 held-out queries of 10 items in [0, 1]^10 ranked by a linear
  utility (``make_linear_dataset``; the held-out set uses seed + 1 000 000).

Each run is ``run_experiment`` on ``anker`` alone with one repeat and the
normalization scope fixed to train+test, so a rule problem's POLY2 loss is
the rule table's anker POLY2 cell.  One row per family gives how many
chosen costs changed, each side's mean loss +- standard error, the mean
paired change (second minus first), the seeds where the second side's loss
is lower / higher / equal, and the exact two-sided sign-test p-value over
the seeds that are not ties.  pytest does not collect this file; run it from
the repository root, for example

    PYTHONPATH=src:tests python tests/paired_study.py --seeds 100-129 --variant poly2
    PYTHONPATH=src:tests python tests/paired_study.py --family linear-10d --seeds 400-429 --csv losses.csv
"""

from __future__ import annotations

import argparse
import csv
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np

from ankerrank import ranker, svm
from ankerrank.data import NormalizationScope
from ankerrank.evaluate import MethodConfig, run_experiment
from ankerrank.kernel import KernelVariant
from rule_table import mean_se, rule_problem
from synthetic import first_threshold_rule, linear_rule, majority_rule, make_linear_dataset, threshold_rule


def _linear_10d(seed: int):
    return make_linear_dataset(10, 20, 10, seed), make_linear_dataset(10, 10, 10, seed + 1_000_000, prefix="h")


def _rule(rule):
    return lambda seed: rule_problem(rule, seed)


FAMILIES = {
    "linear": _rule(linear_rule),
    "first-threshold": _rule(first_threshold_rule),
    "threshold": _rule(threshold_rule),
    "majority": _rule(majority_rule),
    "linear-10d": _linear_10d,
}
RULES = ("linear", "first-threshold", "threshold", "majority")


def sign_test_p(wins: int, losses: int) -> Fraction:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses`` (ties left out).

    Twice the binomial(n, 1/2) tail at the smaller count, capped at 1, in
    integers: P = 2 sum_{i <= k} C(n, i) / 2^n with n = wins + losses.
    """
    n, k = wins + losses, min(wins, losses)
    return min(Fraction(1), Fraction(2 * sum(comb(n, i) for i in range(k + 1)), 2**n))


@contextmanager
def cv_tolerance(tol: float):
    """Set ``svm._CV_TOL`` to ``tol`` and yield the list of costs ``select_c`` picks meanwhile."""
    chosen, saved = [], svm._CV_TOL

    def recording_select_c(*args, **kwargs):
        chosen.append(svm.select_c(*args, **kwargs))
        return chosen[-1]

    svm._CV_TOL, ranker.select_c = tol, recording_select_c
    try:
        yield chosen
    finally:
        svm._CV_TOL, ranker.select_c = saved, svm.select_c


def anker_loss(family: str, variant: KernelVariant, seed: int, tol: float) -> tuple[float, float]:
    """The chosen cost and the mean test loss of anker on one problem, searching at ``tol``."""
    train, test = FAMILIES[family](seed)
    config = MethodConfig(variant=variant, scope=NormalizationScope.TRAIN_PLUS_TEST)
    with cv_tolerance(tol) as chosen:
        (result,) = run_experiment(train, test, ["anker"], repeats=1, config=config)
    (cost,) = chosen
    return cost, result.mean_loss


def paired_rows(family: str, variant: KernelVariant, seeds, tols) -> list[dict]:
    """One dict per seed: each side's tolerance, chosen cost and loss."""
    rows = []
    for seed in seeds:
        row = {"family": family, "variant": variant.value, "seed": seed}
        for side, tol in zip("ab", tols):
            row[f"tol_{side}"] = tol
            row[f"C_{side}"], row[f"loss_{side}"] = anker_loss(family, variant, seed, tol)
        rows.append(row)
    return rows


def summary_line(rows: list[dict]) -> str:
    """The markdown row of one family's paired figures."""
    a = np.array([r["loss_a"] for r in rows])
    b = np.array([r["loss_b"] for r in rows])
    lower, higher = int(np.sum(b < a)), int(np.sum(b > a))
    changed = sum(r["C_a"] != r["C_b"] for r in rows)
    p = sign_test_p(lower, higher)
    cells = (rows[0]["family"], rows[0]["variant"], len(rows), changed, mean_se(a, 4), mean_se(b, 4),
             f"{np.mean(b - a):+.4f}", f"{lower} / {higher} / {len(rows) - lower - higher}", f"{float(p):.3f}")
    return "| " + " | ".join(str(c) for c in cells) + " |"


def header(tols) -> str:
    columns = ("family", "variant", "seeds", "C changed", f"loss at {tols[0]:g}", f"loss at {tols[1]:g}",
               "mean change", "lower / higher / tied", "sign-test p")
    return "| " + " | ".join(columns) + " |\n" + "|---" * len(columns) + "|"


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", nargs="+", choices=[*FAMILIES, "rules"], default=["rules"],
                        help="families to study; 'rules' stands for the four rule-table rules")
    parser.add_argument("--variant", choices=[v.value for v in KernelVariant], default="poly2")
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("100-129"),
                        help="inclusive seed range such as 100-129, or one seed")
    parser.add_argument("--tols", type=float, nargs=2, default=(1e-3, 1e-2),
                        help="the two cost-search tolerances to compare")
    parser.add_argument("--csv", help="write the per-seed costs and losses to this file")
    args = parser.parse_args(argv)
    families = [f for name in args.family for f in (RULES if name == "rules" else (name,))]
    variant = KernelVariant(args.variant)
    print(header(args.tols))
    all_rows = []
    for family in families:
        rows = paired_rows(family, variant, args.seeds, args.tols)
        print(summary_line(rows), flush=True)
        all_rows += rows
    if args.csv:
        with open(args.csv, "w", newline="") as out:
            writer = csv.DictWriter(out, fieldnames=list(all_rows[0]))
            writer.writeheader()
            writer.writerows(all_rows)


if __name__ == "__main__":
    main()
