"""Ranking loss, the train-to-test benchmark protocol, and rank summaries.

A benchmark problem is a (train, test) dataset pair, normalized once per
normalization mode after one KS gate.  Every method is run ``repeats`` times
with independently spawned random streams (coin flips, cross-validation
folds, and solver seeds are re-randomized per run).  Each run predicts
positions for the items of every test query, the ranking loss (a tie counts
half) is averaged over the test queries, and methods are ranked by mean loss
with equal means sharing the lower rank.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from . import baselines as bl
from .data import (
    DataFormatError,
    NormalizationMode,
    NormalizationScope,
    RankedDataset,
    _as_permutation,
    choose_normalization_scope,
    normalize_train_test,
)
from .kernel import KernelVariant
from .ranker import _check_query, anker_fit, anker_predict
from .svm import _check_cap


def ranking_loss(pi: np.ndarray, pi_star: np.ndarray) -> float:
    """Normalized number of discordant item pairs between two rankings.

    Both arguments assign a position to each item, smaller is better; the
    loss is the number of item pairs ordered differently, divided by
    n(n-1)/2.  ``pi`` may tie items: a pair tied in ``pi`` counts as half
    discordant (Kendall's distance with penalty 1/2 of Fagin et al., 2004),
    which is the expected loss when the tie is broken at random.
    ``pi_star`` must be a permutation of 0..n-1 by the rule a query's ranking follows.
    """
    pi = np.asarray(pi, dtype=float)
    pi_star = np.asarray(pi_star, dtype=object)  # no entry is cast before its check
    if pi.shape != pi_star.shape or pi.ndim != 1:
        raise ValueError("rankings must be 1-D and equally long")
    if not np.isfinite(pi).all():
        raise ValueError("predicted positions must be finite")
    n = pi.size
    if n < 2:
        raise ValueError("ranking loss needs at least two items")
    pi_star = _as_permutation(pi_star, n, "the true ranking")
    before = pi[:, None] < pi[None, :]
    before_star = pi_star[:, None] < pi_star[None, :]
    tied = pi[:, None] == pi[None, :]
    discordant = int(np.sum(before & ~before_star)) + 0.5 * int(np.sum(tied & before_star))
    return discordant / (n * (n - 1) / 2)


def _mean_loss(positions, queries) -> float:
    """The protocol's per-run loss: the unweighted mean ranking loss over the test queries."""
    return float(np.mean([ranking_loss(p, q.ranking) for p, q in zip(positions, queries)]))


@dataclass(frozen=True)
class MethodConfig:
    """Shared knobs for the benchmark methods.

    ``variant`` and ``pair_cap`` apply to ``anker``, ``able2rank_k`` to
    ``able2rank``.  ``C`` is the cost of both SVMs (anker and RankSVM);
    None lets each pick its own from ``DEFAULT_C_GRID`` by the one
    cross-validated cost search that ``select_c`` and ``ranksvm_fit``
    share, with ties going to the smallest cost.  ``scope`` fixes the
    normalization scope; None lets the KS gate (level 0.05) choose it.
    """

    variant: KernelVariant = KernelVariant.POLY2
    C: float | None = None
    able2rank_k: int = 20
    pair_cap: int | None = None
    scope: NormalizationScope | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """Per-method outcome of one benchmark problem."""

    method: str
    mean_loss: float
    std_loss: float
    losses: np.ndarray
    rank: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "losses", np.asarray(self.losses, dtype=float))


def _run_anker(train, test, seed, config):
    model = anker_fit(train, variant=config.variant, C=config.C, seed=seed, cap=config.pair_cap)
    return [-anker_predict(model, q.items).theta for q in test.queries]


def _run_err(train, test, seed, config):
    del seed  # fully deterministic
    model = bl.err_fit(train)
    return [bl.err_predict(model, q.items) for q in test.queries]


def _run_ranksvm(train, test, seed, config):
    model = bl.ranksvm_fit(train, C=config.C, seed=seed)
    return [-(q.items @ model.weights) for q in test.queries]


def _run_able2rank(train, test, seed, config):
    del seed  # fully deterministic
    return [-bl.able2rank_lite(train, q.items, k=config.able2rank_k).theta for q in test.queries]


# Each method's normalization and its runner: runner(train, test, seed,
# config) gets the normalized datasets and returns one array of predicted
# positions per test query, smaller is better.
_RUNNERS = {
    "anker": (NormalizationMode.MINMAX, _run_anker),
    "err": (NormalizationMode.ZSCORE, _run_err),
    "ranksvm": (NormalizationMode.ZSCORE, _run_ranksvm),
    "able2rank": (NormalizationMode.MINMAX, _run_able2rank),
}
METHOD_NAMES = tuple(_RUNNERS)
# Methods whose runner ignores its seed: one run gives every repeat's loss.
_SEED_FREE = frozenset({"err", "able2rank"})


def check_methods(methods, externals) -> None:
    """Raise ``DataFormatError`` unless each method name has one meaning.

    A name is a built-in method or a key of ``externals`` that is not one,
    no name repeats, and every key of ``externals`` is one of the methods.
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in _RUNNERS and m not in externals]
    if unknown or not methods:
        raise DataFormatError(f"unsupported method {', '.join(unknown) or '(none)'} "
                              f"(known: {', '.join(METHOD_NAMES)}, or an external name)")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise DataFormatError(f"method {', '.join(repeated)} given more than once")
    shadowing = sorted(set(externals) & set(_RUNNERS))
    if shadowing:
        raise DataFormatError(f"external method {', '.join(shadowing)} has the name of a built-in method")
    unused = sorted(set(externals) - set(methods))
    if unused:
        raise DataFormatError(f"external method {', '.join(unused)} is not in the method list")


def score_external_orderings(test: RankedDataset, orderings) -> float:
    """Mean ranking loss of externally produced orderings over the test queries.

    ``orderings`` holds one best-to-worst item index list per test query, in
    query order; this is how rankings from methods outside this package (for
    example neural baselines) enter the benchmark.  Malformed orderings raise
    ``DataFormatError``.
    """
    orderings = list(orderings)
    if len(orderings) != len(test.queries):
        raise DataFormatError(f"got {len(orderings)} external orderings for {len(test.queries)} test queries")
    positions = [np.argsort(_as_permutation(o, q.n_items, f"external ordering for query {q.query_id!r}"))
                 for q, o in zip(test.queries, orderings)]
    return _mean_loss(positions, test.queries)


def competition_ranks(means) -> np.ndarray:
    """1-based ranks of scores (lower is better); equal scores share the lower rank."""
    means = np.asarray(means, dtype=float)
    return np.array([1 + int(np.sum(means < m)) for m in means])


def run_experiment(train: RankedDataset, test: RankedDataset, methods,
                   repeats: int = 20, seed: int = 0,
                   config: MethodConfig | None = None,
                   externals: dict | None = None) -> list[ExperimentResult]:
    """Run each method ``repeats`` times on a train-to-test problem.

    The master seed spawns one stream per method and one per run, so methods
    see uncorrelated randomness while the whole experiment is reproducible.
    Per-run loss is the unweighted mean ranking loss over the test queries.
    A method that ignores its seed (``err``, ``able2rank``) runs once, and
    its loss stands for every repeat.

    ``externals`` maps extra method names to pre-computed per-query orderings
    (best-to-worst item indices); those enter the comparison with a constant
    loss across repeats, and are scored before any method runs, so a
    malformed ordering fails fast.  Method names must pass ``check_methods``.
    """
    if config is None:
        config = MethodConfig()
    externals = externals or {}
    methods = list(methods)
    check_methods(methods, externals)
    _check_cap(repeats, "repeats")
    for query in test.queries:
        _check_query(query.items, train.n_features, f"test query {query.query_id!r}")
    external_losses = {name: score_external_orderings(test, orderings)
                       for name, orderings in externals.items()}

    # One scope and one normalization per mode, shared by every method and run.
    modes = dict.fromkeys(_RUNNERS[name][0] for name in methods if name in _RUNNERS)
    scope = config.scope
    if scope is None and modes:
        scope = choose_normalization_scope(train.all_items(), test.all_items())
    views = {}
    for mode in modes:
        train_norm, test_norm = normalize_train_test(train.all_items(), test.all_items(), mode, scope)
        views[mode] = (train.with_items(train_norm), test.with_items(test_norm))

    master = np.random.SeedSequence(seed)
    method_streams = master.spawn(len(methods))
    results = []
    for name, stream in zip(methods, method_streams):
        if name in _RUNNERS:
            mode, runner = _RUNNERS[name]
            train_view, test_view = views[mode]
            seeds = [None] if name in _SEED_FREE else [int(s.generate_state(1)[0]) for s in stream.spawn(repeats)]
            # A seed-free method runs once, and np.full repeats its loss for every run.
            losses = np.full(repeats, [_mean_loss(runner(train_view, test_view, s, config), test.queries)
                                       for s in seeds])
        else:
            losses = np.full(repeats, external_losses[name])
        mean = float(losses.mean())
        std = float(losses.std(ddof=1)) if repeats > 1 else 0.0
        results.append(ExperimentResult(method=name, mean_loss=mean, std_loss=std, losses=losses))
    ranks = competition_ranks([r.mean_loss for r in results])
    return [replace(r, rank=int(k)) for r, k in zip(results, ranks)]


def results_to_csv(results: list[ExperimentResult], problem: str) -> str:
    """Serialize results as ``problem,method,mean,std,rank`` CSV text, quoted per RFC 4180."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["problem", "method", "mean", "std", "rank"])
    writer.writerows([problem, r.method, f"{r.mean_loss:.6f}", f"{r.std_loss:.6f}", r.rank] for r in results)
    return out.getvalue()


def format_results_table(results: list[ExperimentResult], problem: str) -> str:
    """Human-readable one-row table: mean +- std with the per-problem rank."""
    header = ["problem"] + [r.method for r in results]
    row = [problem] + [f"{r.mean_loss:.3f} +- {r.std_loss:.3f} ({r.rank})" for r in results]
    widths = [max(len(h), len(c)) for h, c in zip(header, row)]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    body = "  ".join(c.ljust(w) for c, w in zip(row, widths))
    rule = "-" * len(line)
    return "\n".join([line, rule, body])
