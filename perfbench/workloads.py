"""The four benchmark workloads and the seeded data generator they share.

Every input comes from ``numpy.random.default_rng(seed)``; the library only
ever receives the generated datasets and query item sets.  ``generate``
writes a workload's datasets as CSV files (untimed, once); ``setup`` loads
them, and on rank-* fits the model, as a user would before the first op
(timed as set-up).  ``op(i)`` runs input ``i % cycle`` (timed), ``check``
validates the output and ``losses`` scores it against the known utility
(both untimed).
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

import numpy as np

import ankerrank.cli
import ankerrank.ranker
from ankerrank.data import FeatureKind, FeatureSchema, RankedDataset, RankedQuery, load_dataset, save_dataset
from ankerrank.evaluate import ranking_loss

DIM = 10
WEIGHTS = np.linspace(1.0, 2.0, DIM)
# Acceptance criterion 7 bounds, valid for the full-size protocol problem.
PROTOCOL_BOUNDS = {"anker": 0.10, "ranksvm": 0.05}
PROTOCOL_METHODS = ("anker", "err", "ranksvm", "able2rank")
SCHEMA = FeatureSchema(
    names=tuple(f"f{k}" for k in range(DIM)),
    kinds=(FeatureKind.NUMERIC,) * DIM,
    levels=(None,) * DIM,
)


def linear_dataset(rng: np.random.Generator, n_queries: int, n_items: int, prefix: str) -> RankedDataset:
    """Items uniform in [0, 1]^DIM, each query ranked by the utility WEIGHTS . x."""
    queries = []
    for q in range(n_queries):
        items = rng.random((n_items, DIM))
        utility = items @ WEIGHTS
        ordering = np.lexsort((np.arange(n_items), -utility))
        ranking = np.empty(n_items, dtype=int)
        ranking[ordering] = np.arange(n_items)
        queries.append(RankedQuery(f"{prefix}{q}", items, ranking))
    return RankedDataset(SCHEMA, tuple(queries))


def write_csv(dataset: RankedDataset, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, path)
    return path


def check_prediction(pred, n_items: int) -> list[str]:
    """Invariants every ranking must satisfy, as failure messages."""
    problems = []
    if sorted(np.asarray(pred.ordering).tolist()) != list(range(n_items)):
        problems.append("ordering is not a permutation")
    theta = np.asarray(pred.theta)
    if theta.shape != (n_items,) or np.any(theta <= 0) or abs(theta.sum() - 1.0) > 1e-9:
        problems.append("theta is not positive with sum 1")
    p = np.asarray(pred.preference)
    if p.shape != (n_items, n_items) or np.max(np.abs(p + p.T - 1.0)) > 1e-9:
        problems.append("preference matrix violates p + p^T = 1")
    return problems


class FitCv:
    """One op is one anker_fit with C chosen by cross-validation."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.shape = (3, 6) if smoke else (10, 20)
        self.cycle = 2 if smoke else 8
        self.heldout = (2, 5) if smoke else (10, 10)
        self.trace_block = 1
        self.reference = "vector"
        self.workdir = workdir

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.train_paths = [write_csv(linear_dataset(rng, *self.shape, prefix="t"), self.workdir / f"train{k}.csv")
                            for k in range(self.cycle)]
        self.test_path = write_csv(linear_dataset(rng, *self.heldout, prefix="h"), self.workdir / "heldout.csv")
        self.fit_seeds = rng.integers(0, 2**31, size=self.cycle).tolist()

    def setup(self) -> None:
        self.train = [load_dataset(path) for path in self.train_paths]
        self.test = load_dataset(self.test_path)
        self.models: dict[int, object] = {}

    def op(self, i: int):
        k = i % self.cycle
        return ankerrank.ranker.anker_fit(self.train[k], C=None, seed=self.fit_seeds[k])

    def check(self, i: int, model) -> list[str]:
        svm = model.svm
        problems = []
        if svm.support.size == 0 or svm.platt is None or not np.isfinite(svm.bias):
            problems.append("model lacks support vectors, calibration or a finite bias")
        if np.any(svm.alpha < 0) or np.any(svm.alpha > svm.C):
            problems.append("dual coefficients leave the box [0, C]")
        first = self.models.setdefault(i % self.cycle, model)
        if self.fingerprint(first) != self.fingerprint(model):
            problems.append("refitting the same training set gave another model")
        return problems

    def fingerprint(self, model) -> tuple:
        svm = model.svm
        return (svm.alpha.tobytes(), svm.bias, svm.C, svm.platt)

    def losses(self, i: int, model) -> tuple[list[float], list[str]]:
        """Held-out losses of the model (untimed); each prediction is checked."""
        losses, problems = [], []
        for query in self.test.queries:
            pred = ankerrank.ranker.anker_predict(model, query.items)
            problems += check_prediction(pred, query.n_items)
            losses.append(ranking_loss(pred.ranking, query.ranking))
        return losses, problems


class Rank:
    """One op is one anker_predict; the model is fitted with C = 1 in set-up."""

    def __init__(self, seed: int, smoke: bool, workdir: Path, n_items: int, n_queries: int,
                 reference: str):
        self.seed = seed
        self.reference = reference
        self.shape = (3, 6) if smoke else (10, 20)
        self.n_items = min(n_items, 6) if smoke else n_items
        self.cycle = 3 if smoke else n_queries
        self.trace_block = 3 if smoke else max(1, 200 // self.n_items)
        self.workdir = workdir

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.train_path = write_csv(linear_dataset(rng, *self.shape, prefix="t"), self.workdir / "train.csv")
        self.query_path = write_csv(linear_dataset(rng, self.cycle, self.n_items, prefix="q"),
                                    self.workdir / "queries.csv")
        self.fit_seed = int(rng.integers(0, 2**31))

    def setup(self) -> None:
        train = load_dataset(self.train_path)
        self.queries = load_dataset(self.query_path).queries
        self.model = ankerrank.ranker.anker_fit(train, C=1.0, seed=self.fit_seed)

    def op(self, i: int):
        return ankerrank.ranker.anker_predict(self.model, self.queries[i % self.cycle].items)

    def check(self, i: int, pred) -> list[str]:
        return check_prediction(pred, self.n_items)

    def fingerprint(self, pred) -> tuple:
        return (pred.ordering.tobytes(), pred.theta.tobytes(), pred.preference.tobytes())

    def losses(self, i: int, pred) -> tuple[list[float], list[str]]:
        return [ranking_loss(pred.ranking, self.queries[i % self.cycle].ranking)], []


class Protocol:
    """One op is an in-process ``ankerrank benchmark`` call over all four methods."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.shape = (2, 6) if smoke else (5, 20)
        self.cycle = 4
        self.trace_block = 1
        self.reference = "vector"
        self.workdir = workdir

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.paths = {part: write_csv(linear_dataset(rng, *self.shape, prefix=part[:2]), self.workdir / f"{part}.csv")
                      for part in ("train", "test")}
        self.cli_seeds = rng.integers(0, 2**31, size=self.cycle).tolist()

    def setup(self) -> None:
        for path in self.paths.values():
            load_dataset(path)

    def op(self, i: int) -> str:
        out = self.workdir / "results.csv"
        argv = ["benchmark", "--train", str(self.paths["train"]), "--test", str(self.paths["test"]),
                "--methods", ",".join(PROTOCOL_METHODS), "--repeats", "1",
                "--seed", str(self.cli_seeds[i % self.cycle]), "--C", "auto", "--out", str(out)]
        with contextlib.redirect_stderr(io.StringIO()):
            code = ankerrank.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ankerrank benchmark exited {code}")
        return out.read_text(encoding="utf-8")

    @staticmethod
    def method_losses(text: str) -> dict[str, float]:
        return {row["method"]: float(row["mean"]) for row in csv.DictReader(io.StringIO(text))}

    def check(self, i: int, text: str) -> list[str]:
        losses = self.method_losses(text)
        if sorted(losses) != sorted(PROTOCOL_METHODS):
            return [f"results name methods {sorted(losses)}"]
        problems = [f"{m} loss {v} outside [0, 1]" for m, v in losses.items() if not 0.0 <= v <= 1.0]
        if not self.smoke:
            problems += [f"{m} loss {losses[m]} above {bound}" for m, bound in PROTOCOL_BOUNDS.items()
                         if losses[m] > bound]
        return problems

    def fingerprint(self, text: str) -> str:
        return text

    def losses(self, i: int, text: str) -> tuple[list[float], list[str]]:
        return [self.method_losses(text)["anker"]], []


def make(name: str, seed: int, smoke: bool, workdir: Path):
    if name == "fit-cv":
        return FitCv(seed, smoke, workdir)
    if name == "rank-small":
        return Rank(seed, smoke, workdir, n_items=10, n_queries=200, reference="small")
    if name == "rank-large":
        return Rank(seed, smoke, workdir, n_items=100, n_queries=20, reference="large")
    if name == "protocol":
        return Protocol(seed, smoke, workdir)
    raise KeyError(name)


WORKLOADS = ("fit-cv", "rank-small", "rank-large", "protocol")
