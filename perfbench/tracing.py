"""In-memory span tracing of the ankerrank layers, from outside the library.

Each traced function is replaced, for the duration of one traced op, at the
module attribute its caller looks up (``ankerrank.ranker.smo_train`` is what
``anker_fit`` calls, ``ankerrank.svm.smo_train`` is what ``select_c`` calls).
Nothing under ``src/`` changes.  A span records name, call site, start, end,
parent span and op id; counts are taken from the arguments and results at
the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


def _pair_width(pairs) -> int:
    """Feature count of a pair collection passed as a (firsts, seconds) tuple."""
    return int(np.shape(pairs[0])[-1])


def _count_pairs(counts, args, result):
    counts["ranker.pairs"] += len(result)


def _count_gram(counts, args, result):
    counts["kernel.gram_entries"] += result.size * _pair_width(args[0])


def _count_block(counts, args, result):
    counts["kernel.block_entries"] += result.size * _pair_width(args[0])


def _count_smo(counts, args, result):
    counts["svm.smo_solves"] += 1
    counts["svm.smo_capped"] += not result.converged


def _count_decision(counts, args, result):
    counts["svm.decision_calls"] += 1
    counts["svm.support_vector_sum"] += args[0].support.size


def _count_btl(counts, args, result):
    counts["ranker.btl_fits"] += 1
    counts["ranker.btl_iterations"] += result.iterations
    counts["ranker.btl_converged"] += result.converged


# (module whose attribute the caller looks up, attribute, span name, counter)
SITES = (
    ("ankerrank.cli", "main", "cli.main", None),
    ("ankerrank.data", "load_dataset", "data.load_dataset", None),
    ("ankerrank.evaluate", "run_experiment", "evaluate.run_experiment", None),
    ("ankerrank.evaluate", "choose_normalization_scope", "data.scope", None),
    ("ankerrank.evaluate", "normalize_train_test", "data.normalize", None),
    ("ankerrank.evaluate", "anker_fit", "ranker.anker_fit", None),
    ("ankerrank.evaluate", "anker_predict", "ranker.anker_predict", None),
    ("ankerrank.ranker", "anker_fit", "ranker.anker_fit", None),
    ("ankerrank.ranker", "anker_predict", "ranker.anker_predict", None),
    ("ankerrank.ranker", "build_pair_instances", "ranker.build_pairs", _count_pairs),
    ("ankerrank.ranker", "gram_matrix", "kernel.gram", _count_gram),
    ("ankerrank.ranker", "select_c", "svm.select_c", None),
    ("ankerrank.ranker", "smo_train", "svm.smo", _count_smo),
    ("ankerrank.ranker", "decision_values", "svm.decision", _count_decision),
    ("ankerrank.ranker", "platt_fit", "svm.platt", None),
    ("ankerrank.ranker", "preference_matrix", "ranker.preference", None),
    ("ankerrank.ranker", "kernel_matrix", "kernel.block", _count_block),
    ("ankerrank.ranker", "btl_fit", "ranker.btl", _count_btl),
    ("ankerrank.svm", "smo_train", "svm.smo", _count_smo),
    ("ankerrank.svm", "decision_values", "svm.decision", _count_decision),
    # evaluate reaches the baselines through the module object (bl.ranksvm_fit).
    ("ankerrank.baselines", "err_fit", "baselines.err_fit", None),
    ("ankerrank.baselines", "ranksvm_fit", "baselines.ranksvm_fit", None),
    ("ankerrank.baselines", "able2rank_lite", "baselines.able2rank", None),
    ("ankerrank.baselines", "select_c", "svm.select_c", None),
    ("ankerrank.baselines", "smo_train", "svm.smo", _count_smo),
    ("ankerrank.baselines", "kernel_matrix", "kernel.block", _count_block),
    ("ankerrank.baselines", "btl_fit", "ranker.btl", _count_btl),
)

ROOT_SPAN = "bench.op"


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """Patches every site for the length of one op and records spans in memory.

    Construction resolves every site and raises LookupError when a name no
    longer exists, so a refactor cannot silently drop a layer.
    """

    def __init__(self, sites=SITES):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._patches = []
        for module_name, attr, span_name, counter in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise LookupError(f"traced name {module_name}.{attr} no longer exists")
            site = f"{module_name.removeprefix('ankerrank.')}.{attr}"
            wrapper = self._wrap(original, span_name, site, counter)
            self._patches.append((module, attr, original, wrapper))

    def _open(self, name: str, site: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, site, time.perf_counter(), 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span_name, site, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(span_name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: patch all sites, open the root span, restore on exit."""
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._op = op_id
        root = self._open(ROOT_SPAN, "bench")
        try:
            yield
        finally:
            self._close(root)
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child_time):
            totals[span.name] += span.end - span.start - covered
        return totals

    def inclusive_time(self, name: str) -> float:
        """Total duration of the spans named ``name``, children included."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                record = asdict(span)
                record["start"] -= t0
                record["end"] -= t0
                out.write(json.dumps(record) + "\n")
