"""Command-line interface: rank, benchmark, and kernel-check.

stdout carries only machine-readable payloads (JSON or CSV); diagnostics and
human-readable tables go to stderr.  Exit codes: 0 success, 1 internal
failure, 2 usage or malformed input.

Heavy imports happen inside the command handlers so that the thread cap
(--threads or the ANKERRANK_THREADS environment variable) can be applied to
the numerical backend before it is loaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path


def _checked(parse, accept, what: str):
    """argparse type: the value read by ``parse``, kept only if ``accept`` holds."""
    def convert(value: str):
        try:
            number = parse(value)
        except ValueError:
            number = math.nan
        if not accept(number):
            raise argparse.ArgumentTypeError(f"expected {what}, got {value!r}")
        return number
    return convert


_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_seed = _checked(int, lambda n: n >= 0, "a non-negative integer")
_tolerance = _checked(float, lambda x: 0 <= x < math.inf, "a finite non-negative number")
_cost = _checked(float, lambda c: 0 < c < math.inf, "'auto' or a finite positive number")


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(threads)


def _write_payload(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_cost(value: str) -> float | None:
    return None if value == "auto" else _cost(value)


def _scope_from_flag(value: str):
    from .data import NormalizationScope

    if value == "auto":
        return None
    return NormalizationScope(value)


def cmd_rank(args: argparse.Namespace) -> int:
    from .data import DataFormatError, load_dataset
    from .kernel import KernelVariant
    from .ranker import anker_rank

    train = load_dataset(args.train)
    query_ds = load_dataset(args.query, schema=train.schema)
    if len(query_ds.queries) != 1:
        raise DataFormatError(
            f"{args.query}: the query file must contain exactly one query_id, "
            f"found {len(query_ds.queries)}"
        )
    prediction = anker_rank(
        train,
        query_ds.queries[0].items,
        variant=KernelVariant.from_string(args.kernel),
        C=args.C,
        seed=args.seed,
        cap=args.pair_cap,
        scope=_scope_from_flag(args.normalize),
    )
    payload: dict = {
        "ordering": [int(i) for i in prediction.ordering],
        "theta": [float(t) for t in prediction.theta],
    }
    if args.include_matrix:
        payload["preference_matrix"] = [[float(v) for v in row] for row in prediction.preference]
    _write_payload(json.dumps(payload) + "\n", args.out)
    return 0


def _load_external_orderings(argument: str) -> tuple[str, list]:
    """Parse NAME=PATH where PATH holds rank-command JSON (one object or a list)."""
    name, sep, path = argument.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError("--external expects NAME=PATH")
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"{path} is not valid JSON: {exc}") from None
    if isinstance(payload, dict):
        payload = [payload]
    try:
        orderings = [entry["ordering"] for entry in payload]
    except (TypeError, KeyError):
        raise argparse.ArgumentTypeError(
            f"{path}: expected ranking JSON objects with an 'ordering' key"
        ) from None
    return name, orderings


def cmd_benchmark(args: argparse.Namespace) -> int:
    from .data import load_dataset
    from .evaluate import (
        METHOD_NAMES,
        MethodConfig,
        format_results_table,
        results_to_csv,
        run_experiment,
    )
    from .kernel import KernelVariant

    externals = dict(args.external or [])
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in METHOD_NAMES and m not in externals]
    if unknown or not methods:
        print(
            f"unsupported method {', '.join(unknown) if unknown else '(none)'}; "
            f"choose from: {', '.join(METHOD_NAMES)} or a name given via --external",
            file=sys.stderr,
        )
        return 2
    train = load_dataset(args.train)
    test = load_dataset(args.test, schema=train.schema)
    config = MethodConfig(
        variant=KernelVariant.from_string(args.kernel),
        C=args.C,
        able2rank_k=args.able2rank_k,
        pair_cap=args.pair_cap,
        scope=_scope_from_flag(args.normalize),
    )
    results = run_experiment(train, test, methods, repeats=args.repeats,
                             seed=args.seed, config=config, externals=externals)
    problem = args.problem or f"{Path(args.train).stem}->{Path(args.test).stem}"
    _write_payload(results_to_csv(results, problem), args.out)
    print(format_results_table(results, problem), file=sys.stderr)
    return 0


def cmd_kernel_check(args: argparse.Namespace) -> int:
    import numpy as np

    from .kernel import KernelVariant, boolean_proportion, gram_matrix, proportion_degree

    rng = np.random.default_rng(args.seed)
    worst = np.inf
    passes = 0
    for _ in range(args.samples):
        size = int(rng.integers(2, 51))
        dim = int(rng.integers(1, args.dim + 1))
        diffs = rng.random((size, dim)) - rng.random((size, dim))
        for variant in (KernelVariant.MEAN, KernelVariant.POLY2):
            gram = gram_matrix(diffs, variant)
            low = float(np.linalg.eigvalsh(gram).min())
            worst = min(worst, low)
        if worst >= -args.tol:
            passes += 1

    boolean_matches = 0
    for code in range(16):
        quad = tuple((code >> shift) & 1 for shift in (3, 2, 1, 0))
        degree = proportion_degree(*(float(x) for x in quad))
        if degree == float(boolean_proportion(*quad)):
            boolean_matches += 1

    ok = passes == args.samples and boolean_matches == 16
    print(
        f"min eigenvalue >= {-args.tol:g} in {passes}/{args.samples} trials "
        f"(worst {worst:.3e})",
        file=sys.stderr,
    )
    print(f"{boolean_matches}/16 Boolean quadruples match", file=sys.stderr)
    payload = {
        "trials": args.samples,
        "passes": passes,
        "min_eigenvalue": worst,
        "tolerance": args.tol,
        "boolean_matches": boolean_matches,
        "ok": ok,
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ankerrank",
        description="Object ranking with an analogy kernel over preference pairs.",
    )
    parser.add_argument("--threads", type=_positive_int, default=None,
                        help="cap numerical-backend threads (default: ANKERRANK_THREADS or library default)")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="rank a query item set given training rankings")
    rank.add_argument("--train", required=True, help="training dataset CSV")
    rank.add_argument("--query", required=True, help="query CSV (single query_id; rank column is ignored)")
    rank.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    rank.add_argument("--kernel", choices=("mean", "poly2"), default="poly2")
    rank.add_argument("--C", type=_parse_cost, default=None,
                      help="SVM cost, or 'auto' for internal cross-validation (default: auto)")
    rank.add_argument("--seed", type=_seed, default=42)
    rank.add_argument("--normalize", choices=("auto", "train+test", "test-only"), default="auto")
    rank.add_argument("--pair-cap", type=_positive_int, default=None,
                      help="subsample the training pairs to at most this many")
    rank.add_argument("--include-matrix", action="store_true",
                      help="include the pairwise preference matrix in the JSON output")
    rank.set_defaults(func=cmd_rank)

    bench = sub.add_parser("benchmark", help="run the train-to-test protocol for several methods")
    bench.add_argument("--train", required=True)
    bench.add_argument("--test", required=True)
    bench.add_argument("--methods", required=True,
                       help="comma-separated subset of: anker,err,ranksvm,able2rank")
    bench.add_argument("--repeats", type=_positive_int, default=20)
    bench.add_argument("--seed", type=_seed, default=42)
    bench.add_argument("--out", default=None, help="results CSV path (default: stdout)")
    bench.add_argument("--problem", default=None, help="problem label in the CSV (default: file stems)")
    bench.add_argument("--kernel", choices=("mean", "poly2"), default="poly2")
    bench.add_argument("--C", type=_parse_cost, default=None)
    bench.add_argument("--able2rank-k", type=_positive_int, default=20)
    bench.add_argument("--pair-cap", type=_positive_int, default=None)
    bench.add_argument("--normalize", choices=("auto", "train+test", "test-only"), default="auto")
    bench.add_argument("--external", action="append", type=_load_external_orderings,
                       metavar="NAME=PATH",
                       help="include externally produced rankings (rank-command JSON, "
                            "one object per test query) as method NAME")
    bench.set_defaults(func=cmd_benchmark)

    check = sub.add_parser("kernel-check", help="verify kernel positive semi-definiteness empirically")
    check.add_argument("--samples", type=_positive_int, default=200)
    check.add_argument("--dim", type=_positive_int, default=10)
    check.add_argument("--tol", type=_tolerance, default=1e-8)
    check.add_argument("--seed", type=_seed, default=42)
    check.set_defaults(func=cmd_kernel_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_threads = os.environ.get("ANKERRANK_THREADS")
    if args.threads is None and env_threads:
        try:
            args.threads = _positive_int(env_threads)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"ANKERRANK_THREADS: {exc}")
    _apply_thread_cap(args.threads)
    from .data import DataFormatError

    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
