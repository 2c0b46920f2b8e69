"""Command-line interface: rank and benchmark.

stdout carries only machine-readable payloads (JSON or CSV); diagnostics and
human-readable tables go to stderr.  Exit codes: 0 success, 1 internal
failure, 2 usage or malformed input.

The handlers look library functions up on their modules at call time
(``data.load_dataset``), so a function replaced on its module is the one
that runs.  Cap the numerical backend's threads with ``OPENBLAS_NUM_THREADS``
or ``OMP_NUM_THREADS`` in the environment the process starts with; numpy
reads them when it is first imported.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import data, evaluate, kernel, ranker


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
_cost = _checked(float, lambda c: 0 < c < math.inf, "'auto' or a finite positive number")


def _write_payload(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_cost(value: str) -> float | None:
    return None if value == "auto" else _cost(value)


def _scope_from_flag(value: str):
    return None if value == "auto" else data.NormalizationScope(value)


def cmd_rank(args: argparse.Namespace) -> int:
    train = data.load_dataset(args.train)
    query_ds = data.load_dataset(args.query, schema=train.schema)
    if len(query_ds.queries) != 1:
        raise data.DataFormatError(
            f"{args.query}: the query file must contain exactly one query_id, "
            f"found {len(query_ds.queries)}"
        )
    prediction = ranker.anker_rank(
        train,
        query_ds.queries[0].items,
        variant=kernel.KernelVariant(args.kernel),
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
    externals = dict(args.external or [])
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        if len(externals) < len(args.external or []):
            raise ValueError("an --external NAME is given more than once")
        evaluate.check_methods(methods, externals)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    train = data.load_dataset(args.train)
    test = data.load_dataset(args.test, schema=train.schema)
    config = evaluate.MethodConfig(
        variant=kernel.KernelVariant(args.kernel),
        C=args.C,
        able2rank_k=args.able2rank_k,
        pair_cap=args.pair_cap,
        scope=_scope_from_flag(args.normalize),
    )
    results = evaluate.run_experiment(train, test, methods, repeats=args.repeats,
                                      seed=args.seed, config=config, externals=externals)
    problem = args.problem or f"{Path(args.train).stem}->{Path(args.test).stem}"
    _write_payload(evaluate.results_to_csv(results, problem), args.out)
    print(evaluate.format_results_table(results, problem), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ankerrank",
        description="Object ranking with an analogy kernel over preference pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The training and model options that both commands take.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--train", required=True, help="training dataset CSV")
    shared.add_argument("--kernel", choices=("mean", "poly2"), default="poly2")
    shared.add_argument("--C", type=_parse_cost, default=None,
                        help="SVM cost, or 'auto' for internal cross-validation (default: auto)")
    shared.add_argument("--seed", type=_seed, default=42)
    shared.add_argument("--normalize", choices=("auto", "train+test", "test-only"), default="auto")
    shared.add_argument("--pair-cap", type=_positive_int, default=None,
                        help="subsample the training pairs to at most this many")

    rank = sub.add_parser("rank", parents=[shared],
                          help="rank a query item set given training rankings")
    rank.add_argument("--query", required=True, help="query CSV (single query_id; rank column is ignored)")
    rank.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    rank.add_argument("--include-matrix", action="store_true",
                      help="include the pairwise preference matrix in the JSON output")
    rank.set_defaults(func=cmd_rank)

    bench = sub.add_parser("benchmark", parents=[shared],
                           help="run the train-to-test protocol for several methods")
    bench.add_argument("--test", required=True)
    bench.add_argument("--methods", required=True,
                       help="comma-separated subset of: anker,err,ranksvm,able2rank")
    bench.add_argument("--repeats", type=_positive_int, default=20)
    bench.add_argument("--out", default=None, help="results CSV path (default: stdout)")
    bench.add_argument("--problem", default=None, help="problem label in the CSV (default: file stems)")
    bench.add_argument("--able2rank-k", type=_positive_int, default=20)
    bench.add_argument("--external", action="append", type=_load_external_orderings,
                       metavar="NAME=PATH",
                       help="include externally produced rankings (rank-command JSON, "
                            "one object per test query) as method NAME")
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except data.DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
