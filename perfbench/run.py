"""AnKer-rank benchmark: one workload per run, one client in a closed loop.

    python3 perfbench/run.py --workload fit-cv --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` it times ops for ``--seconds`` and reports the
end-to-end metrics, op time given in units of a reference kernel timed
around each op (see reference.py); with ``--trace 1`` it runs each input once untraced and
once traced, checks that both give identical outputs, and reports per-layer
self times and counts.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks
every input to a few items, for the test of the output format.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is first imported.
THREAD_CAP = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import Reference

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# A run whose mean anker ranking loss exceeds this fails its quality check
# (the anker bound of acceptance criterion 7); smoke-size inputs are exempt.
LOSS_BOUND = 0.10


def import_library():
    """Import ankerrank from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "ankerrank" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/ankerrank not found; run from the root of an ankerrank checkout")
    sys.path.insert(0, str(SRC))
    import ankerrank

    if Path(ankerrank.__file__).resolve().parent != (SRC / "ankerrank").resolve():
        sys.exit(f"error: imported ankerrank from {ankerrank.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_CAP,
    }


class Outcome:
    """Attempted and failed op counts; a failure is logged, never fatal."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def run_op(workload, i: int, around=contextlib.nullcontext):
    """Run and time op ``i`` inside ``around()``, then check and score it untimed.

    Returns (output, seconds, losses, problems); an exception is a problem.
    """
    start = time.perf_counter()
    try:
        with around():
            out = workload.op(i)
    except Exception:
        return None, time.perf_counter() - start, [], [traceback.format_exc()]
    elapsed = time.perf_counter() - start
    try:
        problems = workload.check(i, out)
        losses, loss_problems = workload.losses(i, out)
    except Exception:
        return out, elapsed, [], [traceback.format_exc()]
    return out, elapsed, losses, problems + loss_problems


def timed_setup(workload) -> tuple[float, int]:
    """Mean set-up time after one untimed set-up: at least 3 repeats and 2 s.

    Host speed changes in spells of about a second (see reference.py), so a
    short set-up is repeated across several spells and averaged; the median
    of such a sample jumps between the fast and the slow speed.
    """
    workload.setup()
    times = []
    while len(times) < 3 or (sum(times) < 2.0 and len(times) < 1000):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return statistics.fmean(times), len(times)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Names the report uses for the op latency and rate on each workload.
OP_NAMES = {
    "fit-cv": ("fit_p50_s", None, "fits_per_s"),
    "rank-small": ("rank_p50_s", "rank_p90_s", "queries_per_s"),
    "rank-large": ("rank_p50_s", "rank_p90_s", "queries_per_s"),
    "protocol": ("repeat_p50_s", None, "repeats_per_s"),
}


def measure(name: str, workload, seconds: float, outcome: Outcome, smoke: bool) -> dict:
    """End-to-end metrics: set-up, then ops in a closed loop for ``seconds``."""
    workload.generate()
    setup_s, setups = timed_setup(workload)

    reference = Reference(workload.reference)
    times, losses, refs = [], [], [reference.seconds()]
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        _, elapsed, op_losses, problems = run_op(workload, len(times))
        outcome.record(f"op {len(times)}", problems)
        times.append(elapsed)
        losses += op_losses
        refs.append(reference.seconds())
    # Each op in units of the reference timed just before and after it.
    relative = [t / ((before + after) / 2) for t, before, after in zip(times, refs, refs[1:])]

    # Peak resident memory of the whole run (set-up included), in MiB.
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50 = statistics.median(times)
    p50_ref = statistics.median(relative)
    rate = len(times) / sum(times)
    # An op without a valid ranking scores the worst loss.
    mean_loss = statistics.fmean(losses) if losses else 1.0
    p50_name, p90_name, rate_name = OP_NAMES[name]
    report = [(p50_name, p50, "s", len(times))]
    if p90_name and len(times) >= 100:
        report.append((p90_name, percentile(times, 90), "s", len(times)))
    report += [
        (rate_name, rate, "1/s", len(times)),
        ("op_p50_ref", p50_ref, "ref", len(times)),
        (f"{workload.reference}_ref_s", statistics.median(refs), "s", len(refs)),
        ("setup_s", setup_s, "s", setups),
        ("mean_loss", mean_loss, "ratio", len(losses)),
        ("peak_mib", peak_mib, "MiB", 1),
        ("failed_ratio", outcome.failed / outcome.attempted, "ratio", outcome.attempted),
    ]
    for label, value, unit, count in report:
        print(f"{name:10s} {label:14s} {value:12.6g} {unit:5s} n={count}")
    spread = [min(times), *statistics.quantiles(times, n=4), max(times)] if len(times) > 1 else times * 5
    print(f"{name:10s} op seconds min/q1/median/q3/max: " + " ".join(f"{t:.4g}" for t in spread))
    if not smoke:
        outcome.record("quality check", [f"mean loss {mean_loss:.4f} above {LOSS_BOUND}"]
                       if mean_loss > LOSS_BOUND else [])
    return {
        "op_p50_ref": metric(p50_ref, "ref"),
        "setup_s": metric(setup_s, "s"),
        "peak_mib": metric(peak_mib, "MiB"),
    }


# Per-layer self times: metric name -> span name.  A module's self time is the
# sum of its entries; every span of the tracer has one.
SELF_TIME_METRICS = {
    "kernel.gram_s": "kernel.gram",
    "kernel.block_s": "kernel.block",
    "svm.select_c_s": "svm.select_c",
    "svm.smo_s": "svm.smo",
    "svm.platt_s": "svm.platt",
    "svm.decision_s": "svm.decision",
    "ranker.anker_fit_s": "ranker.anker_fit",
    "ranker.anker_predict_s": "ranker.anker_predict",
    "ranker.build_pairs_s": "ranker.build_pairs",
    "ranker.preference_s": "ranker.preference",
    "ranker.btl_s": "ranker.btl",
    "baselines.ranksvm_fit_s": "baselines.ranksvm_fit",
    "baselines.able2rank_s": "baselines.able2rank",
    "baselines.err_fit_s": "baselines.err_fit",
    "data.load_dataset_s": "data.load_dataset",
    "data.scope_s": "data.scope",
    "data.normalize_s": "data.normalize",
    "evaluate.run_experiment_s": "evaluate.run_experiment",
    "cli.main_s": "cli.main",
    "bench.self_s": "bench.op",
}


def trace(name: str, workload, seconds: float, outcome: Outcome, spans_path: Path) -> dict:
    """Per-layer metrics from whole blocks of (untraced, traced) op pairs."""
    from tracing import Tracer

    tracer = Tracer()
    workload.generate()
    workload.setup()
    *_, problems = run_op(workload, 0)
    outcome.record("warm-up op", problems)
    untraced, traced, losses = [], [], []
    deadline = time.perf_counter() + seconds
    op_id = 0
    while op_id == 0 or time.perf_counter() < deadline:
        for i in range(workload.trace_block):
            plain, plain_s, plain_losses, problems = run_op(workload, i)
            outcome.record(f"untraced op {i}", problems)
            out, traced_s, traced_losses, problems = run_op(
                workload, i, lambda: tracer.op(op_id))
            if plain is not None and out is not None and (
                    workload.fingerprint(plain) != workload.fingerprint(out)
                    or plain_losses != traced_losses):
                problems.append("traced output or loss differs from the untraced run")
            outcome.record(f"traced op {i}", problems)
            op_id += 1
            untraced.append(plain_s)
            traced.append(traced_s)
            if name == "protocol" and out is not None:
                losses.append(workload.method_losses(out))
    tracer.write(spans_path)

    ops = len(traced)
    self_s = tracer.self_times()
    c = tracer.counts
    metrics = {key: metric(self_s.get(span, 0.0) / ops, "s") for key, span in SELF_TIME_METRICS.items()}
    metrics["baselines.ranksvm_fit_incl_s"] = metric(tracer.inclusive_time("baselines.ranksvm_fit") / ops, "s")
    block_s = self_s.get("kernel.block", 0.0)
    metrics.update({
        "kernel.gram_entries": metric(c["kernel.gram_entries"] / ops, "count"),
        "kernel.block_entries": metric(c["kernel.block_entries"] / ops, "count"),
        "kernel.entries_per_s": metric(c["kernel.block_entries"] / block_s if block_s else 0.0, "1/s"),
        "kernel.computed_mib": metric(8 * c["kernel.block_entries"] / ops / 2**20, "MiB"),
        "svm.smo_solves": metric(c["svm.smo_solves"] / ops, "count"),
        "svm.smo_capped": metric(c["svm.smo_capped"] / ops, "count"),
        "svm.smo_converged_ratio": metric(
            1.0 - c["svm.smo_capped"] / c["svm.smo_solves"] if c["svm.smo_solves"] else 0.0, "ratio"),
        "svm.support_vectors": metric(
            c["svm.support_vector_sum"] / c["svm.decision_calls"] if c["svm.decision_calls"] else 0.0,
            "count"),
        "ranker.pairs": metric(c["ranker.pairs"] / ops, "count"),
        "ranker.btl_iterations": metric(c["ranker.btl_iterations"] / ops, "count"),
        "ranker.btl_converged_ratio": metric(
            c["ranker.btl_converged"] / c["ranker.btl_fits"] if c["ranker.btl_fits"] else 0.0, "ratio"),
    })
    for method in ("ranksvm", "able2rank", "err"):
        mean = statistics.fmean(r[method] for r in losses) if losses else 0.0
        metrics[f"baselines.{method}_loss"] = metric(mean, "ratio")
    op_s, plain_s = statistics.fmean(traced), statistics.fmean(untraced)
    metrics["trace.op_s"] = metric(op_s, "s")
    metrics["trace.untraced_op_s"] = metric(plain_s, "s")
    metrics["trace.overhead_s"] = metric(op_s - plain_s, "s")

    print(f"{name}: {ops} traced ops, mean {op_s:.4f} s traced, {plain_s:.4f} s untraced; "
          f"spans in {spans_path}")
    for key, value in sorted(metrics.items()):
        share = f"{100 * value['value'] / op_s:6.1f}% of op" if value["unit"] == "s" and op_s else ""
        print(f"  {key:32s} {value['value']:14.6g} {value['unit']:6s} {share}")
    return metrics


def run_workload(make, name: str, args) -> dict:
    workdir = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workload = make(name, args.seed, args.smoke, workdir)
    outcome = Outcome()
    try:
        if args.trace:
            metrics = trace(name, workload, args.seconds, outcome,
                            OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl")
        else:
            metrics = measure(name, workload, args.seconds, outcome, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def pin_to_one_cpu() -> int:
    """Run on one CPU, so that each op and the references around it share it.

    Host load slows each CPU on its own, in spells of about a second.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the format test")
    args = parser.parse_args(argv)

    import_library()
    import workloads

    env = environment(args.seed)
    env["pinned_cpu"] = pin_to_one_cpu()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(workloads.WORKLOADS)}")
    print(json.dumps({"environment": env}))
    for name in names:
        print(json.dumps(run_workload(workloads.make, name, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
