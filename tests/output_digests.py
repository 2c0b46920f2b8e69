"""SHA-256 digests of every benchmark workload's outputs, to compare two trees byte for byte.

Drives the workload classes of ``perfbench/workloads.py`` in a temporary
directory, one cycle of ops per workload and seed, and prints one line
``<workload> <seed> <sha256>`` each.  The digest covers, op by op:

- rank-small and rank-large: the preference matrix, theta and the ordering
  (their own bytes: float64, float64, int64);
- fit-cv: alpha, bias, C, Platt a and b, then ``support_diffs``, as float64;
- protocol: the result CSV text, UTF-8.

Equal lines from two checkouts mean byte-identical outputs.  pytest does
not collect this file; run it from the repository root with

    PYTHONPATH=src python tests/output_digests.py --seeds 1 2 3

``--orderings`` digests only what a user reads off a ranking: each rank
op's ``ordering`` (int64) and each protocol op's per-method mean losses, as
``<method> <loss>`` lines; fit-cv, which ranks nothing, is left out.  Equal
lines then show that two trees give the same orders although their
preference bytes differ, as a float32 side of the kernel against a
float64 one does.

Compare two trees at one BLAS thread count, for example with
``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``: at full size, rank-large's
BTL solve rounds by the thread count, so its digest differs between counts
while every other workload's does not.  The count is left as the
environment sets it.  ``--smoke`` runs the workloads' tiny inputs, where no
query is large enough to reach that solve.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _op_bytes(name: str, result, orderings: bool) -> bytes:
    if name in ("rank-small", "rank-large"):
        if orderings:
            return result.ordering.tobytes()
        return result.preference.tobytes() + result.theta.tobytes() + result.ordering.tobytes()
    if name == "fit-cv":
        svm = result.svm
        scalars = [svm.bias, svm.C, svm.platt.a, svm.platt.b]
        return np.concatenate([svm.alpha, scalars, result.support_diffs.ravel()]).astype(np.float64).tobytes()
    if orderings:
        return "".join(f"{method} {loss!r}\n" for method, loss in workloads.Protocol.method_losses(result).items()
                       ).encode("utf-8")
    return result.encode("utf-8")


def digest(name: str, seed: int, smoke: bool, orderings: bool = False) -> str:
    """The SHA-256 of one cycle of the workload's op outputs at ``seed``, or of their orderings only."""
    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.make(name, seed, smoke, Path(workdir))
        workload.generate()
        workload.setup()
        h = hashlib.sha256()
        for i in range(workload.cycle):
            h.update(_op_bytes(name, workload.op(i), orderings))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--smoke", action="store_true", help="the workloads' tiny inputs")
    parser.add_argument("--orderings", action="store_true",
                        help="digest only rank orderings and protocol losses; skip fit-cv")
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        if args.orderings and name == "fit-cv":
            continue
        for seed in args.seeds:
            print(name, seed, digest(name, seed, args.smoke, args.orderings), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
