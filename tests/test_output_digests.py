import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import ankerrank
import output_digests

SCRIPT = Path(__file__).resolve().parent / "output_digests.py"


def test_the_digest_script_prints_one_digest_per_workload_and_seed():
    env = dict(os.environ, PYTHONPATH=str(Path(ankerrank.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, str(SCRIPT), "--smoke", "--seeds", "1", "2"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [line[:2] for line in lines] == [[name, seed] for name in output_digests.workloads.WORKLOADS
                                           for seed in ("1", "2")]
    assert all(re.fullmatch("[0-9a-f]{64}", line[2]) for line in lines)
    by_run = {(name, int(seed)): value for name, seed, value in lines}
    for name in ("fit-cv", "protocol"):
        assert by_run[name, 1] != by_run[name, 2]
        # Another process gives the same bytes.
        assert output_digests.digest(name, 2, smoke=True) == by_run[name, 2]


def test_the_orderings_digest_covers_rank_orderings_and_protocol_losses_only(capsys, tmp_path):
    assert output_digests.main(["--smoke", "--orderings", "--seeds", "1"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [[name, "1"] for name in ("rank-small", "rank-large", "protocol")]
    by_name = {name: value for name, _, value in lines}
    for name in ("rank-small", "protocol"):
        workload = output_digests.workloads.make(name, 1, True, tmp_path / name)
        workload.generate()
        workload.setup()
        h = hashlib.sha256()
        for i in range(workload.cycle):
            result = workload.op(i)
            if name == "protocol":
                losses = workload.method_losses(result)
                h.update("".join(f"{method} {loss!r}\n" for method, loss in losses.items()).encode("utf-8"))
            else:
                h.update(result.ordering.tobytes())
        assert by_name[name] == h.hexdigest()
