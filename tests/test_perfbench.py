"""The repository benchmark still runs against this source tree.

One zero-length traced ``handover`` run of ``perfbench/run.py``: it must
exit 0 and end with a JSON line whose ``correct`` is true. The spans go to
the gitignored ``perfbench/out/``.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_handover_traced_run_is_correct():
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "handover",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
