"""Self-test of the benchmark at a tiny length.

    python3 perfbench/selftest.py

Checks that every workload prints each of its named metrics with a unit
and that the final JSON line carries exactly the metrics and units listed
in BENCHMARK.json (end-to-end untraced, per-layer traced); that a
corrupted reply byte raises failed_share above 0 and fails the run; and
that the benchmark fails without printing a result when the program's
sources are absent. Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The metrics each workload prints as "name value unit" lines.
NAMED = {
    "handover": {
        "handover_p50_ms": "ms",
        "handover_p99_ms": "ms",
        "handovers_per_s": "1/s",
        "verify_p50_ms": "ms",
        "verify_p99_ms": "ms",
        "rotation_p50_ms": "ms",
    },
    "replay_flood": {
        "sojourn_p50_ms": "ms",
        "sojourn_p99_ms": "ms",
        "rsu_capacity_rps": "1/s",
        "verify_p50_ms": "ms",
        "rotation_p50_ms": "ms",
    },
    "registration": {
        "registration_p50_ms": "ms",
        "registration_p90_ms": "ms",
        "registrations_per_s": "1/s",
        "verify_p50_ms": "ms",
        "rotation_p50_ms": "ms",
    },
}
ALWAYS = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share"}


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def printed(stdout: str) -> dict:
    """name -> (value, unit) for every 'name value unit' line."""
    found = {}
    for line in stdout.splitlines():
        m = re.match(r"^(\S+) (-?[0-9.]+(?:e[-+]?\d+)?) (\S+)", line)
        if m:
            found[m.group(1)] = (float(m.group(2)), m.group(3))
    return found


def result(proc) -> dict:
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    return res


def expect_metrics(res: dict, spec: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"{what}: metrics {got} != {want}"
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload, named in NAMED.items():
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
            assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
            res = result(proc)
            assert res["correct"] and res["failed"] == 0, f"{workload}: {res}"
            lines = printed(proc.stdout)
            for name, unit in {**ALWAYS, **named}.items():
                assert name in lines and lines[name][1] == unit, f"{workload}: no '{name} <value> {unit}' line"
            spec = bench["per_layer"] if trace else bench["end_to_end"]
            expect_metrics(res, spec, f"{workload} trace {trace}")
            if not trace:
                for name, m in res["metrics"].items():
                    assert m["value"] > 0, f"{workload}: end-to-end metric {name} is not positive"
            print(f"ok {workload} trace {trace}")

    proc = run(["--workload", "handover", "--seed", "7", "--seconds", "1", "--trace", "0", "--corrupt-reply"])
    res = result(proc)
    share = printed(proc.stdout)["failed_share"][0]
    assert proc.returncode == 1 and not res["correct"], "a corrupted reply must fail the run"
    assert res["failed"] >= 1 and share > 0, f"failed_share {share} after a corrupted reply"
    print(f"ok corrupted reply: failed_share {share:.6f}, exit {proc.returncode}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(["--workload", "handover", "--seed", "7", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), "without sources the run must fail silently on stdout"
    print(f"ok without sources: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
