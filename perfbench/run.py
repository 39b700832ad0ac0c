"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload handover --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program under test is
imported from ``src/`` beside this directory, never from an installed
copy. Human-readable lines (a machine record, then one ``name value
unit`` line per metric) come first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
and the spans are written to ``perfbench/out/``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the sources cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["handover", "replay_flood", "registration"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--corrupt-reply",
        action="store_true",
        help="flip one byte of the first honest reply (self-test of the output checks)",
    )
    return parser.parse_args(argv)


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def machine_record(seed: int, curve) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "curve_backend": getattr(curve, "BACKEND", "pure-python"),
        "seed": seed,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if "PYTHONHASHSEED" not in os.environ:
        # String hashing sets dict layouts; with a random seed per process,
        # rotation time moved ~15% between runs of the same input. Re-run
        # this same process image with hashing fixed.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    if not os.path.isfile(os.path.join(SRC, "v2xauth", "__init__.py")):
        print(f"error: no v2xauth sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import speed

    meter = speed.Meter()
    meter.start()
    t0 = time.thread_time()
    import v2xauth
    from v2xauth.crypto import curve

    import tracing
    import workloads

    import_s = (time.thread_time() - t0) * meter.stop()
    if not os.path.abspath(v2xauth.__file__).startswith(SRC + os.sep):
        print(f"error: v2xauth imported from {v2xauth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, meter, tracer, args.corrupt_reply)
    tally = result["tally"]
    setup_s = import_s + statistics.median(result["setup_times"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_share = tally.honest_failed / tally.honest if tally.honest else 0.0
    correct = not tally.problems

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine_record(args.seed, curve)))
    print(f"setup_s {setup_s:.6f} s (median of {len(result['setup_times'])} set-ups + import {import_s:.6f} s)")
    print(f"peak_rss_mb {peak_rss_mb:.3f} MB")
    print(f"failed_share {failed_share:.6f} share ({tally.honest_failed}/{tally.honest} honest operations)")
    for name, (value, unit, n) in result["named"].items():
        print(f"{name} {value:.6f} {unit} (n={n})")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = per_layer(args, result, tracer, meter)
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        for generic, own in workloads.E2E_NAMES[args.workload].items():
            metrics[generic] = result["named"][own][:2]
        for name in ("verify_p50_ms", "rotation_p50_ms"):
            metrics[name] = result["named"][name][:2]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def per_layer(args, result, tracer, meter) -> dict:
    import tracing

    tally = result["tally"]
    values = tracer.layer_metrics(len(tally.op_ms[True]), meter.median_factor())
    values.update(result["gauges"])
    for name in ("ReplayDetected", "StaleTimestamp"):
        samples = tally.reject_ms.get(name)
        values[f"actors.reject_ms.{name}"] = statistics.median(samples) if samples else 0.0
    for name in tracing.REJECT_NAMES:
        values[f"actors.rejects.{name}"] = tally.rejects.get(name, 0)
    traced, untraced = tally.op_ms[True], tally.op_ms[False]
    values["trace.overhead_share"] = statistics.fmean(traced) / statistics.fmean(untraced) - 1
    values.setdefault("queue.wait_p99_ms", 0.0)
    values.setdefault("queue.utilisation", 0.0)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(path)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    for name, unit in tracing.PER_LAYER.items():
        print(f"{name} {values[name]:.6f} {unit}")
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
