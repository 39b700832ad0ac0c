"""Command-line entry point: scenario demos, benchmarks, tracing, the
framing audit, and key rotation.

Every subcommand is deterministic under --seed except the wall-clock
benchmarks. Exit codes: 0 success, 2 usage error, 3 protocol-level
rejection or unmet scenario expectation, 4 benchmark infeasible.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys

from . import actors
from .ledger import Ledger
from .simnet import bench
from .simnet.engine import DeadlockDetected, ScenarioValidationError, SimnetError
from .simnet.scenarios import (
    DEFAULT_SEED,
    REVOCATION,
    TRACE_AND_AUDIT,
    TWO_DOMAIN_DEMO,
    run_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PROTOCOL = 3
EXIT_BENCH = 4


def _out_dir(args) -> pathlib.Path:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_scenario(args) -> "str | None":
    if args.scenario is None:
        return None
    path = pathlib.Path(args.scenario)
    if not path.is_file():
        print(f"error: scenario file not found: {path}", file=sys.stderr)
        return ""
    return path.read_text(encoding="utf-8")


def _session_key_pairs(transcript):
    vn_keys = [r["ks"] for r in transcript.events if r.get("event") == "session_key" and r["actor"].startswith("vn")]
    rsu_keys = [r["ks"] for r in transcript.events if r.get("event") == "session_key" and r["actor"].startswith("rsu")]
    return vn_keys, rsu_keys


def _message_sizes(transcript) -> dict:
    sizes: dict[str, set] = {}
    for _, _, _, kind, payload, note in transcript.messages:
        if note:
            continue
        sizes.setdefault(kind, set()).add(len(payload))
    return sizes


def cmd_demo(args) -> int:
    out = _out_dir(args)
    text = _load_scenario(args)
    if text == "":
        return EXIT_USAGE
    scenario = text if text is not None else TWO_DOMAIN_DEMO
    try:
        transcript = run_scenario(scenario, seed=args.seed)
    except (ScenarioValidationError, ValueError) as exc:
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DeadlockDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL

    (out / "demo-transcript.txt").write_text(transcript.to_text(), encoding="utf-8")
    sizes = _message_sizes(transcript)
    vn_keys, rsu_keys = _session_key_pairs(transcript)
    agree = len(vn_keys) == len(rsu_keys) and vn_keys == rsu_keys
    print(f"scenario run complete (seed {args.seed if args.seed is not None else 'scenario default'})")
    for kind in ("REQ", "REP", "ACK"):
        if kind in sizes:
            print(f"  {kind}: {'/'.join(str(n) for n in sorted(sizes[kind]))} bytes")
    if {"REQ", "REP", "ACK"} <= sizes.keys():
        total = sum(max(sizes[k]) for k in ("REQ", "REP", "ACK"))
        print(f"  handover exchange total {total} bytes")
    print(f"  session keys: {len(vn_keys)} handover(s), agreement={'yes' if agree else 'NO'}")
    print(f"  transcript: {out / 'demo-transcript.txt'} ({len(transcript.messages)} messages, {len(transcript.events)} events)")
    rejects = [r for r in transcript.events if r.get("event") == "reject"]
    if text is None and (not agree or rejects):
        return EXIT_PROTOCOL
    if rejects:
        print(f"  rejections observed (scripted adversary): {len(rejects)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.rate <= 0 or args.duration_ms <= 0:
        print("error: benchmark needs a positive rate and duration", file=sys.stderr)
        return EXIT_BENCH
    out = _out_dir(args)

    latency_rows = bench.bench_latency(iterations=args.iterations, seed=args.seed or 0xBE)
    bench.write_csv(
        out / "latency.csv",
        ("phase", "samples", "mean_ms", "p50_ms", "p95_ms"),
        latency_rows,
        comments=("per-phase handover cost in wall-clock milliseconds",),
    )

    scaling_rows, slope, r2 = bench.bench_batch_scaling(seed=args.seed or 0xBF)
    bench.write_csv(
        out / "scaling.csv",
        ("batch_size", "total_ms"),
        scaling_rows,
        comments=(f"linear fit slope {slope:.6f} ms/request, r_squared {r2:.6f}",),
    )

    interval_ms = 1000
    loss_rows, capacity = bench.bench_loss_ratio(args.rate, args.duration_ms, interval_ms, seed=args.seed or 0xC0)
    total_offered = sum(r[1] for r in loss_rows)
    total_served = sum(r[2] for r in loss_rows)
    total_dropped = sum(r[3] for r in loss_rows)
    capacity_note = f"capacity ~{capacity:.0f}/s, mean of {total_served} served calls"
    bench.write_csv(
        out / "loss.csv",
        ("interval", "offered", "served", "dropped", "loss_ratio"),
        loss_rows,
        comments=(
            f"loss model: deadline queue; a request not started within {actors.FRESHNESS_WINDOW_MS} ms of arrival is dropped",
            f"offered rate {args.rate}/s, interval {interval_ms} ms",
            capacity_note,
        ),
    )

    overall = total_dropped / total_offered if total_offered else 0.0
    if args.format == "text":
        print("phase latency (ms):")
        for phase, n, mean, p50, p95 in latency_rows:
            print(f"  {phase:20s} mean={mean:.4f} p50={p50:.4f} p95={p95:.4f} (n={n})")
        print(f"batch scaling: slope {slope:.4f} ms/request, r^2 {r2:.5f}")
        print(f"loss at {args.rate}/s: {overall:.4f} ({capacity_note})")
    print(f"wrote {out / 'latency.csv'}, {out / 'scaling.csv'}, {out / 'loss.csv'}")
    return EXIT_OK


def cmd_trace(args) -> int:
    try:
        transcript = run_scenario(TRACE_AND_AUDIT, seed=args.seed)
    except DeadlockDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    record = next((r for r in transcript.events if r.get("event") == "trace" and r.get("outcome") == "ok"), None)
    if record is None:
        print("error: trace did not resolve an identity", file=sys.stderr)
        return EXIT_PROTOCOL
    identity = bytes.fromhex(record["identity"])
    print(f"traced identity: {record['identity']} ({identity.rstrip(chr(0).encode()).decode(errors='replace')})")
    print(f"registration tx: {record['txid']}")
    out = _out_dir(args)
    (out / "trace-transcript.txt").write_text(transcript.to_text(), encoding="utf-8")
    return EXIT_OK


def cmd_audit(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    master = random.Random(seed)
    chain = Ledger()
    lea = actors.Authority(random.Random(master.random()), chain)
    rsm = actors.RegionManager(lea, random.Random(master.random()), "rsm1")
    rsu = actors.RoadsideUnit(rsm, random.Random(master.random()), "rsu1")
    suspect = actors.Vehicle(b"VIN-SUSPECT00001", random.Random(master.random()), "vn1")
    bystander = actors.Vehicle(b"VIN-BYSTANDER001", random.Random(master.random()), "vn2")
    actors.register_vehicle(suspect, rsm, lea, now=0)
    actors.register_vehicle(bystander, rsm, lea, now=0)
    _, ctx = suspect.start_handover(rsu.sign_pk, now=1000)
    rsu.handle_request(ctx.req_bytes, now=1000)
    report = rsu.report_malicious(ctx.req_bytes)
    result = lea.trace(report, rsu.sign_pk, now=1200)

    honest = actors.audit_frame_claim(
        report.req_bytes, report.sig_rt, rsu.sign_pk,
        result.identity, result.d_star, suspect.credential.txid, chain, lea.params.sign_pk,
    )
    framed = actors.audit_frame_claim(
        report.req_bytes, report.sig_rt, rsu.sign_pk,
        bystander.identity, result.d_star, bystander.credential.txid, chain, lea.params.sign_pk,
    )
    print(f"audit of truthful trace output: {honest}")
    print(f"audit of substituted identity:  {framed}")
    if honest != "consistent" or framed != "framed":
        return EXIT_PROTOCOL
    return EXIT_OK


def cmd_rotate(args) -> int:
    try:
        transcript = run_scenario(REVOCATION, seed=args.seed)
    except DeadlockDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    rejected = transcript.count_events(event="reject", outcome="UnknownCredential")
    updated = transcript.count_events(event="apply_update", outcome="ok")
    confirmed = transcript.count_events(actor="vn2", event="session_key", outcome="ok")
    print("rotation scenario:")
    print(f"  revoked vehicle + update-missing vehicle rejected: {rejected} rejections")
    print(f"  honest vehicle updates applied: {updated}")
    print(f"  honest vehicle handovers confirmed: {confirmed}")
    out = _out_dir(args)
    (out / "rotate-transcript.txt").write_text(transcript.to_text(), encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xauth",
        description="chameleon-credential handover authentication: demos, benchmarks, trace and audit",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", default="out", help="directory for transcripts and CSV output")
    parser.add_argument("--format", choices=("csv", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a scenario (default: two-domain registration/handover/rotation)")
    demo.add_argument("--scenario", default=None, help="path to a scenario file")
    demo.set_defaults(func=cmd_demo)

    bench_p = sub.add_parser("bench", help="wall-clock latency, batch scaling and loss-ratio benchmarks")
    bench_p.add_argument("--rate", type=int, default=1000, help="offered requests per second")
    bench_p.add_argument("--duration-ms", type=int, default=2000)
    bench_p.add_argument("--iterations", type=int, default=300)
    bench_p.set_defaults(func=cmd_bench)

    trace = sub.add_parser("trace", help="trace a reported request back to its registered identity")
    trace.set_defaults(func=cmd_trace)

    audit = sub.add_parser("audit", help="run the public framing audit on a trace verdict")
    audit.set_defaults(func=cmd_audit)

    rotate = sub.add_parser("rotate", help="rotate the group key with one revocation and one lost update")
    rotate.set_defaults(func=cmd_rotate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SimnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except actors.ProtocolError as exc:
        print(f"protocol rejection: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
