"""Host-time benchmarks: per-phase latency and the request loss ratio
under offered load on the wall clock, batch scaling in thread CPU time.

These deliberately bypass the virtual-time engine: the numbers they
produce are real CPU costs on the host. Request streams are pre-built
as wire bytes, so the verifier's cost is measured alone, from request
bytes in to reply out, decode included. The freshness window is
widened so timestamp policy does not interfere with throughput
accounting.

Loss model (documented in every CSV header): requests arrive on an
ideal schedule at the offered rate; workers serve them in arrival
order; a request still unserved when its accounting interval closes is
dropped and never served. This is a deadline queue, not a bounded
buffer.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass

from .. import actors
from ..ledger import Ledger


@dataclass
class BenchConfig:
    rate: int = 1000  # offered requests per second
    duration_ms: int = 2000
    interval_ms: int = 1000  # loss accounting window
    workers: int = 1
    warmup: int = 50


def _fixture(seed: int, fleet: int, freshness_ms: int):
    master = random.Random(seed)
    chain = Ledger()
    lea = actors.Authority(random.Random(master.random()), chain)
    rsm = actors.RegionManager(lea, random.Random(master.random()), "rsm-bench")
    rsu = actors.RoadsideUnit(rsm, random.Random(master.random()), "rsu-bench", freshness_ms=freshness_ms)
    vehicles = []
    for i in range(fleet):
        vn = actors.Vehicle(f"VIN-{i:011d}".encode()[:16], random.Random(master.random()), f"vn{i}")
        actors.register_vehicle(vn, rsm, lea, now=0)
        vehicles.append(vn)
    return lea, rsm, rsu, vehicles


def _percentile(values, q):
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def bench_latency(iterations: int = 300, warmup: int = 30, seed: int = 0xBE):
    """Per-phase timings for the four handover steps, in milliseconds.

    The request-build phase ends with the 104 request bytes and excludes
    blinded-point precomputation: the pool is filled ahead of time, as a
    deployed prover would. ``rsu_verify`` starts from those bytes, so it
    includes the decode and ends with the 88 reply bytes. The reply phase
    likewise ends with the 20 ack bytes.
    """
    lea, rsm, rsu, vehicles = _fixture(seed, fleet=1, freshness_ms=10**9)
    vn = vehicles[0]
    vn.refill_pool(target=iterations + warmup)
    phases = {"vn_request_build": [], "rsu_verify": [], "vn_reply_handling": [], "rsu_ack_check": []}
    now = 1000
    for i in range(iterations + warmup):
        now += 2
        t0 = time.perf_counter_ns()
        request, ctx = vn.start_handover(rsu.sign_pk, now)
        req_bytes = request.encode()
        t1 = time.perf_counter_ns()
        reply, rsu_ctx = rsu.handle_request(req_bytes, now)
        rep_bytes = reply.encode()
        t2 = time.perf_counter_ns()
        ack, _ = vn.handle_reply(ctx, rep_bytes, now)
        ack_bytes = ack.encode()
        t3 = time.perf_counter_ns()
        rsu.handle_ack(rsu_ctx, ack_bytes, now)
        t4 = time.perf_counter_ns()
        if i >= warmup:
            phases["vn_request_build"].append((t1 - t0) / 1e6)
            phases["rsu_verify"].append((t2 - t1) / 1e6)
            phases["vn_reply_handling"].append((t3 - t2) / 1e6)
            phases["rsu_ack_check"].append((t4 - t3) / 1e6)
    rows = []
    for phase, samples in phases.items():
        rows.append(
            (
                phase,
                len(samples),
                statistics.fmean(samples),
                _percentile(samples, 0.50),
                _percentile(samples, 0.95),
            )
        )
    return rows


def bench_batch_scaling(batch_sizes=(1, 10, 100, 1000), seed: int = 0xBF):
    """Total verification cost for n-request batches plus a linear fit.

    Each batch is timed in this thread's CPU time, not wall-clock time:
    a batch of one request lasts well under a millisecond, and on a shared
    host another process's time slice would dominate it.

    Returns (rows, slope_ms, r_squared) where rows are (n, total_ms).
    """
    lea, rsm, rsu, vehicles = _fixture(seed, fleet=8, freshness_ms=10**12)
    requests = []
    total = max(batch_sizes)
    for vn in vehicles:
        vn.refill_pool(target=total // len(vehicles) + 2)
    for i in range(total):
        vn = vehicles[i % len(vehicles)]
        request, _ = vn.start_handover(rsu.sign_pk, now=1000 + i)
        requests.append((request.encode(), 1000 + i))
    rows = []
    for n in batch_sizes:
        batch = requests[:n]
        t0 = time.thread_time_ns()
        for request, now in batch:
            rsu.handle_request(request, now)
        t1 = time.thread_time_ns()
        rows.append((n, (t1 - t0) / 1e6))
        rsu._replay_cache.clear()
    xs = [float(n) for n, _ in rows]
    ys = [ms for _, ms in rows]
    fit = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2
    return rows, fit.slope, r2


def bench_loss_ratio(config: BenchConfig, seed: int = 0xC0):
    """Loss ratio at the configured offered rate; one row per interval plus
    a summary row. Returns (rows, measured_capacity_per_s).

    rows: (interval_index, offered, served, dropped, loss_ratio)
    """
    fleet = max(8, config.rate // 500)
    lea, rsm, rsu, vehicles = _fixture(seed, fleet=fleet, freshness_ms=config.duration_ms + 60_000)
    total = config.rate * config.duration_ms // 1000
    spacing_ms = 1000.0 / config.rate

    per_vehicle = total // len(vehicles) + 2
    for vn in vehicles:
        vn.refill_pool(target=per_vehicle)
    stream = []
    for i in range(total):
        arrival = i * spacing_ms
        vn = vehicles[i % len(vehicles)]
        request, _ = vn.start_handover(rsu.sign_pk, now=int(arrival))
        stream.append((arrival, request.encode()))

    # calibration for the capacity estimate; the median, because the first
    # calls cost two to three times the rest
    calib = []
    for arrival, request in stream[: config.warmup]:
        t0 = time.perf_counter_ns()
        rsu.handle_request(request, int(arrival))
        calib.append((time.perf_counter_ns() - t0) / 1e6)
    rsu._replay_cache.clear()
    capacity = 1000.0 / statistics.median(calib) if calib else 0.0

    intervals = config.duration_ms // config.interval_ms
    served = [0] * intervals
    dropped = [0] * intervals
    lock = threading.Lock()
    cursor = [0]
    start_ns = time.perf_counter_ns()

    def worker():
        while True:
            with lock:
                idx = cursor[0]
                if idx >= total:
                    return
                cursor[0] = idx + 1
            arrival, request = stream[idx]
            bucket = min(int(arrival // config.interval_ms), intervals - 1)
            deadline = (bucket + 1) * config.interval_ms
            now_ms = (time.perf_counter_ns() - start_ns) / 1e6
            if now_ms < arrival:
                time.sleep((arrival - now_ms) / 1000.0)
                now_ms = (time.perf_counter_ns() - start_ns) / 1e6
            if now_ms > deadline:
                with lock:
                    dropped[bucket] += 1
                continue
            rsu.handle_request(request, int(arrival))
            with lock:
                served[bucket] += 1

    threads = [threading.Thread(target=worker) for _ in range(max(1, config.workers))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    rows = []
    for i in range(intervals):
        offered = served[i] + dropped[i]
        ratio = dropped[i] / offered if offered else 0.0
        rows.append((i, offered, served[i], dropped[i], ratio))
    return rows, capacity


def write_csv(path, header, rows, comments=()):
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in row) + "\n")
