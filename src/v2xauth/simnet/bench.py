"""Host-time benchmarks: per-phase latency and the request loss ratio
under offered load on the wall clock, batch scaling in thread CPU time.

These deliberately bypass the virtual-time engine: the numbers they
produce are real CPU costs on the host. Request streams are pre-built
as wire bytes, so the verifier's cost is measured alone, from request
bytes in to reply out, decode included. The freshness window is
widened so timestamp policy does not interfere with throughput
accounting.

Loss model (documented in every CSV header): requests arrive on an
ideal schedule at the offered rate; one loop serves them in arrival
order; a request whose service would start later than its arrival plus
the protocol's freshness window (``actors.FRESHNESS_WINDOW_MS``, 500 ms)
is dropped and never served, since a deployed RSU would reject it as
stale. Served and dropped requests are counted in the accounting
interval of their arrival. This is a deadline queue, not a bounded
buffer.
"""

from __future__ import annotations

import random
import statistics
import time

from .. import actors
from ..ledger import Ledger


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


def _request_stream(rsu, vehicles, nows):
    """Request bytes for each timestamp in ``nows``, round robin over the
    fleet; every pool is refilled first so no build pays for a blinded point."""
    for vn in vehicles:
        vn.refill_pool(target=len(nows) // len(vehicles) + 2)
    return [
        vehicles[i % len(vehicles)].start_handover(rsu.sign_pk, now=now)[0].encode()
        for i, now in enumerate(nows)
    ]


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

    One pass serves ``max(batch_sizes)`` requests and reads this thread's
    CPU clock each time the count reaches a batch size, so a batch of n is
    the first n requests. Thread CPU time, not wall-clock time: a batch of
    one request lasts well under a millisecond, and on a shared host
    another process's time slice would dominate it.

    Returns (rows, slope_ms, r_squared) where rows are (n, total_ms) in
    ascending n.
    """
    lea, rsm, rsu, vehicles = _fixture(seed, fleet=8, freshness_ms=10**12)
    nows = [1000 + i for i in range(max(batch_sizes))]
    requests = _request_stream(rsu, vehicles, nows)
    marks = set(batch_sizes)
    rows = []
    t0 = time.thread_time_ns()
    for n, (request, now) in enumerate(zip(requests, nows), 1):
        rsu.handle_request(request, now)
        if n in marks:
            rows.append((n, (time.thread_time_ns() - t0) / 1e6))
    xs = [float(n) for n, _ in rows]
    ys = [ms for _, ms in rows]
    fit = statistics.linear_regression(xs, ys)
    r2 = statistics.correlation(xs, ys) ** 2
    return rows, fit.slope, r2


def bench_loss_ratio(rate: int, duration_ms: int, interval_ms: int = 1000, seed: int = 0xC0):
    """Loss ratio at ``rate`` offered requests per second over
    ``duration_ms``, one row per accounting interval; a last, shorter
    interval gets its own row. Returns (rows, capacity_per_s), where the
    capacity is 1000 / the mean wall-clock time of the served calls, and
    their count is the sum of the served column. The mean, not the median:
    the loop's served rate is set by the total time its calls take, tail
    calls included.

    A request is dropped only when its service would start more than
    ``actors.FRESHNESS_WINDOW_MS`` after its arrival, so a stall of a
    few ms near an interval's end is not loss. The fixture's own window
    is wider still, so the RSU's timestamp check never rejects.

    rows: (interval_index, offered, served, dropped, loss_ratio)
    """
    fleet = max(8, rate // 500)
    lea, rsm, rsu, vehicles = _fixture(seed, fleet=fleet, freshness_ms=duration_ms + 60_000)
    spacing_ms = 1000.0 / rate
    arrivals = [i * spacing_ms for i in range(rate * duration_ms // 1000)]
    stream = _request_stream(rsu, vehicles, [int(arrival) for arrival in arrivals])

    intervals = -(-duration_ms // interval_ms)
    served = [0] * intervals
    dropped = [0] * intervals
    call_ms = []
    start_ns = time.perf_counter_ns()
    for arrival, request in zip(arrivals, stream):
        bucket = int(arrival // interval_ms)
        now_ms = (time.perf_counter_ns() - start_ns) / 1e6
        if now_ms < arrival:
            time.sleep((arrival - now_ms) / 1000.0)
            now_ms = (time.perf_counter_ns() - start_ns) / 1e6
        if now_ms > arrival + actors.FRESHNESS_WINDOW_MS:
            dropped[bucket] += 1
            continue
        t0 = time.perf_counter_ns()
        rsu.handle_request(request, int(arrival))
        call_ms.append((time.perf_counter_ns() - t0) / 1e6)
        served[bucket] += 1
    capacity = 1000.0 / statistics.fmean(call_ms) if call_ms else 0.0

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
