"""The three benchmark workloads, driven through the public API of
``actors``, ``wire``, ``ledger`` and ``crypto``.

Each workload builds its fixture from the seed (several times, so that
set-up time is a median), runs its timed loop for the requested number
of seconds, checks every output, and returns its metrics. Protocol time
(``now``) is derived from the seed and the operation count, never from
the wall clock, so protocol outcomes do not depend on speed.

Every workload pauses its loop once, after a fixed number of operations,
for a rotation phase: the authority rotates the group key several times
(``actors.rotate_group_key``), each rotation fanning out over every RSU
session held at that point, and then every vehicle applies the update
minted for its latest session and hands over again. The fixed count keeps
the fan-out size independent of how fast the loop runs.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from v2xauth import actors, wire
from v2xauth.crypto import curve, signatures
from v2xauth.ledger import Ledger, LedgerError, Registration

# Durations are CPU time of this (only) thread, rescaled to the reference
# speed by the meter (see speed.py). On a shared machine, wall-clock tails are
# mostly other tenants preempting the process: a bare msm2 loop measured
# p99/p50 = 2.3 in wall time, 1.16 in CPU time. The loop length alone is
# wall-clock.
clock = time.thread_time
wall = time.perf_counter

SETUP_REPEATS = 3
ROTATIONS = 41
MAX_LOOP_S = 90  # a loop that cannot reach its rotation phase stops here

HANDOVER_FLEET = 32
HANDOVER_STEP_MS = 2  # protocol clock per handover: 500/s, far below the replay cache's rebuild size
HANDOVER_ROTATE_AFTER = 512

FLOOD_FLEET = 32
FLOOD_RATE_PER_S = 80.0  # about 0.3 utilisation of the pure-Python RSU
FLOOD_ROTATE_AFTER = 256  # accepted honest requests

REG_PREFILL = 3000
REG_STEP_MS = 10
REG_ROTATE_AFTER = 64

# Generic end-to-end names (reported by every workload) -> the workload's own metric.
E2E_NAMES = {
    "handover": {
        "latency_p50_ms": "handover_p50_ms",
        "latency_tail_ms": "handover_p99_ms",
        "throughput_per_s": "handovers_per_s",
    },
    "replay_flood": {
        "latency_p50_ms": "sojourn_p50_ms",
        "latency_tail_ms": "sojourn_p99_ms",
        "throughput_per_s": "rsu_capacity_rps",
    },
    "registration": {
        "latency_p50_ms": "registration_p50_ms",
        "latency_tail_ms": "registration_p90_ms",
        "throughput_per_s": "registrations_per_s",
    },
}

REJECTS = (actors.ProtocolError, wire.WireError, LedgerError, signatures.IntegrityError)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Operation counts, output checks and the tracer toggle.

    With a tracer, every other operation runs traced, so one run holds
    traced and untraced samples of the same work.
    """

    def __init__(self, meter, tracer=None):
        self.meter = meter
        self.tracer = tracer
        self.ops = 0
        self.op_ms: dict[bool, list] = {True: [], False: []}
        self.attempted = 0
        self.failed = 0
        self.honest = 0
        self.honest_failed = 0
        self.rejects: Counter = Counter()
        self.reject_ms: dict[str, list] = defaultdict(list)
        self.problems: list[str] = []

    def begin(self) -> bool:
        traced = self.tracer is not None and self.ops % 2 == 0
        if traced:
            self.tracer.install(self.ops)
        self.meter.start()
        return traced

    def end(self, traced: bool, *raw_s: float) -> list:
        """Close an operation; returns its raw CPU durations in reference ms."""
        factor = self.meter.stop()
        if traced:
            self.tracer.uninstall()
        ms = [raw * factor * 1e3 for raw in raw_s]
        self.op_ms[traced].append(ms[0])
        self.ops += 1
        return ms

    def record(self, honest: bool, problem: "str | None" = None, late: bool = False) -> None:
        """One checked outcome. A problem is a failed output check; a late
        honest request missed the freshness window without being wrong."""
        self.attempted += 1
        self.honest += honest
        if problem is not None or late:
            self.failed += 1
            self.honest_failed += honest
        if problem is not None and len(self.problems) < 20:
            self.problems.append(problem)


@dataclass
class Domain:
    chain: Ledger
    lea: actors.Authority
    rsm: actors.RegionManager
    rsu: actors.RoadsideUnit
    vehicles: list = field(default_factory=list)
    latest: dict = field(default_factory=dict)  # vehicle -> RSU context of its latest handover


def build_domain(master: random.Random, fleet: int, tick) -> Domain:
    chain = Ledger()
    lea = actors.Authority(random.Random(master.random()), chain)
    rsm = actors.RegionManager(lea, random.Random(master.random()), "rsm1")
    rsu = actors.RoadsideUnit(rsm, random.Random(master.random()), "rsu1")
    dom = Domain(chain, lea, rsm, rsu)
    for i in range(fleet):
        vn = actors.Vehicle(f"VIN-{i:012d}".encode(), random.Random(master.random()), f"vn{i}")
        actors.register_vehicle(vn, rsm, lea, now=0)
        dom.vehicles.append(vn)
        tick()
    return dom


def repeat_setup(build, meter):
    """Build the fixture SETUP_REPEATS times; keep the last, return every
    duration in reference seconds. ``build`` probes the speed as it goes."""
    times = []
    fixture = None
    for _ in range(SETUP_REPEATS):
        fixture = None  # let the previous copy go before building the next
        since = len(meter.factors)
        t0 = clock()
        fixture = build(meter.sample)
        raw = clock() - t0
        times.append(raw * meter.median_factor(since))
    return fixture, times


# --- the handover exchange on bytes -------------------------------------------


def serve(rsu, req_bytes: bytes, now: int):
    """RSU step, request bytes in to reply bytes out: (raw s, reply, ctx, reject)."""
    t0 = clock()
    try:
        reply, ctx = rsu.handle_request(req_bytes, now)
        rep_bytes = reply.encode()
    except REJECTS as exc:
        return clock() - t0, None, None, type(exc).__name__
    return clock() - t0, rep_bytes, ctx, None


def finish(vn, vn_ctx, rsu, rsu_ctx, rep_bytes: bytes, now: int, corrupt: bool = False):
    """Vehicle handles the reply, RSU checks the ack. Returns the failure or None."""
    if corrupt:
        rep_bytes = bytes([rep_bytes[0] ^ 0x01]) + rep_bytes[1:]
    try:
        ack, ks = vn.handle_reply(vn_ctx, rep_bytes, now)
        rsu.handle_ack(rsu_ctx, ack.encode(), now)
    except REJECTS as exc:
        return type(exc).__name__
    vn.sessions[rsu.node_id] = vn_ctx
    if not (rsu_ctx.established and ks == rsu_ctx.ks != b""):
        return "SessionKeyMismatch"
    return None


def exchange(vn, rsu, now: int, corrupt: bool = False):
    """Full four-message handover: (total raw s, verify raw s, RSU ctx, failure)."""
    t0 = clock()
    request, vn_ctx = vn.start_handover(rsu.sign_pk, now)
    verify_s, rep_bytes, rsu_ctx, failure = serve(rsu, request.encode(), now)
    if failure is None:
        failure = finish(vn, vn_ctx, rsu, rsu_ctx, rep_bytes, now, corrupt)
    return clock() - t0, verify_s, rsu_ctx, failure


def checked_exchange(dom: Domain, vn, now: int, tally: Tally, what: str, corrupt: bool = False):
    """Untimed exchange whose outcome is checked; remembers the vehicle's
    latest session. Returns (verify ms at reference speed, failure)."""
    if not vn.credential.pool:
        vn.refill_pool()  # between turns, outside any timed region
    tally.meter.start()
    _, verify_s, rsu_ctx, failure = exchange(vn, dom.rsu, now, corrupt)
    verify_ms = verify_s * tally.meter.stop() * 1e3
    if failure is not None:
        tally.rejects[failure] += 1
        tally.record(True, f"{what}: honest handover failed with {failure}")
    else:
        tally.record(True)
        dom.latest[vn] = rsu_ctx
    return verify_ms, failure


# --- rotation phase -----------------------------------------------------------


def looping(start: float, seconds: float, rotation, tally: Tally) -> bool:
    """Run for ``seconds``, and on until the rotation phase has run."""
    elapsed = wall() - start
    if elapsed < seconds or (rotation is None and elapsed < MAX_LOOP_S):
        return True
    if rotation is None:
        raise SystemExit("rotation phase never ran; first failures: " + "; ".join(tally.problems[:3]))
    return False


def rotation_phase(dom: Domain, vehicles, now: int, tally: Tally) -> dict:
    """ROTATIONS timed group-key rotations, then every vehicle applies the
    update for its latest session and hands over again."""
    times = []
    for _ in range(ROTATIONS):
        tally.meter.start()
        t0 = clock()
        epoch, updates = actors.rotate_group_key(dom.lea, [dom.rsm], [dom.rsu], [], now)
        raw = clock() - t0
        times.append(raw * tally.meter.stop() * 1e3)
    owner = {id(ctx): vn for vn, ctx in dom.latest.items()}
    mine = {}
    for _, ctx, upd in updates:
        vn = owner.get(id(ctx))
        if vn is not None:
            mine[vn] = upd
    for vn in vehicles:
        upd = mine.get(vn)
        if upd is None:
            tally.record(True, f"rotation: no update for {vn.node_id}'s latest session")
            continue
        vn.apply_update(upd, vn.sessions[dom.rsu.node_id].ks, epoch, now)
        checked_exchange(dom, vn, now, tally, "after rotation")
    return {
        "rotation_ms": times,
        "updates": len(updates),
        "useful_ratio": len({ctx.ch for _, ctx, _ in updates}) / len(updates) if updates else 0.0,
    }


def gauges(dom: Domain, vehicles, rotation: dict) -> dict:
    return {
        "actors.sessions_held": len(dom.rsu.sessions),
        "actors.rotation_updates": rotation["updates"],
        "actors.rotation_useful_ratio": rotation["useful_ratio"],
        # no public accessor yet; read-only
        "actors.replay_cache_size": len(dom.rsu._replay_cache),
        "actors.inline_point_uses": sum(vn.inline_point_uses for vn in vehicles),
    }


def check_no_inline_points(vehicles, tally: Tally) -> None:
    inline = sum(vn.inline_point_uses for vn in vehicles)
    if inline:
        tally.record(True, f"{inline} blinded points computed inline: the timed path included pool refills")


# --- workloads ----------------------------------------------------------------


def handover(seed: int, seconds: float, meter, tracer=None, corrupt: bool = False) -> dict:
    """Closed loop, one client: the fleet takes turns running the full exchange."""
    tally = Tally(meter, tracer)
    dom, setup_times = repeat_setup(lambda tick: build_domain(random.Random(seed), HANDOVER_FLEET, tick), meter)
    handover_ms, verify_ms = [], []
    rotation = None
    now = 1000
    start = wall()
    while looping(start, seconds, rotation, tally):
        vn = dom.vehicles[tally.ops % HANDOVER_FLEET]
        if not vn.credential.pool:
            vn.refill_pool()
        now += HANDOVER_STEP_MS
        traced = tally.begin()
        total_s, verify_s, rsu_ctx, failure = exchange(vn, dom.rsu, now, corrupt and tally.ops == 0)
        total, verify = tally.end(traced, total_s, verify_s)
        if failure is None:
            tally.record(True)
            dom.latest[vn] = rsu_ctx
            handover_ms.append(total)
            verify_ms.append(verify)
        else:
            tally.rejects[failure] += 1
            tally.record(True, f"honest handover failed with {failure}")
        if tally.ops == HANDOVER_ROTATE_AFTER:
            rotation = rotation_phase(dom, dom.vehicles, now, tally)
    check_no_inline_points(dom.vehicles, tally)
    return {
        "setup_times": setup_times,
        "tally": tally,
        "named": {
            "handover_p50_ms": (statistics.median(handover_ms), "ms", len(handover_ms)),
            "handover_p99_ms": (percentile(handover_ms, 0.99), "ms", len(handover_ms)),
            "handovers_per_s": (len(handover_ms) / (sum(handover_ms) / 1e3), "1/s", len(handover_ms)),
            "verify_p50_ms": (statistics.median(verify_ms), "ms", len(verify_ms)),
            "verify_p99_ms": (percentile(verify_ms, 0.99), "ms", len(verify_ms)),
            "rotation_p50_ms": (statistics.median(rotation["rotation_ms"]), "ms", ROTATIONS),
        },
        "gauges": gauges(dom, dom.vehicles, rotation),
    }


def replay_flood(seed: int, seconds: float, meter, tracer=None, corrupt: bool = False) -> dict:
    """Open loop: seeded Poisson arrivals, half honest, half replays and stale captures.

    Only the RSU step is timed. Requests are served back to back and the
    queue is reconstructed from the due times: c_i = max(a_i, c_{i-1}) + s_i.
    The RSU's protocol clock is the due time, so outcomes never depend on speed.
    """
    tally = Tally(meter, tracer)
    dom, setup_times = repeat_setup(lambda tick: build_domain(random.Random(seed), FLOOD_FLEET, tick), meter)
    rng = random.Random(f"replay_flood/{seed}")
    fresh = dom.rsu.freshness_ms
    accepted_t1, accepted_req = [], []
    sojourn_ms, verify_ms, waits = [], [], []
    busy_ms = 0.0
    rotation = None
    due = first_due = 1000.0
    free_at = due
    corrupt_next = corrupt
    start = wall()
    while looping(start, seconds, rotation, tally):
        due += rng.expovariate(FLOOD_RATE_PER_S) * 1e3
        now = int(due)
        draw = rng.random()
        # accepted requests before `cut` are outside the freshness window;
        # with no candidate of the drawn kind yet, the arrival is honest
        cut = bisect.bisect_left(accepted_t1, now - fresh)
        if draw < 0.25 and cut < len(accepted_t1):
            kind, expect = "replay", "ReplayDetected"
            req_bytes = accepted_req[rng.randrange(cut, len(accepted_req))]
        elif 0.25 <= draw < 0.5 and cut > 0:
            kind, expect = "stale", "StaleTimestamp"
            req_bytes = accepted_req[rng.randrange(cut)]
        else:
            kind, expect = "honest", None
            vn = dom.vehicles[rng.randrange(FLOOD_FLEET)]
            if not vn.credential.pool:
                vn.refill_pool()
            request, vn_ctx = vn.start_handover(dom.rsu.sign_pk, now)
            req_bytes = request.encode()

        traced = tally.begin()
        service_s, rep_bytes, rsu_ctx, reject = serve(dom.rsu, req_bytes, now)
        (service,) = tally.end(traced, service_s)

        begin_at = max(due, free_at)
        free_at = begin_at + service
        waits.append(begin_at - due)
        busy_ms += service
        if reject is not None:
            tally.rejects[reject] += 1
            tally.reject_ms[reject].append(service)

        if kind != "honest":
            tally.record(False, None if reject == expect else f"{kind} request: expected {expect}, got {reject}")
            continue
        sojourn = free_at - due
        sojourn_ms.append(sojourn)
        failure = reject
        if failure is None:
            verify_ms.append(service)
            failure = finish(vn, vn_ctx, dom.rsu, rsu_ctx, rep_bytes, now, corrupt_next)
            corrupt_next = False
            if failure is not None:
                tally.rejects[failure] += 1
        if failure is not None:
            tally.record(True, f"honest request failed with {failure}")
            continue
        tally.record(True, late=sojourn > fresh)
        dom.latest[vn] = rsu_ctx
        accepted_t1.append(now)
        accepted_req.append(req_bytes)
        if len(accepted_req) == FLOOD_ROTATE_AFTER and rotation is None:
            rotation = rotation_phase(dom, dom.vehicles, now, tally)
    check_no_inline_points(dom.vehicles, tally)
    span_ms = free_at - first_due
    return {
        "setup_times": setup_times,
        "tally": tally,
        "named": {
            "sojourn_p50_ms": (statistics.median(sojourn_ms), "ms", len(sojourn_ms)),
            "sojourn_p99_ms": (percentile(sojourn_ms, 0.99), "ms", len(sojourn_ms)),
            "rsu_capacity_rps": (tally.ops / (busy_ms / 1e3), "1/s", tally.ops),
            "verify_p50_ms": (statistics.median(verify_ms), "ms", len(verify_ms)),
            "rotation_p50_ms": (statistics.median(rotation["rotation_ms"]), "ms", ROTATIONS),
        },
        "gauges": {
            **gauges(dom, dom.vehicles, rotation),
            "queue.wait_p99_ms": percentile(waits, 0.99),
            "queue.utilisation": busy_ms / span_ms,
        },
    }


def build_populated_domain(seed: int, tick) -> Domain:
    """Empty domain plus REG_PREFILL registrations of distinct valid commitments."""
    master = random.Random(seed)
    dom = build_domain(master, 0, tick)
    token = dom.chain.mint_token("registration")
    ch = curve.scalar_mul(curve.GEN, curve.rand_nonzero_scalar(master))
    for i in range(REG_PREFILL):
        sig = master.randbytes(signatures.SIG_LEN)
        dom.chain.append(Registration(sig=sig, ch=ch, t_exp=actors.REGISTRATION_LIFETIME_MS), token, 0)
        ch = curve.point_add(ch, curve.GEN)
        if i % 100 == 0:
            tick()
    dom.rsm.view.sync_to(0)
    return dom


def registration(seed: int, seconds: float, meter, tracer=None, corrupt: bool = False) -> dict:
    """Closed loop: new vehicles register into a ledger already holding
    REG_PREFILL registrations; each then completes one handover."""
    tally = Tally(meter, tracer)
    dom, setup_times = repeat_setup(lambda tick: build_populated_domain(seed, tick), meter)
    master = random.Random(f"registration/{seed}")
    registration_ms, authority_ms, verify_ms = [], [], []
    rotation = None
    now = 1000
    start = wall()
    while looping(start, seconds, rotation, tally):
        now += REG_STEP_MS
        i = tally.ops
        vn = actors.Vehicle(f"NEW-{i:012d}".encode(), random.Random(master.random()), f"new{i}")
        traced = tally.begin()
        t0 = clock()
        try:
            request = wire.RegistrationRequest.decode(vn.build_registration(dom.lea.params).encode())
            t1 = clock()
            txid, sig, t_exp = dom.lea.handle_registration(request, now)
            t2 = clock()
            reply = dom.rsm.complete_registration(txid, sig, t_exp, now)
            cred = vn.finish_registration(wire.RegistrationReply.decode(reply.encode()), dom.rsm.view, now)
            failure = None
        except REJECTS as exc:
            failure = type(exc).__name__
        t3 = clock()
        if failure is not None:
            tally.end(traced, t3 - t0)
            tally.rejects[failure] += 1
            tally.record(True, f"registration failed with {failure}")
            continue
        total, authority = tally.end(traced, t3 - t0, t2 - t1)
        registration_ms.append(total)
        authority_ms.append(authority)
        tx = dom.chain.get(cred.txid)
        on_ledger = tx is not None and isinstance(tx.payload, Registration) and tx.payload.ch == cred.commitment
        tally.record(True, None if on_ledger else f"{vn.node_id} is not on the ledger")
        dom.vehicles.append(vn)
        verify, failure = checked_exchange(dom, vn, now, tally, "first handover", corrupt and i == 0)
        if failure is None:
            verify_ms.append(verify)
        if len(dom.vehicles) == REG_ROTATE_AFTER and rotation is None:
            rotation = rotation_phase(dom, dom.vehicles, now, tally)
    check_no_inline_points(dom.vehicles, tally)
    return {
        "setup_times": setup_times,
        "tally": tally,
        "named": {
            "registration_p50_ms": (statistics.median(registration_ms), "ms", len(registration_ms)),
            "registration_p90_ms": (percentile(registration_ms, 0.90), "ms", len(registration_ms)),
            "registrations_per_s": (len(authority_ms) / (sum(authority_ms) / 1e3), "1/s", len(authority_ms)),
            "verify_p50_ms": (statistics.median(verify_ms), "ms", len(verify_ms)),
            "rotation_p50_ms": (statistics.median(rotation["rotation_ms"]), "ms", ROTATIONS),
        },
        "gauges": gauges(dom, dom.vehicles, rotation),
    }


WORKLOADS = {"handover": handover, "replay_flood": replay_flood, "registration": registration}
