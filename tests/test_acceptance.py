"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Criteria 1-7 and 9 are hard assertions; criterion 8 is
hardware-dependent: its latency bounds are asserted at the agreed
desk-scale thresholds, while absolute throughput is measured and
reported (the CSV documents capacity when the target rate exceeds it).
Its report line names the ``msm2`` backend that ran (``curve.BACKEND``:
``libcrypto`` when libcrypto.so.3 loaded, else ``pure-python``).
"""

import random

from chameleon_fixture import ch_keygen
from curve_oracle import oracle_generator_multiples

from v2xauth import actors, wire
from v2xauth.crypto import chameleon, curve
from v2xauth.ledger import Ledger
from v2xauth.simnet import bench, scenarios


def _report(num, desc, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _domain(seed, **kw):
    master = random.Random(seed)
    chain = Ledger()
    lea = actors.Authority(random.Random(master.random()), chain)
    rsm = actors.RegionManager(lea, random.Random(master.random()), "rsm1")
    rsu = actors.RoadsideUnit(rsm, random.Random(master.random()), "rsu1", **kw)
    vn = actors.Vehicle(b"VIN-ACCEPT000001", random.Random(master.random()), "vn1")
    return chain, lea, rsm, rsu, vn


def test_criterion_1_wire_sizes():
    chain, lea, rsm, rsu, vn = _domain(0xC1)
    actors.register_vehicle(vn, rsm, lea, now=0)
    request, ctx = vn.start_handover(rsu.sign_pk, now=1000)
    reply, rctx = rsu.handle_request(request.encode(), now=1000)
    ack, _ = vn.handle_reply(ctx, reply.encode(), now=1000)
    req_b, rep_b, ack_b = request.encode(), reply.encode(), ack.encode()
    sizes = (len(req_b), len(rep_b), len(ack_b))
    total = sum(sizes)
    round_trips = (
        wire.AuthRequest.decode(req_b) == request
        and wire.AuthReply.decode(rep_b) == reply
        and wire.AuthAck.decode(ack_b) == ack
    )
    _report(
        1,
        "wire sizes request/reply/ack = 104/88/20, total 212, bit-exact round trip",
        sizes == (104, 88, 20) and total == 212 and round_trips,
        f"sizes={sizes} total={total}",
    )


def test_criterion_2_mutual_auth_key_agreement():
    chain, lea, rsm, rsu, vn = _domain(0xC2, freshness_ms=10**9)
    actors.register_vehicle(vn, rsm, lea, now=0)
    vn.refill_pool(target=1000)
    confirmed = 0
    for i in range(1000):
        now = 2000 + 2 * i
        vn_ctx, rsu_ctx = actors.run_handover(vn, rsu, now)
        if rsu_ctx.established and vn_ctx.ks == rsu_ctx.ks != b"":
            confirmed += 1
    _report(2, "1000 seeded honest handovers all confirmed with equal session keys",
            confirmed == 1000, f"confirmed={confirmed}/1000")


def test_criterion_3_chameleon_algebra():
    rng = random.Random(0xC3)
    collision_ok = 0
    eq1_ok = 0
    per_key = 100
    for _ in range(100):
        td, hk, m0, r0 = ch_keygen(rng)
        for _ in range(per_key):
            r_new = curve.rand_nonzero_scalar(rng)
            m_new = chameleon.ch_collide(td, r_new)
            if chameleon.ch_commit(hk.y_point, m_new, r_new) == hk.commitment:
                collision_ok += 1
        for _ in range(per_key):
            alpha = curve.rand_nonzero_scalar(rng)
            gamma = curve.rand_nonzero_scalar(rng)
            a_pt = curve.msm2(0, alpha, hk.y_point)
            m = (td.k - alpha * gamma % curve.Q * td.x) % curve.Q
            if curve.msm2(m, gamma, a_pt) == hk.commitment:
                eq1_ok += 1
    # both scalar multiplications, on the same scalars, against the
    # naive oracle's answers (computed once, shared with test_curve)
    bound_ok = ladder_ok = 0
    for s, expected in oracle_generator_multiples():
        bound_ok += curve.scalar_mul(curve.GEN, s) == expected
        ladder_ok += curve.ladder_mul(curve.GEN, s) == expected
    _report(
        3,
        "trapdoor collisions and verification identity on 10^4 instances; "
        f"scalar_mul ({curve.BACKEND}) and the Python ladder each match the naive oracle on 10^3 scalars",
        collision_ok == 10_000 and eq1_ok == 10_000 and bound_ok == ladder_ok == 1000,
        f"collisions={collision_ok} identity={eq1_ok} oracle: scalar_mul={bound_ok} ladder={ladder_ok}",
    )


def test_criterion_4_attack_rejection():
    # canned Dolev-Yao scenarios, each rejecting with its typed error
    scenarios.run_scenario(scenarios.REPLAY_ATTACK)
    scenarios.run_scenario(scenarios.TAMPER_REQ)
    scenarios.run_scenario(scenarios.TAMPER_REP)
    scenarios.run_scenario(scenarios.TAMPER_ACK)
    scenarios.run_scenario(scenarios.impersonation_scenario())
    scenarios.run_scenario(scenarios.CROSS_SESSION_SPLICE)

    # exhaustive single-byte flips across one request/reply/ack triple
    chain, lea, rsm, rsu, vn = _domain(0xC4)
    actors.register_vehicle(vn, rsm, lea, now=0)
    request, vctx = vn.start_handover(rsu.sign_pk, now=1000)
    reply, rctx = rsu.handle_request(request.encode(), now=1000)
    ack, _ = vn.handle_reply(vctx, reply.encode(), now=1000)
    rsu.handle_ack(rctx, ack.encode(), now=1000)

    flip_rejections = 0
    req_b = request.encode()
    for i in range(len(req_b)):
        mutated = bytearray(req_b)
        mutated[i] ^= 0x01
        try:
            rsu.handle_request(bytes(mutated), now=1000)
        except (actors.ProtocolError, wire.WireError):
            flip_rejections += 1
    request2, vctx2 = vn.start_handover(rsu.sign_pk, now=1100)
    reply2, _ = rsu.handle_request(request2.encode(), now=1100)
    rep_b = reply2.encode()
    for i in range(len(rep_b)):
        mutated = bytearray(rep_b)
        mutated[i] ^= 0x01
        try:
            vn.handle_reply(vctx2, bytes(mutated), now=1100)
        except (actors.ProtocolError, wire.WireError):
            flip_rejections += 1
    ack2, _ = vn.handle_reply(vctx2, reply2.encode(), now=1100)
    request3, vctx3 = vn.start_handover(rsu.sign_pk, now=1200)
    reply3, rctx3 = rsu.handle_request(request3.encode(), now=1200)
    ack3, _ = vn.handle_reply(vctx3, reply3.encode(), now=1200)
    ack_b = ack3.encode()
    for i in range(len(ack_b)):
        mutated = bytearray(ack_b)
        mutated[i] ^= 0x01
        try:
            rsu.handle_ack(rctx3, bytes(mutated), now=1200)
        except (actors.ProtocolError, wire.WireError):
            flip_rejections += 1
    total_flips = len(req_b) + len(rep_b) + len(ack_b)

    # forged requests from an adversary holding neither the group secret
    # nor any trapdoor
    accepted = 0
    trials = 10_000
    for i, forged in enumerate(_forged_requests(trials)):
        try:
            rsu.handle_request(forged, now=2000 + i)
            accepted += 1
        except actors.ProtocolError:
            pass
    _report(
        4,
        "replay/tamper/impersonation/splice rejected; every byte flip rejected; "
        "0/10^4 forged requests accepted",
        flip_rejections == total_flips and accepted == 0,
        f"flips={flip_rejections}/{total_flips} forged_accepted={accepted}",
    )


def _forged_requests(trials):
    """Wire bytes of seeded forged requests, the i-th stamped T1 = 2000 + i.

    A is base + k*G for k cycling through 1..64, each of the 64 points
    computed once.
    """
    rng = random.Random(0xF0C4)
    base = curve.scalar_mul(curve.GEN, 0xACCE55)
    points = []
    for k in range(1, 65):
        pt = curve.point_add(base, curve.scalar_mul(curve.GEN, k))
        points.append(pt if curve.has_even_y(pt) else curve.point_neg(pt))
    for i in range(trials):
        yield actors.AuthRequest(
            pid=rng.randbytes(16),
            m=rng.randrange(curve.Q),
            a_x=points[i % 64][0],
            s1=rng.randbytes(28),
            t1=2000 + i,
        ).encode()


def test_criterion_5_cross_domain():
    transcript = scenarios.run_scenario(scenarios.CROSS_DOMAIN)
    vn_ks = [r["ks"] for r in transcript.events if r.get("event") == "session_key" and r["actor"] == "vn1"]
    rsu_ks = [r["ks"] for r in transcript.events if r.get("event") == "session_key" and r["actor"] == "rsu2"]
    sizes = {}
    for _, _, _, kind, payload, note in transcript.messages:
        if not note and kind in ("REQ", "REP", "ACK"):
            sizes.setdefault(kind, set()).add(len(payload))
    ok = (
        vn_ks == rsu_ks
        and len(vn_ks) == 1
        and sizes == {"REQ": {104}, "REP": {88}, "ACK": {20}}
    )
    _report(5, "cross-domain handover after ledger sync: same sizes, keys agree", ok,
            f"sizes={sizes}")


def test_criterion_6_revocation_semantics():
    chain, lea, rsm, rsu, vn_revoked = _domain(0xC6)
    vn_updated = actors.Vehicle(b"VIN-UPDATED00001", random.Random(61), "vn2")
    vn_missed = actors.Vehicle(b"VIN-MISSED000001", random.Random(62), "vn3")
    for v in (vn_revoked, vn_updated, vn_missed):
        actors.register_vehicle(v, rsm, lea, now=0)
        actors.run_handover(v, rsu, now=2000 + 100 * id(v) % 97)
    epoch, updates = actors.rotate_group_key(
        lea, [rsm], [rsu], revoked_chs=[vn_revoked.credential.commitment], now=3000
    )
    # deliver the update to vn_updated only; vn_missed loses its message
    delivered = 0
    for _, ctx, upd in updates:
        if ctx.ch == vn_updated.credential.commitment:
            vn_updated.apply_update(upd, vn_updated.sessions[rsu.node_id].ks, epoch, now=3000)
            delivered += 1

    revoked_rejected = updated_ok = missed_rejected = False
    try:
        request, _ = vn_revoked.start_handover(rsu.sign_pk, now=4000)
        rsu.handle_request(request.encode(), now=4000)
    except actors.UnknownCredential:
        revoked_rejected = True
    vctx, rctx = actors.run_handover(vn_updated, rsu, now=4100)
    updated_ok = rctx.established and vctx.ks == rctx.ks
    try:
        request, _ = vn_missed.start_handover(rsu.sign_pk, now=4200)
        rsu.handle_request(request.encode(), now=4200)
    except actors.UnknownCredential:
        missed_rejected = True
    _report(
        6,
        "after rotation: revoked fails, updated succeeds, missed update fails",
        revoked_rejected and updated_ok and missed_rejected and delivered == 1,
        f"revoked_rejected={revoked_rejected} updated_ok={updated_ok} missed_rejected={missed_rejected}",
    )


def test_criterion_7_trace_audit_round_trip():
    chain, lea, rsm, rsu, vn = _domain(0xC7)
    other = actors.Vehicle(b"VIN-INNOCENT0001", random.Random(71), "vn2")
    actors.register_vehicle(vn, rsm, lea, now=0)
    actors.register_vehicle(other, rsm, lea, now=0)
    request, _ = vn.start_handover(rsu.sign_pk, now=1000)
    rsu.handle_request(request.encode(), now=1000)
    report = rsu.report_malicious(request.encode())
    result = lea.trace(report, rsu.sign_pk, now=1200)

    honest_verdict = actors.audit_frame_claim(
        report.req_bytes, report.sig_rt, rsu.sign_pk,
        result.identity, result.d_star, vn.credential.txid, chain, lea.params.sign_pk,
    )
    framed_verdict = actors.audit_frame_claim(
        report.req_bytes, report.sig_rt, rsu.sign_pk,
        other.identity, result.d_star, other.credential.txid, chain, lea.params.sign_pk,
    )
    ok = result.identity == vn.identity and honest_verdict == "consistent" and framed_verdict == "framed"
    _report(7, "trace recovers the registered identity; audit flags any substitution", ok,
            f"traced={result.identity!r} honest={honest_verdict} substituted={framed_verdict}")


def test_criterion_8_desk_scale_performance():
    latency_rows = bench.bench_latency(iterations=400, warmup=40)
    by_phase = {row[0]: row for row in latency_rows}
    verify_mean = by_phase["rsu_verify"][2]
    build_mean = by_phase["vn_request_build"][2]

    scaling_rows, slope, r2 = bench.bench_batch_scaling(batch_sizes=(1, 10, 100, 1000))

    loss_rows, capacity = bench.bench_loss_ratio(5000, 1000)
    offered = sum(r[1] for r in loss_rows)
    served = sum(r[2] for r in loss_rows)
    dropped = sum(r[3] for r in loss_rows)
    loss = dropped / offered if offered else 0.0

    hard_ok = verify_mean < 1.7 and build_mean < 0.1 and r2 > 0.99
    detail = (
        f"msm2 backend={curve.BACKEND}; "
        f"verify_mean={verify_mean:.3f}ms (<1.7) build_mean={build_mean:.4f}ms (<0.1) "
        f"batch_r2={r2:.5f} (>0.99); offered 5000/s -> loss={loss:.3f}, "
        f"capacity ~{capacity:.0f}/s, mean of {served} served calls"
    )
    if loss > 0:
        # hardware cannot reach the reported rate; the CSV-documented
        # capacity estimate stands in, per the hardware-dependent clause
        detail += f" [{curve.BACKEND} msm2 backend: capacity documented instead of 5000/s]"
    _report(8, "desk-scale latency bounds and linear batch scaling", hard_ok, detail)


def test_criterion_9_determinism():
    for scenario in (scenarios.HONEST_SINGLE_DOMAIN, scenarios.REPLAY_ATTACK, scenarios.TWO_DOMAIN_DEMO):
        a = scenarios.run_scenario(scenario).to_text()
        b = scenarios.run_scenario(scenario).to_text()
        assert a == b
    _report(9, "virtual-time scenarios are byte-identical under a fixed seed", True)
