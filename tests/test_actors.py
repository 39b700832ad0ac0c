import copy
import random
import sys

import pytest
from chameleon_fixture import ch_keygen

from v2xauth import actors, wire
from v2xauth.crypto import chameleon, curve, hashes, signatures, symmetric
from v2xauth.ledger import DuplicateRegistration, Ledger, RevokedRegistration


def make_domain(seed=0xA0, rsm_delay=0, count_rsm=1, count_rsu=1):
    master = random.Random(seed)
    chain = Ledger()
    lea = actors.Authority(random.Random(master.random()), chain)
    rsms = [
        actors.RegionManager(lea, random.Random(master.random()), f"rsm{i}", sync_delay_ms=rsm_delay)
        for i in range(count_rsm)
    ]
    rsus = []
    for i, rsm in enumerate(rsms):
        for j in range(count_rsu):
            rsus.append(actors.RoadsideUnit(rsm, random.Random(master.random()), f"rsu{i}.{j}"))
    vn = actors.Vehicle(b"VIN-0123456789AB", random.Random(master.random()), "vn1")
    return chain, lea, rsms, rsus, vn


def test_init_determinism_and_secrecy():
    chain1 = Ledger()
    chain2 = Ledger()
    lea1 = actors.Authority(random.Random(42), chain1)
    lea2 = actors.Authority(random.Random(42), chain2)
    assert lea1.params == lea2.params
    assert lea1.group_secret == lea2.group_secret
    lea3 = actors.Authority(random.Random(43), Ledger())
    assert lea3.group_secret != lea1.group_secret
    # published parameters carry no secret fields
    assert lea1.params == actors.SystemParams(sign_pk=lea1.sign_pk, enc_pk=lea1.enc_pk)
    assert all(pk is not None and curve.is_on_curve(pk) for pk in (lea1.params.sign_pk, lea1.params.enc_pk))
    for banned in ("gk", "b", "sk", "secret"):
        assert banned not in {f for f in lea1.params.__dataclass_fields__}


def test_registration_honest_run():
    chain, lea, rsms, rsus, vn = make_domain()
    cred = actors.register_vehicle(vn, rsms[0], lea, now=1000)
    assert chameleon.ch_commit(cred.y_point, *_initial_opening(vn, cred)) == cred.commitment
    assert signatures.verify(
        lea.params.sign_pk,
        cred.sig,
        actors._receipt_message(vn.identity, curve.point_compress(cred.commitment), cred.t_exp),
    )
    assert chain.get(cred.txid) is not None
    assert len(cred.pid) == 16 and len(cred.d) == 20


def _initial_opening(vn, cred):
    # reconstruct (m0, r0) from the trapdoor identity for the definitional check:
    # k = m0 + r0*x. There is no direct accessor on purpose; recompute via a
    # fresh collision at a random r.
    rng = random.Random(0xDEAD)
    r = curve.rand_nonzero_scalar(rng)
    m = chameleon.ch_collide(cred.trapdoor, r)
    return m, r


def test_registration_tampered_sig_rejected():
    chain, lea, rsms, rsus, vn = make_domain(0xA1)
    request = vn.build_registration(lea.params)
    txid, sig, t_exp = lea.handle_registration(request, now=1000)
    bad_sig = bytearray(sig)
    bad_sig[3] ^= 1
    reply = rsms[0].complete_registration(txid, bytes(bad_sig), t_exp, now=1000)
    rsms[0].view.sync_to(1000)
    with pytest.raises(actors.BadSignature):
        vn.finish_registration(reply, rsms[0].view, now=1000)
    assert vn.credential is None


def test_registration_wrong_txid_not_on_chain():
    chain, lea, rsms, rsus, vn = make_domain(0xA2)
    other_vn = actors.Vehicle(b"VIN-OTHER0000000", random.Random(5), "vn2")
    actors.register_vehicle(other_vn, rsms[0], lea, now=500)
    request = vn.build_registration(lea.params)
    txid, sig, t_exp = lea.handle_registration(request, now=1000)
    # a misbehaving region server pairs the valid receipt with another tx
    reply = rsms[0].complete_registration(other_vn.credential.txid, sig, t_exp, now=1000)
    rsms[0].view.sync_to(1000)
    with pytest.raises(actors.NotOnChain):
        vn.finish_registration(reply, rsms[0].view, now=1000)


def test_honest_handover_agrees_on_session_key():
    chain, lea, rsms, rsus, vn = make_domain(0xA3)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    vn_ctx, rsu_ctx = actors.run_handover(vn, rsus[0], now=2000)
    assert vn_ctx.ks == rsu_ctx.ks != b""
    assert rsu_ctx.established


def test_request_satisfies_commitment_equation():
    chain, lea, rsms, rsus, vn = make_domain(0xA4)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, _ = vn.start_handover(rsus[0].sign_pk, now=2000)
    gs = rsus[0].group_secret
    pd = symmetric.pid_decrypt(gs.b, request.pid)
    d = hashes.h1(pd, gs.gk, gs.b, request.pid)
    plain = symmetric.sym_decrypt(d, request.s1, actors._s1_context(request.t1))
    beta = int.from_bytes(plain[: actors.BETA_BYTES], "big")
    a_pt = curve.point_from_hint(request.a_x, plain[actors.BETA_BYTES :])
    assert a_pt == curve.solve_y(request.a_x)
    gamma = hashes.h2(request.pid, beta, a_pt, request.s1, d, rsus[0].sign_pk, request.t1)
    assert curve.msm2(request.m, gamma, a_pt) == vn.credential.commitment


def test_pool_points_are_even_y_and_recovered_from_their_hint():
    # A travels as x alone, so the vehicle keeps it in even-y form, and
    # the hint it stores beside it gives the verifier that point
    chain, lea, rsms, rsus, vn = make_domain(0xA4 + 0x100)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    vn.refill_pool(target=2 * actors.POOL_TARGET)
    assert len(vn.credential.pool) == 2 * actors.POOL_TARGET
    for alpha, a_pt, hint in vn.credential.pool:
        assert a_pt == curve.scalar_mul(vn.credential.y_point, alpha) and curve.has_even_y(a_pt)
        assert curve.point_from_hint(a_pt[0], hint) == a_pt


def test_consecutive_handovers_share_no_wire_field():
    chain, lea, rsms, rsus, vn = make_domain(0xA5)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    req1, ctx1 = vn.start_handover(rsus[0].sign_pk, now=2000)
    rep1, rctx1 = rsus[0].handle_request(req1.encode(), now=2000)
    vn.handle_reply(ctx1, rep1.encode(), now=2000)
    req2, _ = vn.start_handover(rsus[0].sign_pk, now=2500)
    assert req1.pid != req2.pid
    assert req1.m != req2.m
    assert req1.a_x != req2.a_x
    assert req1.s1 != req2.s1
    assert req1.t1 != req2.t1


def test_no_linkable_value_across_hundred_handovers():
    chain, lea, rsms, rsus, vn = make_domain(0xA5 + 1000)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    vn.refill_pool(target=100)
    rsus[0].freshness_ms = 10**9
    pids = []
    prev = None
    for i in range(100):
        req, ctx = vn.start_handover(rsus[0].sign_pk, now=2000 + 2 * i)
        rep, rctx = rsus[0].handle_request(req.encode(), now=2000 + 2 * i)
        vn.handle_reply(ctx, rep.encode(), now=2000 + 2 * i)
        pids.append(req.pid)
        if prev is not None:
            assert req.pid != prev.pid
            assert req.m != prev.m
            assert req.a_x != prev.a_x
            assert req.s1 != prev.s1
            assert req.t1 != prev.t1
        prev = req
    assert len(set(pids)) == 100  # pseudonyms pairwise distinct


def test_session_context_close_drops_secrets():
    chain, lea, rsms, rsus, vn = make_domain(0xA5 + 2000)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    vn_ctx, rsu_ctx = actors.run_handover(vn, rsus[0], now=2000)
    assert vn_ctx.ks and vn_ctx.m_secret
    vn_ctx.close()
    assert vn_ctx.ks == b"" and vn_ctx.m_secret == b""
    assert vn_ctx.beta_own == 0


def test_stale_timestamp_rejected():
    chain, lea, rsms, rsus, vn = make_domain(0xA6)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, _ = vn.start_handover(rsus[0].sign_pk, now=2000)
    with pytest.raises(actors.StaleTimestamp):
        rsus[0].handle_request(request.encode(), now=2000 + actors.FRESHNESS_WINDOW_MS + 1)


def test_replayed_request_detected():
    chain, lea, rsms, rsus, vn = make_domain(0xA7)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, ctx = vn.start_handover(rsus[0].sign_pk, now=2000)
    rsus[0].handle_request(request.encode(), now=2001)
    with pytest.raises(actors.ReplayDetected):
        rsus[0].handle_request(request.encode(), now=2002)


def _off_curve_x(rng):
    while True:
        x = rng.randrange(curve.P)
        if curve.solve_y(x) is None:
            return x.to_bytes(28, "big")


def test_stale_and_replayed_bytes_rejected_before_the_point_decode():
    chain, lea, rsms, rsus, vn = make_domain(0xA7 + 0x100)
    rsu = rsus[0]
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, _ = vn.start_handover(rsu.sign_pk, now=2000)
    raw = request.encode()
    junk = raw[:44] + _off_curve_x(random.Random(0xA7)) + raw[72:]
    late = 2000 + actors.FRESHNESS_WINDOW_MS + 1
    # stale and off the curve: the freshness check answers first
    with pytest.raises(actors.StaleTimestamp):
        rsu.handle_request(junk, now=late)
    with pytest.raises(wire.WrongLength):
        rsu.handle_request(junk[:-1], now=late)
    # fresh, with an x < P off the curve: S1's hint names no point for it
    with pytest.raises(actors.UnknownCredential):
        rsu.handle_request(junk, now=2000)
    _, ctx = rsu.handle_request(raw, now=2000)
    assert ctx.req_bytes == raw
    # replayed (pID, T1) with an off-curve point: the replay check answers
    with pytest.raises(actors.ReplayDetected):
        rsu.handle_request(junk, now=2001)


def test_replay_cache_holds_exactly_the_keys_inside_twice_the_window():
    chain, lea, rsms, rsus, vn = make_domain(0xA7 + 0x200)
    rsu = rsus[0]
    horizon = 2 * rsu.freshness_ms
    per_ms = 8  # about 8,000 live keys at once
    seen = []  # (seen at, pid), in insertion order
    oldest_live = 0
    peak = 0
    for now in range(3 * horizon):
        for k in range(per_ms):
            pid = (now * per_ms + k).to_bytes(16, "big")
            rsu._record_seen(pid, now, now)
            seen.append((now, pid))
        while now - seen[oldest_live][0] > horizon:
            oldest_live += 1
        assert len(rsu._replay_cache) == len(seen) - oldest_live
        peak = max(peak, len(rsu._replay_cache))
    assert peak > 4096
    for seen_at, pid in seen:
        if now - seen_at <= horizon:
            with pytest.raises(actors.ReplayDetected):
                rsu._check_replay(pid, seen_at)
        else:
            rsu._check_replay(pid, seen_at)


def test_replay_cache_survives_being_cleared():
    # clearing the cache leaves the expiry FIFO as it was; a key recorded
    # again after the clear expires by its new time, not by the stale entry
    chain, lea, rsms, rsus, vn = make_domain(0xA7 + 0x300)
    rsu = rsus[0]
    horizon = 2 * rsu.freshness_ms
    first, second = b"\x01" * 16, b"\x02" * 16
    rsu._record_seen(first, 0, 0)
    rsu._record_seen(second, 0, 0)
    rsu._replay_cache.clear()
    rsu._record_seen(first, 0, horizon)
    rsu._record_seen(b"\x03" * 16, horizon + 1, horizon + 1)
    # the entry recorded before the clear has expired; the later one has not
    with pytest.raises(actors.ReplayDetected):
        rsu._check_replay(first, 0)
    rsu._check_replay(second, 0)
    rsu._record_seen(b"\x04" * 16, 2 * horizon + 1, 2 * horizon + 1)
    rsu._check_replay(first, 0)
    assert len(rsu._replay_cache) == 2


def test_refused_registration_draws_no_randomness_and_appends_nothing():
    chain, lea, rsms, rsus, vn = make_domain(0xA2 + 0x400)
    request = vn.build_registration(lea.params)
    txid, _, _ = lea.handle_registration(request, now=1000)
    ch = chain.get(txid).payload.ch
    for revoke, error in ((False, DuplicateRegistration), (True, RevokedRegistration)):
        if revoke:
            rsms[0].revoke(ch, now=1000)
        rng_state, height = lea.rng.getstate(), chain.height()
        with pytest.raises(error):
            lea.handle_registration(request, now=1000)
        assert lea.rng.getstate() == rng_state
        assert chain.height() == height


def _malformed_registration_plaintexts(ch_bytes):
    """Sealable plaintexts that are not identity length, identity and a
    compressed commitment, with the reason each is refused."""
    ident = b"VIN-0123456789AB"
    prefix = len(ident).to_bytes(2, "big") + ident
    off_curve_x = next(x for x in range(1, 1000) if curve.solve_y(x) is None)
    return [
        (b"\x00\x05abc", "too short"),
        (b"", "too short"),
        (b"\xff\xff" + ident + ch_bytes, "identity length"),
        (b"\x00\x05" + ident + ch_bytes, "identity length"),  # CH would be read from inside the identity
        (prefix + ch_bytes + b"\x00", "identity length"),  # trailing byte
        (prefix + b"\x05" + ch_bytes[1:], "bad point prefix"),
        (prefix + b"\x02" + off_curve_x.to_bytes(28, "big"), "not on curve"),
        (prefix + b"\x02" + curve.P.to_bytes(28, "big"), "not on curve"),
        (prefix + bytes(29), "identity point"),
    ]


def test_malformed_sealed_registration_is_a_typed_rejection_without_side_effects():
    # enc_pk is public: anyone can seal a well-authenticated blob of any shape
    chain, lea, rsms, rsus, vn = make_domain(0xA2 + 0x500)
    ch_bytes = curve.point_compress(curve.scalar_mul(curve.GEN, 0xC0FFEE))
    rng = random.Random(0x5EA1)
    for plain, reason in _malformed_registration_plaintexts(ch_bytes):
        request = wire.RegistrationRequest(c1=signatures.aenc(lea.enc_pk, plain, rng))
        rng_state, height = lea.rng.getstate(), chain.height()
        with pytest.raises(actors.MalformedRegistration, match=reason):
            lea.handle_registration(request, now=1000)
        assert lea.rng.getstate() == rng_state, plain
        assert chain.height() == height, plain
    # the same layout with a valid commitment registers
    ident = b"VIN-0123456789AB"
    plain = len(ident).to_bytes(2, "big") + ident + ch_bytes
    txid, _, _ = lea.handle_registration(
        wire.RegistrationRequest(c1=signatures.aenc(lea.enc_pk, plain, rng)), now=1000
    )
    assert chain.get(txid).payload.ch == curve.point_decompress(ch_bytes)


def _count_calls(monkeypatch, owner, name):
    """A list that gets one entry per call of ``owner.name``, wherever a
    v2xauth module bound the function (``owner`` included)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("v2xauth") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _count_ladder_calls(monkeypatch):
    """A list that gets one entry per ``curve.ladder_mul`` call."""
    return _count_calls(monkeypatch, curve, "ladder_mul")


@pytest.mark.skipif(curve._LIBCRYPTO is None, reason="without libcrypto every scalar_mul is the ladder")
def test_infrastructure_private_key_operations_make_no_ladder_call(monkeypatch):
    # operation counts, not timings: the infrastructure's key generation,
    # unsealing and signing run on libcrypto; the vehicle's credential
    # arithmetic and its sealing still run on the Python ladder
    calls = _count_ladder_calls(monkeypatch)
    for seed in range(0xA2 + 0x600, 0xA2 + 0x604):
        calls.clear()
        chain, lea, rsms, rsus, vn = make_domain(seed)
        signatures.keygen_sig(random.Random(1))
        assert len(calls) == 0

        request = vn.build_registration(lea.params)
        vehicle_calls = len(calls)
        txid, sig, t_exp = lea.handle_registration(request, now=1000)
        assert len(calls) == vehicle_calls
        reply = rsms[0].complete_registration(txid, sig, t_exp, now=1000)
        vn.finish_registration(reply, rsms[0].view, now=1000)
        # build: Y = x*G, then aenc's eph*G and eph*pk (one draw of eph,
        # whatever the parity of its y); finish: POOL_TARGET alpha*Y
        assert vehicle_calls == 1 + 2, seed
        assert len(calls) == vehicle_calls + actors.POOL_TARGET == 11, seed

        before = len(calls)
        request, _ = vn.start_handover(rsus[0].sign_pk, now=2000)
        rsus[0].report_malicious(request.encode())
        assert len(calls) == before, seed


def _count_sqrt_calls(monkeypatch):
    """``(counts, ec_calls)``. ``counts`` holds lists that get one entry per
    call: ``roots`` per field square root (``sqrt_mod_p``, which
    ``solve_y`` and ``point_decompress`` reach), ``hints`` per
    ``root_hint``, and ``dlogs`` per discrete log in the 2^96 subgroup
    (``_sqrt_digits``, which both of those run and nothing else).
    ``ec_calls()`` is the number of group operations so far
    (``ladder_mul``, ``scalar_mul``, ``msm2`` and ``point_from_hint``)."""
    counts = {
        "roots": _count_calls(monkeypatch, curve, "sqrt_mod_p"),
        "hints": _count_calls(monkeypatch, curve, "root_hint"),
        "dlogs": _count_calls(monkeypatch, curve, "_sqrt_digits"),
    }
    ec = [_count_calls(monkeypatch, curve, name) for name in ("ladder_mul", "scalar_mul", "msm2", "point_from_hint")]
    return counts, lambda: sum(map(len, ec))


def test_no_square_root_per_registration_or_per_verified_request(monkeypatch):
    # operation counts: the authority validates the sealed ephemeral point
    # (x and y are both sent) and checks the commitment without a root; the
    # vehicle computes one root hint per pooled point when it fills its
    # pool, and none while it builds a request; the roadside unit recovers
    # A from its hint with no root and no discrete log
    counts, ec_calls = _count_sqrt_calls(monkeypatch)
    roots, hints, dlogs = counts["roots"], counts["hints"], counts["dlogs"]
    chain, lea, rsms, rsus, vn = make_domain(0xA2 + 0x700)
    vehicles = [vn] + [actors.Vehicle(f"VIN-{i}".encode(), random.Random(i), f"vn{i}") for i in (2, 3)]
    for now, vehicle in enumerate(vehicles, start=1000):
        request = vehicle.build_registration(lea.params)
        before = len(hints)
        txid, sig, t_exp = lea.handle_registration(request, now)
        assert len(hints) == before
        reply = rsms[0].complete_registration(txid, sig, t_exp, now)
        vehicle.finish_registration(reply, rsms[0].view, now)
        assert len(hints) == before + actors.POOL_TARGET
        assert roots == [] and len(dlogs) == len(hints)
    for now, vehicle in enumerate(vehicles, start=2000):
        assert len(vehicle.credential.pool) == actors.POOL_TARGET
        before = (len(hints), ec_calls())
        _, vn_ctx = vehicle.start_handover(rsus[0].sign_pk, now)
        assert (len(hints), ec_calls()) == before
        reply, rsu_ctx = rsus[0].handle_request(vn_ctx.req_bytes, now)
        ack, _ = vehicle.handle_reply(vn_ctx, reply.encode(), now)
        rsus[0].handle_ack(rsu_ctx, ack.encode(), now)
        assert len(hints) == before[0]
        assert roots == [] and len(dlogs) == len(hints)
    # revoking and rotating compare keys: no decode
    before = len(dlogs)
    _, updates = actors.rotate_group_key(lea, rsms, rsus, [vn.credential.commitment], now=3000)
    assert len(updates) == 2 and roots == [] and len(dlogs) == before


def test_random_pseudonym_is_rejected_before_h2_and_msm2(monkeypatch):
    # a pID the RSU never minted decrypts to a wrong D, so S1 yields a
    # wrong root hint and x(A) names no point under it: UnknownCredential
    # before the challenge hash and the two-scalar multiplication
    chain, lea, rsms, rsus, vn = make_domain(0xA2 + 0x800)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, _ = vn.start_handover(rsus[0].sign_pk, now=2000)
    raw = request.encode()
    h2_calls = _count_calls(monkeypatch, hashes, "h2")
    msm2_calls = _count_calls(monkeypatch, curve, "msm2")
    rng = random.Random(0x5EED)
    for _ in range(200):
        with pytest.raises(actors.UnknownCredential):
            rsus[0].handle_request(rng.randbytes(16) + raw[16:], now=2000)
    assert h2_calls == [] and msm2_calls == []
    rsus[0].handle_request(raw, now=2000)
    assert len(h2_calls) == len(msm2_calls) == 1


def test_single_byte_flips_never_authenticate():
    chain, lea, rsms, rsus, vn = make_domain(0xA8)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, _ = vn.start_handover(rsus[0].sign_pk, now=2000)
    raw = request.encode()
    allowed = (
        actors.UnknownCredential,
        actors.StaleTimestamp,
        actors.ReplayDetected,
        wire.WireError,
    )
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 0x01
        with pytest.raises(allowed):
            rsus[0].handle_request(bytes(flipped), now=2000)
    # the untouched request still authenticates afterwards
    reply, _ = rsus[0].handle_request(raw, now=2000)
    assert isinstance(reply, actors.AuthReply) or reply is not None


def test_tampered_reply_leaves_credential_unchanged():
    chain, lea, rsms, rsus, vn = make_domain(0xA9)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    pid_before, d_before = vn.credential.pid, vn.credential.d
    request, ctx = vn.start_handover(rsus[0].sign_pk, now=2000)
    reply, _ = rsus[0].handle_request(request.encode(), now=2000)
    raw = bytearray(reply.encode())
    raw[70] ^= 0x01  # inside S3
    with pytest.raises(actors.BadKeyConfirm):
        vn.handle_reply(ctx, bytes(raw), now=2000)
    assert (vn.credential.pid, vn.credential.d) == (pid_before, d_before)
    # honest reply still lands and rotates the pair
    vn.handle_reply(ctx, reply.encode(), now=2000)
    assert (vn.credential.pid, vn.credential.d) != (pid_before, d_before)


def test_reply_replayed_into_second_session_rejected():
    chain, lea, rsms, rsus, vn = make_domain(0xAA)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    req1, ctx1 = vn.start_handover(rsus[0].sign_pk, now=2000)
    rep1, _ = rsus[0].handle_request(req1.encode(), now=2000)
    vn.handle_reply(ctx1, rep1.encode(), now=2000)
    # second session: replay the first reply into it
    req2, ctx2 = vn.start_handover(rsus[0].sign_pk, now=2400)
    with pytest.raises((actors.StaleTimestamp, actors.BadKeyConfirm)):
        vn.handle_reply(ctx2, rep1.encode(), now=2400)


def test_flipped_ack_and_cross_session_ack_rejected():
    chain, lea, rsms, rsus, vn = make_domain(0xAB)
    vn2 = actors.Vehicle(b"VIN-SECOND000000", random.Random(9), "vn2")
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    actors.register_vehicle(vn2, rsms[0], lea, now=0)

    req1, vctx1 = vn.start_handover(rsus[0].sign_pk, now=2000)
    rep1, rctx1 = rsus[0].handle_request(req1.encode(), now=2000)
    ack1, _ = vn.handle_reply(vctx1, rep1.encode(), now=2000)

    req2, vctx2 = vn2.start_handover(rsus[0].sign_pk, now=2100)
    rep2, rctx2 = rsus[0].handle_request(req2.encode(), now=2100)
    ack2, _ = vn2.handle_reply(vctx2, rep2.encode(), now=2100)

    flipped = bytearray(ack1.encode())
    flipped[0] ^= 0x01
    with pytest.raises(actors.BadAck):
        rsus[0].handle_ack(rctx1, bytes(flipped), now=2000)
    with pytest.raises(actors.BadAck):
        rsus[0].handle_ack(rctx1, ack2.encode(), now=2000)  # splice from the other session
    rsus[0].handle_ack(rctx1, ack1.encode(), now=2000)
    assert rctx1.established


def test_unregistered_credential_rejected():
    chain, lea, rsms, rsus, vn = make_domain(0xAC)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    # forge: right group secret shape, no ledger entry (fresh trapdoor)
    rng = random.Random(123)
    td, hk, _, _ = ch_keygen(rng)
    forged_vn = actors.Vehicle(b"VIN-FORGED000000", rng, "vnF")
    forged_vn.credential = actors.ChameleonCredential(
        trapdoor=td,
        y_point=hk.y_point,
        commitment=hk.commitment,
        sig=bytes(56),
        txid=bytes(32),
        t_exp=10**12,
        pid=vn.credential.pid,  # stolen pseudonym, wrong trapdoor
        d=vn.credential.d,
        pool=[],
    )
    forged_vn.refill_pool()
    request, _ = forged_vn.start_handover(rsus[0].sign_pk, now=2000)
    with pytest.raises(actors.UnknownCredential):
        rsus[0].handle_request(request.encode(), now=2000)


def test_forged_requests_without_secrets_rejected():
    chain, lea, rsms, rsus, vn = make_domain(0xAD)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    rng = random.Random(0xF0)
    rejected = 0
    trials = 300
    for _ in range(trials):
        pt = curve.scalar_mul(GEN_POINT, curve.rand_nonzero_scalar(rng))
        if not curve.has_even_y(pt):
            pt = curve.point_neg(pt)
        forged = actors.AuthRequest(
            pid=rng.randbytes(16),
            m=rng.randrange(curve.Q),
            a_x=pt[0],
            s1=rng.randbytes(28),
            t1=2000,
        )
        with pytest.raises(actors.ProtocolError):
            rsus[0].handle_request(forged.encode(), now=2000)
        rejected += 1
    assert rejected == trials


GEN_POINT = curve.GEN


def test_expired_registration_rejected():
    chain, lea, rsms, rsus, vn = make_domain(0xAE)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    late = vn.credential.t_exp + 1
    # vehicle-side pre-check fires first
    with pytest.raises(actors.ExpiredWindow):
        vn.start_handover(rsus[0].sign_pk, now=late)
    # verifier-side check, with the pre-check bypassed
    request, _ = vn.start_handover(rsus[0].sign_pk, now=100)
    vn.credential.t_exp = late + 10**9
    request2, _ = vn.start_handover(rsus[0].sign_pk, now=late)
    with pytest.raises(actors.ExpiredRegistration):
        rsus[0].handle_request(request2.encode(), now=late)


def test_rotation_revoked_vehicle_locked_out():
    chain, lea, rsms, rsus, vn = make_domain(0xAF)
    vn2 = actors.Vehicle(b"VIN-HONEST000000", random.Random(77), "vn2")
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    actors.register_vehicle(vn2, rsms[0], lea, now=0)
    actors.run_handover(vn, rsus[0], now=2000)
    actors.run_handover(vn2, rsus[0], now=2100)

    epoch, updates = actors.rotate_group_key(
        lea, rsms, rsus, revoked_chs=[vn.credential.commitment], now=3000
    )
    assert epoch == 1
    # revoked vehicle got no update; honest one got exactly one
    assert all(ctx.ch != vn.credential.commitment for _, ctx, _ in updates)
    honest = [u for _, ctx, u in updates if ctx.ch == vn2.credential.commitment]
    assert len(honest) == 1
    vn2.apply_update(honest[0], vn2.sessions[rsus[0].node_id].ks, epoch, now=3000)

    with pytest.raises(actors.UnknownCredential):
        request, _ = vn.start_handover(rsus[0].sign_pk, now=4000)
        rsus[0].handle_request(request.encode(), now=4000)
    vn_ctx, rsu_ctx = actors.run_handover(vn2, rsus[0], now=4100)
    assert vn_ctx.ks == rsu_ctx.ks


def test_rsu_holds_the_latest_confirmed_session_per_commitment():
    chain, lea, rsms, rsus, vn = make_domain(0xB1)
    rsu = rsus[0]
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    ch = vn.credential.commitment
    actors.run_handover(vn, rsu, now=2000)
    _, latest = actors.run_handover(vn, rsu, now=2100)
    request, _ = vn.start_handover(rsu.sign_pk, now=2200)
    rsu.handle_request(request.encode(), now=2200)  # answered, never confirmed
    assert list(rsu.sessions) == [ch] and rsu.sessions[ch] is latest

    _, updates = actors.rotate_group_key(lea, rsms, [rsu], revoked_chs=[], now=3000)
    assert [ctx for _, ctx, _ in updates] == [latest]
    _, updates = actors.rotate_group_key(lea, rsms, [rsu], revoked_chs=[ch], now=4000)
    assert updates == [] and rsu.sessions == {}


def test_replayed_ack_rejected_and_leaves_sessions_unchanged():
    chain, lea, rsms, rsus, vn = make_domain(0xB7)
    rsu = rsus[0]
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    ch = vn.credential.commitment
    request, vctx = vn.start_handover(rsu.sign_pk, now=2000)
    reply, rctx = rsu.handle_request(request.encode(), now=2000)
    ack, _ = vn.handle_reply(vctx, reply.encode(), now=2000)
    rsu.handle_ack(rctx, ack.encode(), now=2000)
    with pytest.raises(actors.ReplayDetected):
        rsu.handle_ack(rctx, ack.encode(), now=2010)
    assert rsu.sessions == {ch: rctx}
    # once revocation dropped the session, the replay must not restore it
    actors.rotate_group_key(lea, rsms, [rsu], revoked_chs=[ch], now=3500)
    assert rsu.sessions == {}
    with pytest.raises(actors.ReplayDetected):
        rsu.handle_ack(rctx, ack.encode(), now=3500)
    assert rsu.sessions == {}


def test_rotation_drops_sessions_whose_registration_expired():
    chain, lea, rsms, rsus, vn = make_domain(0xB1 + 0x100)
    rsu = rsus[0]
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    _, rsu_ctx = actors.run_handover(vn, rsu, now=2000)
    assert rsu_ctx.t_exp == vn.credential.t_exp
    _, updates = actors.rotate_group_key(lea, rsms, [rsu], revoked_chs=[], now=vn.credential.t_exp - 1)
    assert [ctx for _, ctx, _ in updates] == [rsu_ctx]
    _, updates = actors.rotate_group_key(lea, rsms, [rsu], revoked_chs=[], now=vn.credential.t_exp + 1)
    assert updates == [] and rsu.sessions == {}


@pytest.mark.skipif(
    symmetric._aes_block is not symmetric._aes_block_libcrypto, reason="the pseudonym AES runs on the fallback"
)
def test_evp_cache_stays_bounded_across_group_key_rotations(monkeypatch):
    lib = curve._LIBCRYPTO[0]
    counts = {"EVP_CIPHER_CTX_new": 0, "EVP_CIPHER_CTX_free": 0}
    for name in counts:
        original = getattr(lib, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(lib, name, counting)
    chain, lea, rsms, rsus, vn = make_domain(0xB1 + 0x300)
    rsu = rsus[0]
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    actors.run_handover(vn, rsu, now=2000)
    scratch = curve._scratch()
    held = len(scratch.ciphers) - counts["EVP_CIPHER_CTX_new"] + counts["EVP_CIPHER_CTX_free"]
    for i in range(10):
        now = 3000 + 1000 * i
        epoch, updates = actors.rotate_group_key(lea, rsms, [rsu], revoked_chs=[], now=now)
        [(_, _, update)] = updates
        vn.apply_update(update, vn.sessions[rsu.node_id].ks, epoch, now=now)
        actors.run_handover(vn, rsu, now=now + 100)
        key = symmetric.pid_cipher_key(rsu.group_secret.b)
        assert len(scratch.ciphers) <= curve._Scratch.CIPHER_LIMIT
        assert {(key, True), (key, False)} <= set(scratch.ciphers)
    # every context created is either freed or still held
    assert held + counts["EVP_CIPHER_CTX_new"] - counts["EVP_CIPHER_CTX_free"] == len(scratch.ciphers)


def test_mint_pseudonyms_equals_one_mint_pseudonym_per_pair():
    chain, lea, rsms, rsus, vn = make_domain(0xB1 + 0x200)
    batched, looped = rsms[0], copy.deepcopy(rsms[0])
    for n in (0, 1, 2, 33):
        assert batched.mint_pseudonyms(n) == [looped.mint_pseudonym() for _ in range(n)]
        assert batched.rng.getstate() == looped.rng.getstate()


def _reference_rotate_sessions(rsu, now):
    """The per-session loop: drop or mint session by session, one
    ``mint_pseudonym`` per live session."""
    epoch = rsu.group_secret.epoch
    rsu.view.sync_to(now)
    updates = []
    for ch, ctx in list(rsu.sessions.items()):
        if ctx.t_exp <= now or rsu.view.is_revoked(ctx.ch_key):
            del rsu.sessions[ch]
            continue
        pid_new, d_new = rsu.rsm.mint_pseudonym()
        s_upd = symmetric.sym_encrypt(ctx.ks, pid_new + d_new, actors._upd_context(epoch))
        updates.append((ctx, wire.UpdateMsg(s_upd=s_upd)))
    return updates


def test_batched_rotation_matches_the_per_session_loop():
    day = 24 * 3600 * 1000
    chain, lea, rsms, rsus, _ = make_domain(0xB1 + 0x300)
    rsm, rsu = rsms[0], rsus[0]
    fleet = [actors.Vehicle(f"VIN-ROT{i:09d}".encode(), random.Random(0x70 + i), f"vn{i}") for i in range(10)]
    # vn0-vn4 register a day before vn5-vn9, so they expire first
    for i, vn in enumerate(fleet):
        actors.register_vehicle(vn, rsm, lea, now=0 if i < 5 else day)
    for i, vn in enumerate(fleet[:9]):
        actors.run_handover(vn, rsu, now=day + 1000 + 10 * i)
        if i % 3 == 0:  # a later session replaces the first
            actors.run_handover(vn, rsu, now=day + 2000 + 10 * i)
    request, _ = fleet[9].start_handover(rsu.sign_pk, now=day + 3000)
    rsu.handle_request(request.encode(), now=day + 3000)  # answered, never confirmed

    batched = (lea, rsm, rsu, fleet)
    reference = copy.deepcopy(batched)
    expiry = actors.REGISTRATION_LIFETIME_MS
    # vn3 revoked; then vn0-vn4 expired; then vn7 revoked
    for now, revoked, live in ((day + 5000, [3], 8), (expiry + 1, [], 4), (expiry + 2, [7], 3)):
        lea, rsm, rsu, fleet = batched
        epoch, triples = actors.rotate_group_key(
            lea, [rsm], [rsu], [fleet[i].credential.commitment for i in revoked], now
        )
        updates = [(ctx, upd) for _, ctx, upd in triples]
        lea, rsm, rsu, fleet = reference
        for i in revoked:
            rsm.revoke(fleet[i].credential.commitment, now)
        rsm.receive_group_secret(lea.rotate())
        expected = _reference_rotate_sessions(rsu, now)

        assert len(updates) == len(expected) == live
        assert [upd.encode() for _, upd in updates] == [upd.encode() for _, upd in expected]
        assert [ctx.ch for ctx, _ in updates] == [ctx.ch for ctx, _ in expected]
        assert list(batched[2].sessions) == list(rsu.sessions)
        assert batched[1].rng.getstate() == rsm.rng.getstate()
        for (lea, rsm, rsu, fleet), side_updates in ((batched, updates), (reference, expected)):
            # every live vehicle takes its update and hands over again
            update_for = {ctx.ch: upd for ctx, upd in side_updates}
            for vn in fleet:
                upd = update_for.get(vn.credential.commitment)
                if upd is not None:
                    vn.apply_update(upd, vn.sessions[rsu.node_id].ks, epoch, now)
                    actors.run_handover(vn, rsu, now + 1)
    assert list(batched[2].sessions) == [batched[3][i].credential.commitment for i in (5, 6, 8)]


def test_rotation_missed_update_fails_until_reregistration():
    chain, lea, rsms, rsus, vn = make_domain(0xB0)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    actors.run_handover(vn, rsus[0], now=2000)
    actors.rotate_group_key(lea, rsms, rsus, revoked_chs=[], now=3000)
    # update minted but never delivered
    with pytest.raises(actors.UnknownCredential):
        request, _ = vn.start_handover(rsus[0].sign_pk, now=4000)
        rsus[0].handle_request(request.encode(), now=4000)
    # re-registration restores service; the old registration is revoked first
    # so the commitment can be re-anchored is not needed: fresh trapdoor
    vn_fresh = actors.Vehicle(vn.identity, random.Random(31337), "vn1")
    actors.register_vehicle(vn_fresh, rsms[0], lea, now=4100)
    actors.run_handover(vn_fresh, rsus[0], now=4200)


def test_trace_recovers_identity_and_audit_agrees():
    chain, lea, rsms, rsus, vn = make_domain(0xB1)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, ctx = vn.start_handover(rsus[0].sign_pk, now=2000)
    rsus[0].handle_request(request.encode(), now=2000)
    report = rsus[0].report_malicious(request.encode())

    result = lea.trace(report, rsus[0].sign_pk, now=2100)
    assert result.identity == vn.identity
    assert result.ch == vn.credential.commitment
    assert result.txid == vn.credential.txid

    verdict = actors.audit_frame_claim(
        req_bytes=report.req_bytes,
        sig_rt=report.sig_rt,
        rsu_pk=rsus[0].sign_pk,
        claimed_identity=result.identity,
        disclosed_d=result.d_star,
        txid=vn.credential.txid,
        chain=chain,
        lea_sign_pk=lea.params.sign_pk,
    )
    assert verdict == "consistent"


def test_trace_rejects_bad_evidence_and_unknown_ch():
    chain, lea, rsms, rsus, vn = make_domain(0xB2)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, _ = vn.start_handover(rsus[0].sign_pk, now=2000)
    report = rsus[0].report_malicious(request.encode())

    with pytest.raises(actors.BadEvidence):
        lea.trace(report, lea.params.sign_pk, now=2100)  # wrong reporter key
    forged_sig = actors.MisbehaviorReport(report.rsu_id, bytes(56), report.req_bytes)
    with pytest.raises(actors.BadEvidence):
        lea.trace(forged_sig, rsus[0].sign_pk, now=2100)

    rng = random.Random(2)
    pt = curve.scalar_mul(curve.GEN, 12345)
    if not curve.has_even_y(pt):
        pt = curve.point_neg(pt)
    junk = actors.AuthRequest(
        pid=rng.randbytes(16), m=rng.randrange(curve.Q), a_x=pt[0], s1=rng.randbytes(28), t1=2000
    ).encode()
    junk_report = rsus[0].report_malicious(junk)
    with pytest.raises(actors.UnknownCH):
        lea.trace(junk_report, rsus[0].sign_pk, now=2100)


def test_audit_detects_framing_substitution():
    chain, lea, rsms, rsus, vn = make_domain(0xB3)
    honest = actors.Vehicle(b"VIN-INNOCENT0000", random.Random(55), "vnH")
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    actors.register_vehicle(honest, rsms[0], lea, now=0)
    request, _ = vn.start_handover(rsus[0].sign_pk, now=2000)
    rsus[0].handle_request(request.encode(), now=2000)
    report = rsus[0].report_malicious(request.encode())
    result = lea.trace(report, rsus[0].sign_pk, now=2100)

    # the authority claims the honest vehicle's identity instead
    verdict = actors.audit_frame_claim(
        req_bytes=report.req_bytes,
        sig_rt=report.sig_rt,
        rsu_pk=rsus[0].sign_pk,
        claimed_identity=honest.identity,
        disclosed_d=result.d_star,
        txid=honest.credential.txid,
        chain=chain,
        lea_sign_pk=lea.params.sign_pk,
    )
    assert verdict == "framed"

    with pytest.raises(actors.InvalidEvidence):
        actors.audit_frame_claim(
            req_bytes=report.req_bytes,
            sig_rt=bytes(56),
            rsu_pk=rsus[0].sign_pk,
            claimed_identity=honest.identity,
            disclosed_d=result.d_star,
            txid=honest.credential.txid,
            chain=chain,
            lea_sign_pk=lea.params.sign_pk,
        )


def test_trace_and_audit_refuse_an_off_curve_reporter_key():
    # the key fails the signature check; no ValueError leaks from the group arithmetic
    chain, lea, rsms, rsus, vn = make_domain(0xB6)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    request, _ = vn.start_handover(rsus[0].sign_pk, now=2000)
    report = rsus[0].report_malicious(request.encode())
    result = lea.trace(report, rsus[0].sign_pk, now=2100)
    rsu_pk = rsus[0].sign_pk
    for off in ((rsu_pk[0], (rsu_pk[1] + 1) % curve.P), (rsu_pk[0] + curve.P, rsu_pk[1])):
        with pytest.raises(actors.BadEvidence, match="reporter signature does not verify"):
            lea.trace(report, off, now=2100)
        with pytest.raises(actors.InvalidEvidence, match="reporter signature does not verify"):
            actors.audit_frame_claim(
                req_bytes=report.req_bytes,
                sig_rt=report.sig_rt,
                rsu_pk=off,
                claimed_identity=result.identity,
                disclosed_d=result.d_star,
                txid=vn.credential.txid,
                chain=chain,
                lea_sign_pk=lea.params.sign_pk,
            )


def test_identity_never_on_open_wire_after_registration():
    chain, lea, rsms, rsus, vn = make_domain(0xB4)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    blobs = []
    for t in (2000, 2500, 3000):
        req, ctx = vn.start_handover(rsus[0].sign_pk, now=t)
        rep, rctx = rsus[0].handle_request(req.encode(), now=t)
        ack, _ = vn.handle_reply(ctx, rep.encode(), now=t)
        rsus[0].handle_ack(rctx, ack.encode(), now=t)
        blobs += [req.encode(), rep.encode(), ack.encode()]
    for blob in blobs:
        assert vn.identity not in blob


def test_pool_exhaustion_still_succeeds_and_is_flagged():
    chain, lea, rsms, rsus, vn = make_domain(0xB5)
    actors.register_vehicle(vn, rsms[0], lea, now=0)
    vn.credential.pool.clear()
    request, ctx = vn.start_handover(rsus[0].sign_pk, now=2000)
    assert vn.inline_point_uses == 1
    reply, _ = rsus[0].handle_request(request.encode(), now=2000)
    assert reply is not None
