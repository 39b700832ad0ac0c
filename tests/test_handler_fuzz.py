"""Byte-level fuzz of the three handover handlers, the authority's
registration handler and the vehicle's update application.

The handlers take wire bytes only, so arbitrary buffers and single-byte
mutations of honest messages reach them exactly as they would off the
radio. Two properties hold for every input:

* nothing but a ``ProtocolError`` or a ``WireError`` escapes (for a
  registration: a ``WireError``, an ``IntegrityError`` from ``adec`` or
  a ``MalformedRegistration`` for a blob that unseals to the wrong
  layout);
* a rejection leaves the state untouched: the RSU's replay cache and
  session table, the RSU's and region manager's RNG streams, the
  vehicle's (pID, D) pair and the contexts the messages were aimed at;
  for a registration, the ledger height, the authority's identity map
  and its RNG stream; for an update of a wrong length, the vehicle's
  (pID, D) pair and its sessions.

One domain is built per module (and one for updates) and shared by
every example, which is sound exactly because rejections must not
change it.
"""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from v2xauth import actors, wire
from v2xauth.crypto import hashes, signatures
from v2xauth.ledger import Ledger

NOW = 2000
REJECTS = (actors.ProtocolError, wire.WireError)
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=1)
def _domain():
    master = random.Random(0xF2)
    lea = actors.Authority(random.Random(master.random()), Ledger())
    rsm = actors.RegionManager(lea, random.Random(master.random()), "rsm1")
    rsu = actors.RoadsideUnit(rsm, random.Random(master.random()), "rsu1")
    vn = actors.Vehicle(b"VIN-FUZZ00000001", random.Random(master.random()), "vn1")
    actors.register_vehicle(vn, rsm, lea, now=0)
    # never shown to the RSU, so its mutations get past the replay check
    request, _ = vn.start_handover(rsu.sign_pk, NOW)
    # answered but not yet handled by the vehicle nor confirmed
    _, vn_ctx = vn.start_handover(rsu.sign_pk, NOW + 1)
    reply, rsu_ctx = rsu.handle_request(vn_ctx.req_bytes, NOW + 1)
    ack = wire.AuthAck(ack=hashes.h6(rsu_ctx.m_secret, rsu_ctx.ks, rsu_ctx.req_bytes, rsu_ctx.rep_bytes))
    # a sealed registration that is never submitted
    newcomer = actors.Vehicle(b"VIN-FUZZ00000002", random.Random(master.random()), "vn2")
    registration = newcomer.build_registration(lea.params)
    return {
        "lea": lea,
        "rsm": rsm,
        "rsu": rsu,
        "vn": vn,
        "vn_ctx": vn_ctx,
        "rsu_ctx": rsu_ctx,
        "req": request.encode(),
        "rep": reply.encode(),
        "ack": ack.encode(),
        "reg": registration.encode(),
    }


def _state(d):
    rsu, cred = d["rsu"], d["vn"].credential
    return (
        dict(rsu._replay_cache),
        list(rsu._replay_order),
        dict(rsu.sessions),
        rsu.rng.getstate(),
        d["rsm"].rng.getstate(),
        (cred.pid, cred.d),
        (d["vn_ctx"].m_secret, d["vn_ctx"].ks, d["vn_ctx"].rep_bytes),
        d["rsu_ctx"].established,
    )


def _assert_rejected_untouched(handler, data, expected=REJECTS):
    """The rejection's type, after checking that it is one of ``expected``
    and that it left the state untouched."""
    d = _domain()
    before = _state(d)
    with pytest.raises(expected) as caught:
        handler(d, data)
    assert _state(d) == before
    return caught.type


def _handle_request(d, data):
    d["rsu"].handle_request(data, NOW)


def _handle_reply(d, data):
    d["vn"].handle_reply(d["vn_ctx"], data, NOW + 1)


def _handle_ack(d, data):
    d["rsu"].handle_ack(d["rsu_ctx"], data, NOW + 1)


HANDLERS = {"req": _handle_request, "rep": _handle_reply, "ack": _handle_ack}
LENGTHS = {"req": wire.REQ_LEN, "rep": wire.REP_LEN, "ack": wire.ACK_LEN}


def _fresh_tail(name):
    """Arbitrary bytes of the right length that keep the honest message's
    timestamp, so they get past the freshness check to the decode."""
    if name == "ack":
        return st.binary(min_size=wire.ACK_LEN, max_size=wire.ACK_LEN)
    body = LENGTHS[name] - wire.TS_LEN
    return st.binary(min_size=body, max_size=body).map(lambda b: b + _domain()[name][body:])


def _mutation(name):
    """The honest message with one byte changed to a different value."""
    n = LENGTHS[name]

    def apply(args):
        i, xor = args
        raw = bytearray(_domain()[name])
        raw[i] ^= xor
        return bytes(raw)

    return st.tuples(st.integers(0, n - 1), st.integers(1, 255)).map(apply)


def _inputs(name):
    return st.one_of(
        st.binary(max_size=2 * LENGTHS[name]),
        _fresh_tail(name),
        _mutation(name),
    )


@FUZZ
@given(data=_inputs("req"))
def test_fuzzed_request_bytes_rejected_without_side_effects(data):
    _assert_rejected_untouched(_handle_request, data)


@FUZZ
@given(data=_inputs("rep"))
def test_fuzzed_reply_bytes_rejected_without_side_effects(data):
    _assert_rejected_untouched(_handle_reply, data)


@FUZZ
@given(data=_inputs("ack"))
def test_fuzzed_ack_bytes_rejected_without_side_effects(data):
    _assert_rejected_untouched(_handle_ack, data)


@pytest.mark.parametrize("name", sorted(HANDLERS))
def test_every_single_byte_mutation_rejected_without_side_effects(name):
    honest = _domain()[name]
    for i in range(len(honest)):
        raw = bytearray(honest)
        raw[i] ^= 0x80
        _assert_rejected_untouched(HANDLERS[name], bytes(raw))


def test_every_s1_bit_flip_rejected_as_unknown_credential_without_side_effects():
    # S1 holds the nonce and A's root hint: a flipped nonce bit changes
    # the challenge, a flipped hint bit names no point for x(A)
    honest = _domain()["req"]
    for bit in range(8 * wire.S1_LEN):
        raw = bytearray(honest)
        raw[72 + bit // 8] ^= 0x80 >> (bit % 8)
        _assert_rejected_untouched(_handle_request, bytes(raw), actors.UnknownCredential)


def test_every_change_of_an_x_byte_rejected_as_unknown_credential_without_side_effects():
    # P's top 128 bits are all ones, so no one-byte change takes x to P or
    # above; every other x fails against the honest root hint
    honest = _domain()["req"]
    for i in range(44, 72):
        for xor in range(1, 256):
            raw = bytearray(honest)
            raw[i] ^= xor
            _assert_rejected_untouched(_handle_request, bytes(raw), actors.UnknownCredential)


def test_the_fuzzed_messages_are_one_step_from_accepted_ones():
    # a fresh copy of the seeded domain, so the shared one stays unused
    d = _domain.__wrapped__()
    d["rsu"].handle_request(d["req"], NOW)
    ack, _ = d["vn"].handle_reply(d["vn_ctx"], d["rep"], NOW + 1)
    assert ack.encode() == d["ack"]
    d["rsu"].handle_ack(d["rsu_ctx"], d["ack"], NOW + 1)
    assert d["rsu_ctx"].established and d["vn_ctx"].ks == d["rsu_ctx"].ks
    assert len(d["reg"]) == REG_LEN
    height = d["lea"].chain.height()
    txid, _, _ = d["lea"].handle_registration(wire.RegistrationRequest.decode(d["reg"]), NOW)
    assert d["lea"].chain.height() == height + 1 and d["lea"]._ids[txid] == b"VIN-FUZZ00000002"


# --- the authority's registration handler, through RegistrationRequest and adec ---

REGISTRATION_REJECTS = (wire.WireError, signatures.IntegrityError, actors.MalformedRegistration)
# length prefix, then the sealed blob: ephemeral x and y, tag, and the 16-byte
# identity with its length and the compressed commitment
REG_LEN = 2 + 28 + 28 + hashes.TAG_LEN + 2 + 16 + 29


def _authority_state(d):
    lea = d["lea"]
    return (lea.chain.height(), dict(lea._ids), lea.rng.getstate())


def _assert_registration_rejected_untouched(data):
    d = _domain()
    before = _authority_state(d)
    with pytest.raises(REGISTRATION_REJECTS):
        d["lea"].handle_registration(wire.RegistrationRequest.decode(data), NOW)
    assert _authority_state(d) == before


def _registration_mutation():
    def apply(args):
        i, xor = args
        raw = bytearray(_domain()["reg"])
        raw[i] ^= xor
        return bytes(raw)

    return st.tuples(st.integers(0, REG_LEN - 1), st.integers(1, 255)).map(apply)


def _sealed_blob():
    """Arbitrary bytes behind a consistent length prefix, so they reach adec."""
    return st.binary(max_size=2 * REG_LEN).map(lambda c1: wire.RegistrationRequest(c1=c1).encode())


@FUZZ
@given(data=st.one_of(st.binary(max_size=2 * REG_LEN), _sealed_blob(), _registration_mutation()))
def test_fuzzed_registration_bytes_rejected_without_side_effects(data):
    _assert_registration_rejected_untouched(data)


def test_every_single_byte_registration_mutation_rejected_without_side_effects():
    honest = _domain()["reg"]
    for i in range(len(honest)):
        raw = bytearray(honest)
        raw[i] ^= 0x80
        _assert_registration_rejected_untouched(bytes(raw))


# --- update application, through UpdateMsg.decode ---


@functools.lru_cache(maxsize=1)
def _update_domain():
    """A vehicle with one confirmed session and the update a rotation
    minted for it, not yet applied."""
    master = random.Random(0xF3)
    lea = actors.Authority(random.Random(master.random()), Ledger())
    rsm = actors.RegionManager(lea, random.Random(master.random()), "rsm1")
    rsu = actors.RoadsideUnit(rsm, random.Random(master.random()), "rsu1")
    vn = actors.Vehicle(b"VIN-FUZZ00000003", random.Random(master.random()), "vn3")
    actors.register_vehicle(vn, rsm, lea, now=0)
    actors.run_handover(vn, rsu, NOW)
    epoch, [(_, _, update)] = actors.rotate_group_key(lea, [rsm], [rsu], [], NOW + 10)
    return {"rsu": rsu, "vn": vn, "epoch": epoch, "upd": update.encode()}


def _apply_update(d, data):
    vn = d["vn"]
    vn.apply_update(wire.UpdateMsg.decode(data), vn.sessions[d["rsu"].node_id].ks, d["epoch"], NOW + 10)


def _vehicle_state(d):
    vn = d["vn"]
    return (vn.credential.pid, vn.credential.d, dict(vn.sessions))


def _wrong_length_updates():
    n = wire.UPDATE_LEN
    honest = _update_domain()["upd"]
    return st.one_of(
        st.binary(max_size=2 * n).filter(lambda b: len(b) != n),
        st.integers(0, n - 1).map(lambda k: honest[:k]),
        st.binary(min_size=1, max_size=n).map(lambda extra: honest + extra),
    )


@FUZZ
@given(data=_wrong_length_updates())
def test_fuzzed_update_bytes_of_a_wrong_length_rejected_without_side_effects(data):
    """Only the length is checked. An update of the right length is not
    fuzzed here: ``UpdateMsg`` carries no integrity tag, so any 36 bytes
    decrypt to some (pID, D) that ``apply_update`` installs, and the
    vehicle learns only at its next handover. That is an open defect,
    not behaviour this test accepts; a tag would change the wire bytes."""
    d = _update_domain()
    before = _vehicle_state(d)
    with pytest.raises(wire.WireError):
        _apply_update(d, data)
    assert _vehicle_state(d) == before


def test_the_fuzzed_update_is_one_step_from_an_applied_one():
    d = _update_domain.__wrapped__()
    _apply_update(d, d["upd"])
    vn_ctx, rsu_ctx = actors.run_handover(d["vn"], d["rsu"], NOW + 20)
    assert vn_ctx.ks == rsu_ctx.ks
