import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2xauth import wire
from v2xauth.crypto import curve


def _even_point(rng):
    while True:
        pt = curve.scalar_mul(curve.GEN, curve.rand_nonzero_scalar(rng))
        if curve.has_even_y(pt):
            return pt


def _sample_request(rng):
    return wire.AuthRequest(
        pid=rng.randbytes(16),
        m=rng.randrange(curve.Q),
        a_x=_even_point(rng)[0],
        s1=rng.randbytes(28),
        t1=rng.randrange(wire.TS_MOD),
    )


def test_request_is_exactly_104_bytes():
    rng = random.Random(0x70)
    for _ in range(8):
        assert len(_sample_request(rng).encode()) == 104


def test_reply_is_exactly_88_bytes():
    rng = random.Random(0x71)
    rep = wire.AuthReply(s2=rng.randbytes(64), s3=rng.randbytes(20), t2=5)
    assert len(rep.encode()) == 88


def test_ack_is_exactly_20_bytes():
    assert len(wire.AuthAck(ack=bytes(20)).encode()) == 20


def test_exchange_total_is_212_bytes():
    rng = random.Random(0x72)
    total = (
        len(_sample_request(rng).encode())
        + len(wire.AuthReply(s2=bytes(64), s3=bytes(20), t2=0).encode())
        + len(wire.AuthAck(ack=bytes(20)).encode())
    )
    assert total == 212


def test_request_round_trip():
    rng = random.Random(0x73)
    for _ in range(16):
        req = _sample_request(rng)
        assert wire.AuthRequest.decode(req.encode()) == req


def test_reply_ack_update_round_trip():
    rng = random.Random(0x74)
    rep = wire.AuthReply(s2=rng.randbytes(64), s3=rng.randbytes(20), t2=123456)
    assert wire.AuthReply.decode(rep.encode()) == rep
    ack = wire.AuthAck(ack=rng.randbytes(20))
    assert wire.AuthAck.decode(ack.encode()) == ack
    upd = wire.UpdateMsg(s_upd=rng.randbytes(36))
    assert wire.UpdateMsg.decode(upd.encode()) == upd


def test_registration_round_trip():
    rng = random.Random(0x75)
    reg = wire.RegistrationRequest(c1=rng.randbytes(97))
    assert wire.RegistrationRequest.decode(reg.encode()) == reg
    reply = wire.RegistrationReply(
        txid=rng.randbytes(32),
        sig=rng.randbytes(56),
        t_exp=2_592_000_000,
        pid=rng.randbytes(16),
        d=rng.randbytes(20),
    )
    assert len(reply.encode()) == wire.REG_REPLY_LEN
    assert wire.RegistrationReply.decode(reply.encode()) == reply


def test_truncated_request_raises_wrong_length():
    rng = random.Random(0x76)
    data = _sample_request(rng).encode()
    with pytest.raises(wire.WrongLength):
        wire.AuthRequest.decode(data[:103])
    with pytest.raises(wire.WrongLength):
        wire.AuthRequest.decode(data + b"\x00")


def test_oversized_scalar_raises_non_canonical():
    rng = random.Random(0x77)
    data = bytearray(_sample_request(rng).encode())
    data[16:44] = b"\xff" * 28  # >= q
    with pytest.raises(wire.NonCanonicalScalar):
        wire.AuthRequest.decode(bytes(data))


def test_off_curve_x_below_p_decodes_without_a_root(monkeypatch):
    # whether x names a point is settled with S1's root hint, by the
    # verifier: the decoder takes any x < P as it is and takes no root
    rng = random.Random(0x78)
    data = bytearray(_sample_request(rng).encode())
    off = []
    for probe in range(256):
        data[44:72] = bytes([probe]) + data[45:72]
        x = int.from_bytes(data[44:72], "big")
        if x < curve.P and curve.solve_y(x) is None:
            off.append(bytes(data))
    roots = []
    monkeypatch.setattr(curve, "_sqrt_digits", lambda n: roots.append(n))
    for raw in off:
        assert wire.AuthRequest.decode(raw).a_x == int.from_bytes(raw[44:72], "big")
    assert len(off) > 50 and roots == []


def test_x_at_or_above_p_raises_off_curve():
    # x = 3 is on the curve and x = 3 + P still fits in 28 bytes; read
    # mod P it would name the same point, so only the range check stops it
    assert curve.solve_y(3) is not None
    rng = random.Random(0x7A)
    data = bytearray(_sample_request(rng).encode())
    for x in (3 + curve.P, curve.P, (1 << 224) - 1):
        assert curve.solve_y(x) is None
        data[44:72] = x.to_bytes(28, "big")
        with pytest.raises(wire.OffCurvePoint):
            wire.AuthRequest.decode(bytes(data))
        with pytest.raises(ValueError):
            curve.point_decompress(b"\x02" + x.to_bytes(28, "big"))
        with pytest.raises(ValueError):
            wire.AuthRequest(pid=bytes(16), m=0, a_x=x, s1=bytes(28), t1=0).encode()
    data[44:72] = (3).to_bytes(28, "big")
    assert wire.AuthRequest.decode(bytes(data)).a_x == 3


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_fuzzed_decode_never_panics(data):
    for cls in (
        wire.AuthRequest,
        wire.AuthReply,
        wire.AuthAck,
        wire.RegistrationRequest,
        wire.RegistrationReply,
        wire.UpdateMsg,
    ):
        try:
            cls.decode(data)
        except wire.WireError:
            pass


def test_timestamp_wraparound_delta():
    assert wire.ts_delta(5, wire.TS_MOD - 5) == 10
    assert wire.ts_delta(wire.TS_MOD - 5, 5) == -10
    assert wire.ts_delta(1000, 400) == 600
    assert wire.ts_delta(400, 1000) == -600


def test_transcript_line_format():
    line = wire.transcript_line("vn1->rsu1", "REQ", b"\xab\xcd")
    assert line == "vn1->rsu1 REQ abcd"
