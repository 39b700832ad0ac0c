"""Bit-exact wire formats for every protocol message.

The three handover messages are fixed-size and their byte budgets are
normative: request 104, reply 88, acknowledgement 20, total 212. Field
order on the wire follows the order the messages are written in the
exchange; all integers are big-endian.

A request carries its blinded point A as the 28-byte x-coordinate
alone, with the convention that A is the even-y point with that x.
Senders guarantee canonical form by construction (the blinding exponent
is negated when the blinded point lands on odd y), so no sign byte is
spent. The decoder checks only that x is a field element, below P, so no
point has two encodings; it takes no square root. Whether x names a
point is settled by the verifier after it decrypts S1, which carries A's
12-byte root hint beside the vehicle's 16-byte nonce
(``curve.point_from_hint``).
A registration request's sealed blob is opaque here; its ephemeral
point travels as x || y (``signatures.aenc``).
Timestamps are 4-byte milliseconds modulo 2^32 of harness time;
freshness comparisons are wraparound-aware.

Decoding is total: any malformed buffer maps to a typed ``WireError``,
never an unhandled exception.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto.curve import COORD_BYTES, P, Q, SCALAR_BYTES
from .crypto.hashes import TAG_LEN
from .crypto.signatures import SIG_LEN
from .crypto.symmetric import PID_LEN

REQ_LEN = 104
REP_LEN = 88
ACK_LEN = 20
REG_REPLY_LEN = 132
UPDATE_LEN = 36

S1_LEN = 28
S2_LEN = 64
TS_LEN = 4
TXID_LEN = 32
TS_MOD = 1 << 32


class WireError(ValueError):
    """Base for all decode failures."""


class WrongLength(WireError):
    pass


class OffCurvePoint(WireError):
    pass


class NonCanonicalScalar(WireError):
    pass


def ts_wrap(t: int) -> int:
    return t % TS_MOD


def ts_delta(now: int, then: int) -> int:
    """Signed smallest difference now - then on the 32-bit timestamp circle."""
    return (ts_wrap(now) - ts_wrap(then) + (TS_MOD >> 1)) % TS_MOD - (TS_MOD >> 1)


def _decode_scalar(data: bytes) -> int:
    v = int.from_bytes(data, "big")
    if v >= Q:
        raise NonCanonicalScalar("scalar field not reduced")
    return v


def request_replay_key(data: bytes) -> "tuple[bytes, int]":
    """(pID, T1) of a request buffer, read without decoding the point.

    Only the length is checked, so a verifier can reject stale and
    replayed requests before any decryption or group arithmetic.
    """
    if len(data) != REQ_LEN:
        raise WrongLength(f"request must be {REQ_LEN} bytes, got {len(data)}")
    return data[:PID_LEN], int.from_bytes(data[REQ_LEN - TS_LEN :], "big")


@dataclass(frozen=True)
class AuthRequest:
    """Handover request: (pID, m, x(A), S1, T1), 104 bytes.

    ``a_x`` is the abscissa of the even-y blinded point A; S1 encrypts the
    vehicle's nonce and A's root hint under D."""

    pid: bytes
    m: int
    a_x: int
    s1: bytes
    t1: int

    def encode(self) -> bytes:
        if len(self.pid) != PID_LEN or len(self.s1) != S1_LEN or not 0 <= self.a_x < P:
            raise ValueError("request field width violation")
        return (
            self.pid
            + (self.m % Q).to_bytes(SCALAR_BYTES, "big")
            + self.a_x.to_bytes(COORD_BYTES, "big")
            + self.s1
            + ts_wrap(self.t1).to_bytes(TS_LEN, "big")
        )

    @classmethod
    def decode(cls, data: bytes) -> "AuthRequest":
        if len(data) != REQ_LEN:
            raise WrongLength(f"request must be {REQ_LEN} bytes, got {len(data)}")
        pid = data[:16]
        m = _decode_scalar(data[16:44])
        a_x = int.from_bytes(data[44:72], "big")
        if a_x >= P:
            raise OffCurvePoint("x-coordinate is not a field element")
        s1 = data[72:100]
        t1 = int.from_bytes(data[100:104], "big")
        return cls(pid=pid, m=m, a_x=a_x, s1=s1, t1=t1)


@dataclass(frozen=True)
class AuthReply:
    """Handover reply: (S2, S3, T2), 88 bytes."""

    s2: bytes
    s3: bytes
    t2: int

    def encode(self) -> bytes:
        if len(self.s2) != S2_LEN or len(self.s3) != TAG_LEN:
            raise ValueError("reply field width violation")
        return self.s2 + self.s3 + ts_wrap(self.t2).to_bytes(TS_LEN, "big")

    @classmethod
    def decode(cls, data: bytes) -> "AuthReply":
        if len(data) != REP_LEN:
            raise WrongLength(f"reply must be {REP_LEN} bytes, got {len(data)}")
        return cls(s2=data[:64], s3=data[64:84], t2=int.from_bytes(data[84:88], "big"))


@dataclass(frozen=True)
class AuthAck:
    """Final acknowledgement: one 20-byte transcript tag."""

    ack: bytes

    def encode(self) -> bytes:
        if len(self.ack) != ACK_LEN:
            raise ValueError("ack field width violation")
        return self.ack

    @classmethod
    def decode(cls, data: bytes) -> "AuthAck":
        if len(data) != ACK_LEN:
            raise WrongLength(f"ack must be {ACK_LEN} bytes, got {len(data)}")
        return cls(ack=data)


@dataclass(frozen=True)
class RegistrationRequest:
    """Sealed identity blob forwarded to the authority (variable length)."""

    c1: bytes

    def encode(self) -> bytes:
        if len(self.c1) > 0xFFFF:
            raise ValueError("sealed blob too large")
        return len(self.c1).to_bytes(2, "big") + self.c1

    @classmethod
    def decode(cls, data: bytes) -> "RegistrationRequest":
        if len(data) < 2:
            raise WrongLength("registration request truncated")
        n = int.from_bytes(data[:2], "big")
        if len(data) != 2 + n:
            raise WrongLength("registration request length mismatch")
        return cls(c1=data[2:])


@dataclass(frozen=True)
class RegistrationReply:
    """Receipt handed back to the vehicle: (TXID, sigma, T_Exp, pID, D)."""

    txid: bytes
    sig: bytes
    t_exp: int
    pid: bytes
    d: bytes

    def encode(self) -> bytes:
        if (
            len(self.txid) != TXID_LEN
            or len(self.sig) != SIG_LEN
            or len(self.pid) != PID_LEN
            or len(self.d) != TAG_LEN
        ):
            raise ValueError("registration reply field width violation")
        return self.txid + self.sig + self.t_exp.to_bytes(8, "big") + self.pid + self.d

    @classmethod
    def decode(cls, data: bytes) -> "RegistrationReply":
        if len(data) != REG_REPLY_LEN:
            raise WrongLength(f"registration reply must be {REG_REPLY_LEN} bytes")
        return cls(
            txid=data[:32],
            sig=data[32:88],
            t_exp=int.from_bytes(data[88:96], "big"),
            pid=data[96:112],
            d=data[112:132],
        )


@dataclass(frozen=True)
class UpdateMsg:
    """Credential rotation push: session-key-encrypted (pID', D'), 36 bytes."""

    s_upd: bytes

    def encode(self) -> bytes:
        if len(self.s_upd) != UPDATE_LEN:
            raise ValueError("update field width violation")
        return self.s_upd

    @classmethod
    def decode(cls, data: bytes) -> "UpdateMsg":
        if len(data) != UPDATE_LEN:
            raise WrongLength(f"update must be {UPDATE_LEN} bytes")
        return cls(s_upd=data)


def transcript_line(direction: str, name: str, payload: bytes) -> str:
    """Hex-dump form used by golden transcripts: 'src->dst NAME hex'."""
    return f"{direction} {name} {payload.hex()}"
