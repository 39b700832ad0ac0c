"""Simulated append-only ledger shared by the authority and the region
servers.

The chain is modeled as a single canonical in-process log with
content-addressed entries; there is no consensus because the protocol
treats the chain as a trusted synchronization substrate. Each full node
holds a ``LedgerView`` that applies the canonical log with a configured
propagation delay, which is what makes cross-domain scenarios (register
in one region, authenticate in another after sync) meaningful.

Write access is capability-gated: registration entries require the
authority's writer token, revocation entries a region server's.
Expiry is enforced at lookup: a registration past its T_Exp no longer
counts as live, and its commitment may be registered again unless it was
revoked, since every view keeps a revocation for good. The duplicate
check is one lookup: the ledger indexes, per compressed commitment, the
registration with the greatest T_Exp, which is live at ``now`` exactly
when some registration of that commitment is.

Payloads hold each commitment as its 29-byte compressed key, the form
the ledger indexes, hashes into txids and dumps, so lookups, appends,
view syncs and snapshot loads take no square root; ``find_by_ch`` and
``is_revoked`` take the key. Only a read of a payload's ``ch`` point
decodes it, once. A caller holding the point builds
``Registration(sig, ch, t_exp)``; the authority, which unseals the key
and checks it with ``curve.check_compressed``, builds
``Registration.from_key``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from .crypto.curve import check_compressed, point_compress, point_decompress


class LedgerError(Exception):
    pass


class DuplicateRegistration(LedgerError):
    """Commitment already has a live (unexpired) registration."""


class RevokedRegistration(LedgerError):
    """Commitment was revoked; it may never be registered again."""


class UnauthorizedWriter(LedgerError):
    pass


class _Committed:
    """A payload holding its commitment as ``ch_key``; ``ch`` decodes the
    point on its first read, at the cost of a square root."""

    @cached_property
    def ch(self) -> "tuple[int, int]":
        return point_decompress(self.ch_key)


@dataclass(frozen=True, init=False)
class Registration(_Committed):
    """``Registration(sig, ch, t_exp)`` takes the commitment point;
    ``from_key`` takes its compressed key. Both build equal entries."""

    sig: bytes
    ch_key: bytes
    t_exp: int

    def __init__(self, sig: bytes, ch: "tuple[int, int]", t_exp: int):
        self.__dict__.update(sig=sig, ch_key=point_compress(ch), t_exp=t_exp, ch=ch)

    @classmethod
    def from_key(cls, sig: bytes, ch_key: bytes, t_exp: int) -> "Registration":
        reg = cls.__new__(cls)
        reg.__dict__.update(sig=sig, ch_key=ch_key, t_exp=t_exp)
        return reg

    def to_bytes(self) -> bytes:
        return b"\x01" + self.sig + self.ch_key + self.t_exp.to_bytes(8, "big")


@dataclass(frozen=True, init=False)
class Revocation(_Committed):
    """``Revocation(ch)`` takes the commitment point; ``from_key`` its key."""

    ch_key: bytes

    def __init__(self, ch: "tuple[int, int]"):
        self.__dict__.update(ch_key=point_compress(ch), ch=ch)

    @classmethod
    def from_key(cls, ch_key: bytes) -> "Revocation":
        rev = cls.__new__(cls)
        rev.__dict__.update(ch_key=ch_key)
        return rev

    def to_bytes(self) -> bytes:
        return b"\x02" + self.ch_key


_REGISTRATION_LEN = 1 + 56 + 29 + 8
_REVOCATION_LEN = 1 + 29


def _payload_from_bytes(data: bytes):
    """Parse a dumped payload; the commitment is checked to name a point
    (``check_compressed``, no square root) and kept as its key."""
    if data[:1] == b"\x01" and len(data) == _REGISTRATION_LEN:
        return Registration.from_key(
            sig=data[1:57],
            ch_key=check_compressed(data[57:86]),
            t_exp=int.from_bytes(data[86:94], "big"),
        )
    if data[:1] == b"\x02" and len(data) == _REVOCATION_LEN:
        return Revocation.from_key(check_compressed(data[1:30]))
    raise LedgerError("unknown payload kind or length")


def compute_txid(payload, height: int) -> bytes:
    return hashlib.sha256(payload.to_bytes() + height.to_bytes(8, "big")).digest()


@dataclass(frozen=True, slots=True)
class LedgerTx:
    txid: bytes
    payload: "Registration | Revocation"
    height: int
    timestamp: int


class WriterToken:
    """Opaque append capability; compared by identity."""

    def __init__(self, role: str):
        if role not in ("registration", "revocation"):
            raise ValueError("unknown writer role")
        self.role = role


class Ledger:
    """Canonical log. Entries are immutable and heights strictly increase."""

    def __init__(self):
        self.entries: list[LedgerTx] = []
        self._by_txid: dict[bytes, LedgerTx] = {}
        self._latest_expiry: dict[bytes, LedgerTx] = {}  # ch bytes -> registration with the greatest T_Exp
        self._revoked: set[bytes] = set()  # ch bytes of every revoked commitment
        self._tokens: set[WriterToken] = set()

    def mint_token(self, role: str) -> WriterToken:
        token = WriterToken(role)
        self._tokens.add(token)
        return token

    def _live_registration(self, ch_key: bytes, now: int):
        """A registration of this commitment still live at ``now``, or None."""
        tx = self._latest_expiry.get(ch_key)
        return tx if tx is not None and tx.payload.t_exp > now else None

    def check_registrable(self, ch_key: bytes, now: int) -> None:
        """Raise unless the commitment with compressed key ``ch_key`` may
        be registered at ``now``: it was never revoked and has no live
        registration."""
        if ch_key in self._revoked:
            raise RevokedRegistration("commitment was revoked")
        if self._live_registration(ch_key, now) is not None:
            raise DuplicateRegistration("commitment already registered and unexpired")

    def _commit(self, tx: LedgerTx) -> None:
        """Add ``tx`` at the next height; every insert into the log comes here."""
        self.entries.append(tx)
        self._by_txid[tx.txid] = tx
        ch_key = tx.payload.ch_key
        if isinstance(tx.payload, Registration):
            held = self._latest_expiry.get(ch_key)
            if held is None or tx.payload.t_exp > held.payload.t_exp:
                self._latest_expiry[ch_key] = tx
        else:
            self._revoked.add(ch_key)

    def append(self, payload, token: WriterToken, now: int) -> bytes:
        if token not in self._tokens:
            raise UnauthorizedWriter("unknown writer token")
        if isinstance(payload, Registration):
            if token.role != "registration":
                raise UnauthorizedWriter("token cannot write registrations")
            self.check_registrable(payload.ch_key, now)
        elif isinstance(payload, Revocation):
            if token.role != "revocation":
                raise UnauthorizedWriter("token cannot write revocations")
        else:
            raise LedgerError("unknown payload type")
        height = len(self.entries)
        tx = LedgerTx(txid=compute_txid(payload, height), payload=payload, height=height, timestamp=now)
        self._commit(tx)
        return tx.txid

    def get(self, txid: bytes):
        return self._by_txid.get(txid)

    def verify_inclusion(self, txid: bytes, payload) -> bool:
        tx = self._by_txid.get(txid)
        if tx is None:
            return False
        return compute_txid(payload, tx.height) == txid

    def height(self) -> int:
        return len(self.entries)


@dataclass
class LedgerView:
    """One node's eventually-consistent slice of the canonical log."""

    node_id: str
    ledger: Ledger
    sync_delay_ms: int = 0
    applied_height: int = 0
    _ch_index: dict = field(default_factory=dict)  # ch bytes -> newest registration tx
    _revoked: set = field(default_factory=set)

    def sync_to(self, now: int) -> None:
        """Apply every canonical entry visible to this node at ``now``."""
        while self.applied_height < len(self.ledger.entries):
            tx = self.ledger.entries[self.applied_height]
            if tx.timestamp + self.sync_delay_ms > now:
                break
            if isinstance(tx.payload, Registration):
                self._ch_index[tx.payload.ch_key] = tx
            else:
                self._revoked.add(tx.payload.ch_key)
            self.applied_height += 1

    def find_by_ch(self, ch_key: bytes):
        """Registration tx for the commitment with compressed key
        ``ch_key``, if synced. Expiry is the caller's check; the tx
        carries its own T_Exp."""
        return self._ch_index.get(ch_key)

    def is_revoked(self, ch_key: bytes) -> bool:
        return ch_key in self._revoked

    def verify_inclusion(self, txid: bytes, payload) -> bool:
        return self.ledger.verify_inclusion(txid, payload)


# --- snapshot fixtures --------------------------------------------------------


def snapshot_dump(ledger: Ledger) -> str:
    """Line-delimited snapshot: 'height txid_hex payload_hex timestamp'."""
    lines = []
    for tx in ledger.entries:
        lines.append(f"{tx.height} {tx.txid.hex()} {tx.payload.to_bytes().hex()} {tx.timestamp}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_load(text: str) -> Ledger:
    """Rebuild a ledger from ``snapshot_dump`` lines. Any malformed line
    (field count, number or hex syntax, payload kind or length, a
    commitment that names no point, a txid that does not match its
    entry, a height out of order) raises ``LedgerError``. No square root
    is taken: each commitment is checked with ``check_compressed``."""
    ledger = Ledger()
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            height_s, txid_hex, payload_hex, ts_s = line.split()
            height = int(height_s)
            txid = bytes.fromhex(txid_hex)
            payload = _payload_from_bytes(bytes.fromhex(payload_hex))
            timestamp = int(ts_s)
        except ValueError as exc:
            raise LedgerError(f"malformed snapshot line: {exc}") from exc
        if height != len(ledger.entries):
            raise LedgerError("snapshot heights not contiguous")
        tx = LedgerTx(txid=compute_txid(payload, height), payload=payload, height=height, timestamp=timestamp)
        if tx.txid != txid:
            raise LedgerError("snapshot txid does not match content")
        ledger._commit(tx)
    return ledger
