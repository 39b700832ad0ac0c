"""Deterministic in-process network simulation.

A discrete-event engine moves protocol messages between actor hosts
over links with integer-millisecond latency, optional jitter, and drop
probability. Time is virtual: with the same seed, two runs produce
byte-identical transcripts. Links between infrastructure nodes
(authority, region servers, roadside units) are secure:
the scripted adversary can neither observe nor touch them, matching the
system's wired-backbone assumption. Vehicle-to-roadside links are open.

The adversary is a Dolev-Yao script over open links: capture, replay,
tamper, drop, inject (with source spoofing). Scripts that would touch a
secure link are rejected at validation time rather than silently doing
nothing.

The hosts own the event transcript; the actors record nothing, and
``Host.emit`` is the one place that builds an event record. A host
records ``<event> ok`` right after the actor call returns, with the
call's extras (a txid prefix, an epoch, a count). A typed rejection
(``ProtocolError`` or ``WireError``) is recorded once, in
``Engine.deliver``: first as ``<event> <Exc>`` when the delivered kind
has a handler event in ``HANDLER_EVENTS`` (REQ -> verify_request,
REP -> handle_reply, ACK -> confirm, REG_REP -> finish_registration),
then as ``reject <Exc> kind=<kind>`` for every kind.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .. import actors
from ..actors import (
    Authority,
    ProtocolError,
    RegionManager,
    RoadsideUnit,
    Vehicle,
)
from ..ledger import Ledger
from ..wire import (
    RegistrationReply,
    RegistrationRequest,
    UpdateMsg,
    WireError,
    transcript_line,
)

OPEN_KINDS = {"REQ", "REP", "ACK", "S_UPD"}
SECURE_KINDS = {"REG_REQ", "REG_FWD", "REG_RCPT", "REG_REP", "GK", "RPT"}
# the actor call that handles each kind, named as the event its rejection records
HANDLER_EVENTS = {
    "REQ": "verify_request",
    "REP": "handle_reply",
    "ACK": "confirm",
    "REG_REP": "finish_registration",
}


class SimnetError(Exception):
    pass


class ScenarioValidationError(SimnetError):
    """Scenario or adversary script is ill-formed (e.g. targets a secure link)."""


class DeadlockDetected(SimnetError):
    """Event queue drained with declared expectations unmet."""


@dataclass
class Link:
    a: str
    b: str
    latency_ms: int = 1
    jitter_ms: int = 0
    drop: float = 0.0
    secure: bool = True

    def key(self):
        return frozenset((self.a, self.b))


@dataclass
class Message:
    src: str
    dst: str
    kind: str
    payload: bytes
    note: str = ""


# --- adversary script ---------------------------------------------------------


@dataclass
class Capture:
    kind: str
    nth: int = 0
    slot: str = "m0"


@dataclass
class Replay:
    slot: str
    delay_ms: int = 10


@dataclass
class Tamper:
    kind: str
    nth: int = 0
    offset: int = 0
    xor: int = 0x01


@dataclass
class Drop:
    kind: str
    nth: int = 0


@dataclass
class Inject:
    dst: str
    kind: str
    at_ms: int
    src: str = "adv"
    payload: bytes = b""
    from_slot: str = ""


class Adversary:
    """Runtime for one ordered action script, bound to open links only."""

    def __init__(self, steps, engine):
        self.steps = list(steps)
        self.engine = engine
        self.captured: dict[str, Message] = {}
        self._seen: dict[str, int] = {}

    def start(self):
        for step in self.steps:
            if isinstance(step, Inject):
                self.engine.schedule(step.at_ms, lambda s=step: self._do_inject(s))

    def _do_inject(self, step: Inject):
        payload = step.payload
        if step.from_slot:
            captured = self.captured.get(step.from_slot)
            if captured is None:
                return
            payload = captured.payload
        self.engine.deliver(
            Message(src=step.src, dst=step.dst, kind=step.kind, payload=payload, note="injected")
        )

    def on_open_link(self, msg: Message, deliver_at: int):
        """Inspect a message in flight; returns None to drop it."""
        idx = self._seen.get(msg.kind, 0)
        self._seen[msg.kind] = idx + 1
        for step in self.steps:
            if isinstance(step, Capture) and step.kind == msg.kind and step.nth == idx:
                self.captured[step.slot] = Message(msg.src, msg.dst, msg.kind, msg.payload, "captured")
                for later in self.steps:
                    if isinstance(later, Replay) and later.slot == step.slot:
                        replayed = Message(msg.src, msg.dst, msg.kind, msg.payload, "replayed")
                        self.engine.schedule(
                            deliver_at + later.delay_ms,
                            lambda m=replayed: self.engine.deliver(m),
                        )
            elif isinstance(step, Tamper) and step.kind == msg.kind and step.nth == idx:
                mutated = bytearray(msg.payload)
                if step.offset < len(mutated):
                    mutated[step.offset] ^= step.xor
                msg = Message(msg.src, msg.dst, msg.kind, bytes(mutated), "tampered")
            elif isinstance(step, Drop) and step.kind == msg.kind and step.nth == idx:
                return None
        return msg


def validate_script(steps, links):
    """Reject scripts that reach beyond open links."""
    secure_pairs = {lk.key() for lk in links if lk.secure}
    for step in steps:
        kind = getattr(step, "kind", None)
        if kind is not None and kind in SECURE_KINDS:
            raise ScenarioValidationError(f"adversary step targets secure traffic kind {kind}")
        if kind is not None and kind not in OPEN_KINDS:
            raise ScenarioValidationError(f"adversary step targets unknown kind {kind}")
        if isinstance(step, Inject):
            for lk in links:
                if lk.key() == frozenset((step.src, step.dst)) and lk.secure:
                    raise ScenarioValidationError("adversary injection onto a secure link")


# --- transcript ----------------------------------------------------------------


@dataclass
class Transcript:
    messages: list = field(default_factory=list)  # (t, src, dst, kind, payload, note)
    events: list = field(default_factory=list)  # dict records from Host.emit

    def record_message(self, t, msg: Message):
        self.messages.append((t, msg.src, msg.dst, msg.kind, msg.payload, msg.note))

    def lines(self):
        out = []
        for t, src, dst, kind, payload, note in self.messages:
            suffix = f" [{note}]" if note else ""
            out.append(f"t={t} " + transcript_line(f"{src}->{dst}", kind, payload) + suffix)
        return out

    def event_lines(self):
        return [" ".join(f"{k}={v}" for k, v in r.items()) for r in self.events]

    def to_text(self) -> str:
        return "\n".join(self.lines() + ["--"] + self.event_lines()) + "\n"

    def count_events(self, **match) -> int:
        n = 0
        for record in self.events:
            if all(str(record.get(k)) == str(v) for k, v in match.items()):
                n += 1
        return n


# --- hosts ---------------------------------------------------------------------


class Host:
    def __init__(self, name: str, engine: "Engine"):
        self.name = name
        self.engine = engine

    def handle(self, msg: Message, now: int):
        raise NotImplementedError

    def emit(self, now, event, outcome, **extra):
        self.engine.transcript.events.append({"t": now, "actor": self.name, "event": event, "outcome": outcome, **extra})


class VehicleHost(Host):
    def __init__(self, name, engine, vn: Vehicle, home_rsm: str):
        super().__init__(name, engine)
        self.vn = vn
        self.home_rsm = home_rsm
        self.pending_ctx = {}  # rsu name -> SessionContext

    def start_registration(self, now: int):
        request = self.vn.build_registration(self.engine.lea.params)
        self.engine.send(self.name, self.home_rsm, "REG_REQ", request.encode(), now)

    def start_handover(self, rsu_name: str, now: int):
        rsu = self.engine.rsus[rsu_name].rsu
        try:
            request, ctx = self.vn.start_handover(rsu.sign_pk, now)
        except ProtocolError as exc:
            self.emit(now, "start_handover", type(exc).__name__)
            return
        self.emit(now, "start_handover", "ok")
        self.pending_ctx[rsu_name] = ctx
        self.engine.send(self.name, rsu_name, "REQ", request.encode(), now)

    def handle(self, msg: Message, now: int):
        if msg.kind == "REG_REP":
            reply = RegistrationReply.decode(msg.payload)
            view = self.engine.rsms[self.home_rsm].rsm.view
            view.sync_to(now)
            self.vn.finish_registration(reply, view, now)
            self.emit(now, "finish_registration", "ok")
            self.emit(now, "registered", "ok")
        elif msg.kind == "REP":
            ctx = self.pending_ctx.get(msg.src)
            if ctx is None:
                self.emit(now, "handle_reply", "NoSession")
                return
            ack, ks = self.vn.handle_reply(ctx, msg.payload, now)
            self.emit(now, "handle_reply", "ok")
            self.vn.sessions[msg.src] = ctx
            self.emit(now, "session_key", "ok", ks=ks.hex())
            self.engine.send(self.name, msg.src, "ACK", ack.encode(), now)
        elif msg.kind == "S_UPD":
            epoch = int.from_bytes(msg.payload[:4], "big")
            upd = UpdateMsg.decode(msg.payload[4:])
            session = self.vn.sessions.get(msg.src)
            if session is None:
                self.emit(now, "apply_update", "NoSession")
                return
            self.vn.apply_update(upd, session.ks, epoch, now)
            self.emit(now, "apply_update", "ok", epoch=epoch)


class RsuHost(Host):
    def __init__(self, name, engine, rsu: RoadsideUnit):
        super().__init__(name, engine)
        self.rsu = rsu
        self.pending_ctx = {}  # peer vehicle name -> SessionContext
        self.last_request_bytes = b""

    def handle(self, msg: Message, now: int):
        if msg.kind == "REQ":
            reply, ctx = self.rsu.handle_request(msg.payload, now)
            self.emit(now, "verify_request", "ok")
            self.pending_ctx[msg.src] = ctx
            self.last_request_bytes = msg.payload
            self.engine.send(self.name, msg.src, "REP", reply.encode(), now)
        elif msg.kind == "ACK":
            ctx = self.pending_ctx.get(msg.src)
            if ctx is None:
                self.emit(now, "confirm", "NoSession")
                return
            self.rsu.handle_ack(ctx, msg.payload, now)
            self.emit(now, "confirm", "ok")
            self.emit(now, "session_key", "ok", ks=ctx.ks.hex())
        elif msg.kind == "GK":
            # region server already adopted; mint per-session updates
            epoch = self.rsu.group_secret.epoch
            updates = self.rsu.rotate_sessions(now)
            self.emit(now, "rotate_sessions", "ok", count=len(updates))
            for ctx, upd in updates:
                peer = self._peer_for(ctx)
                if peer is not None:
                    self.engine.send(
                        self.name, peer, "S_UPD", epoch.to_bytes(4, "big") + upd.encode(), now
                    )

    def _peer_for(self, ctx):
        for peer, pending in self.pending_ctx.items():
            if pending is ctx:
                return peer
        return None

    def report_last_request(self, now: int):
        if not self.last_request_bytes:
            self.emit(now, "report", "NothingSeen")
            return
        report = self.rsu.report_malicious(self.last_request_bytes)
        self.emit(now, "report", "ok")
        payload = (
            len(report.rsu_id).to_bytes(2, "big")
            + report.rsu_id.encode()
            + report.sig_rt
            + report.req_bytes
        )
        self.engine.send(self.name, self.rsu.rsm.node_id, "RPT", payload, now)


class RsmHost(Host):
    def __init__(self, name, engine, rsm: RegionManager):
        super().__init__(name, engine)
        self.rsm = rsm
        self.pending_registration = {}  # payload echo -> vehicle name
        self.corrupt_txid = False  # misbehaving-server knob: pair the receipt with another tx

    def handle(self, msg: Message, now: int):
        if msg.kind == "REG_REQ":
            self.pending_registration[msg.payload] = msg.src
            self.engine.send(self.name, self.engine.lea_name, "REG_FWD", msg.payload, now)
        elif msg.kind == "REG_RCPT":
            blob, vehicle = msg.payload, None
            txid, sig, t_exp = blob[:32], blob[32:88], int.from_bytes(blob[88:96], "big")
            echo = blob[96:]
            vehicle = self.pending_registration.pop(echo, None)
            if vehicle is None:
                self.emit(now, "complete_registration", "NoPending")
                return
            if self.corrupt_txid and self.rsm.view.ledger.entries:
                txid = self.rsm.view.ledger.entries[0].txid
            reply = self.rsm.complete_registration(txid, sig, t_exp, now)
            self.emit(now, "mint_pseudonym", "ok")
            self.engine.send(self.name, vehicle, "REG_REP", reply.encode(), now)
        elif msg.kind == "GK":
            gk = int.from_bytes(msg.payload[:28], "big")
            b = int.from_bytes(msg.payload[28:56], "big")
            epoch = int.from_bytes(msg.payload[56:60], "big")
            self.rsm.receive_group_secret(actors.GroupSecret(gk=gk, b=b, epoch=epoch))
            for rsu_name, rsu_host in self.engine.rsus.items():
                if rsu_host.rsu.rsm is self.rsm:
                    self.engine.send(self.name, rsu_name, "GK", msg.payload, now)
        elif msg.kind == "RPT":
            self.engine.send(self.name, self.engine.lea_name, "RPT", msg.payload, now)


class LeaHost(Host):
    def __init__(self, name, engine, lea: Authority):
        super().__init__(name, engine)
        self.lea = lea

    def handle(self, msg: Message, now: int):
        if msg.kind == "REG_FWD":
            request = RegistrationRequest.decode(msg.payload)
            txid, sig, t_exp = self.lea.handle_registration(request, now)
            self.emit(now, "register", "ok", txid=txid.hex()[:16])
            blob = txid + sig + t_exp.to_bytes(8, "big") + msg.payload
            self.engine.send(self.name, msg.src, "REG_RCPT", blob, now)
        elif msg.kind == "RPT":
            n = int.from_bytes(msg.payload[:2], "big")
            rsu_id = msg.payload[2 : 2 + n].decode()
            sig_rt = msg.payload[2 + n : 2 + n + 56]
            req_bytes = msg.payload[2 + n + 56 :]
            rsu = self.engine.rsus[rsu_id].rsu
            report = actors.MisbehaviorReport(rsu_id=rsu_id, sig_rt=sig_rt, req_bytes=req_bytes)
            result = self.lea.trace(report, rsu.sign_pk, now)
            self.emit(now, "trace", "ok", txid=result.txid.hex()[:16], identity=result.identity.hex())

    def rotate(self, revoked_names, now: int):
        for vn_name in revoked_names:
            vn = self.engine.vehicles[vn_name].vn
            if vn.credential is not None:
                rsm_host = next(iter(self.engine.rsms.values()))
                txid = rsm_host.rsm.revoke(vn.credential.commitment, now)
                rsm_host.emit(now, "revoke", "ok", txid=txid.hex()[:16])
        gs = self.lea.rotate()
        self.emit(now, "rotate", "ok", epoch=gs.epoch)
        payload = (
            gs.gk.to_bytes(28, "big") + gs.b.to_bytes(28, "big") + gs.epoch.to_bytes(4, "big")
        )
        for rsm_name in self.engine.rsms:
            self.engine.send(self.name, rsm_name, "GK", payload, now)


# --- engine --------------------------------------------------------------------


class Engine:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.now = 0
        self._heap = []
        self._seq = 0
        self.transcript = Transcript()
        self.hosts: dict[str, Host] = {}
        self.links: dict[frozenset, Link] = {}
        self.vehicles: dict[str, VehicleHost] = {}
        self.rsus: dict[str, RsuHost] = {}
        self.rsms: dict[str, RsmHost] = {}
        self.lea: Authority | None = None
        self.lea_name = ""
        self.chain = Ledger()
        self.adversary: Adversary | None = None

    def node_rng(self):
        return random.Random(self.rng.getrandbits(64))

    # -- topology ------------------------------------------------------------

    def add_lea(self, name: str) -> Authority:
        self.lea = Authority(self.node_rng(), self.chain, node_id=name)
        self.lea_name = name
        self.hosts[name] = LeaHost(name, self, self.lea)
        return self.lea

    def add_rsm(self, name: str, sync_delay_ms: int = 1) -> RegionManager:
        rsm = RegionManager(self.lea, self.node_rng(), name, sync_delay_ms=sync_delay_ms)
        host = RsmHost(name, self, rsm)
        self.hosts[name] = host
        self.rsms[name] = host
        self.add_link(Link(name, self.lea_name, latency_ms=1, secure=True))
        return rsm

    def add_rsu(self, name: str, rsm_name: str, freshness_ms: int = actors.FRESHNESS_WINDOW_MS) -> RoadsideUnit:
        rsu = RoadsideUnit(self.rsms[rsm_name].rsm, self.node_rng(), name, freshness_ms=freshness_ms)
        host = RsuHost(name, self, rsu)
        self.hosts[name] = host
        self.rsus[name] = host
        self.add_link(Link(name, rsm_name, latency_ms=1, secure=True))
        return rsu

    def add_vehicle(self, name: str, identity: bytes, home_rsm: str) -> Vehicle:
        vn = Vehicle(identity, self.node_rng(), node_id=name)
        host = VehicleHost(name, self, vn, home_rsm)
        self.hosts[name] = host
        self.vehicles[name] = host
        self.add_link(Link(name, home_rsm, latency_ms=1, secure=True))
        return vn

    def add_link(self, link: Link):
        self.links[link.key()] = link

    def link_between(self, a: str, b: str) -> "Link | None":
        return self.links.get(frozenset((a, b)))

    def install_adversary(self, steps):
        validate_script(steps, list(self.links.values()))
        self.adversary = Adversary(steps, self)
        self.adversary.start()

    # -- event loop ------------------------------------------------------------

    def schedule(self, at_ms: int, fn):
        self._seq += 1
        heapq.heappush(self._heap, (int(at_ms), self._seq, fn))

    def send(self, src: str, dst: str, kind: str, payload: bytes, now: int):
        link = self.link_between(src, dst)
        if link is None:
            raise SimnetError(f"no link between {src} and {dst}")
        latency = link.latency_ms + (self.rng.randrange(link.jitter_ms + 1) if link.jitter_ms else 0)
        deliver_at = now + latency
        if link.drop and self.rng.random() < link.drop:
            self.transcript.messages.append((deliver_at, src, dst, kind, b"", "dropped"))
            return
        msg = Message(src=src, dst=dst, kind=kind, payload=payload)
        if not link.secure and self.adversary is not None:
            msg = self.adversary.on_open_link(msg, deliver_at)
            if msg is None:
                self.transcript.messages.append((deliver_at, src, dst, kind, b"", "adv-dropped"))
                return
        self.schedule(deliver_at, lambda m=msg: self.deliver(m))

    def deliver(self, msg: Message):
        self.transcript.record_message(self.now, msg)
        host = self.hosts.get(msg.dst)
        if host is None:
            return
        try:
            host.handle(msg, self.now)
        except (ProtocolError, WireError) as exc:
            outcome = type(exc).__name__
            if msg.kind in HANDLER_EVENTS:
                host.emit(self.now, HANDLER_EVENTS[msg.kind], outcome)
            host.emit(self.now, "reject", outcome, kind=msg.kind)

    def run(self, limit_ms: int = 10_000_000):
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            if t > limit_ms:
                break
            self.now = t
            fn()
        return self.transcript
