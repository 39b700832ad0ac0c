"""Declarative scenarios: parse, build, run, and check expectations.

A scenario is line-oriented key-value text::

    seed 7
    node lea1 lea
    node rsm1 rsm sync_delay_ms=1
    node rsu1 rsu rsm=rsm1
    node vn1 vn rsm=rsm1
    link vn1 rsu1 latency_ms=2
    at 0 register vn=vn1
    at 1000 handover vn=vn1 rsu=rsu1
    adversary capture kind=REQ nth=0 slot=m0
    adversary replay slot=m0 delay_ms=40
    expect actor=rsu1 event=reject outcome=ReplayDetected count=1

Node declaration order fixes the derivation order of per-node RNG
streams, so a scenario plus a seed pins the whole run byte for byte.
Expectations are evaluated once the event queue drains; unmet ones
raise ``DeadlockDetected``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.curve import GEN
from .engine import (
    Capture,
    DeadlockDetected,
    Drop,
    Engine,
    Inject,
    Link,
    Replay,
    ScenarioValidationError,
    Tamper,
    Transcript,
)

DEFAULT_SEED = 0xBE9A


@dataclass
class ScenarioSpec:
    seed: int = DEFAULT_SEED
    nodes: list = field(default_factory=list)  # (name, role, opts)
    links: list = field(default_factory=list)  # (a, b, opts)
    actions: list = field(default_factory=list)  # (at_ms, verb, opts)
    adversary: list = field(default_factory=list)  # (verb, opts)
    expectations: list = field(default_factory=list)  # (match dict, count | None)


def _opts(tokens) -> dict:
    out = {}
    for tok in tokens:
        if "=" in tok:
            k, v = tok.split("=", 1)
            out[k] = v
        else:
            out[tok] = "true"
    return out


def parse_scenario(text: str) -> ScenarioSpec:
    spec = ScenarioSpec()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "seed":
            spec.seed = int(tokens[1], 0)
        elif head == "node":
            spec.nodes.append((tokens[1], tokens[2], _opts(tokens[3:])))
        elif head == "link":
            spec.links.append((tokens[1], tokens[2], _opts(tokens[3:])))
        elif head == "at":
            spec.actions.append((int(tokens[1]), tokens[2], _opts(tokens[3:])))
        elif head == "adversary":
            spec.adversary.append((tokens[1], _opts(tokens[2:])))
        elif head == "expect":
            opts = _opts(tokens[1:])
            count = opts.pop("count", None)
            spec.expectations.append((opts, int(count) if count is not None else None))
        else:
            raise ScenarioValidationError(f"unknown scenario directive: {head}")
    return spec


def _adversary_steps(spec: ScenarioSpec):
    steps = []
    for verb, opts in spec.adversary:
        if verb == "capture":
            steps.append(Capture(kind=opts["kind"], nth=int(opts.get("nth", 0)), slot=opts.get("slot", "m0")))
        elif verb == "replay":
            steps.append(Replay(slot=opts.get("slot", "m0"), delay_ms=int(opts.get("delay_ms", 10))))
        elif verb == "tamper":
            steps.append(
                Tamper(
                    kind=opts["kind"],
                    nth=int(opts.get("nth", 0)),
                    offset=int(opts.get("offset", 0)),
                    xor=int(opts.get("xor", "1"), 0),
                )
            )
        elif verb == "drop":
            steps.append(Drop(kind=opts["kind"], nth=int(opts.get("nth", 0))))
        elif verb == "inject":
            steps.append(
                Inject(
                    dst=opts["dst"],
                    kind=opts["kind"],
                    at_ms=int(opts["at"]),
                    src=opts.get("src", "adv"),
                    payload=bytes.fromhex(opts.get("payload", "")),
                    from_slot=opts.get("from_slot", ""),
                )
            )
        else:
            raise ScenarioValidationError(f"unknown adversary verb: {verb}")
    return steps


def _default_identity(name: str) -> bytes:
    return name.encode().ljust(16, b"\x00")[:16]


def build_engine(spec: ScenarioSpec, seed: "int | None" = None) -> Engine:
    engine = Engine(seed if seed is not None else spec.seed)
    for name, role, opts in spec.nodes:
        if role == "lea":
            engine.add_lea(name)
        elif role == "rsm":
            engine.add_rsm(name, sync_delay_ms=int(opts.get("sync_delay_ms", 1)))
            if opts.get("corrupt"):
                if opts["corrupt"] != "txid":
                    raise ScenarioValidationError(f"unknown corrupt= value: {opts['corrupt']}")
                engine.rsms[name].corrupt_txid = True
        elif role == "rsu":
            window = {"freshness_ms": int(opts["freshness_ms"])} if "freshness_ms" in opts else {}
            engine.add_rsu(name, opts["rsm"], **window)
        elif role == "vn":
            identity = bytes.fromhex(opts["id"]) if "id" in opts else _default_identity(name)
            engine.add_vehicle(name, identity, opts["rsm"])
        else:
            raise ScenarioValidationError(f"unknown node role: {role}")
    for a, b, opts in spec.links:
        engine.add_link(
            Link(
                a,
                b,
                latency_ms=int(opts.get("latency_ms", 1)),
                jitter_ms=int(opts.get("jitter_ms", 0)),
                drop=float(opts.get("drop", 0.0)),
                secure="secure" in opts,
            )
        )
    # handover links default to open radio if the scenario did not declare them
    for _, verb, opts in spec.actions:
        if verb == "handover":
            if engine.link_between(opts["vn"], opts["rsu"]) is None:
                engine.add_link(Link(opts["vn"], opts["rsu"], latency_ms=2, secure=False))
    return engine


def _schedule_actions(engine: Engine, spec: ScenarioSpec):
    for at_ms, verb, opts in spec.actions:
        if verb == "register":
            host = engine.vehicles[opts["vn"]]
            engine.schedule(at_ms, lambda h=host, t=at_ms: h.start_registration(t))
        elif verb == "handover":
            host = engine.vehicles[opts["vn"]]
            rsu = opts["rsu"]
            engine.schedule(at_ms, lambda h=host, r=rsu, t=at_ms: h.start_handover(r, t))
        elif verb == "report":
            host = engine.rsus[opts["rsu"]]
            engine.schedule(at_ms, lambda h=host, t=at_ms: h.report_last_request(t))
        elif verb == "rotate":
            revoked = [v for v in opts.get("revoked", "").split(",") if v]
            lea_host = engine.hosts[engine.lea_name]
            engine.schedule(at_ms, lambda h=lea_host, r=revoked, t=at_ms: h.rotate(r, t))
        elif verb == "refill":
            host = engine.vehicles[opts["vn"]]
            engine.schedule(at_ms, lambda h=host: h.vn.refill_pool())
        else:
            raise ScenarioValidationError(f"unknown action verb: {verb}")


def run_scenario(scenario: "ScenarioSpec | str", seed: "int | None" = None) -> Transcript:
    """Execute one scenario to quiescence and enforce its expectations."""
    spec = parse_scenario(scenario) if isinstance(scenario, str) else scenario
    engine = build_engine(spec, seed)
    engine.install_adversary(_adversary_steps(spec))
    _schedule_actions(engine, spec)
    transcript = engine.run()
    unmet = []
    for match, count in spec.expectations:
        n = transcript.count_events(**match)
        if (count is None and n < 1) or (count is not None and n != count):
            unmet.append((match, count, n))
    if unmet:
        detail = "; ".join(f"{m} expected {c if c is not None else '>=1'} got {n}" for m, c, n in unmet)
        raise DeadlockDetected(f"unmet expectations at quiescence: {detail}")
    return transcript


# --- canned scenarios -----------------------------------------------------------

HONEST_SINGLE_DOMAIN = """
seed 7
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu1
expect actor=vn1 event=registered outcome=ok count=1
expect actor=vn1 event=session_key outcome=ok count=1
expect actor=rsu1 event=session_key outcome=ok count=1
"""

REPLAY_ATTACK = """
seed 11
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu1
adversary capture kind=REQ nth=0 slot=m0
adversary replay slot=m0 delay_ms=40
expect actor=rsu1 event=session_key outcome=ok count=1
expect actor=rsu1 event=reject outcome=ReplayDetected count=1
"""

TAMPER_REQ = """
seed 13
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu1
adversary tamper kind=REQ nth=0 offset=20 xor=1
expect actor=rsu1 event=reject outcome=UnknownCredential count=1
"""

TAMPER_REP = """
seed 17
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu1
adversary tamper kind=REP nth=0 offset=70 xor=1
expect actor=vn1 event=reject outcome=BadKeyConfirm count=1
"""

TAMPER_ACK = """
seed 19
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu1
adversary tamper kind=ACK nth=0 offset=3 xor=1
expect actor=vn1 event=session_key outcome=ok count=1
expect actor=rsu1 event=reject outcome=BadAck count=1
"""

CROSS_SESSION_SPLICE = """
seed 23
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
node vn2 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
link vn2 rsu1 latency_ms=2
at 0 register vn=vn1
at 10 register vn=vn2
at 1000 handover vn=vn1 rsu=rsu1
at 1200 handover vn=vn2 rsu=rsu1
adversary capture kind=ACK nth=0 slot=a0
adversary drop kind=ACK nth=1
adversary inject dst=rsu1 src=vn2 kind=ACK from_slot=a0 at=1400
expect actor=rsu1 event=session_key outcome=ok count=1
expect actor=rsu1 event=reject outcome=BadAck count=1
"""


def impersonation_scenario() -> str:
    """Forged request injected by an adversary holding no secrets."""
    forged = (
        bytes.fromhex("deadbeef" * 4)  # pid: junk
        + (1).to_bytes(28, "big")  # m = 1
        + GEN[0].to_bytes(28, "big")  # blinded point: the generator itself
        + bytes.fromhex("22" * 28)  # s1: junk
        + (1000).to_bytes(4, "big")  # t1 matching the injection time
    )
    return f"""
seed 29
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
at 0 register vn=vn1
adversary inject dst=rsu1 src=vn1 kind=REQ at=1000 payload={forged.hex()}
expect actor=rsu1 event=reject outcome=UnknownCredential count=1
"""


CROSS_DOMAIN = """
seed 31
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsm2 rsm sync_delay_ms=300
node rsu1 rsu rsm=rsm1
node rsu2 rsu rsm=rsm2
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
link vn1 rsu2 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu2
expect actor=vn1 event=session_key outcome=ok count=1
expect actor=rsu2 event=session_key outcome=ok count=1
"""

CROSS_DOMAIN_BEFORE_SYNC = """
seed 37
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsm2 rsm sync_delay_ms=5000
node rsu1 rsu rsm=rsm1
node rsu2 rsu rsm=rsm2
node vn1 vn rsm=rsm1
link vn1 rsu2 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu2
expect actor=rsu2 event=reject outcome=UnknownCredential count=1
"""

REVOCATION = """
seed 41
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
node vn2 vn rsm=rsm1
node vn3 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
link vn2 rsu1 latency_ms=2
link vn3 rsu1 latency_ms=2
at 0 register vn=vn1
at 10 register vn=vn2
at 20 register vn=vn3
at 1000 handover vn=vn1 rsu=rsu1
at 1200 handover vn=vn2 rsu=rsu1
at 1400 handover vn=vn3 rsu=rsu1
at 2000 rotate revoked=vn1
at 3000 handover vn=vn1 rsu=rsu1
at 3200 handover vn=vn2 rsu=rsu1
at 3400 handover vn=vn3 rsu=rsu1
adversary drop kind=S_UPD nth=1
expect actor=vn2 event=apply_update outcome=ok count=1
expect actor=rsu1 event=reject outcome=UnknownCredential count=2
expect actor=vn2 event=session_key outcome=ok count=2
"""

TRACE_AND_AUDIT = """
seed 43
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu1
at 1500 report rsu=rsu1
expect actor=lea1 event=trace outcome=ok count=1
"""

REGISTRATION_BAD_TXID = """
seed 47
node lea1 lea
node rsmX rsm sync_delay_ms=1
node rsm1 rsm sync_delay_ms=1 corrupt=txid
node rsuX rsu rsm=rsmX
node vnX vn rsm=rsmX
node vn1 vn rsm=rsm1
at 0 register vn=vnX
at 500 register vn=vn1
expect actor=vn1 event=reject outcome=NotOnChain count=1
"""

SECURE_LINK_VIOLATION = """
seed 53
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
at 0 register vn=vn1
adversary tamper kind=GK nth=0 offset=0 xor=1
"""

TWO_DOMAIN_DEMO = """
# registration, intra-domain handover, cross-domain handover, key rotation
seed 3
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsm2 rsm sync_delay_ms=300
node rsu1 rsu rsm=rsm1
node rsu2 rsu rsm=rsm2
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
link vn1 rsu2 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu1
at 2000 handover vn=vn1 rsu=rsu2
at 3000 rotate
at 4000 handover vn=vn1 rsu=rsu2
expect actor=vn1 event=registered outcome=ok count=1
expect actor=vn1 event=session_key outcome=ok count=3
expect actor=rsu1 event=session_key outcome=ok count=1
expect actor=rsu2 event=session_key outcome=ok count=2
expect actor=vn1 event=apply_update outcome=ok count=2
"""


def canned_scenarios() -> dict:
    return {
        "honest": HONEST_SINGLE_DOMAIN,
        "demo": TWO_DOMAIN_DEMO,
        "replay": REPLAY_ATTACK,
        "tamper-req": TAMPER_REQ,
        "tamper-rep": TAMPER_REP,
        "tamper-ack": TAMPER_ACK,
        "splice": CROSS_SESSION_SPLICE,
        "impersonation": impersonation_scenario(),
        "cross-domain": CROSS_DOMAIN,
        "cross-domain-early": CROSS_DOMAIN_BEFORE_SYNC,
        "revocation": REVOCATION,
        "trace-audit": TRACE_AND_AUDIT,
        "bad-txid": REGISTRATION_BAD_TXID,
    }
