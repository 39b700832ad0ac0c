"""Protocol roles: vehicle, roadside unit, region server, authority, and
the public framing audit.

Lifecycle: the authority initializes the system (key pairs, group
secret, published parameters) and owns registration; region servers are
per-domain full nodes that mint pseudonym material; roadside units
verify handovers at the edge against their region's ledger view;
vehicles hold a chameleon trapdoor credential and prove it afresh at
every handover without ever showing a linkable value twice.

Every actor owns its mutable state and a private RNG stream; methods
take the current harness time explicitly. Nothing here does I/O or
records events: the network simulation (or a direct-call test) moves the
messages around, and ``simnet.engine`` records each role's transcript
events from what the calls return or raise.
The handover handlers take wire bytes only, so every verdict goes
through the total decoders in ``wire``; builders return message objects.
Rejections are typed exceptions; an honest peer never swallows one
silently.

State hygiene rules enforced here:

* a failed handover never mutates the vehicle's (pID, D) pair; a
  successful one always replaces both;
* the roadside replay cache retains (pID, T1) pairs for at least twice
  the freshness window;
* a roadside unit holds one session per commitment, the latest one
  confirmed: the vehicle keeps only its latest session per RSU, so an
  update minted for an older one could never be applied;
* session secrets are dropped on close; real zeroization is out of
  reach for Python bytes, so ``close`` just unlinks aggressively.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .crypto import chameleon, curve, hashes, signatures, symmetric
from .crypto.curve import GEN, Q
from .ledger import Ledger, LedgerView, Registration, Revocation
from .wire import (
    AuthAck,
    AuthRequest,
    AuthReply,
    RegistrationReply,
    RegistrationRequest,
    S1_LEN,
    UpdateMsg,
    WireError,
    request_replay_key,
    ts_delta,
    ts_wrap,
)

FRESHNESS_WINDOW_MS = 500
REGISTRATION_LIFETIME_MS = 30 * 24 * 3600 * 1000  # 30 days of harness time
POOL_TARGET = 8
# S1 encrypts the vehicle's nonce beta with A's 12-byte root hint, so beta
# is 16 bytes: 128 bits, above P-224's 112-bit security level
BETA_BYTES = S1_LEN - curve.HINT_BYTES


class ProtocolError(Exception):
    """Base class for every typed protocol rejection."""


class BadSignature(ProtocolError):
    pass


class NotOnChain(ProtocolError):
    pass


class ExpiredWindow(ProtocolError):
    pass


class StaleTimestamp(ProtocolError):
    pass


class ReplayDetected(ProtocolError):
    pass


class UnknownCredential(ProtocolError):
    pass


class RevokedCredential(ProtocolError):
    pass


class ExpiredRegistration(ProtocolError):
    pass


class BadKeyConfirm(ProtocolError):
    pass


class BadAck(ProtocolError):
    pass


class BadEvidence(ProtocolError):
    pass


class UnknownCH(ProtocolError):
    pass


class InvalidEvidence(ProtocolError):
    pass


class MalformedRegistration(ProtocolError):
    """An unsealed registration that is not identity length, identity and
    a compressed commitment: ``enc_pk`` is public, so anyone can seal
    such a blob."""


@dataclass(frozen=True)
class GroupSecret:
    gk: int
    b: int
    epoch: int


@dataclass(frozen=True)
class SystemParams:
    """Published parameters: safe to hand to anyone."""

    sign_pk: "tuple[int, int]"
    enc_pk: "tuple[int, int]"


@dataclass(slots=True)
class ChameleonCredential:
    trapdoor: chameleon.ChameleonTrapdoor
    y_point: "tuple[int, int]"
    commitment: "tuple[int, int]"
    sig: bytes
    txid: bytes
    t_exp: int
    pid: bytes
    d: bytes
    pool: list = field(default_factory=list)  # (alpha, x(A), A's root hint) with even-y A


@dataclass(slots=True)
class SessionContext:
    t1: int = 0
    beta_own: int = 0
    m_secret: bytes = b""
    ks: bytes = b""
    req_bytes: bytes = b""
    rep_bytes: bytes = b""
    # roadside bookkeeping
    ch: "tuple[int, int] | None" = None
    ch_key: bytes = b""  # ch compressed: the ledger's key for it
    t_exp: int = 0  # the commitment's registration expiry
    established: bool = False

    def close(self) -> None:
        self.beta_own = 0
        self.m_secret = b""
        self.ks = b""


@dataclass(frozen=True)
class MisbehaviorReport:
    rsu_id: str
    sig_rt: bytes
    req_bytes: bytes


@dataclass(frozen=True)
class TraceResult:
    identity: bytes
    d_star: bytes
    ch: "tuple[int, int]"
    txid: bytes
    evidence: MisbehaviorReport


def _receipt_message(identity: bytes, ch_key: bytes, t_exp: int) -> bytes:
    """Unambiguous byte string the authority signs at registration;
    ``ch_key`` is the commitment's 29-byte compressed form."""
    return len(identity).to_bytes(2, "big") + identity + ch_key + t_exp.to_bytes(8, "big")


def _open_registration(plain: bytes) -> "tuple[bytes, bytes]":
    """(identity, CH's compressed key) from an unsealed registration: a
    2-byte identity length, the identity and the 29-byte key, nothing
    more. The key is checked to name a point other than the identity
    without decoding it: nothing downstream reads CH's y."""
    if len(plain) < 2 + 29:
        raise MalformedRegistration("registration plaintext too short")
    id_len = int.from_bytes(plain[:2], "big")
    if len(plain) != 2 + id_len + 29:
        raise MalformedRegistration("identity length does not fit the plaintext")
    ch_key = plain[2 + id_len :]
    try:
        curve.check_compressed(ch_key)
    except ValueError as exc:
        raise MalformedRegistration(f"commitment does not decode: {exc}") from exc
    return plain[2 : 2 + id_len], ch_key


def _s1_context(t1: int) -> bytes:
    return b"S1" + ts_wrap(t1).to_bytes(4, "big")


def _s2_context(t2: int) -> bytes:
    return b"S2" + ts_wrap(t2).to_bytes(4, "big")


def _upd_context(epoch: int) -> bytes:
    return b"UPD" + epoch.to_bytes(4, "big")


def _draw_beta(rng) -> int:
    """The vehicle's nonzero 128-bit nonce; h2 and h3 take it as a scalar
    field, zero-padded to 28 bytes."""
    while True:
        beta = int.from_bytes(rng.randbytes(BETA_BYTES), "big")
        if beta:
            return beta


def _recover_pseudonym_key(gs: GroupSecret, pid: bytes) -> "tuple[bytes, bytes]":
    """(pd, D) behind a pseudonym: pID decrypt under b, then h1."""
    pd = symmetric.pid_decrypt(gs.b, pid)
    return pd, hashes.h1(pd, gs.gk, gs.b, pid)


def _recover_commitment(req: AuthRequest, d: bytes, rsu_key: bytes) -> "tuple[int, tuple[int, int] | None]":
    """(beta, CH) that a request authenticates under pseudonym key D and
    the verifier's 29-byte compressed key.

    S1 decrypts to beta and A's root hint; the hint and x(A) give A, h2
    gives gamma, and CH = m*P + gamma*A. CH is None when x(A) and the
    hint name no point, which a wrong D makes all but certain, so such a
    request costs neither h2 nor ``msm2``; and when the request resolves
    to the identity. Each verifier turns the result into its own verdict.
    """
    plain = symmetric.sym_decrypt(d, req.s1, _s1_context(req.t1))
    beta = int.from_bytes(plain[:BETA_BYTES], "big")
    a_pt = curve.point_from_hint(req.a_x, plain[BETA_BYTES:])
    if a_pt is None:
        return beta, None
    gamma = hashes.h2(req.pid, beta, curve.even_y_key(req.a_x), req.s1, d, rsu_key, req.t1)
    return beta, curve.msm2(req.m, gamma, a_pt)


class Authority:
    """Root of trust: registers vehicles, owns the group secret, traces."""

    def __init__(self, rng, chain: Ledger, node_id: str = "lea"):
        self.node_id = node_id
        self.rng = rng
        self.chain = chain
        self._sign_sk, self.sign_pk = signatures.keygen_sig(rng)
        self._enc_sk, self.enc_pk = signatures.keygen_enc(rng)
        self.group_secret = GroupSecret(
            gk=curve.rand_nonzero_scalar(rng), b=curve.rand_nonzero_scalar(rng), epoch=0
        )
        self._reg_token = chain.mint_token("registration")
        self.view = LedgerView(node_id, chain, sync_delay_ms=0)
        self._ids: dict[bytes, bytes] = {}  # txid -> registered identity
        self.params = SystemParams(sign_pk=self.sign_pk, enc_pk=self.enc_pk)

    def handle_registration(self, request: RegistrationRequest, now: int) -> "tuple[bytes, bytes, int]":
        """Unseal, check, sign and append one registration: no square root.

        ``adec`` validates the sealed ephemeral point (sent as x || y) and
        multiplies it by the decryption key; the commitment is checked
        with Euler's criterion. A refused registration raises before the
        RNG is drawn and leaves the ledger and ``_ids`` as they were."""
        identity, ch_key = _open_registration(signatures.adec(self._enc_sk, request.c1))
        self.chain.check_registrable(ch_key, now)  # before the signature draws from the RNG
        t_exp = now + REGISTRATION_LIFETIME_MS
        sig = signatures.sign(self._sign_sk, _receipt_message(identity, ch_key, t_exp), self.rng)
        txid = self.chain.append(Registration.from_key(sig, ch_key, t_exp), self._reg_token, now)
        self._ids[txid] = identity
        return txid, sig, t_exp

    def rotate(self) -> GroupSecret:
        self.group_secret = GroupSecret(
            gk=curve.rand_nonzero_scalar(self.rng),
            b=curve.rand_nonzero_scalar(self.rng),
            epoch=self.group_secret.epoch + 1,
        )
        return self.group_secret

    def trace(self, report: MisbehaviorReport, rsu_pk, now: int) -> TraceResult:
        """Recover the registered identity behind a reported request."""
        if not signatures.verify(rsu_pk, report.sig_rt, report.req_bytes):
            raise BadEvidence("reporter signature does not verify")
        try:
            req = AuthRequest.decode(report.req_bytes)
        except WireError as exc:
            raise BadEvidence(f"unparseable request: {exc}") from exc
        _, d_star = _recover_pseudonym_key(self.group_secret, req.pid)
        _, ch = _recover_commitment(req, d_star, curve.point_compress(rsu_pk))
        if ch is None:
            raise UnknownCH("request names no point A, or resolves to the identity point")
        self.view.sync_to(now)
        tx = self.view.find_by_ch(curve.point_compress(ch))
        if tx is None:
            raise UnknownCH("no registration for the recomputed commitment")
        identity = self._ids.get(tx.txid)
        if identity is None:
            raise UnknownCH("commitment registered by an unknown writer")
        return TraceResult(identity=identity, d_star=d_star, ch=ch, txid=tx.txid, evidence=report)


class RegionManager:
    """Per-domain full node: forwards registrations, mints pseudonyms,
    revokes, and serves its ledger view to subordinate roadside units."""

    def __init__(self, authority: Authority, rng, node_id: str, sync_delay_ms: int = 0):
        self.node_id = node_id
        self.rng = rng
        self.params = authority.params
        self.group_secret = authority.group_secret
        self._sign_sk, self.sign_pk = signatures.keygen_sig(rng)
        self._enc_sk, self.enc_pk = signatures.keygen_enc(rng)
        self.view = LedgerView(node_id, authority.chain, sync_delay_ms=sync_delay_ms)
        self._rev_token = authority.chain.mint_token("revocation")
        self._chain = authority.chain

    def mint_pseudonym(self, avoid_pd: bytes = b"") -> "tuple[bytes, bytes]":
        gs = self.group_secret
        while True:
            pd = self.rng.randbytes(symmetric.PID_LEN)
            if pd != avoid_pd:
                break
        pid = symmetric.pid_encrypt(gs.b, pd)
        return pid, hashes.h1(pd, gs.gk, gs.b, pid)

    def mint_pseudonyms(self, n: int) -> "list[tuple[bytes, bytes]]":
        """``n`` (pID, D) pairs from one RNG draw and one AES pass.

        One ``randbytes(16 * n)`` yields the same bytes, and leaves the
        same RNG state, as ``n`` draws of 16, so the pairs equal ``n``
        ``mint_pseudonym()`` calls in order.
        """
        gs = self.group_secret
        pds = self.rng.randbytes(symmetric.PID_LEN * n)
        pids = symmetric.pid_encrypt(gs.b, pds)
        pairs = []
        for i in range(0, len(pds), symmetric.PID_LEN):
            pd, pid = pds[i : i + symmetric.PID_LEN], pids[i : i + symmetric.PID_LEN]
            pairs.append((pid, hashes.h1(pd, gs.gk, gs.b, pid)))
        return pairs

    def complete_registration(self, txid: bytes, sig: bytes, t_exp: int, now: int) -> RegistrationReply:
        pid, d = self.mint_pseudonym()
        return RegistrationReply(txid=txid, sig=sig, t_exp=t_exp, pid=pid, d=d)

    def revoke(self, ch, now: int) -> bytes:
        return self._chain.append(Revocation(ch=ch), self._rev_token, now)

    def receive_group_secret(self, gs: GroupSecret) -> None:
        self.group_secret = gs


class RoadsideUnit:
    """Edge verifier. Holds only the current group secret and its region's
    ledger view; never learns a vehicle identity."""

    def __init__(self, rsm: RegionManager, rng, node_id: str, freshness_ms: int = FRESHNESS_WINDOW_MS):
        self.node_id = node_id
        self.rng = rng
        self.rsm = rsm
        self.params = rsm.params
        self.freshness_ms = freshness_ms
        self._sign_sk, self.sign_pk = signatures.keygen_sig(rng)
        self.sign_key = curve.point_compress(self.sign_pk)  # h2 takes it compressed
        self._enc_sk, self.enc_pk = signatures.keygen_enc(rng)
        self._replay_cache: dict[tuple, int] = {}  # (pid, t1) -> seen at
        self._replay_order: deque = deque()  # (seen at, (pid, t1)), oldest first
        self.sessions: dict[tuple, SessionContext] = {}  # ch -> latest confirmed session

    @property
    def group_secret(self) -> GroupSecret:
        return self.rsm.group_secret

    @property
    def view(self) -> LedgerView:
        return self.rsm.view

    def _check_replay(self, pid: bytes, t1: int) -> None:
        if (pid, ts_wrap(t1)) in self._replay_cache:
            raise ReplayDetected("request seen before within the retention window")

    def _record_seen(self, pid: bytes, t1: int, now: int) -> None:
        # only verified requests enter the cache: otherwise junk bearing a
        # sniffed (pID, T1) pair could lock the honest request out
        cache, order = self._replay_cache, self._replay_order
        horizon = 2 * self.freshness_ms
        while order and now - order[0][0] > horizon:
            seen_at, key = order.popleft()
            # the cache may have been cleared, or the key re-recorded, since
            if cache.get(key) == seen_at:
                del cache[key]
        key = (pid, ts_wrap(t1))
        cache[key] = now
        order.append((now, key))

    def handle_request(self, req_bytes: bytes, now: int) -> "tuple[AuthReply, SessionContext]":
        # freshness and replay need only pID and T1, so the bytes are
        # checked for both before any decryption or group arithmetic
        pid, t1 = request_replay_key(req_bytes)
        if abs(ts_delta(now, t1)) > self.freshness_ms:
            raise StaleTimestamp("request timestamp outside the freshness window")
        self._check_replay(pid, t1)
        request = AuthRequest.decode(req_bytes)
        pd_star, d_star = _recover_pseudonym_key(self.group_secret, request.pid)
        beta_star, ch_candidate = _recover_commitment(request, d_star, self.sign_key)
        if ch_candidate is None:
            raise UnknownCredential("request names no point A, or resolves to the identity point")
        ch_key = curve.point_compress(ch_candidate)
        self.view.sync_to(now)
        tx = self.view.find_by_ch(ch_key)
        if tx is None:
            raise UnknownCredential("no registration matches the recomputed commitment")
        if self.view.is_revoked(ch_key):
            raise RevokedCredential("commitment is on the revocation list")
        if tx.payload.t_exp <= now:
            raise ExpiredRegistration("registration past its expiry")
        self._record_seen(request.pid, request.t1, now)

        # fresh pseudonym material for the next handover; never reissue
        # the same raw pseudonym the vehicle just used
        pid_new, d_new = self.rsm.mint_pseudonym(avoid_pd=pd_star)
        m_star = hashes.h3(ch_key, d_star, beta_star, request.t1)
        beta_rsu = curve.rand_nonzero_scalar(self.rng)
        t2 = now
        ks = hashes.h4(beta_rsu, m_star, t2)
        s2 = symmetric.sym_encrypt(
            m_star, curve.scalar_to_bytes(beta_rsu) + pid_new + d_new, _s2_context(t2)
        )
        s3 = hashes.h5(s2, beta_rsu, pid_new, d_new, m_star, ks, t2)
        reply = AuthReply(s2=s2, s3=s3, t2=t2)
        ctx = SessionContext(
            t1=request.t1,
            beta_own=beta_rsu,
            m_secret=m_star,
            ks=ks,
            req_bytes=req_bytes,
            rep_bytes=reply.encode(),
            ch=ch_candidate,
            ch_key=ch_key,
            t_exp=tx.payload.t_exp,
        )
        return reply, ctx

    def handle_ack(self, ctx: SessionContext, ack_bytes: bytes, now: int) -> SessionContext:
        # a replayed ACK must not confirm the session again, nor put a
        # session dropped since (revoked, expired) back in the table
        if ctx.established:
            raise ReplayDetected("session already confirmed")
        ack = AuthAck.decode(ack_bytes)
        expected = hashes.h6(ctx.m_secret, ctx.ks, ctx.req_bytes, ctx.rep_bytes)
        if ack.ack != expected:
            raise BadAck("acknowledgement does not match the transcript")
        ctx.established = True
        self.sessions[ctx.ch] = ctx
        return ctx

    def report_malicious(self, req_bytes: bytes) -> MisbehaviorReport:
        sig_rt = signatures.sign(self._sign_sk, req_bytes, self.rng)
        return MisbehaviorReport(rsu_id=self.node_id, sig_rt=sig_rt, req_bytes=req_bytes)

    def rotate_sessions(self, now: int) -> "list[tuple[SessionContext, UpdateMsg]]":
        """Mint fresh credentials for every held session under the (already
        adopted) new group secret; sessions of revoked or expired
        commitments are dropped instead.

        Dropping draws no randomness, so the drops go first and the live
        sessions' pseudonyms are then minted in one batch, in table order:
        the region manager's RNG stream is the same as one
        ``mint_pseudonym`` per live session. Each update still gets its
        own session-key keystream.
        """
        self.view.sync_to(now)
        for ch in [ch for ch, ctx in self.sessions.items() if ctx.t_exp <= now or self.view.is_revoked(ctx.ch_key)]:
            del self.sessions[ch]
        live = list(self.sessions.values())
        context = _upd_context(self.group_secret.epoch)
        updates = [
            (ctx, UpdateMsg(s_upd=symmetric.sym_encrypt(ctx.ks, pid_new + d_new, context)))
            for ctx, (pid_new, d_new) in zip(live, self.rsm.mint_pseudonyms(len(live)))
        ]
        return updates


class Vehicle:
    """Prover. Owns the chameleon trapdoor; performs only symmetric and
    hash work during a handover."""

    def __init__(self, identity: bytes, rng, node_id: str = "vn"):
        self.identity = identity
        self.rng = rng
        self.node_id = node_id
        self.credential: ChameleonCredential | None = None
        self._pending_keygen = None
        self.sessions: dict[str, SessionContext] = {}  # peer rsu id -> last ctx
        self.inline_point_uses = 0

    # -- registration ----------------------------------------------------

    def build_registration(self, params: SystemParams) -> RegistrationRequest:
        self.params_sign_pk = params.sign_pk
        x = curve.rand_nonzero_scalar(self.rng)
        s = curve.rand_nonzero_scalar(self.rng)
        m0 = curve.rand_nonzero_scalar(self.rng)
        r0 = hashes.h0(self.identity, s)
        y_point = curve.scalar_mul(GEN, x)
        commitment = chameleon.ch_commit(y_point, m0, r0)
        self._pending_keygen = (x, m0, r0, y_point, commitment)
        plain = (
            len(self.identity).to_bytes(2, "big")
            + self.identity
            + curve.point_compress(commitment)
        )
        return RegistrationRequest(c1=signatures.aenc(params.enc_pk, plain, self.rng))

    def finish_registration(self, reply: RegistrationReply, view: LedgerView, now: int) -> ChameleonCredential:
        if self._pending_keygen is None:
            raise ProtocolError("no registration in flight")
        x, m0, r0, y_point, commitment = self._pending_keygen
        ch_key = curve.point_compress(commitment)
        message = _receipt_message(self.identity, ch_key, reply.t_exp)
        if not signatures.verify(self.params_sign_pk, reply.sig, message):
            raise BadSignature("authority receipt does not verify")
        payload = Registration.from_key(reply.sig, ch_key, reply.t_exp)
        if not view.verify_inclusion(reply.txid, payload):
            raise NotOnChain("receipt is not anchored on the chain")
        if reply.t_exp <= now:
            raise ExpiredWindow("registration already expired")
        trapdoor = chameleon.ChameleonTrapdoor(k=(m0 + r0 * x) % Q, x=x)
        self.credential = ChameleonCredential(
            trapdoor=trapdoor,
            y_point=y_point,
            commitment=commitment,
            sig=reply.sig,
            txid=reply.txid,
            t_exp=reply.t_exp,
            pid=reply.pid,
            d=reply.d,
        )
        self._pending_keygen = None
        self.refill_pool()
        return self.credential

    # -- handover ---------------------------------------------------------

    def _draw_blinded_point(self):
        """(alpha, x(A), A's root hint) for A = alpha*Y in canonical even-y
        form, which comes for free: negating alpha flips the point's y
        parity, so x(A) alone names A. The hint is the discrete log the
        roadside unit would otherwise take to recover A from its x."""
        alpha = curve.rand_nonzero_scalar(self.rng)
        # the vehicle's one ladder call left: on the ladder until ROADMAP
        # item 2's last slice moves it (after item 1a)
        a_pt = curve.ladder_mul(self.credential.y_point, alpha)
        if not curve.has_even_y(a_pt):
            alpha = Q - alpha  # -A has the same x and an even y
        return alpha, a_pt[0], curve.root_hint(a_pt[0])

    def refill_pool(self, target: int = POOL_TARGET) -> None:
        """Precompute blinded points off the critical path."""
        pool = self.credential.pool
        while len(pool) < target:
            pool.append(self._draw_blinded_point())

    def _take_blinded_point(self):
        pool = self.credential.pool
        if pool:
            return pool.pop()
        # pool exhausted: compute inline, counted so benchmarks can tell
        self.inline_point_uses += 1
        return self._draw_blinded_point()

    def start_handover(self, rsu_pk, now: int) -> "tuple[AuthRequest, SessionContext]":
        cred = self.credential
        if cred is None:
            raise ProtocolError("not registered")
        if cred.t_exp <= now:
            raise ExpiredWindow("credential expired; re-register")
        alpha, a_x, hint = self._take_blinded_point()
        beta = _draw_beta(self.rng)
        t1 = now
        s1 = symmetric.sym_encrypt(cred.d, beta.to_bytes(BETA_BYTES, "big") + hint, _s1_context(t1))
        gamma = hashes.h2(cred.pid, beta, curve.even_y_key(a_x), s1, cred.d, curve.point_compress(rsu_pk), t1)
        m = chameleon.ch_collide(cred.trapdoor, alpha * gamma % Q)
        request = AuthRequest(pid=cred.pid, m=m, a_x=a_x, s1=s1, t1=t1)
        ctx = SessionContext(t1=t1, beta_own=beta, req_bytes=request.encode())
        return request, ctx

    def handle_reply(self, ctx: SessionContext, rep_bytes: bytes, now: int) -> "tuple[AuthAck, bytes]":
        reply = AuthReply.decode(rep_bytes)
        cred = self.credential
        if abs(ts_delta(now, reply.t2)) > FRESHNESS_WINDOW_MS:
            raise StaleTimestamp("reply timestamp outside the freshness window")
        m_secret = hashes.h3(curve.point_compress(cred.commitment), cred.d, ctx.beta_own, ctx.t1)
        plain = symmetric.sym_decrypt(m_secret, reply.s2, _s2_context(reply.t2))
        beta_rsu = int.from_bytes(plain[:28], "big")
        pid_new = plain[28:44]
        d_new = plain[44:64]
        ks = hashes.h4(beta_rsu, m_secret, reply.t2)
        s3_expected = hashes.h5(reply.s2, beta_rsu, pid_new, d_new, m_secret, ks, reply.t2)
        if s3_expected != reply.s3:
            # key confirmation failed: current (pID, D) stay untouched
            raise BadKeyConfirm("verifier key-confirmation tag mismatch")
        cred.pid = pid_new
        cred.d = d_new
        ctx.m_secret = m_secret
        ctx.ks = ks
        ctx.rep_bytes = rep_bytes
        ack = AuthAck(ack=hashes.h6(m_secret, ks, ctx.req_bytes, ctx.rep_bytes))
        return ack, ks

    def apply_update(self, update: UpdateMsg, ks: bytes, epoch: int, now: int) -> None:
        plain = symmetric.sym_decrypt(ks, update.s_upd, _upd_context(epoch))
        self.credential.pid = plain[:16]
        self.credential.d = plain[16:36]


# --- direct-call orchestration (tests, benchmarks, CLI) -----------------------


def register_vehicle(vn: Vehicle, rsm: RegionManager, lea: Authority, now: int) -> ChameleonCredential:
    """Drive the registration exchange without a network in between."""
    request = vn.build_registration(lea.params)
    txid, sig, t_exp = lea.handle_registration(request, now)
    reply = rsm.complete_registration(txid, sig, t_exp, now)
    rsm.view.sync_to(now + rsm.view.sync_delay_ms)
    return vn.finish_registration(reply, rsm.view, now)


def run_handover(vn: Vehicle, rsu: RoadsideUnit, now: int):
    """One full honest exchange; returns (vn ctx, rsu ctx) both confirmed."""
    _, vn_ctx = vn.start_handover(rsu.sign_pk, now)
    reply, rsu_ctx = rsu.handle_request(vn_ctx.req_bytes, now)
    ack, _ = vn.handle_reply(vn_ctx, reply.encode(), now)
    rsu.handle_ack(rsu_ctx, ack.encode(), now)
    vn.sessions[rsu.node_id] = vn_ctx
    return vn_ctx, rsu_ctx


def rotate_group_key(lea: Authority, rsms, rsus, revoked_chs, now: int):
    """Revoke, mint a new epoch, fan it out, and collect per-session updates.

    Returns (new epoch, [(rsu, session ctx, update)]). Delivery of the
    updates to vehicles is the caller's job; losing one models a vehicle
    that misses the rotation and must re-register.
    """
    for ch in revoked_chs:
        rsms[0].revoke(ch, now)
    gs = lea.rotate()
    for rsm in rsms:
        rsm.receive_group_secret(gs)
    updates = []
    for rsu in rsus:
        for ctx, upd in rsu.rotate_sessions(now):
            updates.append((rsu, ctx, upd))
    return gs.epoch, updates


def audit_frame_claim(
    req_bytes: bytes,
    sig_rt: bytes,
    rsu_pk,
    claimed_identity: bytes,
    disclosed_d: bytes,
    txid: bytes,
    chain: Ledger,
    lea_sign_pk,
) -> str:
    """Public check of a tracing verdict; needs no secrets.

    Recomputes the commitment the evidence actually authenticates, then
    compares it against the registration the claimed identity is bound
    to on the chain. Returns "framed" when both signatures verify but
    the commitments differ, "consistent" when they match.
    """
    if not signatures.verify(rsu_pk, sig_rt, req_bytes):
        raise InvalidEvidence("reporter signature does not verify")
    try:
        req = AuthRequest.decode(req_bytes)
    except WireError as exc:
        raise InvalidEvidence(f"unparseable request: {exc}") from exc
    _, ch_evidence = _recover_commitment(req, disclosed_d, curve.point_compress(rsu_pk))
    tx = chain.get(txid)
    if tx is None or not isinstance(tx.payload, Registration):
        raise InvalidEvidence("claimed transaction not found")
    message = _receipt_message(claimed_identity, tx.payload.ch_key, tx.payload.t_exp)
    if not signatures.verify(lea_sign_pk, tx.payload.sig, message):
        raise InvalidEvidence("registration receipt does not bind the claimed identity")
    # keys, not points: the identity compresses to 29 zero bytes, no key on the chain
    return "framed" if tx.payload.ch_key != curve.point_compress(ch_evidence) else "consistent"
