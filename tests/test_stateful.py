"""Stateful checks of the ledger's duplicate index, the RSU's session
table and the RSU's replay cache, driven by Hypothesis rule-based state
machines.

The ledger machine appends registrations and revocations at times that
may go backwards and round-trips the log through a snapshot; the full
scan the ledger used before it kept an index is the oracle, and a
revoked commitment is never registered again. Beside it, a node's
``LedgerView`` with a drawn sync delay follows a clock that only moves
forward: after each sync its lookups agree with the longest prefix of
the log whose entries are all visible at that time, and its applied
height never decreases, across snapshot reloads too. The RSU machine runs
handovers (confirmed or not), revocations, rotations and a clock that
passes the fleet's registration expiry on one roadside unit, and holds
its verdicts and session table to a model of the latest confirmed
session per live commitment. The replay-cache machine records (pID, T1)
keys on a clock that moves by steps around twice the freshness window,
and holds the cache to a model of the keys seen within that horizon.
"""

import copy
import functools
import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from v2xauth import actors, wire
from v2xauth import ledger as lg
from v2xauth.crypto import curve

# a few commitments, so that the same one is registered again and again
POINTS = [curve.GEN]
for _ in range(3):
    POINTS.append(curve.point_add(POINTS[-1], curve.GEN))
KEYS = [curve.point_compress(pt) for pt in POINTS]
# only these may be revoked, so the others keep exercising the duplicate check
REVOCABLE = st.integers(2, len(POINTS) - 1)
TIMES = st.integers(min_value=0, max_value=120)
FRESHNESS = actors.FRESHNESS_WINDOW_MS


def oracle_live_registration(entries, ch_key: bytes, now: int):
    """The full scan: the first registration of ``ch_key`` live at ``now``."""
    for tx in entries:
        if isinstance(tx.payload, lg.Registration) and tx.payload.ch_key == ch_key:
            if tx.payload.t_exp > now:
                return tx
    return None


def oracle_revoked(entries, ch_key: bytes) -> bool:
    """The full scan: some revocation of ``ch_key`` is in the log."""
    return any(
        isinstance(tx.payload, lg.Revocation) and tx.payload.ch_key == ch_key for tx in entries
    )


def oracle_visible_height(entries, delay: int, now: int) -> int:
    """The longest prefix of the log whose entries are all visible at
    ``now`` to a node that sees each entry ``delay`` ms after its timestamp."""
    height = 0
    while height < len(entries) and entries[height].timestamp + delay <= now:
        height += 1
    return height


def oracle_view(entries):
    """(ch key -> last registration tx, revoked keys) over ``entries``."""
    index, revoked = {}, set()
    for tx in entries:
        if isinstance(tx.payload, lg.Registration):
            index[tx.payload.ch_key] = tx
        else:
            revoked.add(tx.payload.ch_key)
    return index, revoked


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.rng = random.Random(0x5EED)
        self.view = None
        self._adopt(lg.Ledger())

    def _adopt(self, ledger):
        self.ledger = ledger
        self.reg_token = ledger.mint_token("registration")
        self.rev_token = ledger.mint_token("revocation")
        if self.view is not None:
            # a node rebuilt on the new ledger catches up to the same clock
            view = lg.LedgerView("node", ledger, sync_delay_ms=self.view.sync_delay_ms)
            view.sync_to(self.clock)
            self.view = view
            self._check_view()

    @initialize(delay=st.integers(0, 60))
    def open_view(self, delay):
        self.view = lg.LedgerView("node", self.ledger, sync_delay_ms=delay)
        self.clock = 0  # the view's clock only moves forward
        self.synced_height = 0

    @rule(step=st.integers(0, 40))
    def sync(self, step):
        self.clock += step
        self.view.sync_to(self.clock)
        assert self.view.applied_height == oracle_visible_height(self.ledger.entries, self.view.sync_delay_ms, self.clock)
        self._check_view()

    def _check_view(self):
        height = self.view.applied_height
        assert height >= self.synced_height
        self.synced_height = height
        index, revoked = oracle_view(self.ledger.entries[:height])
        for key in KEYS:
            assert self.view.find_by_ch(key) is index.get(key)
            assert self.view.is_revoked(key) == (key in revoked)

    @rule(i=st.integers(0, len(POINTS) - 1), now=TIMES, t_exp=TIMES)
    def register(self, i, now, t_exp):
        revoked = oracle_revoked(self.ledger.entries, KEYS[i])
        live = oracle_live_registration(self.ledger.entries, KEYS[i], now) is not None
        payload = lg.Registration(sig=self.rng.randbytes(56), ch=POINTS[i], t_exp=t_exp)
        height = self.ledger.height()
        if revoked or live:
            with pytest.raises(lg.RevokedRegistration if revoked else lg.DuplicateRegistration):
                self.ledger.append(payload, self.reg_token, now)
            assert self.ledger.height() == height
        else:
            txid = self.ledger.append(payload, self.reg_token, now)
            assert self.ledger.get(txid).payload == payload

    @rule(i=REVOCABLE, now=TIMES)
    def revoke(self, i, now):
        self.ledger.append(lg.Revocation(ch=POINTS[i]), self.rev_token, now)

    @rule(now=TIMES)
    def snapshot_round_trip(self, now):
        before = [tx.txid for tx in self.ledger.entries]
        self._adopt(lg.snapshot_load(lg.snapshot_dump(self.ledger)))
        assert [tx.txid for tx in self.ledger.entries] == before
        for i, key in enumerate(KEYS):
            payload = lg.Registration(sig=bytes(56), ch=POINTS[i], t_exp=now + 1)
            if oracle_revoked(self.ledger.entries, key):
                with pytest.raises(lg.RevokedRegistration):
                    self.ledger.append(payload, self.reg_token, now)
            elif oracle_live_registration(self.ledger.entries, key, now) is not None:
                with pytest.raises(lg.DuplicateRegistration):
                    self.ledger.append(payload, self.reg_token, now)
        assert self.ledger.height() == len(before)

    @invariant()
    def index_agrees_with_the_scan(self):
        for key in KEYS:
            for now in range(0, 122, 11):
                expected = oracle_live_registration(self.ledger.entries, key, now) is not None
                assert (self.ledger._live_registration(key, now) is not None) == expected

    @invariant()
    def view_holds_a_prefix_of_the_log(self):
        self._check_view()


FLEET = 3
DAY_MS = 24 * 3600 * 1000


@functools.lru_cache(maxsize=1)
def _registered_fleet():
    """One registered fleet, built once; every example works on a copy."""
    master = random.Random(0x5EEE)
    lea = actors.Authority(random.Random(master.random()), lg.Ledger())
    rsm = actors.RegionManager(lea, random.Random(master.random()), "rsm1")
    rsu = actors.RoadsideUnit(rsm, random.Random(master.random()), "rsu1")
    fleet = []
    for i in range(FLEET):
        vn = actors.Vehicle(f"VIN-{i:012d}".encode(), random.Random(master.random()), f"vn{i}")
        actors.register_vehicle(vn, rsm, lea, now=0)
        fleet.append(vn)
    return lea, rsm, rsu, fleet


class RsuSessionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lea, self.rsm, self.rsu, self.fleet = copy.deepcopy(_registered_fleet())
        self.now = 1000
        self.t_exp = actors.REGISTRATION_LIFETIME_MS  # the whole fleet registered at 0
        assert all(vn.credential.t_exp == self.t_exp for vn in self.fleet)
        self.confirmed: set = set()  # every commitment ever confirmed
        self.held: dict = {}  # model of rsu.sessions: ch -> latest confirmed ctx
        self.revoked: set = set()
        self.stranded: set = set()  # vehicles left on a group secret the RSU no longer holds

    @initialize()
    def confirm_every_vehicle(self):
        # otherwise an early rotation strands the whole fleet, and later
        # rotations have no session to update or drop
        for v in range(FLEET):
            self.handover(v, True)

    def _tick(self):
        self.now += 10
        return self.now

    @rule(v=st.integers(0, FLEET - 1), confirm=st.booleans())
    def handover(self, v, confirm):
        vn = self.fleet[v]
        ch = vn.credential.commitment
        if not vn.credential.pool:
            vn.refill_pool()
        now = self._tick()
        expired = now >= self.t_exp
        if expired:
            with pytest.raises(actors.ExpiredWindow):
                vn.start_handover(self.rsu.sign_pk, now)
            # lift the vehicle's own pre-check so the RSU sees the request
            vn.credential.t_exp = now + 1
        try:
            request, vn_ctx = vn.start_handover(self.rsu.sign_pk, now)
        finally:
            vn.credential.t_exp = self.t_exp
        for rejected, verdict in (
            (v in self.stranded, actors.UnknownCredential),
            (ch in self.revoked, actors.RevokedCredential),
            (expired, actors.ExpiredRegistration),
        ):
            if rejected:
                with pytest.raises(verdict):
                    self.rsu.handle_request(request.encode(), now)
                return
        reply, rsu_ctx = self.rsu.handle_request(request.encode(), now)
        ack, ks = vn.handle_reply(vn_ctx, reply.encode(), now)
        if confirm:
            self.rsu.handle_ack(rsu_ctx, ack.encode(), now)
            vn.sessions[self.rsu.node_id] = vn_ctx
            self.confirmed.add(ch)
            self.held[ch] = rsu_ctx
            assert rsu_ctx.ks == ks

    @rule(v=st.integers(0, FLEET - 1))
    def revoke(self, v):
        ch = self.fleet[v].credential.commitment
        if ch not in self.revoked:
            self.rsm.revoke(ch, self._tick())
            self.revoked.add(ch)

    @rule(days=st.integers(1, 20))
    def advance_clock(self, days):
        """Move the clock by whole days; a few moves pass the fleet's
        T_Exp, 30 days after registration."""
        self.now += days * DAY_MS

    @rule()
    def rotate(self):
        now = self._tick()
        # sessions of revoked or expired commitments are dropped, not updated
        if now >= self.t_exp:
            expected = {}
        else:
            expected = {ch: ctx for ch, ctx in self.held.items() if ch not in self.revoked}
        epoch, updates = actors.rotate_group_key(self.lea, [self.rsm], [self.rsu], [], now)
        minted = [ctx.ch for _, ctx, _ in updates]
        assert len(minted) == len(set(minted)) == len(expected)
        assert all(expected[ctx.ch] is ctx for _, ctx, _ in updates)
        self.held = expected
        update_for = {ctx.ch: upd for _, ctx, upd in updates}
        for v, vn in enumerate(self.fleet):
            upd = update_for.get(vn.credential.commitment)
            if upd is None:
                self.stranded.add(v)
            elif v not in self.stranded:
                vn.apply_update(upd, vn.sessions[self.rsu.node_id].ks, epoch, now)

    @invariant()
    def sessions_match_the_model(self):
        assert len(self.rsu.sessions) <= len(self.confirmed)
        assert self.rsu.sessions.keys() == self.held.keys()
        for ch, ctx in self.rsu.sessions.items():
            assert ctx is self.held[ch] and ctx.established and ctx.ch == ch


PIDS = [bytes([i]) * wire.PID_LEN for i in range(1, 5)]


@functools.lru_cache(maxsize=1)
def _roadside_unit():
    master = random.Random(0x5EEF)
    lea = actors.Authority(random.Random(master.random()), lg.Ledger())
    rsm = actors.RegionManager(lea, random.Random(master.random()), "rsm1")
    return actors.RoadsideUnit(rsm, random.Random(master.random()), "rsu1")


class ReplayCacheMachine(RuleBasedStateMachine):
    """A recorded (pID, T1) is refused as a replay for twice the freshness
    window; after the next record the cache holds no older key."""

    def __init__(self):
        super().__init__()
        self.rsu = copy.deepcopy(_roadside_unit())
        self.window = self.rsu.freshness_ms
        self.horizon = 2 * self.window
        self.now = 10 * self.horizon
        self.last_record = None
        self.seen: dict = {}  # (pid, wrapped t1) -> time of the latest record
        self.junk = random.Random(0x5EF0).randbytes(wire.REQ_LEN - wire.PID_LEN - wire.TS_LEN)

    def _held(self) -> set:
        """The keys the cache must hold: those seen within the horizon of
        the latest record (expiry runs when a key is recorded)."""
        if self.last_record is None:
            return set()
        return {key for key, at in self.seen.items() if self.last_record - at <= self.horizon}

    @rule(ms=st.one_of(st.integers(0, 3 * FRESHNESS), st.sampled_from([1, 2 * FRESHNESS, 2 * FRESHNESS + 1])))
    def advance_clock(self, ms):
        self.now += ms

    @rule(p=st.integers(0, len(PIDS) - 1), skew=st.integers(-FRESHNESS, FRESHNESS))
    def record(self, p, skew):
        # a verified request's T1 lies within the freshness window of now
        t1 = self.now + skew
        self.rsu._record_seen(PIDS[p], t1, self.now)
        self.seen[(PIDS[p], wire.ts_wrap(t1))] = self.now
        self.last_record = self.now
        assert self.rsu._replay_cache.keys() == self._held()

    @rule(data=st.data())
    def replay(self, data):
        if not self.seen:
            return
        pid, t1 = data.draw(st.sampled_from(sorted(self.seen)))
        replayed = (pid, t1) in self._held()
        if self.now - self.seen[(pid, t1)] <= self.horizon:
            assert replayed
        if replayed:
            with pytest.raises(actors.ReplayDetected):
                self.rsu._check_replay(pid, t1)
        else:
            self.rsu._check_replay(pid, t1)
        # the same key on request bytes, checked before the decode
        request = pid + self.junk + t1.to_bytes(wire.TS_LEN, "big")
        if abs(wire.ts_delta(self.now, t1)) > self.window:
            expected = actors.StaleTimestamp
        elif replayed:
            expected = actors.ReplayDetected
        else:
            expected = (wire.WireError, actors.UnknownCredential)
        with pytest.raises(expected):
            self.rsu.handle_request(request, self.now)

    @invariant()
    def cache_holds_the_model(self):
        assert self.rsu._replay_cache.keys() == self._held()


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)

TestRsuSessionMachine = RsuSessionMachine.TestCase
TestRsuSessionMachine.settings = settings(
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestReplayCacheMachine = ReplayCacheMachine.TestCase
TestReplayCacheMachine.settings = settings(max_examples=60, stateful_step_count=50, deadline=None)
