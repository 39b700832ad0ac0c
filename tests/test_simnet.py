import pytest

from v2xauth.simnet import scenarios
from v2xauth.simnet.engine import DeadlockDetected, ScenarioValidationError


def test_honest_scenario_confirms_both_sides():
    transcript = scenarios.run_scenario(scenarios.HONEST_SINGLE_DOMAIN)
    vn_keys = [r for r in transcript.events if r.get("event") == "session_key" and r["actor"] == "vn1"]
    rsu_keys = [r for r in transcript.events if r.get("event") == "session_key" and r["actor"] == "rsu1"]
    assert len(vn_keys) == len(rsu_keys) == 1
    assert vn_keys[0]["ks"] == rsu_keys[0]["ks"]


def test_same_seed_means_identical_transcripts():
    t1 = scenarios.run_scenario(scenarios.HONEST_SINGLE_DOMAIN)
    t2 = scenarios.run_scenario(scenarios.HONEST_SINGLE_DOMAIN)
    assert t1.to_text() == t2.to_text()
    t3 = scenarios.run_scenario(scenarios.HONEST_SINGLE_DOMAIN, seed=999)
    assert t3.to_text() != t1.to_text()


def test_replay_scenario_detected_exactly_once():
    transcript = scenarios.run_scenario(scenarios.REPLAY_ATTACK)
    assert transcript.count_events(event="reject", outcome="ReplayDetected") == 1


def test_replayed_ack_confirms_nothing_again():
    # the ACK is replayed after a rotation that revoked vn1 and dropped its session
    text = """
seed 11
node lea1 lea
node rsm1 rsm sync_delay_ms=1
node rsu1 rsu rsm=rsm1
node vn1 vn rsm=rsm1
link vn1 rsu1 latency_ms=2
at 0 register vn=vn1
at 1000 handover vn=vn1 rsu=rsu1
at 2000 rotate revoked=vn1
adversary capture kind=ACK nth=0 slot=a0
adversary replay slot=a0 delay_ms=1500
expect actor=rsu1 event=reject outcome=ReplayDetected count=1
"""
    transcript = scenarios.run_scenario(text)
    assert transcript.count_events(actor="rsu1", event="session_key", outcome="ok") == 1
    assert transcript.count_events(actor="rsu1", event="confirm", outcome="ok") == 1


def test_tamper_scenarios():
    scenarios.run_scenario(scenarios.TAMPER_REQ)
    scenarios.run_scenario(scenarios.TAMPER_REP)
    scenarios.run_scenario(scenarios.TAMPER_ACK)


def test_impersonation_without_secrets_rejected():
    scenarios.run_scenario(scenarios.impersonation_scenario())


def test_cross_session_splice_rejected():
    scenarios.run_scenario(scenarios.CROSS_SESSION_SPLICE)


def test_cross_domain_after_sync_succeeds():
    transcript = scenarios.run_scenario(scenarios.CROSS_DOMAIN)
    vn_ks = next(r["ks"] for r in transcript.events if r.get("event") == "session_key" and r["actor"] == "vn1")
    rsu_ks = next(r["ks"] for r in transcript.events if r.get("event") == "session_key" and r["actor"] == "rsu2")
    assert vn_ks == rsu_ks
    # wire sizes identical to the single-domain case
    sizes = {kind: len(payload) for _, _, _, kind, payload, note in transcript.messages if not note}
    assert sizes["REQ"] == 104 and sizes["REP"] == 88 and sizes["ACK"] == 20


def test_cross_domain_before_sync_rejected():
    scenarios.run_scenario(scenarios.CROSS_DOMAIN_BEFORE_SYNC)


def test_revocation_scenario():
    transcript = scenarios.run_scenario(scenarios.REVOCATION)
    # revoked vn1 and update-missing vn3 both fail their second handover
    assert transcript.count_events(event="reject", outcome="UnknownCredential") == 2
    assert transcript.count_events(actor="vn2", event="session_key", outcome="ok") == 2


def test_trace_scenario_recovers_identity():
    transcript = scenarios.run_scenario(scenarios.TRACE_AND_AUDIT)
    rec = next(r for r in transcript.events if r.get("event") == "trace")
    assert bytes.fromhex(rec["identity"]) == b"vn1".ljust(16, b"\x00")


def test_bad_txid_registration_rejected():
    scenarios.run_scenario(scenarios.REGISTRATION_BAD_TXID)


def test_unknown_corrupt_value_fails_validation():
    for value in ("sig", "nonsense"):
        text = scenarios.REGISTRATION_BAD_TXID.replace("corrupt=txid", f"corrupt={value}")
        with pytest.raises(ScenarioValidationError):
            scenarios.run_scenario(text)


def test_secure_link_script_fails_validation():
    with pytest.raises(ScenarioValidationError):
        scenarios.run_scenario(scenarios.SECURE_LINK_VIOLATION)


def test_unmet_expectation_raises_deadlock():
    text = scenarios.HONEST_SINGLE_DOMAIN + "expect actor=vn1 event=session_key outcome=ok count=5\n"
    with pytest.raises(DeadlockDetected):
        scenarios.run_scenario(text)


def test_identity_bytes_never_on_open_links():
    transcript = scenarios.run_scenario(scenarios.HONEST_SINGLE_DOMAIN)
    identity = b"vn1".ljust(16, b"\x00")
    for t, src, dst, kind, payload, note in transcript.messages:
        if kind in ("REQ", "REP", "ACK", "S_UPD"):
            assert identity not in payload


def test_parser_rejects_unknown_directives():
    with pytest.raises(ScenarioValidationError):
        scenarios.parse_scenario("frobnicate all the things\n")
