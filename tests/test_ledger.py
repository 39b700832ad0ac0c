import random

import pytest

from v2xauth import ledger as lg
from v2xauth.crypto import curve


def _pt(rng):
    return curve.scalar_mul(curve.GEN, curve.rand_nonzero_scalar(rng))


def _reg(rng, t_exp=10_000):
    return lg.Registration(sig=rng.randbytes(56), ch=_pt(rng), t_exp=t_exp)


def test_append_and_get_round_trip():
    rng = random.Random(0x80)
    chain = lg.Ledger()
    token = chain.mint_token("registration")
    payload = _reg(rng)
    txid = chain.append(payload, token, now=0)
    assert len(txid) == 32
    assert chain.get(txid).payload == payload


def test_duplicate_live_registration_rejected():
    rng = random.Random(0x81)
    chain = lg.Ledger()
    token = chain.mint_token("registration")
    payload = _reg(rng)
    chain.append(payload, token, now=0)
    with pytest.raises(lg.DuplicateRegistration):
        chain.append(lg.Registration(sig=rng.randbytes(56), ch=payload.ch, t_exp=10_000), token, now=1)


def test_live_duplicate_rejected_after_snapshot_restore():
    rng = random.Random(0x8A)
    chain = lg.Ledger()
    payload = _reg(rng)
    chain.append(payload, chain.mint_token("registration"), now=0)
    restored = lg.snapshot_load(lg.snapshot_dump(chain))
    token = restored.mint_token("registration")
    with pytest.raises(lg.DuplicateRegistration):
        restored.append(lg.Registration(sig=rng.randbytes(56), ch=payload.ch, t_exp=20_000), token, now=1)
    restored.append(lg.Registration(sig=rng.randbytes(56), ch=payload.ch, t_exp=20_000), token, now=10_000)


def test_expired_registration_can_be_replaced():
    rng = random.Random(0x82)
    chain = lg.Ledger()
    token = chain.mint_token("registration")
    payload = _reg(rng, t_exp=100)
    chain.append(payload, token, now=0)
    # expired at now=100: same commitment registers again
    chain.append(lg.Registration(sig=rng.randbytes(56), ch=payload.ch, t_exp=500), token, now=100)


def test_revoked_commitment_is_never_registered_again():
    rng = random.Random(0x8B)
    chain = lg.Ledger()
    reg_token = chain.mint_token("registration")
    payload = _reg(rng, t_exp=100)
    chain.append(payload, reg_token, now=0)
    chain.append(lg.Revocation(ch=payload.ch), chain.mint_token("revocation"), now=50)
    again = lg.Registration(sig=rng.randbytes(56), ch=payload.ch, t_exp=500)
    # expired, so not a duplicate: the revocation alone refuses it
    with pytest.raises(lg.RevokedRegistration):
        chain.append(again, reg_token, now=100)
    assert chain.height() == 2
    # the refusal survives a snapshot round trip; other commitments still register
    restored = lg.snapshot_load(lg.snapshot_dump(chain))
    token = restored.mint_token("registration")
    with pytest.raises(lg.RevokedRegistration):
        restored.append(again, token, now=100)
    restored.append(_reg(rng), token, now=100)
    assert restored.height() == 3


def test_writer_capability_enforced():
    rng = random.Random(0x83)
    chain = lg.Ledger()
    reg_token = chain.mint_token("registration")
    rev_token = chain.mint_token("revocation")
    foreign = lg.WriterToken("registration")
    with pytest.raises(lg.UnauthorizedWriter):
        chain.append(_reg(rng), foreign, now=0)
    with pytest.raises(lg.UnauthorizedWriter):
        chain.append(_reg(rng), rev_token, now=0)
    with pytest.raises(lg.UnauthorizedWriter):
        chain.append(lg.Revocation(ch=_pt(rng)), reg_token, now=0)


def test_content_addressing_flips_on_any_change():
    rng = random.Random(0x84)
    chain = lg.Ledger()
    token = chain.mint_token("registration")
    payload = _reg(rng)
    txid = chain.append(payload, token, now=0)
    assert chain.verify_inclusion(txid, payload)
    tampered = lg.Registration(sig=payload.sig, ch=payload.ch, t_exp=payload.t_exp + 1)
    assert not chain.verify_inclusion(txid, tampered)
    flip_sig = bytearray(payload.sig)
    flip_sig[0] ^= 1
    assert not chain.verify_inclusion(txid, lg.Registration(bytes(flip_sig), payload.ch, payload.t_exp))
    assert not chain.verify_inclusion(rng.randbytes(32), payload)


def test_view_sync_delay_and_convergence():
    rng = random.Random(0x85)
    chain = lg.Ledger()
    token = chain.mint_token("registration")
    fast = lg.LedgerView("n1", chain, sync_delay_ms=10)
    slow = lg.LedgerView("n2", chain, sync_delay_ms=200)
    payload = _reg(rng)
    chain.append(payload, token, now=1000)

    fast.sync_to(1010)
    slow.sync_to(1010)
    assert fast.find_by_ch(payload.ch_key) is not None
    assert slow.find_by_ch(payload.ch_key) is None  # not yet visible

    # after quiescence >= max delay, all views identical
    fast.sync_to(1200)
    slow.sync_to(1200)
    assert fast.applied_height == slow.applied_height == chain.height()
    assert slow.find_by_ch(payload.ch_key).txid == fast.find_by_ch(payload.ch_key).txid


def test_revocation_propagates_to_views():
    rng = random.Random(0x86)
    chain = lg.Ledger()
    reg_token = chain.mint_token("registration")
    rev_token = chain.mint_token("revocation")
    views = [lg.LedgerView(f"n{i}", chain, sync_delay_ms=i * 50) for i in range(3)]
    payload = _reg(rng)
    chain.append(payload, reg_token, now=0)
    chain.append(lg.Revocation(ch=payload.ch), rev_token, now=10)
    for v in views:
        v.sync_to(10 + 200)
        assert v.is_revoked(payload.ch_key)
        assert not v.is_revoked(curve.point_compress(_pt(rng)))


def test_append_only_prefix_property():
    rng = random.Random(0x87)
    chain = lg.Ledger()
    token = chain.mint_token("registration")
    snapshots = []
    for _ in range(5):
        chain.append(_reg(rng), token, now=0)
        snapshots.append([tx.txid for tx in chain.entries])
    for earlier, later in zip(snapshots, snapshots[1:]):
        assert later[: len(earlier)] == earlier
    heights = [tx.height for tx in chain.entries]
    assert heights == sorted(set(heights))


def test_snapshot_round_trip():
    rng = random.Random(0x88)
    chain = lg.Ledger()
    reg_token = chain.mint_token("registration")
    rev_token = chain.mint_token("revocation")
    reg = _reg(rng)
    chain.append(reg, reg_token, now=5)
    chain.append(lg.Revocation(ch=reg.ch), rev_token, now=9)
    text = lg.snapshot_dump(chain)
    restored = lg.snapshot_load(text)
    assert [tx.txid for tx in restored.entries] == [tx.txid for tx in chain.entries]
    assert restored.entries[0].payload == reg


def test_snapshot_rejects_tampered_content():
    rng = random.Random(0x89)
    chain = lg.Ledger()
    token = chain.mint_token("registration")
    chain.append(_reg(rng), token, now=5)
    lines = lg.snapshot_dump(chain).splitlines()
    height, txid_hex, payload_hex, ts = lines[0].split()
    payload = bytearray(bytes.fromhex(payload_hex))
    payload[1] ^= 1
    with pytest.raises(lg.LedgerError):
        lg.snapshot_load(f"{height} {txid_hex} {payload.hex()} {ts}\n")


def test_point_and_key_built_payloads_are_the_same_entry():
    rng = random.Random(0x8C)
    pt = _pt(rng)
    key = curve.point_compress(pt)
    sig = rng.randbytes(56)
    for by_point, by_key in (
        (lg.Registration(sig, pt, 77), lg.Registration.from_key(sig, key, 77)),
        (lg.Registration(sig=sig, ch=pt, t_exp=77), lg.Registration.from_key(sig=sig, ch_key=key, t_exp=77)),
        (lg.Revocation(pt), lg.Revocation.from_key(key)),
    ):
        assert by_point == by_key and hash(by_point) == hash(by_key)
        assert by_point.ch_key == by_key.ch_key == key
        assert by_point.to_bytes() == by_key.to_bytes()
        assert lg.compute_txid(by_point, 3) == lg.compute_txid(by_key, 3)
        # the key-built entry decodes its point on the first read of ch
        assert "ch" not in vars(by_key)
        assert by_key.ch == by_point.ch == pt
        assert vars(by_key)["ch"] == pt
    # appended either way, the two give the same txid
    txids = []
    for payload in (lg.Registration(sig, pt, 77), lg.Registration.from_key(sig, key, 77)):
        chain = lg.Ledger()
        txids.append(chain.append(payload, chain.mint_token("registration"), now=0))
    assert txids[0] == txids[1]


def _count_sqrt_calls(monkeypatch):
    calls = []
    root = curve.sqrt_mod_p
    monkeypatch.setattr(curve, "sqrt_mod_p", lambda n: calls.append(n) or root(n))
    return calls


def test_snapshot_load_takes_no_square_root(monkeypatch):
    rng = random.Random(0x8D)
    chain = lg.Ledger()
    reg_token, rev_token = chain.mint_token("registration"), chain.mint_token("revocation")
    for i in range(20):
        payload = _reg(rng)
        chain.append(payload, reg_token, now=i)
        if i % 4 == 0:
            chain.append(lg.Revocation(ch=payload.ch), rev_token, now=i)
    text = lg.snapshot_dump(chain)
    calls = _count_sqrt_calls(monkeypatch)
    restored = lg.snapshot_load(text)
    assert calls == []
    assert [tx.txid for tx in restored.entries] == [tx.txid for tx in chain.entries]
    assert restored.entries[0].payload.ch == chain.entries[0].payload.ch
    assert len(calls) == 1  # the first read of ch decodes it


def _corrupt_payloads(payload: bytes):
    """Malformed variants of a dumped payload: each breaks one rule."""
    kind = payload[0]
    at = 57 if kind == 1 else 1  # where the commitment starts
    key = payload[at : at + 29]
    off_x = next(x for x in range(1, 100) if curve.solve_y(x) is None)
    on_x = next(x for x in range(1, 100) if curve.solve_y(x) is not None)

    def with_key(new_key):
        return payload[:at] + new_key + payload[at + 29 :]

    return [
        payload[:-1],  # truncated
        payload + b"\x00",  # trailing byte
        b"",
        bytes([3]) + payload[1:],  # unknown kind
        bytes([2 if kind == 1 else 1]) + payload[1:],  # the other kind's layout
        with_key(b"\x05" + key[1:]),  # commitment prefix
        with_key(b"\x00" + key[1:]),
        with_key(bytes(29)),  # the identity
        with_key(b"\x02" + off_x.to_bytes(28, "big")),  # not on the curve
        with_key(b"\x02" + curve.P.to_bytes(28, "big")),  # x = P
        with_key(b"\x02" + (curve.P + on_x).to_bytes(28, "big")),  # x - P on the curve
        payload[:-1] + bytes([payload[-1] ^ 1]),  # content: the txid no longer matches
    ]


def test_snapshot_load_refuses_every_corrupted_field_with_a_ledger_error():
    rng = random.Random(0x8E)
    chain = lg.Ledger()
    reg = _reg(rng)
    chain.append(reg, chain.mint_token("registration"), now=5)
    chain.append(lg.Revocation(ch=reg.ch), chain.mint_token("revocation"), now=9)
    lines = lg.snapshot_dump(chain).splitlines()
    assert lg.snapshot_load("\n".join(lines)).height() == 2
    for index, line in enumerate(lines):
        height, txid_hex, payload_hex, ts = line.split()
        corrupted = [
            [height, txid_hex, payload_hex],  # a field missing
            [height, txid_hex, payload_hex, ts, ts],  # a field too many
            *[[bad, txid_hex, payload_hex, ts] for bad in ("x", "1.0", "0x0", str(index + 1), "-1")],
            *[[height, bad, payload_hex, ts] for bad in ("zz" * 32, txid_hex[:-1], txid_hex[:-2], "00" * 32)],
            *[[height, txid_hex, bad, ts] for bad in ("zz" + payload_hex[2:], payload_hex[:-1])],
            *[[height, txid_hex, bad.hex(), ts] for bad in _corrupt_payloads(bytes.fromhex(payload_hex))],
            *[[height, txid_hex, payload_hex, bad] for bad in ("x", "1.5", "9" * 5 + "e3")],
        ]
        for fields in corrupted:
            text = "\n".join(lines[:index] + [" ".join(fields)] + lines[index + 1 :])
            with pytest.raises(lg.LedgerError):
                lg.snapshot_load(text)
