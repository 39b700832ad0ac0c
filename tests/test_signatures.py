import random

import pytest

from preimage_oracle import encode_preimage
from v2xauth.crypto import curve, hashes, signatures, symmetric


def test_sign_verify_round_trip():
    rng = random.Random(0x60)
    sk, pk = signatures.keygen_sig(rng)
    sig = signatures.sign(sk, b"registration receipt", rng)
    assert len(sig) == signatures.SIG_LEN
    assert signatures.verify(pk, sig, b"registration receipt")


def test_verify_rejects_any_flipped_byte():
    rng = random.Random(0x61)
    sk, pk = signatures.keygen_sig(rng)
    msg = b"m" * 40
    sig = signatures.sign(sk, msg, rng)
    for i in range(len(sig)):
        bad = bytearray(sig)
        bad[i] ^= 0x01
        assert not signatures.verify(pk, bytes(bad), msg)
    for i in range(len(msg)):
        bad_msg = bytearray(msg)
        bad_msg[i] ^= 0x01
        assert not signatures.verify(pk, sig, bytes(bad_msg))


def test_verify_rejects_wrong_key_and_garbage():
    rng = random.Random(0x62)
    sk, pk = signatures.keygen_sig(rng)
    _, other_pk = signatures.keygen_sig(rng)
    sig = signatures.sign(sk, b"msg", rng)
    assert not signatures.verify(other_pk, sig, b"msg")
    assert not signatures.verify(pk, b"", b"msg")
    assert not signatures.verify(pk, bytes(56), b"msg")
    assert not signatures.verify(None, sig, b"msg")


def test_signing_deterministic_under_seed():
    sk, _ = signatures.keygen_sig(random.Random(7))
    sig1 = signatures.sign(sk, b"x", random.Random(99))
    sig2 = signatures.sign(sk, b"x", random.Random(99))
    assert sig1 == sig2


def test_seal_round_trip():
    rng = random.Random(0x63)
    sk, pk = signatures.keygen_enc(rng)
    for size in (0, 1, 33, 400):
        msg = rng.randbytes(size)
        blob = signatures.aenc(pk, msg, rng)
        assert signatures.adec(sk, blob) == msg


def test_seal_tamper_detected():
    rng = random.Random(0x64)
    sk, pk = signatures.keygen_enc(rng)
    blob = bytearray(signatures.aenc(pk, b"identity payload", rng))
    step = max(1, len(blob) // 16)
    for i in range(0, len(blob), step):
        bad = bytearray(blob)
        bad[i] ^= 0x80
        with pytest.raises(signatures.IntegrityError):
            signatures.adec(sk, bytes(bad))


def test_seal_wrong_recipient_fails():
    rng = random.Random(0x65)
    sk1, pk1 = signatures.keygen_enc(rng)
    sk2, _ = signatures.keygen_enc(rng)
    blob = signatures.aenc(pk1, b"secret", rng)
    with pytest.raises(signatures.IntegrityError):
        signatures.adec(sk2, blob)
    assert signatures.adec(sk1, blob) == b"secret"


def _seal_with_ephemeral_field(pk_owner_sk, x_field: int, eph_pub, msg: bytes) -> bytes:
    """A blob whose ephemeral field is ``x_field`` and whose tag verifies
    for ``eph_pub``; built from the recipient's key, as no sender could."""
    shared = curve.scalar_mul(eph_pub, pk_owner_sk)
    keys = hashes.xof_bytes(encode_preimage(hashes.TAG_HYBRID_KDF, [b"keys", eph_pub, shared]), 2 * hashes.TAG_LEN)
    ke, km = keys[: hashes.TAG_LEN], keys[hashes.TAG_LEN :]
    ct = symmetric.sym_encrypt(ke, msg, b"hybrid")
    tag = hashes.xof_bytes(encode_preimage(hashes.TAG_HYBRID_KDF, [b"mac", km, ct]), hashes.TAG_LEN)
    return x_field.to_bytes(28, "big") + tag + ct


def test_seal_with_ephemeral_x_at_or_above_p_rejected():
    rng = random.Random(0x66)
    sk, _ = signatures.keygen_enc(rng)
    eph = curve.solve_y(3)
    honest = _seal_with_ephemeral_field(sk, 3, eph, b"identity payload")
    assert signatures.adec(sk, honest) == b"identity payload"
    # x + P names the same point mod P; its tag is made to verify for the
    # tuple the decoder would build from it, so only the range check stops it
    shifted = (3 + curve.P, eph[1])
    forged = _seal_with_ephemeral_field(sk, 3 + curve.P, shifted, b"identity payload")
    with pytest.raises(signatures.IntegrityError):
        signatures.adec(sk, forged)
