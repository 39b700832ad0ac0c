import random

import pytest

from curve_oracle import curve_without_libcrypto
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


def test_verify_returns_false_for_an_off_curve_key():
    rng = random.Random(0x65)
    sk, pk = signatures.keygen_sig(rng)
    sig = signatures.sign(sk, b"msg", rng)
    assert signatures.verify(pk, sig, b"msg")
    for off in ((pk[0], (pk[1] + 1) % curve.P), (pk[0], 0), (pk[0] + curve.P, pk[1]), (-pk[0], pk[1])):
        assert not curve.is_on_curve(off)
        assert signatures.verify(off, sig, b"msg") is False


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


def test_seal_is_one_draw_and_two_scalar_mul_calls(monkeypatch):
    # operation counts: one eph per seal (odd y is sent as is), then
    # eph*G fixed-base and eph*pk variable-base, both through scalar_mul
    calls = []

    def counted(pt, s):
        calls.append(pt)
        return curve.scalar_mul(pt, s)

    monkeypatch.setattr(signatures, "scalar_mul", counted)
    rng = random.Random(0x67)
    sk, pk = signatures.keygen_enc(rng)
    odd = 0
    for n in range(1000):
        msg = rng.randbytes(n % 50)
        twin = random.Random()
        twin.setstate(rng.getstate())
        calls.clear()
        blob = signatures.aenc(pk, msg, rng)
        assert calls == [curve.GEN, pk]
        eph = curve.rand_nonzero_scalar(twin)
        assert rng.getstate() == twin.getstate()
        assert blob[: signatures.EPH_LEN] == b"".join(c.to_bytes(28, "big") for c in curve.scalar_mul(curve.GEN, eph))
        assert len(blob) == signatures.EPH_LEN + hashes.TAG_LEN + len(msg)
        assert signatures.adec(sk, blob) == msg
        odd += blob[signatures.EPH_LEN - 1] & 1
    assert 400 < odd < 600  # both parities are sealed


def _seal_with_ephemeral_field(sk, field, msg: bytes) -> bytes:
    """A blob whose ephemeral field is ``field`` = (x, y), 28 bytes each,
    built from the recipient's key, as no sender could. Its tag verifies
    for the point a decoder would build had it reduced the field mod P
    (libcrypto reduces an unreduced coordinate): so only the range check
    stops such a blob. An off-curve field gets a tag over the identity."""
    reduced = (field[0] % curve.P, field[1] % curve.P)
    shared = curve.scalar_mul(reduced, sk) if curve.is_on_curve(reduced) else None
    keys = hashes.xof_bytes(encode_preimage(hashes.TAG_HYBRID_KDF, [b"keys", field, shared]), 2 * hashes.TAG_LEN)
    ke, km = keys[: hashes.TAG_LEN], keys[hashes.TAG_LEN :]
    ct = symmetric.sym_encrypt(ke, msg, b"hybrid")
    tag = hashes.xof_bytes(encode_preimage(hashes.TAG_HYBRID_KDF, [b"mac", km, ct]), hashes.TAG_LEN)
    return field[0].to_bytes(28, "big") + field[1].to_bytes(28, "big") + tag + ct


# a point with y = 1, so that y + P still fits in 28 bytes: x is the one
# root of x^3 - 3x + b - 1 over F_P, found offline by gcd(X^P - X, f)
SMALL_Y_POINT = (0x3B5889352DDF7468BF8C0729212AA1B2A3FCB1A844B8BE91ABB753D5, 1)


def test_seal_with_an_ephemeral_coordinate_at_or_above_p_rejected():
    rng = random.Random(0x66)
    sk, _ = signatures.keygen_enc(rng)
    small_x = curve.solve_y(3)
    for eph, shifted in ((small_x, (3 + curve.P, small_x[1])), (SMALL_Y_POINT, (SMALL_Y_POINT[0], 1 + curve.P))):
        assert curve.is_on_curve(eph) and shifted[0] < 2**224 and shifted[1] < 2**224
        honest = _seal_with_ephemeral_field(sk, eph, b"identity payload")
        assert signatures.adec(sk, honest) == b"identity payload"
        # the shifted field names the same point mod P, and its tag verifies
        # for that point: only the range check stops it
        with pytest.raises(signatures.IntegrityError, match="not on curve"):
            signatures.adec(sk, _seal_with_ephemeral_field(sk, shifted, b"identity payload"))


@pytest.mark.parametrize("backend", ["libcrypto", "pure-python"])
def test_adec_validates_the_ephemeral_point_before_any_multiplication(backend, monkeypatch):
    if backend == "libcrypto":
        if curve._LIBCRYPTO is None:
            pytest.skip("libcrypto did not load")
        scalar_mul = curve.scalar_mul
    else:
        fallback = curve_without_libcrypto(monkeypatch)
        assert fallback.scalar_mul is fallback.ladder_mul
        scalar_mul = fallback.scalar_mul
    calls = []

    def counted(pt, s):
        calls.append(pt)
        return scalar_mul(pt, s)

    rng = random.Random(0x68)
    sk, pk = signatures.keygen_enc(rng)
    msg = b"identity payload"
    honest = signatures.aenc(pk, msg, rng)
    monkeypatch.setattr(signatures, "scalar_mul", counted)
    x, y = (int.from_bytes(honest[i : i + 28], "big") for i in (0, 28))
    rest = honest[signatures.EPH_LEN :]

    def with_field(fx, fy):
        return fx.to_bytes(28, "big") + fy.to_bytes(28, "big") + rest

    assert signatures.adec(sk, honest) == msg and calls == [(x, y)]
    small_x = curve.solve_y(3)
    refused = [
        with_field(x, y + 1),
        _seal_with_ephemeral_field(sk, (3 + curve.P, small_x[1]), msg),
        _seal_with_ephemeral_field(sk, (SMALL_Y_POINT[0], 1 + curve.P), msg),
        with_field(0, 0),
        honest[: signatures.EPH_LEN + hashes.TAG_LEN - 1],
        honest[: signatures.EPH_LEN],
        b"",
    ]
    for blob in refused:
        calls.clear()
        with pytest.raises(signatures.IntegrityError):
            signatures.adec(sk, blob)
        assert calls == [], blob.hex()
    # -E is on the curve, so it is multiplied once and fails at the MAC
    calls.clear()
    with pytest.raises(signatures.IntegrityError, match="tag mismatch"):
        signatures.adec(sk, with_field(x, curve.P - y))
    assert calls == [(x, curve.P - y)]
