"""Curve signatures and hybrid public-key encryption.

Registration receipts and misbehavior reports are signed with ECDSA
over the same 224-bit group as the credentials. Identity blobs sent to
the authority are sealed with an ephemeral-Diffie-Hellman hybrid: an
ephemeral point, an XOF-derived keystream, and a MAC tag, so tampering
is detected at decryption (unlike the protocol's symmetric layer, this
ciphertext has no downstream hash check to lean on).

All randomness is drawn from the caller's RNG so that seeded runs are
reproducible end to end, signatures included.
"""

from __future__ import annotations

import hmac

from .curve import (
    GEN,
    Q,
    SCALAR_BYTES,
    rand_nonzero_scalar,
    scalar_mul,
    msm2,
    solve_y,
    has_even_y,
)
from .hashes import TAG_LEN, hybrid_keys, hybrid_mac, sig_digest
from .symmetric import sym_decrypt, sym_encrypt

SIG_LEN = 2 * SCALAR_BYTES  # r || s


class IntegrityError(Exception):
    """Sealed blob failed its authenticity check."""


def keygen_sig(rng):
    sk = rand_nonzero_scalar(rng)
    return sk, scalar_mul(GEN, sk)


keygen_enc = keygen_sig


def sign(sk: int, msg: bytes, rng) -> bytes:
    z = sig_digest(msg)
    while True:
        k = rand_nonzero_scalar(rng)
        pt = scalar_mul(GEN, k)
        r = pt[0] % Q
        if r == 0:
            continue
        s = pow(k, -1, Q) * (z + r * sk) % Q
        if s == 0:
            continue
        return r.to_bytes(SCALAR_BYTES, "big") + s.to_bytes(SCALAR_BYTES, "big")


def verify(pk, sig: bytes, msg: bytes) -> bool:
    """False on any malformed or forged signature; never raises."""
    if pk is None or len(sig) != SIG_LEN:
        return False
    r = int.from_bytes(sig[:SCALAR_BYTES], "big")
    s = int.from_bytes(sig[SCALAR_BYTES:], "big")
    if not (0 < r < Q and 0 < s < Q):
        return False
    z = sig_digest(msg)
    w = pow(s, -1, Q)
    pt = msm2(z * w % Q, r * w % Q, pk)
    return pt is not None and pt[0] % Q == r


def aenc(pk, msg: bytes, rng) -> bytes:
    """Seal msg to pk: ephemeral x (28) || tag (20) || ciphertext."""
    while True:
        eph = rand_nonzero_scalar(rng)
        eph_pub = scalar_mul(GEN, eph)
        if has_even_y(eph_pub):  # x-only encoding needs the even-y representative
            break
    shared = scalar_mul(pk, eph)
    ke, km = hybrid_keys(eph_pub, shared)
    ct = sym_encrypt(ke, msg, b"hybrid")
    tag = hybrid_mac(km, ct)
    return eph_pub[0].to_bytes(SCALAR_BYTES, "big") + tag + ct


def adec(sk: int, blob: bytes) -> bytes:
    if len(blob) < SCALAR_BYTES + TAG_LEN:
        raise IntegrityError("sealed blob too short")
    x = int.from_bytes(blob[:SCALAR_BYTES], "big")
    tag = blob[SCALAR_BYTES : SCALAR_BYTES + TAG_LEN]
    ct = blob[SCALAR_BYTES + TAG_LEN :]
    eph_pub = solve_y(x)
    if eph_pub is None:
        raise IntegrityError("ephemeral point not on curve")
    shared = scalar_mul(eph_pub, sk)
    ke, km = hybrid_keys(eph_pub, shared)
    expect = hybrid_mac(km, ct)
    if not hmac.compare_digest(expect, tag):
        raise IntegrityError("authentication tag mismatch")
    return sym_decrypt(ke, ct, b"hybrid")
