"""Curve signatures and hybrid public-key encryption.

Registration receipts and misbehavior reports are signed with ECDSA
over the same 224-bit group as the credentials. Identity blobs sent to
the authority are sealed with an ephemeral-Diffie-Hellman hybrid: an
ephemeral point, an XOF-derived keystream, and a MAC tag, so tampering
is detected at decryption (unlike the protocol's symmetric layer, this
ciphertext has no downstream hash check to lean on).

A sealed blob is ``x || y || tag || ct``: the ephemeral point E in the
uncompressed form of SEC 1 v2 (section 2.3.3) without its 0x04 prefix,
two 28-byte big-endian coordinates, then the 20-byte tag and the
ciphertext, so a blob is at least 76 bytes. Sending y costs 28 bytes on
a one-time registration message and saves the authority a field square
root, and the sender a redraw of its ephemeral key until y is even.
``adec`` validates E instead of decoding it, as the public-key
validation of Antipa, Brown, Menezes, Struik and Vanstone (PKC 2003)
prescribes: both coordinates in [0, P) and the curve equation, one
``is_on_curve`` call. P-224 has cofactor 1 and (0, 0) is not on it, so
a point that passes lies in the prime-order group and is not the
identity. A blob that fails raises ``IntegrityError`` before
``scalar_mul`` sees E, on either backend. The KDF hashes E compressed,
with its parity prefix, so E and -E derive different keys.

Every multiplication here goes through ``scalar_mul``, native when
``curve``'s libcrypto loaded: the key pairs and the ECDSA nonce (fixed-
base), the seal's eph*G (fixed-base) and eph*pk (variable-base), and
``adec``'s sk*E (variable-base). ``verify`` is one ``msm2``. Native and
ladder give the same points, so a seeded seal is the same bytes on
either path.

All randomness is drawn from the caller's RNG so that seeded runs are
reproducible end to end, signatures included.
"""

from __future__ import annotations

import hmac

from .curve import (
    COORD_BYTES,
    GEN,
    Q,
    SCALAR_BYTES,
    is_on_curve,
    rand_nonzero_scalar,
    scalar_mul,
    msm2,
)
from .hashes import TAG_LEN, hybrid_keys, hybrid_mac, sig_digest
from .symmetric import sym_decrypt, sym_encrypt

SIG_LEN = 2 * SCALAR_BYTES  # r || s
EPH_LEN = 2 * COORD_BYTES  # x || y of a sealed blob's ephemeral point


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
    try:
        pt = msm2(z * w % Q, r * w % Q, pk)
    except ValueError:  # pk is not on the curve
        return False
    return pt is not None and pt[0] % Q == r


def aenc(pk, msg: bytes, rng) -> bytes:
    """Seal msg to pk: ephemeral x (28) || y (28) || tag (20) || ciphertext."""
    eph = rand_nonzero_scalar(rng)
    eph_pub = scalar_mul(GEN, eph)
    shared = scalar_mul(pk, eph)
    ke, km = hybrid_keys(eph_pub, shared)
    ct = sym_encrypt(ke, msg, b"hybrid")
    tag = hybrid_mac(km, ct)
    return eph_pub[0].to_bytes(COORD_BYTES, "big") + eph_pub[1].to_bytes(COORD_BYTES, "big") + tag + ct


def adec(sk: int, blob: bytes) -> bytes:
    if len(blob) < EPH_LEN + TAG_LEN:
        raise IntegrityError("sealed blob too short")
    eph_pub = (int.from_bytes(blob[:COORD_BYTES], "big"), int.from_bytes(blob[COORD_BYTES:EPH_LEN], "big"))
    if not is_on_curve(eph_pub):
        raise IntegrityError("ephemeral point not on curve")
    tag = blob[EPH_LEN : EPH_LEN + TAG_LEN]
    ct = blob[EPH_LEN + TAG_LEN :]
    shared = scalar_mul(eph_pub, sk)
    ke, km = hybrid_keys(eph_pub, shared)
    expect = hybrid_mac(km, ct)
    if not hmac.compare_digest(expect, tag):
        raise IntegrityError("authentication tag mismatch")
    return sym_decrypt(ke, ct, b"hybrid")
