"""Domain-separated hash family built on one extendable-output function.

Every keyed derivation in the protocol funnels through SHAKE-256 with a
one-byte domain tag followed by the arguments, each length-prefixed, so
no two call sites can ever collide on their encoded input. Tags 0-6 are
the published protocol hashes; higher tags are internal derivations
(pseudo-identity cipher subkey, symmetric keystream, hybrid-encryption
KDF/MAC, signature digest).

Output kinds:

* scalar hashes (h0, h2, the signature digest) produce an element of
  Z_q*, obtained by rejection-sampling 28-byte windows of the XOF stream;
* string hashes (h1, h3..h6) produce 20-byte tags (the security
  parameter, 160 bits).

Each function below lays out its own preimage field by field; no other
module knows the format. A type-dispatching encoder in the tests
(``tests/preimage_oracle.py``) is the oracle every layout is held to.
Measured as thread CPU time on a shared 2-core x86-64 host (Python
3.11), a tag hash takes 2-5 us a call and h2 6-8 us, against 6-11 us
through such an encoder; SHAKE-256 itself is about 2 us.
"""

from __future__ import annotations

import hashlib

from .curve import Q, SCALAR_BYTES, point_compress

TAG_LEN = 20  # 160-bit outputs

# published family
TAG_H0 = 0
TAG_H1 = 1
TAG_H2 = 2
TAG_H3 = 3
TAG_H4 = 4
TAG_H5 = 5
TAG_H6 = 6
# internal derivations
TAG_PID_KDF = 7
TAG_KEYSTREAM = 8
TAG_HYBRID_KDF = 9
TAG_SIG_DIGEST = 10


def xof_bytes(pre: bytes, n: int) -> bytes:
    """``n`` bytes of SHAKE-256 over a finished preimage."""
    return hashlib.shake_256(pre).digest(n)


_COUNTER_0 = (0).to_bytes(4, "big")


def hash_to_scalar(pre: bytes) -> int:
    """Element of Z_q* via rejection sampling over the XOF stream of ``pre``.

    q is within 2^-112 of 2^224, so the first 28-byte window is accepted
    except with negligible probability: only that window is squeezed, and
    ``_scalar_from_stream`` runs when it is rejected. SHAKE output is a
    prefix stream, so the result is the same (1.8 us against 2.7 us for
    224 bytes on a 190-byte preimage, shared 2-core x86-64, Python 3.11).
    """
    v = int.from_bytes(hashlib.shake_256(pre + _COUNTER_0).digest(SCALAR_BYTES), "big")
    if 0 < v < Q:
        return v
    return _scalar_from_stream(pre)


def _scalar_from_stream(pre: bytes) -> int:
    """The full rejection loop: eight windows per squeeze, then the counter
    re-seeds; the reference ``hash_to_scalar`` is held to."""
    counter = 0
    while True:
        stream = hashlib.shake_256(pre + counter.to_bytes(4, "big")).digest(SCALAR_BYTES * 8)
        for i in range(0, len(stream), SCALAR_BYTES):
            v = int.from_bytes(stream[i : i + SCALAR_BYTES], "big")
            if 0 < v < Q:
                return v
        counter += 1


# Fixed-layout preimages: each field is a 4-byte length, then a bytes
# argument verbatim, an int as a 28-byte scalar (OverflowError outside
# [0, 2^224)), a point compressed to 29 bytes (29 zero bytes for None)
# or a timestamp as a 4-byte word.
_SCALAR_LEN = SCALAR_BYTES.to_bytes(4, "big")
_POINT_LEN = (29).to_bytes(4, "big")
_TS_LEN = (4).to_bytes(4, "big")
_TAG_H0, _TAG_H1, _TAG_H2, _TAG_H3, _TAG_H4, _TAG_H5, _TAG_H6 = (bytes([t]) for t in range(TAG_H0, TAG_H6 + 1))
_TAG_PID_KDF, _TAG_KEYSTREAM, _TAG_HYBRID_KDF, _TAG_SIG_DIGEST = (
    bytes([t]) for t in (TAG_PID_KDF, TAG_KEYSTREAM, TAG_HYBRID_KDF, TAG_SIG_DIGEST)
)
# the hybrid KDF's two inputs start with a label field
_KEYS_LABEL = (4).to_bytes(4, "big") + b"keys"
_MAC_LABEL = (3).to_bytes(4, "big") + b"mac"


def _ts(t: int) -> bytes:
    return (t & 0xFFFFFFFF).to_bytes(4, "big")


def h0(identity: bytes, s: int) -> int:
    """Registration nonce->scalar hash: derives the initial hash randomizer."""
    pre = b"".join((
        _TAG_H0, len(identity).to_bytes(4, "big"), identity,
        _SCALAR_LEN, s.to_bytes(SCALAR_BYTES, "big"),
    ))
    return hash_to_scalar(pre)


def h1(pd: bytes, gk: int, b: int, pid: bytes) -> bytes:
    """Per-vehicle symmetric key from the raw pseudonym and group secret."""
    pre = b"".join((
        _TAG_H1, len(pd).to_bytes(4, "big"), pd,
        _SCALAR_LEN, gk.to_bytes(SCALAR_BYTES, "big"),
        _SCALAR_LEN, b.to_bytes(SCALAR_BYTES, "big"),
        len(pid).to_bytes(4, "big"), pid,
    ))
    return hashlib.shake_256(pre).digest(TAG_LEN)


def h2(pid: bytes, beta: int, a_pt, s1: bytes, d: bytes, rsu_pk, t1: int) -> int:
    """Challenge scalar binding the whole request to the target verifier key."""
    pre = b"".join((
        _TAG_H2, len(pid).to_bytes(4, "big"), pid,
        _SCALAR_LEN, beta.to_bytes(SCALAR_BYTES, "big"),
        _POINT_LEN, point_compress(a_pt),
        len(s1).to_bytes(4, "big"), s1,
        len(d).to_bytes(4, "big"), d,
        _POINT_LEN, point_compress(rsu_pk),
        _TS_LEN, _ts(t1),
    ))
    return hash_to_scalar(pre)


def h3(ch_key: bytes, d: bytes, beta: int, t1: int) -> bytes:
    """Shared secret M: the commitment point's 29-byte compressed form
    (which the roadside unit already holds as its ledger key), current
    key and the vehicle nonce."""
    pre = b"".join((
        _TAG_H3, _POINT_LEN, ch_key,
        len(d).to_bytes(4, "big"), d,
        _SCALAR_LEN, beta.to_bytes(SCALAR_BYTES, "big"),
        _TS_LEN, _ts(t1),
    ))
    return hashlib.shake_256(pre).digest(TAG_LEN)


def h4(beta_rsu: int, m_secret: bytes, t2: int) -> bytes:
    """Session key derivation."""
    pre = b"".join((
        _TAG_H4, _SCALAR_LEN, beta_rsu.to_bytes(SCALAR_BYTES, "big"),
        len(m_secret).to_bytes(4, "big"), m_secret,
        _TS_LEN, _ts(t2),
    ))
    return hashlib.shake_256(pre).digest(TAG_LEN)


def h5(s2: bytes, beta_rsu: int, pid_new: bytes, d_new: bytes, m_secret: bytes, ks: bytes, t2: int) -> bytes:
    """Verifier-side key-confirmation tag."""
    pre = b"".join((
        _TAG_H5, len(s2).to_bytes(4, "big"), s2,
        _SCALAR_LEN, beta_rsu.to_bytes(SCALAR_BYTES, "big"),
        len(pid_new).to_bytes(4, "big"), pid_new,
        len(d_new).to_bytes(4, "big"), d_new,
        len(m_secret).to_bytes(4, "big"), m_secret,
        len(ks).to_bytes(4, "big"), ks,
        _TS_LEN, _ts(t2),
    ))
    return hashlib.shake_256(pre).digest(TAG_LEN)


def h6(m_secret: bytes, ks: bytes, req: bytes, rep: bytes) -> bytes:
    """Final acknowledgement over the whole transcript."""
    pre = b"".join((
        _TAG_H6, len(m_secret).to_bytes(4, "big"), m_secret,
        len(ks).to_bytes(4, "big"), ks,
        len(req).to_bytes(4, "big"), req,
        len(rep).to_bytes(4, "big"), rep,
    ))
    return hashlib.shake_256(pre).digest(TAG_LEN)


def keystream(key: bytes, context: bytes, n: int) -> bytes:
    """``n`` keystream bytes for the symmetric cipher, bound to (key, context)."""
    pre = b"".join((_TAG_KEYSTREAM, len(key).to_bytes(4, "big"), key, len(context).to_bytes(4, "big"), context))
    return hashlib.shake_256(pre).digest(n)


def sig_digest(msg: bytes) -> int:
    """Scalar digest of a message for signing and verification."""
    return hash_to_scalar(_TAG_SIG_DIGEST + len(msg).to_bytes(4, "big") + msg)


def hybrid_keys(eph_pub, shared) -> "tuple[bytes, bytes]":
    """Hybrid encryption's (cipher key, MAC key) from the ephemeral and shared points."""
    pre = b"".join((
        _TAG_HYBRID_KDF, _KEYS_LABEL,
        _POINT_LEN, point_compress(eph_pub),
        _POINT_LEN, point_compress(shared),
    ))
    material = xof_bytes(pre, 2 * TAG_LEN)
    return material[:TAG_LEN], material[TAG_LEN:]


def hybrid_mac(km: bytes, ct: bytes) -> bytes:
    """Hybrid encryption's tag over the ciphertext under the MAC key."""
    pre = b"".join((_TAG_HYBRID_KDF, _MAC_LABEL, len(km).to_bytes(4, "big"), km, len(ct).to_bytes(4, "big"), ct))
    return xof_bytes(pre, TAG_LEN)


def pid_kdf(b: int) -> bytes:
    """128-bit AES subkey for the pseudonym permutation, derived from b."""
    return xof_bytes(_TAG_PID_KDF + _SCALAR_LEN + b.to_bytes(SCALAR_BYTES, "big"), 16)
