"""Symmetric layer: length-preserving keystream cipher and the pseudonym
block permutation.

The protocol's size accounting needs ciphertext length == plaintext
length (S1's 16-byte nonce and 12-byte root hint must encrypt to a
28-byte field), and every symmetric key here (D, M, Ks) is used at most
once per exchange with a distinct context label, so a keystream
construction with no nonce or padding is the right fit. Integrity is not
this layer's job: the exchange authenticates via its hash checks, and
tampered ciphertext surfaces as a failed verification upstream.

Pseudo-identities are a single AES-128 block under a subkey derived
from the group secret component b, giving a 16-byte bijection so that
pID reveals nothing and decrypts to exactly one raw pseudonym. Which
library runs the block is ``curve``'s one backend decision: when
``curve.BACKEND`` is ``"libcrypto"`` it runs on the system
``libcrypto.so.3`` (``curve._aes_ecb_libcrypto``, on a cipher context
held in the calling thread's ``curve._Scratch``). When the library does
not load, lacks secp224r1 or fails any of ``curve``'s import-time known
answers (the FIPS-197 AES one among them), the block runs on the
``cryptography`` package instead, which is imported only then: its
extension maps a second OpenSSL, and importing it raised the peak
resident memory of ``import v2xauth.actors`` from 20 MB to 26 MB (Python
3.11, x86-64). A one-block call on a held context takes 4-6 us, against
12 us with a context of its own (thread CPU time, shared 2-core x86-64
host, Python 3.11); the verifier decrypts one pID and mints one per
request under the current epoch's subkey, so both stay held between
rotations.

``pid_encrypt`` takes k raw pseudonyms, whole 16-byte blocks, and
encrypts them in one ECB pass with one cipher context, on either
backend. ECB treats each block on its own, so the result is the k
one-block results concatenated. A group-key rotation mints its whole
fan-out that way.
"""

from __future__ import annotations

from functools import lru_cache

from . import curve
from .hashes import keystream, pid_kdf

PID_LEN = 16


def sym_encrypt(key: bytes, plaintext: bytes, context: bytes) -> bytes:
    """XOR with an XOF keystream bound to (key, context). Self-inverse.

    The XOR runs on two integers instead of byte by byte: 3.5-4.5 us a
    call on 28-64 bytes, keystream included, against 8-14 us byte by
    byte (thread CPU time on a shared 2-core x86-64 host, Python 3.11).
    """
    n = len(plaintext)
    if not n:
        return b""
    stream = keystream(key, context, n)
    return (int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


def sym_decrypt(key: bytes, ciphertext: bytes, context: bytes) -> bytes:
    return sym_encrypt(key, ciphertext, context)


# the group secret changes only at rotation, so the subkey is cached per epoch value
pid_cipher_key = lru_cache(maxsize=8)(pid_kdf)


_aes_block_libcrypto = curve._aes_ecb_libcrypto


@lru_cache(maxsize=8)
def _cryptography_cipher(key: bytes):
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    return Cipher(algorithms.AES(key), modes.ECB())


def _aes_block_cryptography(key: bytes, blocks: bytes, encrypt: bool) -> bytes:
    """The same blocks on the ``cryptography`` package: the fallback."""
    cipher = _cryptography_cipher(key)
    op = cipher.encryptor() if encrypt else cipher.decryptor()
    return op.update(blocks) + op.finalize()


_aes_block = _aes_block_libcrypto if curve.BACKEND == "libcrypto" else _aes_block_cryptography


def pid_encrypt(b: int, pds: bytes) -> bytes:
    """Encrypt k concatenated 16-byte raw pseudonyms into their k public
    pIDs, concatenated, in one ECB pass."""
    if len(pds) % PID_LEN:
        raise ValueError("raw pseudonyms must be whole 16-byte blocks")
    return _aes_block(pid_cipher_key(b), pds, True)


def pid_decrypt(b: int, pid: bytes) -> bytes:
    if len(pid) != PID_LEN:
        raise ValueError("pID must be 16 bytes")
    return _aes_block(pid_cipher_key(b), pid, False)
