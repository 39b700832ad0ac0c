"""Symmetric layer: length-preserving keystream cipher and the pseudonym
block permutation.

The protocol's size accounting needs ciphertext length == plaintext
length (a 28-byte nonce must encrypt to a 28-byte field), and every
symmetric key here (D, M, Ks) is used at most once per exchange with a
distinct context label, so a keystream construction with no nonce or
padding is the right fit. Integrity is not this layer's job: the
exchange authenticates via its hash checks, and tampered ciphertext
surfaces as a failed verification upstream.

Pseudo-identities are a single AES-128 block under a subkey derived
from the group secret component b, giving a 16-byte bijection so that
pID reveals nothing and decrypts to exactly one raw pseudonym. The block
runs on the system ``libcrypto.so.3`` that ``curve`` already opened
(``EVP_aes_128_ecb`` through ``ctypes``), the same library ``hashlib``
maps. When that handle did not load, or fails the FIPS-197 known answer
at import, the block runs on the ``cryptography`` package instead, which
is imported only then: its extension maps a second OpenSSL, and
importing it raised the peak resident memory of ``import v2xauth.actors``
from 20 MB to 26 MB (Python 3.11, x86-64).

On libcrypto each thread keeps its initialised cipher contexts in an
``_EvpCache`` keyed by (subkey, direction), at most four, the oldest freed
first. Setting up a context for one block cost more than the block
itself: a one-block call took 12 us with its own context and takes 4-6
us on a cached one (thread CPU time, shared 2-core x86-64 host, Python
3.11). The verifier decrypts one pID and mints one per request, both
under the current epoch's subkey, so both stay cached between rotations.

``pid_encrypt_blocks`` encrypts k raw pseudonyms in one ECB pass with one
cipher context, on either backend. ECB treats each block on its own, so
the result is the k ``pid_encrypt`` results concatenated. A group-key
rotation mints its whole fan-out that way.
"""

from __future__ import annotations

import ctypes
import threading
from functools import lru_cache

from .curve import LIBCRYPTO
from .hashes import TAG_PID_KDF, keystream, xof_bytes

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


@lru_cache(maxsize=8)
def pid_cipher_key(b: int) -> bytes:
    """128-bit AES subkey for the pseudonym permutation, derived from b."""
    # the group secret changes only at rotation, so cache per epoch value
    return xof_bytes(TAG_PID_KDF, [b], 16)


class _EvpCache:
    """One thread's initialised AES-128-ECB contexts, keyed by (subkey,
    direction): at most ``LIMIT`` of them, the oldest freed first.

    A one-block ``pid_encrypt`` or ``pid_decrypt`` on a cached key is then
    a single ``EVP_CipherUpdate``; with padding off, ECB keeps no state
    between updates. Only the thread that created the cache uses it (see
    ``_evp_cache``). ``EVP_CIPHER_CTX_free`` wipes the key schedule; it
    runs on eviction and when the thread's cache is collected, at the
    latest when the thread ends.
    """

    LIMIT = 4

    def __init__(self, lib):
        self.lib = lib
        self.contexts = {}
        self.out = ctypes.create_string_buffer(2 * PID_LEN)
        self.out_len = ctypes.c_int(0)
        self.out_len_ref = ctypes.byref(self.out_len)

    def context(self, key: bytes, encrypt: bool):
        ctx = self.contexts.get((key, encrypt))
        if ctx is not None:
            return ctx
        lib = self.lib
        if len(self.contexts) >= self.LIMIT:
            lib.EVP_CIPHER_CTX_free(self.contexts.pop(next(iter(self.contexts))))
        ctx = lib.EVP_CIPHER_CTX_new()
        if not ctx:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        if not (
            lib.EVP_CipherInit_ex(ctx, lib.EVP_aes_128_ecb(), None, key, None, int(encrypt))
            and lib.EVP_CIPHER_CTX_set_padding(ctx, 0)
        ):
            lib.EVP_CIPHER_CTX_free(ctx)
            raise RuntimeError("libcrypto AES-128-ECB set-up failed")
        self.contexts[key, encrypt] = ctx
        return ctx

    def __del__(self):
        for ctx in self.contexts.values():
            self.lib.EVP_CIPHER_CTX_free(ctx)


_TLS = threading.local()


def _evp_cache() -> _EvpCache:
    """This thread's cipher contexts, the cache created on its first call."""
    try:
        return _TLS.evp
    except AttributeError:
        _TLS.evp = _EvpCache(LIBCRYPTO)
        return _TLS.evp


def _aes_block_libcrypto(key: bytes, blocks: bytes, encrypt: bool) -> bytes:
    """AES-128-ECB over whole 16-byte blocks through libcrypto's EVP
    interface, on a context from this thread's ``_EvpCache``."""
    cache = _evp_cache()
    ctx = cache.context(key, encrypt)
    n = len(blocks)
    out = cache.out if n <= PID_LEN else ctypes.create_string_buffer(n + PID_LEN)
    if not (cache.lib.EVP_CipherUpdate(ctx, out, cache.out_len_ref, blocks, n) and cache.out_len.value == n):
        raise RuntimeError("libcrypto AES-128-ECB failed")
    return out.raw[:n]


@lru_cache(maxsize=8)
def _cryptography_cipher(key: bytes):
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    return Cipher(algorithms.AES(key), modes.ECB())


def _aes_block_cryptography(key: bytes, blocks: bytes, encrypt: bool) -> bytes:
    """The same blocks on the ``cryptography`` package: the fallback."""
    cipher = _cryptography_cipher(key)
    op = cipher.encryptor() if encrypt else cipher.decryptor()
    return op.update(blocks) + op.finalize()


def _select_aes_block():
    """libcrypto when it loaded and gives the FIPS-197 C.1 answer, else the fallback."""
    if LIBCRYPTO is not None:
        key = bytes(range(16))
        plain = bytes.fromhex("00112233445566778899aabbccddeeff")
        cipher = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        try:
            if _aes_block_libcrypto(key, plain, True) == cipher and _aes_block_libcrypto(key, cipher, False) == plain:
                return _aes_block_libcrypto
        finally:
            # the known-answer key leaves no cached context behind
            _TLS.__dict__.pop("evp", None)
    return _aes_block_cryptography


_aes_block = _select_aes_block()


def pid_encrypt(b: int, pd: bytes) -> bytes:
    """Encrypt one 16-byte raw pseudonym block into the public pID."""
    if len(pd) != PID_LEN:
        raise ValueError("raw pseudonym must be 16 bytes")
    return _aes_block(pid_cipher_key(b), pd, True)


def pid_encrypt_blocks(b: int, pds: bytes) -> bytes:
    """Encrypt k concatenated 16-byte raw pseudonyms in one ECB pass; the
    result equals the k ``pid_encrypt`` results concatenated."""
    if len(pds) % PID_LEN:
        raise ValueError("raw pseudonyms must be whole 16-byte blocks")
    if not pds:
        return b""
    return _aes_block(pid_cipher_key(b), pds, True)


def pid_decrypt(b: int, pid: bytes) -> bytes:
    if len(pid) != PID_LEN:
        raise ValueError("pID must be 16 bytes")
    return _aes_block(pid_cipher_key(b), pid, False)
