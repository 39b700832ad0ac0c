import ctypes
import hashlib
import importlib.util
import os
import random
import gc
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage_oracle import encode_preimage
from v2xauth.crypto import curve, hashes, symmetric
from v2xauth.crypto.curve import GEN

SRC = Path(symmetric.__file__).resolve().parents[2]
# sym_encrypt(b"k" * 20, b"p" * 32, b"ctx") as the byte-wise XOR over an
# encode_preimage keystream gives it
KEYSTREAM_KAT = "e5fee8ddb08d5733718fea82a2ad417f696e92489c66d918f44ba39ed1ec95c8"


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=4096), st.binary(min_size=20, max_size=20))
def test_round_trip(plaintext, key):
    ct = symmetric.sym_encrypt(key, plaintext, b"ctx")
    assert len(ct) == len(plaintext)
    assert symmetric.sym_decrypt(key, ct, b"ctx") == plaintext


def test_round_trip_every_length_through_4096():
    rng = random.Random(0x51)
    key = rng.randbytes(20)
    for n in range(0, 4097):
        pt = rng.randbytes(n)
        ct = symmetric.sym_encrypt(key, pt, b"len")
        assert len(ct) == n
        assert symmetric.sym_decrypt(key, ct, b"len") == pt


def test_nonce_field_width_is_preserved():
    # a 28-byte nonce must encrypt to exactly the 28-byte wire slot
    key = bytes(20)
    assert len(symmetric.sym_encrypt(key, bytes(28), b"S1")) == 28


def _oracle_sym_encrypt(key, plaintext, context):
    """The keystream cipher from encode_preimage and a byte-wise XOR."""
    pre = encode_preimage(hashes.TAG_KEYSTREAM, [key, context])
    stream = hashlib.shake_256(pre).digest(len(plaintext))
    return bytes(a ^ b for a, b in zip(plaintext, stream))


def test_sym_encrypt_matches_encode_preimage_oracle():
    rng = random.Random(0x57)
    for _ in range(10_000):
        key = rng.randbytes(rng.choice((0, 20, rng.randrange(64))))
        context = rng.randbytes(rng.choice((0, 2, 7, rng.randrange(64))))
        # leading zero bytes must survive the integer XOR
        plaintext = bytes(rng.randrange(4)) + rng.randbytes(rng.choice((0, 1, 28, 36, 64, rng.randrange(300))))
        assert symmetric.sym_encrypt(key, plaintext, context) == _oracle_sym_encrypt(key, plaintext, context)


def test_sym_encrypt_known_answers():
    assert symmetric.sym_encrypt(b"k" * 20, b"", b"ctx") == b""
    assert symmetric.sym_encrypt(b"", b"", b"") == b""
    assert symmetric.sym_encrypt(b"k" * 20, b"p" * 32, b"ctx").hex() == KEYSTREAM_KAT


def test_distinct_keys_distinct_ciphertexts():
    rng = random.Random(0x52)
    pt = rng.randbytes(64)
    seen = set()
    for _ in range(200):
        seen.add(symmetric.sym_encrypt(rng.randbytes(20), pt, b"ctx"))
    assert len(seen) == 200


def test_context_separates_streams():
    key = b"k" * 20
    pt = b"p" * 32
    assert symmetric.sym_encrypt(key, pt, b"a") != symmetric.sym_encrypt(key, pt, b"b")


def test_pid_round_trip_and_length():
    rng = random.Random(0x53)
    for _ in range(50):
        b = rng.randrange(1, 2**224)
        pd = rng.randbytes(16)
        pid = symmetric.pid_encrypt(b, pd)
        assert len(pid) == 16
        assert symmetric.pid_decrypt(b, pid) == pd


def test_pid_injective():
    rng = random.Random(0x54)
    b = rng.randrange(1, 2**224)
    pds = {rng.randbytes(16) for _ in range(64)}
    pids = {symmetric.pid_encrypt(b, pd) for pd in pds}
    assert len(pids) == len(pds)


def test_pid_rejects_wrong_width():
    with pytest.raises(ValueError):
        symmetric.pid_encrypt(1, b"short")
    with pytest.raises(ValueError):
        symmetric.pid_decrypt(1, bytes(17))


def _cryptography_block(key, block, encrypt):
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    cipher = Cipher(algorithms.AES(key), modes.ECB())
    op = cipher.encryptor() if encrypt else cipher.decryptor()
    return op.update(block) + op.finalize()


def test_pid_cipher_matches_cryptography_on_random_blocks():
    rng = random.Random(0x55)
    for _ in range(10_000):
        b = rng.randrange(1, 2**224)
        block = rng.randbytes(16)
        key = symmetric.pid_cipher_key(b)
        pid = symmetric.pid_encrypt(b, block)
        assert pid == _cryptography_block(key, block, True)
        assert symmetric.pid_decrypt(b, block) == _cryptography_block(key, block, False)
        assert symmetric.pid_decrypt(b, pid) == block


def _fresh_symmetric(monkeypatch):
    name = "v2xauth.crypto._symmetric_fresh_copy"
    spec = importlib.util.spec_from_file_location(name, symmetric.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_pid_cipher_uses_libcrypto_when_loaded():
    # one backend decision: the curve's
    if curve.BACKEND == "libcrypto":
        assert symmetric._aes_block is symmetric._aes_block_libcrypto
    else:
        assert symmetric._aes_block is symmetric._aes_block_cryptography


def test_pid_cipher_falls_back_to_cryptography_without_libcrypto(monkeypatch):
    monkeypatch.setattr(curve, "BACKEND", "pure-python")
    isolated = _fresh_symmetric(monkeypatch)
    assert isolated._aes_block is isolated._aes_block_cryptography
    rng = random.Random(0x56)
    for _ in range(50):
        b = rng.randrange(1, 2**224)
        pd = rng.randbytes(16)
        pid = isolated.pid_encrypt(b, pd)
        assert pid == symmetric.pid_encrypt(b, pd)
        assert isolated.pid_decrypt(b, pid) == pd


@pytest.mark.skipif(curve.BACKEND != "libcrypto", reason="libcrypto.so.3 is not used")
def test_import_with_libcrypto_leaves_cryptography_unloaded():
    code = "import sys, v2xauth.actors; print('cryptography' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def _both_backends(monkeypatch):
    """This module on its loaded backend, and a fresh copy on the fallback."""
    native = symmetric
    monkeypatch.setattr(curve, "BACKEND", "pure-python")
    fallback = _fresh_symmetric(monkeypatch)
    assert fallback._aes_block is fallback._aes_block_cryptography
    return native, fallback


@pytest.mark.parametrize("k", [0, 1, 2, 33])
def test_pid_encrypt_blocks_equals_one_pid_encrypt_per_block(monkeypatch, k):
    rng = random.Random(0x58 + k)
    for module in _both_backends(monkeypatch):
        for _ in range(20):
            b = rng.randrange(1, 2**224)
            pds = [rng.randbytes(16) for _ in range(k)]
            out = module.pid_encrypt(b, b"".join(pds))
            assert out == b"".join(module.pid_encrypt(b, pd) for pd in pds)
            assert out == b"".join(_cryptography_block(module.pid_cipher_key(b), pd, True) for pd in pds)


def test_pid_encrypt_blocks_rejects_partial_blocks(monkeypatch):
    for module in _both_backends(monkeypatch):
        for n in (1, 15, 17, 31, 33 * 16 + 5):
            with pytest.raises(ValueError):
                module.pid_encrypt(1, bytes(n))


needs_libcrypto_aes = pytest.mark.skipif(
    symmetric._aes_block is not symmetric._aes_block_libcrypto, reason="the pseudonym AES runs on the fallback"
)


@needs_libcrypto_aes
def test_pid_cipher_concurrent_calls_match_cryptography():
    # six keys against a four-context cache: every thread also evicts,
    # so each thread's cache must stay its own
    rng = random.Random(0x59)
    cases = []
    for _ in range(60):
        b = rng.randrange(1, 7)
        pd = rng.randbytes(16)
        blocks = rng.randbytes(16 * rng.randrange(2, 9))
        key = symmetric.pid_cipher_key(b)
        cases.append((b, pd, blocks, key))
    expected = [
        (
            _cryptography_block(key, pd, True),
            _cryptography_block(key, pd, False),
            _cryptography_block(key, blocks, True),
        )
        for b, pd, blocks, key in cases
    ]
    results = {}

    def worker(tid):
        got = []
        for _ in range(8):
            for b, pd, blocks, _ in cases:
                got.append(
                    (
                        symmetric.pid_encrypt(b, pd),
                        symmetric.pid_decrypt(b, pd),
                        symmetric.pid_encrypt(b, blocks),
                    )
                )
            assert len(curve._scratch().ciphers) <= curve._Scratch.CIPHER_LIMIT
        results[tid] = got

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert got == expected * 8


def _live_scratch():
    return sum(type(o) is curve._Scratch for o in gc.get_objects())


@needs_libcrypto_aes
def test_short_lived_threads_free_their_native_scratch(monkeypatch):
    lib = curve._LIBCRYPTO[0]
    freed = {"BN_CTX_free": 0, "EVP_CIPHER_CTX_free": 0}
    for name in freed:
        original = getattr(lib, name)

        def counting(ptr, name=name, original=original):
            freed[name] += 1
            original(ptr)

        monkeypatch.setattr(lib, name, counting)
    a_pt = curve.scalar_mul(GEN, 0x5EED)
    pid = bytes(16)
    expected = (
        curve.ladder_mul(GEN, 3 + 5 * 0x5EED),
        pow(7, curve._SQRT_EXP, curve.P),
        _cryptography_block(symmetric.pid_cipher_key(9), pid, False),
    )
    results = []

    def worker():
        results.append((curve.msm2(3, 5, a_pt), curve._pow_p(7, curve._SQRT_EXP), symmetric.pid_decrypt(9, pid)))

    gc.collect()
    baseline = _live_scratch()
    threads = [threading.Thread(target=worker) for _ in range(50)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 50
    # a thread's scratch and cipher contexts go when the thread ends
    assert _live_scratch() == baseline
    assert freed == {"BN_CTX_free": 50, "EVP_CIPHER_CTX_free": 50}


@needs_libcrypto_aes
def test_import_self_check_leaves_no_cipher_context_cached(monkeypatch):
    # a fresh copy of curve runs its self-check on this process's handle,
    # whose allocators count
    lib = curve._LIBCRYPTO[0]
    counts = dict.fromkeys(("EVP_CIPHER_CTX_new", "EVP_CIPHER_CTX_free", "BN_CTX_new", "BN_CTX_free"), 0)
    for name in counts:
        original = getattr(lib, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(lib, name, counting)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: lib)
    spec = importlib.util.spec_from_file_location("_curve_self_check_copy", curve.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert fresh.BACKEND == "libcrypto"
    assert "scratch" not in vars(fresh._TLS)
    # the known answer set up one context per direction and freed both
    assert counts == {"EVP_CIPHER_CTX_new": 2, "EVP_CIPHER_CTX_free": 2, "BN_CTX_new": 1, "BN_CTX_free": 1}
    assert _fresh_symmetric(monkeypatch)._aes_block is curve._aes_ecb_libcrypto


@needs_libcrypto_aes
def test_evp_cache_frees_the_oldest_context_first():
    scratch = curve._Scratch(*curve._LIBCRYPTO)
    keys = [bytes([i]) * 16 for i in range(6)]
    for key in keys:
        scratch.cipher(key, True)
    assert list(scratch.ciphers) == [(key, True) for key in keys[-4:]]
    hit = scratch.ciphers[keys[-1], True]
    assert scratch.cipher(keys[-1], True) == hit
    assert len(scratch.ciphers) == curve._Scratch.CIPHER_LIMIT
