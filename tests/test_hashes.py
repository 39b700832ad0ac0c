import hashlib
import random

import pytest

from preimage_oracle import encode_preimage
from v2xauth.crypto import curve, hashes
from v2xauth.crypto.curve import GEN, Q


def test_deterministic():
    assert hashes.h0(b"vehicle-1", 42) == hashes.h0(b"vehicle-1", 42)
    assert hashes.h1(b"pd", 1, 2, b"pid") == hashes.h1(b"pd", 1, 2, b"pid")


def test_output_kinds_and_lengths():
    pt = curve.scalar_mul(GEN, 7)
    assert 0 < hashes.h0(b"x", 1) < Q
    assert 0 < hashes.h2(b"pid", 3, pt, b"s1", b"d" * 20, GEN, 9) < Q
    assert len(hashes.h1(b"pd", 1, 2, b"pid")) == hashes.TAG_LEN
    assert len(hashes.h3(pt, b"d" * 20, 5, 1)) == hashes.TAG_LEN
    assert len(hashes.h4(5, b"m" * 20, 1)) == hashes.TAG_LEN
    assert len(hashes.h5(b"s2", 5, b"p" * 16, b"d" * 20, b"m" * 20, b"k" * 20, 1)) == hashes.TAG_LEN
    assert len(hashes.h6(b"m" * 20, b"k" * 20, b"req", b"rep")) == hashes.TAG_LEN


def test_length_prefix_blocks_concatenation_ambiguity():
    # (ab, c) and (a, bc) concatenate identically; the encoding must not
    assert encode_preimage(0, [b"ab", b"c"]) != encode_preimage(0, [b"a", b"bc"])
    assert hashes.h6(b"ab", b"c", b"", b"") != hashes.h6(b"a", b"bc", b"", b"")
    assert hashes.hybrid_mac(b"ab", b"c") != hashes.hybrid_mac(b"a", b"bc")


def test_avalanche_on_single_byte_change():
    rng = random.Random(0x44)
    for _ in range(200):
        base = bytearray(rng.randbytes(24))
        out1 = hashes.h1(bytes(base), 1, 2, b"pid")
        idx = rng.randrange(len(base))
        base[idx] ^= 1 + rng.randrange(255)
        out2 = hashes.h1(bytes(base), 1, 2, b"pid")
        assert out1 != out2


def test_scalar_hash_always_in_range():
    # exhaustive range check over a seeded corpus
    rng = random.Random(0x45)
    for i in range(100_000):
        v = hashes.hash_to_scalar(encode_preimage(hashes.TAG_H2, [rng.randbytes(8), i]))
        assert 0 < v < Q


def test_domain_separation_across_tags():
    # same argument list hashed under every tag: all outputs pairwise distinct
    rng = random.Random(0x46)
    tags = sorted(hashes.HASH_FAMILY)
    for _ in range(100_000 // len(tags)):
        args = [rng.randbytes(16)]
        pres = [encode_preimage(t, args) for t in tags]
        assert len(set(pres)) == len(pres)
        outs = [hashes.xof_bytes(pre, 20) for pre in pres]
        assert len(set(outs)) == len(outs)


def test_rejects_unencodable_argument():
    with pytest.raises(TypeError):
        encode_preimage(0, [3.14])


# --- every hash builds its preimage field by field; encode_preimage is the oracle ---


def _ts_field(t):
    return (t & 0xFFFFFFFF).to_bytes(4, "big")


# (function, tag, field kinds, output kind); "ts" is a timestamp int, and a
# bytes kind is a constant label field that the function supplies itself
FIXED_LAYOUT = [
    (hashes.h0, hashes.TAG_H0, ("bytes", "scalar"), "scalar"),
    (hashes.h1, hashes.TAG_H1, ("bytes", "scalar", "scalar", "bytes"), "tag"),
    (hashes.h2, hashes.TAG_H2, ("bytes", "scalar", "point", "bytes", "bytes", "point", "ts"), "scalar"),
    (hashes.h3, hashes.TAG_H3, ("point", "bytes", "scalar", "ts"), "tag"),
    (hashes.h4, hashes.TAG_H4, ("scalar", "bytes", "ts"), "tag"),
    (hashes.h5, hashes.TAG_H5, ("bytes", "scalar", "bytes", "bytes", "bytes", "bytes", "ts"), "tag"),
    (hashes.h6, hashes.TAG_H6, ("bytes", "bytes", "bytes", "bytes"), "tag"),
    (hashes.sig_digest, hashes.TAG_SIG_DIGEST, ("bytes",), "scalar"),
    (hashes.hybrid_keys, hashes.TAG_HYBRID_KDF, (b"keys", "point", "point"), "key pair"),
    (hashes.hybrid_mac, hashes.TAG_HYBRID_KDF, (b"mac", "bytes", "bytes"), "tag"),
    (hashes.pid_kdf, hashes.TAG_PID_KDF, ("scalar",), "pid key"),
]


def _arg_kinds(kinds):
    return [kind for kind in kinds if isinstance(kind, str)]


def _oracle(tag, kinds, args, out):
    rest = iter(args)
    encoded = []
    for kind in kinds:
        if isinstance(kind, bytes):
            encoded.append(kind)
        else:
            arg = next(rest)
            encoded.append(_ts_field(arg) if kind == "ts" else arg)
    pre = encode_preimage(tag, encoded)
    if out == "scalar":
        return hashes.hash_to_scalar(pre)
    if out == "key pair":
        keys = hashlib.shake_256(pre).digest(2 * hashes.TAG_LEN)
        return keys[: hashes.TAG_LEN], keys[hashes.TAG_LEN :]
    return hashlib.shake_256(pre).digest(16 if out == "pid key" else hashes.TAG_LEN)


def test_fixed_layout_hashes_match_encode_preimage():
    rng = random.Random(0x47)
    # walk a point by a fixed step: many distinct points, one addition each
    walk = curve.scalar_mul(GEN, curve.rand_nonzero_scalar(rng))
    step = curve.scalar_mul(GEN, curve.rand_nonzero_scalar(rng))
    draw = {
        "bytes": lambda: rng.randbytes(rng.choice((0, 1, 4, 16, 20, 28, 29, 64, rng.randrange(200)))),
        "scalar": lambda: rng.choice((0, 1, Q - 1, rng.randrange(Q), rng.randrange(Q, 2**224))),
        "ts": lambda: rng.choice((0, 2**32 - 1, 2**32, -1, rng.randrange(2**40))),
    }
    for i in range(10_000):
        walk = curve.point_add(walk, step)
        draw["point"] = lambda: None if rng.random() < 0.1 else walk
        fn, tag, kinds, out = FIXED_LAYOUT[i % len(FIXED_LAYOUT)]
        args = [draw[kind]() for kind in _arg_kinds(kinds)]
        assert fn(*args) == _oracle(tag, kinds, args, out), (fn.__name__, args)


def test_fixed_layout_hashes_reject_out_of_range_scalars_like_the_oracle():
    rng = random.Random(0x48)
    for fn, tag, kinds, out in FIXED_LAYOUT:
        for bad in (-1, 2**224, 2**224 + rng.randrange(2**64), -rng.randrange(1, Q)):
            for pos, kind in enumerate(_arg_kinds(kinds)):
                if kind != "scalar":
                    continue
                args = [{"bytes": b"x", "scalar": 5, "point": GEN, "ts": 7}[k] for k in _arg_kinds(kinds)]
                args[pos] = bad
                with pytest.raises(OverflowError):
                    _oracle(tag, kinds, args, out)
                with pytest.raises(OverflowError):
                    fn(*args)
    # scalars in [Q, 2^224) are not reduced, and encode like the oracle
    assert hashes.h4(Q + 3, b"m", 1) == _oracle(hashes.TAG_H4, ("scalar", "bytes", "ts"), [Q + 3, b"m", 1], "tag")


def test_first_window_squeeze_matches_the_full_rejection_loop():
    rng = random.Random(0x49)
    for _ in range(10_000):
        pre = rng.randbytes(rng.choice((0, 1, 28, 190, rng.randrange(300))))
        assert hashes.hash_to_scalar(pre) == hashes._scalar_from_stream(pre)


def test_rejected_first_window_falls_back_to_the_loop(monkeypatch):
    # with q near 2^223 about half the first windows are rejected, so the
    # fallback runs; the full loop stays the reference
    monkeypatch.setattr(hashes, "Q", 2**223 + 12345)
    rng = random.Random(0x4A)
    fell_back = 0
    for _ in range(2_000):
        pre = rng.randbytes(rng.randrange(100))
        first = int.from_bytes(hashlib.shake_256(pre + bytes(4)).digest(28), "big")
        fell_back += not 0 < first < hashes.Q
        v = hashes.hash_to_scalar(pre)
        assert v == hashes._scalar_from_stream(pre) and 0 < v < hashes.Q
    assert 800 < fell_back < 1200
