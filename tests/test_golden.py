"""Frozen byte-level regressions for the fixed-seed honest scenario.

These hex strings were produced by this implementation at seed 7 and
pinned; any change to encodings, hash inputs, RNG consumption order, or
engine scheduling shows up here first. Three of the canned scenarios
are also run with libcrypto refused, so the pure-Python backend is held
to the same hashes.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from v2xauth.simnet import scenarios

GOLDEN_REQ_LINE = (
    "t=1002 vn1->rsu1 REQ 5c816eb766a12397cf88099cf725fde265eb66b9f24b46afb32145135"
    "1fe73104d8e24dae61beb9d5ef27c745650d1ee370a153e324cfaf6549b39bbd521a2f7289ebad9"
    "b342390dc202c4d02b4544142cdd27e4390ca184db9051b6509d1ef3f0458113000003e8"
)
GOLDEN_REP_LINE = (
    "t=1004 rsu1->vn1 REP 4e6e9ffd140039e37e49039f4365541b422bfd90cd9cd2c495beb7018"
    "72fd857eb7ec45a3fc36f472bb49506adf91a5cf87402cc49112a3de7c1422aa302b547547973af"
    "75b039273c89a382c03b59c6de91d2c2000003ea"
)
GOLDEN_ACK_LINE = "t=1006 vn1->rsu1 ACK a5b1ac25985350ec7979c73d508a6e5deac4a0f5"
GOLDEN_TRANSCRIPT_SHA256 = "207b285a07a8de2238c072f4e4a7392f6f1ab246fb1d5f9f20efb72efe9e1fb2"


def test_golden_handover_transcript():
    transcript = scenarios.run_scenario(scenarios.HONEST_SINGLE_DOMAIN)
    lines = transcript.lines()
    assert GOLDEN_REQ_LINE in lines
    assert GOLDEN_REP_LINE in lines
    assert GOLDEN_ACK_LINE in lines
    assert hashlib.sha256(transcript.to_text().encode()).hexdigest() == GOLDEN_TRANSCRIPT_SHA256


def test_golden_field_widths():
    req_hex = GOLDEN_REQ_LINE.split()[-1]
    rep_hex = GOLDEN_REP_LINE.split()[-1]
    ack_hex = GOLDEN_ACK_LINE.split()[-1]
    assert len(req_hex) // 2 == 104
    assert len(rep_hex) // 2 == 88
    assert len(ack_hex) // 2 == 20


# SHA-256 of run_scenario(...).to_text() for every canned scenario: the
# message lines and the event lines, including the authority's trace path.
CANNED_TRANSCRIPT_SHA256 = {
    "honest": "207b285a07a8de2238c072f4e4a7392f6f1ab246fb1d5f9f20efb72efe9e1fb2",
    "demo": "fa8f75d4e8180396ccb39d13db136bbf832df377a9b521e1abe3a2580900e066",
    "replay": "8dde5faeec1fe289a376149424016a9617dabdcf1978178536481e67a3685302",
    "tamper-req": "4ae6fd23ad566502e988952fe02f5134bac8af2b085ebdc232c851180943d1ef",
    "tamper-rep": "3cc495844b5f3c96cb13cdb973abd94f4217ceef0da5ac018510546eeb49148c",
    "tamper-ack": "b36c8610913754f6939ca72a338ec412bc61753a9d2c9e26f8dc92d00e8e9ad1",
    "splice": "42d19358a5c87511fe30e69b7c7c71b63ef8195ecfa6680a1a50efbd73326cb5",
    "impersonation": "839efb6e2049d56bb0c698bd50c1d52ec8feb8ef1704a940be371042efd3c870",
    "cross-domain": "b50fa562ebfb9ad936a7684c497cdf226dc21902e7aa811e8d36a209e26a954d",
    "cross-domain-early": "ac7757ba674cf0222e523fc2516628a65a9957cf0530798556931a6ad2776bf5",
    "revocation": "34e810dd9c458aa92a681ad1caec09281741ea1d611ba1c78530ed66e35f4420",
    "trace-audit": "c59f38315c6011c075b2707089135e3ad9ad25492ea91d4488bd6b0523d00982",
    "bad-txid": "dfc88510134cc69b851f811b667fc6b13536cc2e841746dfdc598a97a247c05e",
}


def test_every_canned_scenario_is_pinned():
    assert set(CANNED_TRANSCRIPT_SHA256) == set(scenarios.canned_scenarios())


@pytest.mark.parametrize("name", sorted(CANNED_TRANSCRIPT_SHA256))
def test_canned_transcript_is_byte_identical(name):
    transcript = scenarios.run_scenario(scenarios.canned_scenarios()[name])
    assert hashlib.sha256(transcript.to_text().encode()).hexdigest() == CANNED_TRANSCRIPT_SHA256[name]


# Imports the package under the ctypes.CDLL shim named first on the command
# line, each a reason to fall back: "refused" fails to open
# libcrypto.so.3, "no-secp224r1" opens it but gets no group for the curve,
# "wrong-aes" opens it but gets a wrong AES block from EVP_CipherUpdate.
# Each must leave every group operation on the ladder, the square root's
# exponent on pow and the pseudonym cipher on the cryptography package.
# Checks that verify refuses an off-curve key there too, then prints one
# "<name> <sha256>" line per scenario named after the shim.
_FALLBACK_RUN = """
import ctypes, hashlib, random, sys

_cdll = ctypes.CDLL
shim = sys.argv[1]

def _shimmed_cdll(name, *args, **kwargs):
    if name == "libcrypto.so.3" and shim == "refused":
        raise OSError(name + ": cannot open shared object file")
    lib = _cdll(name, *args, **kwargs)
    if name != "libcrypto.so.3":
        return lib
    if shim == "no-secp224r1":
        lib.EC_GROUP_new_by_curve_name = lambda nid: None
    else:
        assert shim == "wrong-aes", shim
        update = lib.EVP_CipherUpdate
        update.restype = ctypes.c_int
        update.argtypes = (
            ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int), ctypes.c_char_p, ctypes.c_int
        )

        def wrong_block(ctx, out, out_len, data, n):
            ok = update(ctx, out, out_len, data, n)
            out[0] = bytes([out.raw[0] ^ 1])
            return ok

        lib.EVP_CipherUpdate = wrong_block
    return lib

ctypes.CDLL = _shimmed_cdll
from v2xauth.crypto import curve, signatures, symmetric
from v2xauth.simnet import scenarios

assert (curve._LIBCRYPTO, curve.BACKEND) == (None, "pure-python"), curve.BACKEND
assert symmetric._aes_block is symmetric._aes_block_cryptography
pk = curve.ladder_mul(curve.GEN, 7)
sig = signatures.sign(7, b"msg", random.Random(1))
assert signatures.verify(pk, sig, b"msg")
assert signatures.verify((pk[0], (pk[1] + 1) % curve.P), sig, b"msg") is False
for name in sys.argv[2:]:
    text = scenarios.run_scenario(scenarios.canned_scenarios()[name]).to_text()
    print(name, hashlib.sha256(text.encode()).hexdigest())
"""


def _run_fallback(shim, names):
    src = Path(scenarios.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _FALLBACK_RUN, shim, *names], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"{name} {CANNED_TRANSCRIPT_SHA256[name]}" for name in names]


def test_canned_transcripts_are_byte_identical_without_libcrypto():
    _run_fallback("refused", ["honest", "revocation", "trace-audit"])


@pytest.mark.parametrize("shim", ["no-secp224r1", "wrong-aes"])
def test_honest_transcript_is_byte_identical_when_libcrypto_fails_a_check(shim):
    _run_fallback(shim, ["honest"])
