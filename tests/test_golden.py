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
    "t=1002 vn1->rsu1 REQ 5c816eb766a12397cf88099cf725fde2130a1a51007c43fdde5cebd2e"
    "edf704fd4156191894c307256871a725650d1ee370a153e324cfaf6549b39bbd521a2f7289ebad9"
    "b342390dc202c4d02b4544142cdd27e4390ca1843ec0505cdec22c6e0b97484c000003e8"
)
GOLDEN_REP_LINE = (
    "t=1004 rsu1->vn1 REP f17956b762ffe07fe8953eafe06005c0ab830cc99994004bd9b1ee51d"
    "32e3202fa9e4bd13c94be8dfc723d026c0b7119aaceb1a8c98b942329aac5da3118d4b260f680a9"
    "ec0d6c7b438d74b8a10a9ce3d02d2584000003ea"
)
GOLDEN_ACK_LINE = "t=1006 vn1->rsu1 ACK 71ce31467519f7cbf94ed75ff8e45a3f65440f63"
GOLDEN_TRANSCRIPT_SHA256 = "58937766a288cd461f3e428d786f2f426fe1decefe74416d7373c8373da84275"


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
    "honest": "58937766a288cd461f3e428d786f2f426fe1decefe74416d7373c8373da84275",
    "demo": "3f0a43060d5051191406d295a10886ee7a21ad93565623202b0307357d38b61a",
    "replay": "d34a1b96a8442d9a4ea9f6cd701c2ca0c2a6f12b967ef35ad5ba8b58b8014239",
    "tamper-req": "01d6cb0eb73bb868501771864f08f5cba50b4e5b8290d7f619ebc0a905e1af31",
    "tamper-rep": "c23ad92d5f6857a1ae1ac5afe8524a8e56b3b7a456ddd1cd2f5c9b571e0808e4",
    "tamper-ack": "0ee5d8bce06a393325511a7f3f01f654fa5b60a48eb566750085a46f41a8311c",
    "splice": "af7ca50d70902318411785cb4529cc3e2489dbff8ba7e6aaf569c2491fdd379e",
    "impersonation": "839efb6e2049d56bb0c698bd50c1d52ec8feb8ef1704a940be371042efd3c870",
    "cross-domain": "6c07835cd1b4474ffc51d27032131f9911ec05932259eb8e7490ca36a217fb45",
    "cross-domain-early": "b4933c03a302ca945bd080d072d48524a22d7c9d25a8e65b3cde60305e798e5a",
    "revocation": "bd6d333a4108383c5a1b3eec99333851bcacffc0114d0219504399a65d491d24",
    "trace-audit": "1b4260253febac40a466b70b998adfcf1e175f651325851cf54febc577dd0cff",
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
