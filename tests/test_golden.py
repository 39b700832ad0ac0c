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
GOLDEN_TRANSCRIPT_SHA256 = "d1d45c366d0305469e18c9c55929ddf17c26fe193feb288174d136b41b0bfada"


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
    "honest": "d1d45c366d0305469e18c9c55929ddf17c26fe193feb288174d136b41b0bfada",
    "demo": "4de550649c2d0b02cd349771d2b01f35fc7448e79206384ae5f2cad654b3b92e",
    "replay": "1507187fb3663b92409ef4000f080ccaf31aef68b930156d741c082b3b470772",
    "tamper-req": "364a23af4704ed24c40f45d321fa34e6c6271989362864df4b01884dff99c8b7",
    "tamper-rep": "9fca8da4b4954d6d7f5cb29dfc11b47103286686f49de3e930d884fb9e7382d9",
    "tamper-ack": "a578810f00e879226229b0478b24855bb7dbc6f72284450e4acb5f4c5f374dd1",
    "splice": "fc8bad9874829a8d98520d7a970e065009d5aa8c8c51eebfd997f24ce95b29e9",
    "impersonation": "b9d04414c08f9591b1c588234fe5142474593781c8fc2823611f4d220467504f",
    "cross-domain": "438953d7afab11588ac9be9a260361d135f0950f9c5dd3b105623d0936f078bd",
    "cross-domain-early": "3156418d2a27a10094ca8f7b57bd59d1bd4182d3374f0641f5eb4922f4c36c1b",
    "revocation": "83ebdd86138dafed14158773fd937c52bd566b8198d762b0582203092c5f2263",
    "trace-audit": "c4150322518c28613d91b70031d98b4a8cf7908dccd69ef12f3313243d529fa2",
    "bad-txid": "387390ff8c3ace4ef18c511187cf788f43cdb4554df348dbe901186e0d6ead08",
}


def test_every_canned_scenario_is_pinned():
    assert set(CANNED_TRANSCRIPT_SHA256) == set(scenarios.canned_scenarios())


@pytest.mark.parametrize("name", sorted(CANNED_TRANSCRIPT_SHA256))
def test_canned_transcript_is_byte_identical(name):
    transcript = scenarios.run_scenario(scenarios.canned_scenarios()[name])
    assert hashlib.sha256(transcript.to_text().encode()).hexdigest() == CANNED_TRANSCRIPT_SHA256[name]


# Imports the package while ctypes.CDLL("libcrypto.so.3") fails, so every
# group operation runs on the ladder, the square root's exponent on pow and
# the pseudonym cipher on the cryptography package; checks that verify
# refuses an off-curve key there too, then prints one "<name> <sha256>"
# line per scenario named on the command line.
_FALLBACK_RUN = """
import ctypes, hashlib, random, sys

_cdll = ctypes.CDLL

def _cdll_without_libcrypto(name, *args, **kwargs):
    if name == "libcrypto.so.3":
        raise OSError(name + ": cannot open shared object file")
    return _cdll(name, *args, **kwargs)

ctypes.CDLL = _cdll_without_libcrypto
from v2xauth.crypto import curve, signatures
from v2xauth.simnet import scenarios

assert (curve.LIBCRYPTO, curve.BACKEND) == (None, "pure-python"), curve.BACKEND
pk = curve.ladder_mul(curve.GEN, 7)
sig = signatures.sign(7, b"msg", random.Random(1))
assert signatures.verify(pk, sig, b"msg")
assert signatures.verify((pk[0], (pk[1] + 1) % curve.P), sig, b"msg") is False
for name in sys.argv[1:]:
    text = scenarios.run_scenario(scenarios.canned_scenarios()[name]).to_text()
    print(name, hashlib.sha256(text.encode()).hexdigest())
"""


def test_canned_transcripts_are_byte_identical_without_libcrypto():
    names = ["honest", "revocation", "trace-audit"]
    src = Path(scenarios.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _FALLBACK_RUN, *names], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"{name} {CANNED_TRANSCRIPT_SHA256[name]}" for name in names]
