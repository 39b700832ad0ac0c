"""Prime-order elliptic curve group used by every credential operation.

The group is NIST P-224 (secp224r1): a short-Weierstrass curve y^2 =
x^3 + ax + b over F_p with a prime group order q that fits in 28 bytes.
Every scalar in the protocol (trapdoor components, blinding values,
signature nonces) lives in Z_q, and every 28-byte wire field maps onto
one curve coordinate or one scalar, which is why this particular curve
is load-bearing: the message-size budget assumes l_q = 224 bits.

Points are affine ``(x, y)`` tuples with ``None`` as the identity O.
Internally the ladder runs in Jacobian coordinates so that a full
scalar multiplication needs a single field inversion.

Scalar multiplication has one native seam and one pure-Python
algorithm:

* ``_msm2_libcrypto`` marshals ``m*G + gamma*A`` into one libcrypto
  ``EC_POINT_mul`` on the calling thread's scratch. Both public
  routines go through it when the library loaded: ``msm2(m, gamma, A)``
  with two terms, and ``scalar_mul(pt, s)`` with one, in the fixed-base
  form (no point argument) when ``pt`` is ``GEN`` and the variable-base
  form otherwise.
* ``ladder_mul`` is a fixed-iteration Montgomery ladder: the reference
  ``scalar_mul`` is tested against, and its fallback when the library
  does not load. The fallback ``msm2`` (``_msm2_ladder``) is two ladders
  and one ``point_add``. The tests hold ``_msm2_libcrypto`` to a
  window-NAF reference of their own (``tests/curve_oracle.py``).

An off-curve point is refused the same way on both backends: a point
that ``is_on_curve`` refuses raises ValueError wherever a nonzero
scalar (mod q) multiplies it, and gives the identity where the scalar
is 0 mod q. No production caller passes one: the verifier takes a
request's point from ``point_from_hint``, ``signatures.adec`` refuses a
sealed blob whose
ephemeral x || y fails ``is_on_curve`` before it multiplies, and
``signatures.verify`` returns False for an off-curve public key.

Which secret scalars take which path, with libcrypto loaded:

* ``scalar_mul`` (native, one term): the long-term signing and
  decryption keys of the authority, region managers and roadside units
  at key generation (sk*G, fixed-base), every ECDSA nonce (k*G,
  fixed-base, in ``signatures.sign``), the decryption key in
  ``signatures.adec`` (sk*E, variable-base), the vehicle's trapdoor x
  (x*G, fixed-base, in ``Vehicle.build_registration``) and the ephemeral
  key of ``signatures.aenc`` (eph*G fixed-base, eph*pk variable-base);
* ``msm2`` (native, two terms): the vehicle's initial chameleon input m0
  and r0, in ``chameleon.ch_commit`` at registration (on two ladders
  without the library); every other ``msm2`` input (the handover's m
  and gamma, ECDSA verification) is public;
* ``ladder_mul``, called by name: only the vehicle's blinding values
  alpha (alpha*Y, in ``Vehicle._draw_blinded_point``), POOL_TARGET per
  registration and one per later pool refill.

Side channels. With the installed OpenSSL 3.0.19 the secp224r1 group
runs on ``EC_GFp_nistp224_method`` (checked: ``EC_GROUP_method_of``
returns it), whose ``EC_POINT_mul`` selects precomputed table entries
with masks instead of branches, for the generator and for a variable
point alike (Kasper, "Fast Elliptic Curve Cryptography in OpenSSL", FC
2011 workshops). That constant-time behaviour is OpenSSL's design claim;
it is not measured here, and a library built without the nistp224
method runs a different one. Python big integers are not constant-time,
so the ladder is not either: its fixed step sequence is hygiene, not a
guarantee, and the fallback gives no side-channel protection. Of the
secret scalars above, only alpha still takes the ladder when the
library loads.

At import the module opens the system OpenSSL 3 ``libcrypto.so.3``
through ``ctypes`` once, types every function the package calls from
one signature table, and keeps the handle with its secp224r1 group as
``_LIBCRYPTO``. The library is used only when it loads, provides
secp224r1 and passes one self-check: it reproduces the generator, gives
the known inverse of 2 through ``BN_mod_exp_mont`` and gives the
FIPS-197 C.1 AES-128 answer in both directions. Then ``msm2`` and
``scalar_mul`` are bound to ``EC_POINT_mul``, the square root's
exponentiation to ``BN_mod_exp_mont``, and ``symmetric``'s pseudonym
cipher to ``_aes_ecb_libcrypto``. Otherwise the library is used for
nothing: they are ``_msm2_ladder``, ``ladder_mul``, Python's ``pow``
and the ``cryptography`` package; the ladder and ``pow`` also stay
references the tests hold the native paths to. ``BACKEND`` names the
path in use (``"libcrypto"`` or ``"pure-python"``) for all four. Both
paths return identical results, including ``None`` for the identity,
and refuse the same points. Measured as thread CPU time on a shared
2-core x86-64 host (Python 3.11): ``msm2`` takes 0.12-0.2 ms native and
about 10 ms on two ladders; ``scalar_mul`` about 0.06 ms fixed-base and
0.13 ms variable-base native, against 3.7 ms on the ladder.

The native calls work in a per-thread ``_Scratch``: a BN_CTX, the
bignums, the two points ``msm2`` needs, an output buffer, a Montgomery
context for P and at most four AES-128-ECB contexts keyed by (subkey,
direction), created on a thread's first call and freed when the thread
ends. No native object is used by two threads. ``msm2``, ``_pow_p``
and a one-block AES call on a held key allocate nothing: allocating per
call cost about 10 us of an ``msm2`` and 12 us of a 36 us
exponentiation, the Montgomery set-up included, and a one-block AES
call took 12 us with a context of its own against 4-6 us on a held one.
The self-check leaves no scratch behind.

Recovering a point from its 28-byte x alone needs a field square root
(``solve_y``). P - 1 = 2^96 * (2^128 - 1), the worst case for
Tonelli-Shanks, so ``sqrt_mod_p`` instead takes a table-driven discrete
log in the 2^96 subgroup: 12 tables of 256 powers plus one 256-entry
dict, built at import in a few ms and holding about 0.2 MB. A root
costs 0.13-0.17 ms on the same host with the native exponent (0.23 ms
with ``pow``), where Tonelli-Shanks took 2.1-2.3 ms.

The discrete log is the costly part, and its result, e/2 < 2^95, is a
public function of x that fits in 12 bytes. So a holder of the point
computes it once (``root_hint``), and a verifier given x and that hint
recovers the point with one exponentiation and a square check
(``point_from_hint``), which refuses any other hint. The vehicle sends
each blinded point's hint inside S1, so a handover costs the roadside
unit no root. Only ``point_decompress`` (``Registration.ch`` on its
first read) still takes one. ``signatures.adec`` takes none either: a
sealed blob carries its ephemeral point as x || y, which ``is_on_curve``
validates. A caller that only compares, hashes or stores a 29-byte
compressed point needs to know that it names one: the authority's check
of a sealed commitment and ``ledger.snapshot_load`` call
``check_compressed``, one exponentiation (Euler's criterion). So a
registration costs the authority no root.
"""

from __future__ import annotations

import ctypes
import threading

Point = "tuple[int, int] | None"  # affine point, None is the identity O

# --- NIST P-224 domain parameters -------------------------------------------

P = 2**224 - 2**96 + 1
A = -3 % P
B = 0xB4050A850C04B3ABF54132565044B0B7D7BFD8BA270B39432355FFB4
GX = 0xB70E0CBD6BB4BF7F321390B94A03C1D356C21122343280D6115C1D21
GY = 0xBD376388B5F723FB4C22DFE6CD4375A05A07476444D5819985007E34
Q = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFF16A2E0B8F03E13DD29455C5C2A3D
GEN = (GX, GY)

SCALAR_BYTES = 28
COORD_BYTES = 28


def is_on_curve(pt) -> bool:
    """True for the identity and for affine points satisfying the curve equation."""
    if pt is None:
        return True
    x, y = pt
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x + A * x + B)) % P == 0


def point_neg(pt):
    if pt is None:
        return None
    x, y = pt
    return (x, (-y) % P)


def point_add(p1, p2):
    """Affine group addition. Correct for all inputs including O and inverses."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        # doubling
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    y3 = (lam * (x1 - x3) - y1) % P
    return (x3, y3)


# --- Jacobian internals ------------------------------------------------------
# A Jacobian triple (X, Y, Z) represents the affine point (X/Z^2, Y/Z^3);
# Z == 0 encodes the identity.

_JAC_O = (0, 1, 0)


def _jac_double(X1, Y1, Z1):
    # dbl-2001-b, specialised for a = -3
    if not Z1 or not Y1:
        return _JAC_O
    delta = Z1 * Z1 % P
    gamma = Y1 * Y1 % P
    beta = X1 * gamma % P
    alpha = 3 * ((X1 - delta) * (X1 + delta)) % P
    X3 = (alpha * alpha - 8 * beta) % P
    Z3 = ((Y1 + Z1) * (Y1 + Z1) - gamma - delta) % P
    Y3 = (alpha * (4 * beta - X3) - 8 * gamma * gamma) % P
    return (X3, Y3, Z3)


def _jac_add(X1, Y1, Z1, X2, Y2, Z2):
    # add-2007-bl; handles all degenerate cases
    if not Z1:
        return (X2, Y2, Z2)
    if not Z2:
        return (X1, Y1, Z1)
    Z1Z1 = Z1 * Z1 % P
    Z2Z2 = Z2 * Z2 % P
    U1 = X1 * Z2Z2 % P
    U2 = X2 * Z1Z1 % P
    S1 = Y1 * Z2 % P * Z2Z2 % P
    S2 = Y2 * Z1 % P * Z1Z1 % P
    H = (U2 - U1) % P
    if not H:
        if S1 == S2:
            return _jac_double(X1, Y1, Z1)
        return _JAC_O
    I = 4 * H * H % P
    J = H * I % P
    r = 2 * (S2 - S1) % P
    V = U1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * S1 * J) % P
    Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1Z1 - Z2Z2) % P * H % P
    return (X3, Y3, Z3)


def _jac_to_affine(X, Y, Z):
    if not Z:
        return None
    zi = pow(Z, -1, P)
    zi2 = zi * zi % P
    return (X * zi2 % P, Y * zi2 % P * zi % P)


# --- Scalar multiplication ---------------------------------------------------


def ladder_mul(pt, s: int):
    """Multiply ``pt`` by ``s`` with a fixed-length Montgomery ladder.

    For s != 0 mod q it always runs 225 ladder steps (the exponent is
    lifted to s + q so its top bit is fixed), giving a uniform operation
    sequence for secret scalars. The identity, and s = 0 mod q with any
    point, give the identity; any other point that ``is_on_curve``
    refuses raises ValueError, as in ``_msm2_libcrypto``. The reference
    and fallback of ``scalar_mul``, about 4 ms a call.
    """
    if pt is None:
        return None
    s %= Q
    if not s:
        return None
    if not is_on_curve(pt):
        raise ValueError("point not on the curve")
    k = s + Q  # in [q, 2q): bit 224 is always set, no leading-zero branch
    r0 = _JAC_O
    r1 = (pt[0], pt[1], 1)
    for i in range(224, -1, -1):
        if (k >> i) & 1:
            r0 = _jac_add(*r0, *r1)
            r1 = _jac_double(*r1)
        else:
            r1 = _jac_add(*r0, *r1)
            r0 = _jac_double(*r0)
    return _jac_to_affine(*r0)


def _msm2_ladder(m: int, gamma: int, a_pt):
    """Return ``m*GEN + gamma*a_pt`` as two ladders and one affine
    addition: the fallback of ``msm2``, about 10 ms a call. It returns
    and refuses what ``_msm2_libcrypto`` does: the ladder on ``a_pt``
    runs first, so an off-curve point raises before the other one."""
    gamma_a = ladder_mul(a_pt, gamma)
    return point_add(ladder_mul(GEN, m), gamma_a)


# --- libcrypto: the one native handle, for the group, the field and the pseudonym AES ---

_NID_SECP224R1 = 713
_VP = ctypes.c_void_p
_INT = ctypes.c_int
_LIBCRYPTO_SIGNATURES = (
    ("EC_GROUP_new_by_curve_name", _VP, (_INT,)),
    ("BN_CTX_new", _VP, ()),
    ("BN_CTX_free", None, (_VP,)),
    ("BN_new", _VP, ()),
    ("BN_free", None, (_VP,)),
    ("BN_bin2bn", _VP, (ctypes.c_char_p, _INT, _VP)),
    ("BN_bn2binpad", _INT, (_VP, _VP, _INT)),
    ("BN_MONT_CTX_new", _VP, ()),
    ("BN_MONT_CTX_set", _INT, (_VP, _VP, _VP)),
    ("BN_MONT_CTX_free", None, (_VP,)),
    ("BN_mod_exp_mont", _INT, (_VP, _VP, _VP, _VP, _VP, _VP)),
    ("EC_POINT_new", _VP, (_VP,)),
    ("EC_POINT_free", None, (_VP,)),
    ("EC_POINT_set_affine_coordinates", _INT, (_VP, _VP, _VP, _VP, _VP)),
    ("EC_POINT_get_affine_coordinates", _INT, (_VP, _VP, _VP, _VP, _VP)),
    ("EC_POINT_is_at_infinity", _INT, (_VP, _VP)),
    ("EC_POINT_mul", _INT, (_VP, _VP, _VP, _VP, _VP, _VP)),
    ("ERR_clear_error", None, ()),
    ("EVP_CIPHER_CTX_new", _VP, ()),
    ("EVP_CIPHER_CTX_free", None, (_VP,)),
    ("EVP_aes_128_ecb", _VP, ()),
    ("EVP_CipherInit_ex", _INT, (_VP, _VP, _VP, ctypes.c_char_p, ctypes.c_char_p, _INT)),
    ("EVP_CIPHER_CTX_set_padding", _INT, (_VP, _INT)),
    ("EVP_CipherUpdate", _INT, (_VP, _VP, ctypes.POINTER(_INT), ctypes.c_char_p, _INT)),
)


def _load_libcrypto():
    """``(lib, group)``: libcrypto.so.3 with every function above typed and
    its secp224r1 group, or None if either is unavailable."""
    try:
        lib = ctypes.CDLL("libcrypto.so.3")
        for name, restype, argtypes in _LIBCRYPTO_SIGNATURES:
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except (OSError, AttributeError):
        return None
    group = lib.EC_GROUP_new_by_curve_name(_NID_SECP224R1)
    return (lib, group) if group else None


_P_BYTES = P.to_bytes(COORD_BYTES, "big")
_AES_BLOCK = 16


class _Scratch:
    """One thread's native working set for ``msm2``, ``_pow_p`` and the
    pseudonym AES.

    A BN_CTX, the bignums both group calls fill, the two points ``msm2``
    needs, a 56-byte output buffer and a Montgomery context for P, set up
    once. Every call overwrites what it reads, so nothing carries from one
    call to the next. ``ciphers`` holds initialised AES-128-ECB contexts
    keyed by (subkey, direction), at most ``CIPHER_LIMIT``, the oldest
    freed first: with padding off, ECB keeps no state between updates, so
    a block on a held key is one ``EVP_CipherUpdate``. Only the thread
    that created the scratch ever uses it (see ``_scratch``): ctypes
    releases the GIL inside each native call, so a scratch shared between
    threads would need a lock held across ``EC_POINT_mul``. The native
    objects are freed when the thread's scratch is collected, at the
    latest when the thread ends; ``EVP_CIPHER_CTX_free`` also wipes a key
    schedule on eviction.
    """

    __slots__ = ("lib", "ctx", "bns", "points", "mont", "out", "out_hi", "out_len", "out_len_ref", "ciphers")

    CIPHER_LIMIT = 4

    def __init__(self, lib, group):
        self.lib = lib
        self.ctx = self.mont = None
        self.bns = self.points = ()
        self.ciphers = {}
        self.ctx = lib.BN_CTX_new()
        # msm2 fills the first four as m, gamma, x, y; _pow_p the first
        # three as result, base, exponent; the fifth holds P
        self.bns = tuple(lib.BN_new() for _ in range(5))
        self.points = (lib.EC_POINT_new(group), lib.EC_POINT_new(group))
        self.mont = lib.BN_MONT_CTX_new()
        if not (self.ctx and all(self.bns) and all(self.points) and self.mont):
            raise MemoryError("libcrypto allocation failed")
        bn_p = self.bns[4]
        lib.BN_bin2bn(_P_BYTES, COORD_BYTES, bn_p)
        if not lib.BN_MONT_CTX_set(self.mont, bn_p, self.ctx):
            raise RuntimeError("BN_MONT_CTX_set failed")
        self.out = ctypes.create_string_buffer(2 * COORD_BYTES)
        self.out_hi = ctypes.addressof(self.out) + COORD_BYTES
        self.out_len = ctypes.c_int(0)
        self.out_len_ref = ctypes.byref(self.out_len)

    def cipher(self, key: bytes, encrypt: bool):
        """The AES-128-ECB context for (key, encrypt), set up if not held."""
        ctx = self.ciphers.get((key, encrypt))
        if ctx is not None:
            return ctx
        lib = self.lib
        if len(self.ciphers) >= self.CIPHER_LIMIT:
            lib.EVP_CIPHER_CTX_free(self.ciphers.pop(next(iter(self.ciphers))))
        ctx = lib.EVP_CIPHER_CTX_new()
        if not ctx:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        if not (
            lib.EVP_CipherInit_ex(ctx, lib.EVP_aes_128_ecb(), None, key, None, int(encrypt))
            and lib.EVP_CIPHER_CTX_set_padding(ctx, 0)
        ):
            lib.EVP_CIPHER_CTX_free(ctx)
            raise RuntimeError("libcrypto AES-128-ECB set-up failed")
        self.ciphers[key, encrypt] = ctx
        return ctx

    def __del__(self):
        lib = self.lib
        for ctx in self.ciphers.values():
            lib.EVP_CIPHER_CTX_free(ctx)
        for pt in self.points:
            lib.EC_POINT_free(pt)
        for bn in self.bns:
            lib.BN_free(bn)
        lib.BN_MONT_CTX_free(self.mont)
        lib.BN_CTX_free(self.ctx)


_TLS = threading.local()


def _scratch() -> _Scratch:
    """This thread's scratch, created on its first call."""
    try:
        return _TLS.scratch
    except AttributeError:
        _TLS.scratch = _Scratch(*_LIBCRYPTO)
        return _TLS.scratch


def _release_scratch():
    """Free this thread's scratch now, if it has one."""
    _TLS.__dict__.pop("scratch", None)


def _msm2_libcrypto(m: int, gamma: int, a_pt):
    """Return ``m*GEN + gamma*a_pt`` through libcrypto's ``EC_POINT_mul``.

    The EC_GROUP is created once and only read afterwards; the bignums,
    points and BN_CTX come from this thread's ``_Scratch``, so no native
    object is used by two threads. When the gamma term is used, a point
    that ``is_on_curve`` refuses raises ValueError: one with a coordinate
    outside [0, P) before libcrypto sees it (the library would reduce an
    x or y in [P, 2^224)), any other when libcrypto refuses it, after
    its error queue is cleared. The scratch stays usable.
    """
    m %= Q
    gamma %= Q
    if a_pt is None or gamma == 0:
        if m == 0:
            return None
        gamma = 0
    group = _LIBCRYPTO[1]
    s = _scratch()
    lib, ctx, out = s.lib, s.ctx, s.out
    bn_m, bn_g, bn_x, bn_y, _ = s.bns
    a, r = s.points
    if m:
        lib.BN_bin2bn(m.to_bytes(SCALAR_BYTES, "big"), SCALAR_BYTES, bn_m)
    else:
        bn_m = None
    if gamma:
        x, y = a_pt
        if not (0 <= x < P and 0 <= y < P):
            raise ValueError("point not on the curve")
        lib.BN_bin2bn(x.to_bytes(COORD_BYTES, "big"), COORD_BYTES, bn_x)
        lib.BN_bin2bn(y.to_bytes(COORD_BYTES, "big"), COORD_BYTES, bn_y)
        if not lib.EC_POINT_set_affine_coordinates(group, a, bn_x, bn_y, ctx):
            lib.ERR_clear_error()
            raise ValueError("point not on the curve")
        lib.BN_bin2bn(gamma.to_bytes(SCALAR_BYTES, "big"), SCALAR_BYTES, bn_g)
    else:
        a = bn_g = None
    if not lib.EC_POINT_mul(group, r, bn_m, a, bn_g, ctx):
        raise RuntimeError("EC_POINT_mul failed")
    if lib.EC_POINT_is_at_infinity(group, r):
        return None
    if not lib.EC_POINT_get_affine_coordinates(group, r, bn_x, bn_y, ctx):
        raise RuntimeError("EC_POINT_get_affine_coordinates failed")
    lib.BN_bn2binpad(bn_x, out, COORD_BYTES)
    lib.BN_bn2binpad(bn_y, s.out_hi, COORD_BYTES)
    raw = out.raw
    return (int.from_bytes(raw[:COORD_BYTES], "big"), int.from_bytes(raw[COORD_BYTES:], "big"))


def _scalar_mul_libcrypto(pt, s: int):
    """Return ``s*pt`` through ``_msm2_libcrypto``: the fixed-base form
    (no point argument) for ``GEN``, the variable-base form for any other
    point. Accepts s = 0, s >= Q and the identity, and refuses an
    off-curve point as ``ladder_mul`` does."""
    return _msm2_libcrypto(s, 0, None) if pt == GEN else _msm2_libcrypto(0, s, pt)


def _pow_p_libcrypto(n: int, e: int) -> int:
    """Return ``n^e mod P`` through libcrypto's ``BN_mod_exp_mont``, for n
    in [0, 2^224) and e >= 0; the library reduces an n >= P.

    The bignums, BN_CTX and the Montgomery context for P come from this
    thread's ``_Scratch``, like ``_msm2_libcrypto``'s.
    """
    s = _scratch()
    lib = s.lib
    bn_r, bn_n, bn_e, _, bn_p = s.bns
    e_bytes = e.to_bytes((e.bit_length() + 7) // 8, "big")
    lib.BN_bin2bn(n.to_bytes(COORD_BYTES, "big"), COORD_BYTES, bn_n)
    lib.BN_bin2bn(e_bytes, len(e_bytes), bn_e)
    if not lib.BN_mod_exp_mont(bn_r, bn_n, bn_e, bn_p, s.ctx, s.mont):
        raise RuntimeError("BN_mod_exp_mont failed")
    lib.BN_bn2binpad(bn_r, s.out, COORD_BYTES)
    return int.from_bytes(s.out.raw[:COORD_BYTES], "big")


def _pow_p_py(n: int, e: int) -> int:
    """Return ``n^e mod P`` with Python's ``pow``: the reference and fallback."""
    return pow(n, e, P)


def _aes_ecb_libcrypto(key: bytes, blocks: bytes, encrypt: bool) -> bytes:
    """AES-128-ECB over whole 16-byte blocks through libcrypto's EVP
    interface, on a context held in this thread's ``_Scratch``; the
    pseudonym cipher of ``symmetric`` when ``BACKEND`` is libcrypto."""
    s = _scratch()
    n = len(blocks)
    out = s.out if n <= _AES_BLOCK else ctypes.create_string_buffer(n + _AES_BLOCK)
    if not (s.lib.EVP_CipherUpdate(s.cipher(key, encrypt), out, s.out_len_ref, blocks, n) and s.out_len.value == n):
        raise RuntimeError("libcrypto AES-128-ECB failed")
    return out.raw[:n]


# FIPS-197 appendix C.1: AES-128 key, plaintext and ciphertext
_AES_KAT = (
    bytes(range(16)),
    bytes.fromhex("00112233445566778899aabbccddeeff"),
    bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"),
)


def _known_answers_hold() -> bool:
    """True when the library reproduces the generator, the inverse of 2
    mod P and the AES-128 known answer in both directions."""
    key, plain, cipher = _AES_KAT
    return (
        _msm2_libcrypto(1, 0, None) == GEN
        and _pow_p_libcrypto(2, P - 2) == (P + 1) // 2
        and _aes_ecb_libcrypto(key, plain, True) == cipher
        and _aes_ecb_libcrypto(key, cipher, False) == plain
    )


_LIBCRYPTO = _load_libcrypto()
if _LIBCRYPTO is not None:
    # a library that fails any known answer is used for nothing; the
    # check leaves no scratch and no cipher context behind
    try:
        if not _known_answers_hold():
            _LIBCRYPTO = None
    finally:
        _release_scratch()
if _LIBCRYPTO is None:
    msm2 = _msm2_ladder
    scalar_mul = ladder_mul
    _pow_p = _pow_p_py
    BACKEND = "pure-python"
else:
    msm2 = _msm2_libcrypto
    scalar_mul = _scalar_mul_libcrypto
    _pow_p = _pow_p_libcrypto
    BACKEND = "libcrypto"


# --- Field square roots and point encoding -----------------------------------


# P - 1 = 2^96 * t with t = 2^128 - 1 odd. 11 is the smallest quadratic
# non-residue, so g = 11^t generates the subgroup of order 2^96.
_TWO_ADICITY = 96
_ODD_PART = (P - 1) >> _TWO_ADICITY
_DIGIT_BITS = 8
_DIGITS = _TWO_ADICITY // _DIGIT_BITS
_SQRT_EXP = (_ODD_PART - 1) // 2  # n^_SQRT_EXP gives both x and u below
HINT_BYTES = _DIGITS  # e/2 < 2^95, as 12 base-256 digits


def _sqrt_tables():
    """``(neg, dlog)``: ``neg[j][k] = g^(-k * 2^(8j))`` for 12 digit
    positions j, and ``dlog`` maps ``g^(k * 2^88)`` (an element of order
    dividing 256) to its digit k."""
    base = pow(pow(11, _ODD_PART, P), -1, P)
    neg = []
    for _ in range(_DIGITS):
        row = [1] * (1 << _DIGIT_BITS)
        for k in range(1, len(row)):
            row[k] = row[k - 1] * base % P
        neg.append(row)
        base = row[-1] * base % P  # base^256: the next digit position
    # g^(-k * 2^88) = g^((256 - k) * 2^88), since g^(2^96) = 1
    dlog = {v: -k % (1 << _DIGIT_BITS) for k, v in enumerate(neg[-1])}
    return neg, dlog


_SQRT_NEG, _SQRT_DLOG = _sqrt_tables()


def _sqrt_digits(n: int):
    """``(x, half)`` for a residue n in [1, P), or None for a non-residue:
    x = n^((t+1)/2) is the root candidate and half = e/2 < 2^95, where
    n^t = g^e, so that x * g^(-half) is a square root of n.

    This is the discrete log in the 2^96 subgroup, the costly part of
    ``sqrt_mod_p`` (Bernstein, "Faster square roots in annoying finite
    fields", 2001; Sarkar, ePrint 2020/1407). With g = 11^t:

    * one exponentiation gives x and u = n^t = g^e;
    * the chain u^(2^(8i)), i = 0..11, costs 88 squarings in all;
    * e is recovered 8 bits at a time, lowest digit first, from 12
      tables of 256 powers g^(-k * 2^(8j)) and one 256-entry dict of
      g^(k * 2^88) -> k, built at import (about 3,300 multiplications,
      a few ms, about 0.2 MB);
    * an odd lowest digit means n is a non-residue, since then
      n^((P-1)/2) = g^(e * 2^95) = -1; otherwise e is even and
      x * g^(-e/2) squares to n * u * g^(-e) = n.

    The exponentiation runs on libcrypto's ``BN_mod_exp_mont`` when the
    library loaded (``_pow_p``). The 88 squarings and the digit loop stay
    in Python: running the chain through ``BN_mod_exp`` as well was
    measured at 83-109 us against about 82 us, the marshalling eating
    the gain.
    """
    x = _pow_p(n, _SQRT_EXP)
    u = x * x % P * n % P
    x = x * n % P
    chain = [u]
    for _ in range(_DIGITS - 1):
        chain.append(pow(chain[-1], 1 << _DIGIT_BITS, P))
    neg = _SQRT_NEG
    top = _DIGITS - 1
    digits = []
    for i in range(_DIGITS):
        # (u * g^-(e mod 2^(8i)))^(2^(88-8i)) = g^(e_i * 2^88)
        w = chain[top - i]
        for j, d in enumerate(digits):
            w = w * neg[top - i + j][d] % P
        d = _SQRT_DLOG[w]
        if not digits and d & 1:
            return None
        digits.append(d)
    # 8-bit digits are bytes, lowest first
    return x, int.from_bytes(bytes(digits), "little") >> 1


def _times_neg_powers(x: int, hint: bytes) -> int:
    """x * g^(-h) for the 12 base-256 digits of h, lowest first."""
    neg = _SQRT_NEG
    for j, d in enumerate(hint):
        x = x * neg[j][d] % P
    return x


def sqrt_mod_p(n: int):
    """Square root mod P, or None when n is a non-residue; 0 for n = 0.

    P - 1 has 2-adic valuation 96, the worst case for Tonelli-Shanks,
    so the root comes from a table-driven discrete log in the 2^96
    subgroup (``_sqrt_digits``): x * g^(-e/2).

    Measured as thread CPU time on a shared 2-core x86-64 host (Python
    3.11): the exponentiation takes about 24 us on the thread's scratch,
    ctypes marshalling included, against 90-103 us with ``pow``; a root
    of a residue 0.13-0.17 ms (0.23 ms with ``pow``, 2.1-2.3 ms with
    Tonelli-Shanks); a non-residue 0.08 ms (0.16 ms with ``pow``). The
    run time depends on n; that is acceptable because every input is a
    public value (an abscissa or a compressed point).
    """
    n %= P
    if n == 0:
        return 0
    parts = _sqrt_digits(n)
    if parts is None:
        return None
    x, half = parts
    return _times_neg_powers(x, half.to_bytes(HINT_BYTES, "little"))


def solve_y(x: int):
    """Even-y point with abscissa x, or None when x is not on the curve.

    An x outside [0, P) is not a field element and gives None: decoders
    must not read x and x + P as the same point.
    """
    if not 0 <= x < P:
        return None
    y = sqrt_mod_p((x * x * x + A * x + B) % P)
    if y is None:
        return None
    if y & 1:
        y = P - y
    return (x, y)


def root_hint(x: int) -> bytes:
    """The 12-byte root hint of the point with abscissa x: the base-256
    digits of e/2 < 2^95, lowest first, from ``_sqrt_digits`` of
    x^3 + ax + b. ``point_from_hint(x, root_hint(x))`` equals
    ``solve_y(x)`` without the discrete log.

    The hint is a public function of x. Its cost is a square root's
    minus 12 multiplications; the vehicle pays it once per blinded
    point, when it refills its pool. Raises ValueError when x names no
    point.
    """
    parts = _sqrt_digits((x * x * x + A * x + B) % P) if 0 <= x < P else None
    if parts is None:
        raise ValueError("x is not the abscissa of a curve point")
    return parts[1].to_bytes(HINT_BYTES, "little")


def point_from_hint(x: int, hint: bytes):
    """Even-y point with abscissa x, recovered with its 12-byte root hint
    and no discrete log, or None.

    y = n^((t+1)/2) * g^(-h) with n = x^3 + ax + b and h the hint, kept
    only when y^2 = n: one exponentiation (``_pow_p``), 12 table
    multiplications and one squaring. That check admits exactly one h
    in [0, 2^95) for an x on the curve (two roots differ by g^(2^95) =
    -1, so their h differ by 2^95) and none for an x off it. None for x
    outside [0, P), for a hint of 2^95 or more (one encoding per point)
    and for a failed check; n is never 0 on P-224, whose group order is
    prime. ValueError for a hint that is not 12 bytes.
    """
    if len(hint) != HINT_BYTES:
        raise ValueError(f"root hint must be {HINT_BYTES} bytes")
    if not 0 <= x < P or hint[-1] >> 7:
        return None
    n = (x * x * x + A * x + B) % P
    y = _times_neg_powers(_pow_p(n, _SQRT_EXP) * n % P, hint)
    if y * y % P != n:
        return None
    if y & 1:
        y = P - y
    return (x, y)


def has_even_y(pt) -> bool:
    return pt is not None and pt[1] % 2 == 0


def even_y_key(x: int) -> bytes:
    """``point_compress`` of the even-y point with abscissa x: 0x02 || x."""
    return b"\x02" + x.to_bytes(COORD_BYTES, "big")


def point_compress(pt) -> bytes:
    """29-byte encoding: parity prefix (0x02 even / 0x03 odd) + big-endian x.

    The identity encodes as 29 zero bytes. Used for ledger records, hash
    inputs and key material; the 28-byte x-only wire form lives in ``wire``.
    """
    if pt is None:
        return bytes(29)
    x, y = pt
    return bytes([2 + (y & 1)]) + x.to_bytes(COORD_BYTES, "big")


def point_decompress(data: bytes):
    """The point behind a 29-byte ``point_compress`` encoding (None for
    29 zero bytes); costs a square root. A caller that only needs to know
    the bytes name a point uses ``check_compressed``."""
    if len(data) != 29:
        raise ValueError("compressed point must be 29 bytes")
    if data == bytes(29):
        return None
    prefix = data[0]
    if prefix not in (2, 3):
        raise ValueError("bad point prefix")
    pt = solve_y(int.from_bytes(data[1:], "big"))
    if pt is None:
        raise ValueError("x out of range or not on curve")
    if (pt[1] & 1) != (prefix & 1):
        pt = (pt[0], P - pt[1])
    return pt


_EULER_EXP = (P - 1) // 2


def check_compressed(data: bytes) -> bytes:
    """Return ``data`` when it encodes a point other than the identity,
    else raise ValueError. It accepts exactly the 29-byte strings that
    ``point_decompress`` decodes to a non-identity point, without a root.

    Euler's criterion stands in for the square root: x in [0, P) is a
    point's abscissa exactly when (x^3 + ax + b)^((P-1)/2) = 1, one
    exponentiation through ``_pow_p``. The right-hand side is never 0 on
    P-224, since a point with y = 0 would have order 2 and the group
    order is prime. Measured as thread CPU time on a shared 2-core
    x86-64 host (Python 3.11, native exponent), 300 points interleaved,
    median of a call: 19.5 us against 108 us for ``point_decompress``
    (33-36 against 176-189 us in a slower spell of the same host).
    """
    if len(data) != 29:
        raise ValueError("compressed point must be 29 bytes")
    if data == bytes(29):
        raise ValueError("identity point")
    if data[0] not in (2, 3):
        raise ValueError("bad point prefix")
    x = int.from_bytes(data[1:], "big")
    if x >= P or _pow_p((x * x * x + A * x + B) % P, _EULER_EXP) != 1:
        raise ValueError("x out of range or not on curve")
    return data


# --- Scalar helpers -----------------------------------------------------------


def scalar_to_bytes(s: int) -> bytes:
    return (s % Q).to_bytes(SCALAR_BYTES, "big")


def rand_scalar(rng) -> int:
    """Uniform element of Z_q via rejection sampling (q is close to 2^224)."""
    while True:
        v = int.from_bytes(rng.randbytes(SCALAR_BYTES), "big")
        if v < Q:
            return v


def rand_nonzero_scalar(rng) -> int:
    while True:
        v = rand_scalar(rng)
        if v:
            return v
