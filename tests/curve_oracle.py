"""Group oracles shared by the curve tests and acceptance criterion 3.

The naive oracle is deliberately dumb: schoolbook affine add/double and
left-to-right double-and-add, sharing no code with the Jacobian ladder,
the window-NAF reference or libcrypto that it validates.
``oracle_generator_multiples`` is the one fixed set of 10^3 seeded
scalars both files hold every scalar multiplication path to; the
oracle's answers (about 12 s of affine arithmetic) are computed once per
test process.

``msm2_wnaf`` is a window-NAF two-term multiplication: one doubling
chain shared by the terms, about 3 ms a call against about 9 ms for the
package's fallback of two ladders. It is the fast reference for the differential tests that hold
``curve._msm2_libcrypto`` to 10^4 instances, and is itself checked
against the naive oracle. It shares the curve module's Jacobian
doubling and addition with the ladder.

``curve_without_libcrypto`` imports a fresh copy of the curve module
while ``ctypes.CDLL`` fails: the pure-Python backend, side by side with
the loaded one.
"""

import ctypes
import functools
import importlib.util
import random

from v2xauth.crypto import curve
from v2xauth.crypto.curve import _JAC_O, GEN, P, Q, _jac_add, _jac_double, _jac_to_affine


def oracle_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 + curve.A) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow((x2 - x1) % P, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return (x3, (lam * (x1 - x3) - y1) % P)


def oracle_mul(pt, k):
    """Naive left-to-right double-and-add."""
    acc = None
    for i in range(k.bit_length() - 1, -1, -1):
        acc = oracle_add(acc, acc)
        if (k >> i) & 1:
            acc = oracle_add(acc, pt)
    return acc


@functools.lru_cache(maxsize=1)
def oracle_generator_multiples():
    """10^3 pairs ``(s, s*GEN)``: s uniform in [0, Q), the point from the oracle."""
    rng = random.Random(0xEC)
    return tuple((s, oracle_mul(GEN, s)) for s in (rng.randrange(Q) for _ in range(1000)))


# --- window-NAF reference for msm2 ---------------------------------------------


def _jac_add_affine(X1, Y1, Z1, x2, y2):
    # mixed addition, second operand affine (Z2 = 1)
    if not Z1:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % P
    U2 = x2 * Z1Z1 % P
    S2 = y2 * Z1 % P * Z1Z1 % P
    H = (U2 - X1) % P
    if not H:
        if S2 == Y1:
            return _jac_double(X1, Y1, Z1)
        return _JAC_O
    HH = H * H % P
    I = 4 * HH % P
    J = H * I % P
    r = 2 * (S2 - Y1) % P
    V = X1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * Y1 * J) % P
    Z3 = ((Z1 + H) * (Z1 + H) - Z1Z1 - HH) % P
    return (X3, Y3, Z3)


def _batch_to_affine(triples):
    """Convert many Jacobian points with one shared inversion (Montgomery trick)."""
    zs = [t[2] for t in triples]
    n = len(zs)
    prefix = [1] * (n + 1)
    for i, z in enumerate(zs):
        prefix[i + 1] = prefix[i] * z % P
    inv_all = pow(prefix[n], -1, P)
    out = [None] * n
    for i in range(n - 1, -1, -1):
        zi = prefix[i] * inv_all % P
        inv_all = inv_all * zs[i] % P
        zi2 = zi * zi % P
        X, Y, _ = triples[i]
        out[i] = (X * zi2 % P, Y * zi2 % P * zi % P)
    return out


def _wnaf(k: int, w: int):
    digits = []
    while k:
        if k & 1:
            d = k & ((1 << w) - 1)
            if d >= 1 << (w - 1):
                d -= 1 << w
            digits.append(d)
            k -= d
        else:
            digits.append(0)
        k >>= 1
    return digits


def _odd_multiples(pt, w: int):
    """Affine table [1*pt, 3*pt, ..., (2^(w-1)-1)*pt]."""
    count = 1 << (w - 2)
    jac = [(pt[0], pt[1], 1)]
    twice = _jac_double(pt[0], pt[1], 1)
    for _ in range(count - 1):
        jac.append(_jac_add(*jac[-1], *twice))
    return _batch_to_affine(jac)


_WINDOW = 5
_GEN_TABLE = _odd_multiples(GEN, _WINDOW)


def msm2_wnaf(m: int, gamma: int, a_pt):
    """Return ``m*GEN + gamma*a_pt`` (variable-time, shared doubling chain).

    The reference ``curve._msm2_libcrypto`` is held to, about 3 ms a
    call; its input must be on the curve.
    """
    m %= Q
    gamma %= Q
    if a_pt is None or gamma == 0:
        if m == 0:
            return None
        gamma = 0

    nm = _wnaf(m, _WINDOW) if m else []
    ng = _wnaf(gamma, _WINDOW) if gamma else []
    a_table = _odd_multiples(a_pt, _WINDOW) if gamma else ()
    if len(nm) < len(ng):
        nm += [0] * (len(ng) - len(nm))
    else:
        ng += [0] * (len(nm) - len(ng))

    acc = _JAC_O
    for i in range(len(nm) - 1, -1, -1):
        acc = _jac_double(*acc)
        for d, table in ((nm[i], _GEN_TABLE), (ng[i], a_table)):
            if d > 0:
                acc = _jac_add_affine(*acc, *table[d >> 1])
            elif d < 0:
                px, py = table[-d >> 1]
                acc = _jac_add_affine(*acc, px, P - py)
    return _jac_to_affine(*acc)


def curve_without_libcrypto(monkeypatch):
    """A fresh copy of the module, imported while ``ctypes.CDLL`` fails."""

    def refuse(*args, **kwargs):
        raise OSError("libcrypto.so.3: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", refuse)
    spec = importlib.util.spec_from_file_location("_curve_without_libcrypto", curve.__file__)
    isolated = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(isolated)
    return isolated
