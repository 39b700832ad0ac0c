"""Naive group oracle shared by the curve tests and acceptance criterion 3.

Deliberately dumb: schoolbook affine add/double and left-to-right
double-and-add, sharing no code with the Jacobian ladder, the window-NAF
loop or libcrypto that it validates. ``oracle_generator_multiples`` is
the one fixed set of 10^3 seeded scalars both files hold every scalar
multiplication path to; the oracle's answers (about 12 s of affine
arithmetic) are computed once per test process.
"""

import functools
import random

from v2xauth.crypto import curve
from v2xauth.crypto.curve import GEN, P, Q


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
