"""Chameleon hash with trapdoor over the curve group.

The commitment is CH = m*P + r*Y with Y = x*P. Whoever holds the
trapdoor (k, x), where k = m0 + r0*x for the initial input (m0, r0),
can open CH at any randomizer r' by publishing m' = k - r'*x; everyone
else is stuck on the discrete log. The handover exchange leans on two
consequences of the algebra:

* k*P = CH, so the commitment doubles as a public key for k;
* for a blinded base A = alpha*Y, the pair (m, gamma) with
  m = k - (alpha*gamma)*x satisfies m*P + gamma*A = CH, which is what a
  verifier who knows only CH can check without ever seeing Y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import Q, msm2


@dataclass(frozen=True)
class ChameleonTrapdoor:
    """Secret opening key: k = m0 + r0*x for the recorded initial input."""

    k: int
    x: int


def ch_commit(y_point, m: int, r: int):
    """CH_Y(m, r) = m*P + r*Y."""
    return msm2(m, r, y_point)


def ch_collide(td: ChameleonTrapdoor, r_new: int) -> int:
    """Opening value m' = k - r_new*x; r_new must be in Z_q*."""
    r_new %= Q
    if r_new == 0:
        raise ValueError("collision randomizer must be a nonzero scalar")
    return (td.k - r_new * td.x) % Q
