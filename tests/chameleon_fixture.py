"""A chameleon-hash key pair for tests that need one outside the
registration exchange (the vehicle builds its own in
``Vehicle.build_registration``)."""

from dataclasses import dataclass

from v2xauth.crypto import chameleon, curve
from v2xauth.crypto.curve import GEN, Q


@dataclass(frozen=True)
class ChameleonHashKey:
    """Public side: base point Y = x*P and the commitment CH."""

    y_point: "tuple[int, int]"
    commitment: "tuple[int, int]"


def ch_keygen(rng):
    """A fresh key pair: (trapdoor, hash key, m0, r0), with x, m0 and r0
    drawn from Z_q* in that order."""
    x = curve.rand_nonzero_scalar(rng)
    m0 = curve.rand_nonzero_scalar(rng)
    r0 = curve.rand_nonzero_scalar(rng)
    y_point = curve.scalar_mul(GEN, x)
    trapdoor = chameleon.ChameleonTrapdoor(k=(m0 + r0 * x) % Q, x=x)
    return trapdoor, ChameleonHashKey(y_point=y_point, commitment=chameleon.ch_commit(y_point, m0, r0)), m0, r0
