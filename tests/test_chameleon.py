import random

import pytest
from chameleon_fixture import ch_keygen

from v2xauth.crypto import chameleon, curve
from v2xauth.crypto.curve import GEN, Q


def test_keygen_deterministic_under_seed():
    td1, hk1, m1, r1 = ch_keygen(random.Random(11))
    td2, hk2, m2, r2 = ch_keygen(random.Random(11))
    assert (td1, hk1, m1, r1) == (td2, hk2, m2, r2)
    td3, hk3, _, _ = ch_keygen(random.Random(12))
    assert hk3 != hk1


def test_commitment_is_public_key_of_k():
    # k*P = (m0 + r0*x)*P = m0*P + r0*Y = CH, via the independent group oracle
    td, hk, m0, r0 = ch_keygen(random.Random(13))
    lhs = curve.scalar_mul(GEN, td.k)
    rhs = curve.point_add(curve.scalar_mul(GEN, m0), curve.scalar_mul(hk.y_point, r0))
    assert lhs == rhs == hk.commitment


def test_commit_definitional_cases():
    td, hk, m0, r0 = ch_keygen(random.Random(14))
    assert chameleon.ch_commit(hk.y_point, m0, r0) == hk.commitment
    # opening at r = 0 degenerates to k*P
    assert chameleon.ch_commit(hk.y_point, td.k, 0) == hk.commitment


def test_trapdoor_collision_identity_case():
    td, hk, m0, r0 = ch_keygen(random.Random(15))
    assert chameleon.ch_collide(td, r0) == m0


def test_trapdoor_collisions_hold():
    rng = random.Random(16)
    td, hk, _, _ = ch_keygen(rng)
    for _ in range(64):
        r_new = curve.rand_nonzero_scalar(rng)
        m_new = chameleon.ch_collide(td, r_new)
        assert chameleon.ch_commit(hk.y_point, m_new, r_new) == hk.commitment


def test_collide_rejects_zero_randomizer():
    td, _, _, _ = ch_keygen(random.Random(17))
    with pytest.raises(ValueError):
        chameleon.ch_collide(td, 0)
    with pytest.raises(ValueError):
        chameleon.ch_collide(td, Q)  # reduces to zero


def test_blinded_base_verification_identity():
    # m*P + gamma*A = CH for A = alpha*Y, m = k - (alpha*gamma)*x
    rng = random.Random(18)
    td, hk, _, _ = ch_keygen(rng)
    for _ in range(32):
        alpha = curve.rand_nonzero_scalar(rng)
        gamma = curve.rand_nonzero_scalar(rng)
        a_pt = curve.scalar_mul(hk.y_point, alpha)
        m = (td.k - alpha * gamma % Q * td.x) % Q
        assert curve.msm2(m, gamma, a_pt) == hk.commitment


def test_distinct_inputs_distinct_commitments():
    # seeded corpus, zero collisions expected
    rng = random.Random(19)
    _, hk, _, _ = ch_keygen(rng)
    seen = set()
    for _ in range(10_000):
        m = rng.randrange(1, Q)
        r = rng.randrange(1, Q)
        pt = chameleon.ch_commit(hk.y_point, m, r)
        seen.add(pt)
    assert len(seen) == 10_000
