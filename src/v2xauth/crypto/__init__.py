"""Stateless cryptographic primitives: group arithmetic, chameleon hash,
the domain-separated hash family, symmetric layer, and signatures.

Everything here is pure and reentrant; randomness always comes from a
caller-supplied RNG handle.
"""

from .curve import (
    CurveParams,
    P224,
    GEN,
    P,
    Q,
    SCALAR_BYTES,
    COORD_BYTES,
    SECURITY_BITS,
    is_on_curve,
    point_add,
    point_neg,
    point_compress,
    point_decompress,
    scalar_mul,
    msm2,
    solve_y,
    has_even_y,
    scalar_to_bytes,
    scalar_from_bytes,
    rand_scalar,
    rand_nonzero_scalar,
)
from .chameleon import ChameleonHashKey, ChameleonTrapdoor, ch_collide, ch_commit, ch_keygen
from .hashes import (
    HASH_FAMILY,
    TAG_LEN,
    h0,
    h1,
    h2,
    h3,
    h4,
    h5,
    h6,
    hash_to_scalar,
    xof_bytes,
)
from .symmetric import PID_LEN, pid_decrypt, pid_encrypt, sym_decrypt, sym_encrypt
from .signatures import (
    IntegrityError,
    SIG_LEN,
    adec,
    aenc,
    keygen_enc,
    keygen_sig,
    sign,
    verify,
)
