"""Group arithmetic checked against an independent naive oracle.

The oracle (``curve_oracle``) is deliberately dumb: schoolbook affine
add/double and left-to-right double-and-add, sharing no code with the
paths it validates.

Both multiplication routines have a native and a pure-Python
implementation. ``scalar_mul`` is ``curve._scalar_mul_libcrypto`` when
libcrypto.so.3 loads and the ladder ``curve.ladder_mul`` otherwise;
``msm2`` is ``curve._msm2_libcrypto`` or ``curve._msm2_ladder``, two
ladders and one addition. The oracle checks run on each. Differential
tests hold the native paths to the ladder and to the window-NAF
reference ``curve_oracle.msm2_wnaf``, which is three times faster than
two ladders and is itself held to the naive oracle. Both backends
refuse an off-curve point with ValueError in the same cases; a fresh
copy of the module imported while ``ctypes.CDLL`` fails is the
fallback they are compared with. Reference cases always run; native
cases skip only when the library did not load.

``sqrt_mod_p`` is a table-driven discrete log; the Tonelli-Shanks square
root it replaced lives here as its oracle, with Euler's criterion as the
residuosity verdict. Its one big exponentiation runs on libcrypto's
``BN_mod_exp_mont`` when the library loaded; Python's ``pow`` is the
reference that path is held to, and the fallback. ``check_compressed``
(Euler's criterion, no root) is held to ``point_decompress``'s verdict,
and ``point_from_hint`` with ``root_hint``'s hint to ``solve_y``.
"""

import ctypes
import importlib.util
import random
import sys
import threading

import pytest
from curve_oracle import curve_without_libcrypto, msm2_wnaf, oracle_add, oracle_generator_multiples, oracle_mul
from hypothesis import given, settings
from hypothesis import strategies as st

from v2xauth.crypto import curve
from v2xauth.crypto.curve import GEN, P, Q


def oracle_is_residue(n):
    """Euler's criterion; 0 counts as a square."""
    n %= P
    return n == 0 or pow(n, (P - 1) // 2, P) == 1


def oracle_sqrt(n):
    """Tonelli-Shanks square root mod P, or None for a non-residue."""
    n %= P
    if n == 0:
        return 0
    if not oracle_is_residue(n):
        return None
    s = 96  # P - 1 = t * 2^s with t odd
    t = (P - 1) >> s
    c = pow(11, t, P)  # 11 is the smallest non-residue
    m = s
    u = pow(n, t, P)
    r = pow(n, (t + 1) // 2, P)
    while u != 1:
        d = u
        i = 0
        while d != 1:
            d = d * d % P
            i += 1
        b = pow(c, 1 << (m - i - 1), P)
        m = i
        c = b * b % P
        u = u * c % P
        r = r * b % P
    return r


needs_libcrypto = pytest.mark.skipif(
    curve._LIBCRYPTO is None, reason="libcrypto.so.3 with secp224r1 did not load"
)

# the ladder, and the bound routine: native when the library loaded
SCALAR_MULS = (curve.ladder_mul, curve.scalar_mul)


def test_generator_on_curve_and_order():
    assert curve.is_on_curve(GEN)
    for mul in SCALAR_MULS:
        assert mul(GEN, Q) is None, mul
        assert mul(GEN, Q - 1) == curve.point_neg(GEN), mul


def test_scalar_mul_trivial_cases():
    for mul in SCALAR_MULS:
        assert mul(GEN, 0) is None, mul
        assert mul(GEN, 1) == GEN, mul
        assert mul(None, 12345) is None, mul


def test_scalar_mul_matches_naive_oracle():
    for s, expected in oracle_generator_multiples():
        for mul in SCALAR_MULS:
            assert mul(GEN, s) == expected, (mul, s)


def test_scalar_mul_on_random_base_points():
    rng = random.Random(0xEC + 1)
    for _ in range(16):
        base = curve.ladder_mul(GEN, curve.rand_nonzero_scalar(rng))
        s = rng.randrange(1, Q)
        expected = oracle_mul(base, s)
        for mul in SCALAR_MULS:
            assert mul(base, s) == expected, (mul, base, s)


def _walk(rng, n):
    """n distinct pseudo-random points: a random base stepped by a random
    point, one affine addition each instead of a multiplication each."""
    pt = curve.ladder_mul(GEN, curve.rand_nonzero_scalar(rng))
    step = curve.ladder_mul(GEN, curve.rand_nonzero_scalar(rng))
    for _ in range(n):
        yield pt
        pt = curve.point_add(pt, step)


@needs_libcrypto
def test_scalar_mul_libcrypto_matches_wnaf_on_random_instances():
    rng = random.Random(0xEC + 18)
    for pt in _walk(rng, 1_000):
        s = rng.randrange(Q)
        assert curve._scalar_mul_libcrypto(pt, s) == msm2_wnaf(0, s, pt), (pt, s)
        s = rng.randrange(Q)
        assert curve._scalar_mul_libcrypto(GEN, s) == msm2_wnaf(s, 0, None), s


@needs_libcrypto
def test_scalar_mul_libcrypto_matches_ladder_on_random_instances():
    rng = random.Random(0xEC + 19)
    for i, pt in enumerate(_walk(rng, 300)):
        pt = GEN if i % 3 == 0 else pt
        s = rng.randrange(Q)
        assert curve._scalar_mul_libcrypto(pt, s) == curve.ladder_mul(pt, s), (pt, s)


def _scalar_edge_cases():
    """(point, scalar) pairs at the edges: s = 0, s = Q, s > Q, s = Q - 1,
    the identity, GEN and its negation."""
    rng = random.Random(0xEC + 20)
    a_pt = curve.ladder_mul(GEN, curve.rand_nonzero_scalar(rng))
    s = curve.rand_nonzero_scalar(rng)
    cases = []
    for pt in (GEN, curve.point_neg(GEN), a_pt):
        cases += [(pt, 0), (pt, 1), (pt, 2), (pt, Q), (pt, Q - 1), (pt, Q + 1), (pt, Q + s), (pt, 5 * Q + s)]
        cases += [(pt, 2**256 + s), (pt, s)]
    cases += [(None, 0), (None, s), (None, Q)]
    return cases


@needs_libcrypto
def test_scalar_mul_libcrypto_edge_scalars_and_identity():
    for pt, s in _scalar_edge_cases():
        assert curve._scalar_mul_libcrypto(pt, s) == curve.ladder_mul(pt, s), (pt, s)
    assert curve._scalar_mul_libcrypto(GEN, Q) is None
    assert curve._scalar_mul_libcrypto(None, 7) is None


@needs_libcrypto
def test_generator_through_fixed_and_variable_base_forms(monkeypatch):
    rng = random.Random(0xEC + 21)
    for _ in range(200):
        s = curve.rand_nonzero_scalar(rng)
        fixed = curve._msm2_libcrypto(s, 0, None)
        variable = curve._msm2_libcrypto(0, s, GEN)
        assert fixed == variable == msm2_wnaf(s, 0, None), s
    # scalar_mul picks the fixed-base form for GEN, also when it is passed
    # as an equal tuple rather than the module's object, and the
    # variable-base form for any other point
    calls = []
    native = curve._msm2_libcrypto

    def recorded(m, gamma, a_pt):
        calls.append((m, gamma, a_pt))
        return native(m, gamma, a_pt)

    monkeypatch.setattr(curve, "_msm2_libcrypto", recorded)
    neg = curve.point_neg(GEN)
    assert curve._scalar_mul_libcrypto((GEN[0], GEN[1]), 12345) == curve.ladder_mul(GEN, 12345)
    assert curve._scalar_mul_libcrypto(neg, 12345) == curve.ladder_mul(neg, 12345)
    assert calls == [(12345, 0, None), (0, 12345, neg)]


@needs_libcrypto
def test_scalar_mul_libcrypto_concurrent_calls_match_reference():
    rng = random.Random(0xEC + 23)
    cases = [(pt, rng.randrange(Q)) for pt in _walk(rng, 30)]
    cases += [(GEN, rng.randrange(Q)) for _ in range(20)]
    cases += _scalar_edge_cases()
    expected = [msm2_wnaf(0, s, pt) for pt, s in cases]
    results = {}

    def worker(tid):
        results[tid] = [curve._scalar_mul_libcrypto(pt, s) for _ in range(8) for pt, s in cases]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert got == expected * 8


@needs_libcrypto
def test_group_method_is_nistp224_where_the_library_has_it():
    # the side-channel statement in curve's docstring rests on this method
    lib, group = curve._LIBCRYPTO
    probe = ctypes.CDLL("libcrypto.so.3")
    try:
        nistp224 = probe.EC_GFp_nistp224_method
    except AttributeError:
        pytest.skip("this libcrypto is built without the nistp224 method")
    nistp224.restype = ctypes.c_void_p
    nistp224.argtypes = []
    probe.EC_GROUP_method_of.restype = ctypes.c_void_p
    probe.EC_GROUP_method_of.argtypes = [ctypes.c_void_p]
    assert probe.EC_GROUP_method_of(group) == nistp224()


def _check_msm2_composes_single_scalar_oracle(msm2):
    rng = random.Random(0xEC + 2)
    for _ in range(32):
        a_pt = curve.scalar_mul(GEN, curve.rand_nonzero_scalar(rng))
        m = rng.randrange(Q)
        g = rng.randrange(Q)
        expected = oracle_add(oracle_mul(GEN, m), oracle_mul(a_pt, g))
        assert msm2(m, g, a_pt) == expected


def _check_msm2_degenerate_terms(msm2):
    rng = random.Random(0xEC + 3)
    a_pt = curve.scalar_mul(GEN, curve.rand_nonzero_scalar(rng))
    assert msm2(0, 0, a_pt) is None
    m = rng.randrange(1, Q)
    assert msm2(m, 0, a_pt) == curve.ladder_mul(GEN, m)
    g = rng.randrange(1, Q)
    assert msm2(0, g, a_pt) == curve.ladder_mul(a_pt, g)
    assert msm2(m, g, None) == curve.ladder_mul(GEN, m)


def test_msm2_composes_single_scalar_oracle():
    # the fallback, and the reference the native path is held to
    for msm2 in (curve._msm2_ladder, msm2_wnaf):
        _check_msm2_composes_single_scalar_oracle(msm2)


def test_msm2_degenerate_terms():
    for msm2 in (curve._msm2_ladder, msm2_wnaf):
        _check_msm2_degenerate_terms(msm2)


@needs_libcrypto
def test_msm2_libcrypto_composes_single_scalar_oracle():
    _check_msm2_composes_single_scalar_oracle(curve._msm2_libcrypto)


@needs_libcrypto
def test_msm2_libcrypto_degenerate_terms():
    _check_msm2_degenerate_terms(curve._msm2_libcrypto)


def _degenerate_msm2_cases():
    rng = random.Random(0xEC + 9)
    a = curve.rand_nonzero_scalar(rng)
    a_pt = curve.scalar_mul(GEN, a)
    m = curve.rand_nonzero_scalar(rng)
    g = curve.rand_nonzero_scalar(rng)
    return [
        (0, 0, a_pt),
        (0, 0, None),
        (m, 0, a_pt),
        (0, g, a_pt),
        (m, g, None),
        (0, g, None),
        (Q, Q, a_pt),
        (Q + m, 2 * Q + g, a_pt),
        (m + 5 * Q, g, GEN),
        (m, g, GEN),
        (m, g, curve.point_neg(GEN)),
        (g, Q - g, GEN),  # lands on the identity
        (g, g, curve.point_neg(GEN)),  # identity
        ((-g * a) % Q, g, a_pt),  # identity
        (Q - 1, 1, GEN),  # identity
        (1, 1, GEN),  # doubling inside the sum
        (Q - 1, 0, None),
    ]


@needs_libcrypto
def test_msm2_libcrypto_matches_reference_on_degenerate_inputs():
    for m, g, a_pt in _degenerate_msm2_cases():
        assert curve._msm2_libcrypto(m, g, a_pt) == msm2_wnaf(m, g, a_pt), (m, g, a_pt)


@needs_libcrypto
def test_msm2_libcrypto_matches_reference_on_random_instances():
    rng = random.Random(0xEC + 10)
    for a_pt in _walk(rng, 10_000):
        m = rng.randrange(Q)
        g = rng.randrange(Q)
        assert curve._msm2_libcrypto(m, g, a_pt) == msm2_wnaf(m, g, a_pt), (m, g, a_pt)


@needs_libcrypto
def test_msm2_libcrypto_concurrent_calls_match_reference():
    rng = random.Random(0xEC + 11)
    a_pt = curve.scalar_mul(GEN, curve.rand_nonzero_scalar(rng))
    cases = [(rng.randrange(Q), rng.randrange(Q), a_pt) for _ in range(50)]
    cases += _degenerate_msm2_cases()
    expected = [msm2_wnaf(*case) for case in cases]
    results = {}

    def worker(tid):
        results[tid] = [curve._msm2_libcrypto(*case) for _ in range(8) for case in cases]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert got == expected * 8


@needs_libcrypto
def test_msm2_libcrypto_reused_scratch_carries_nothing_between_calls():
    # every ordered pair of a zero term, an identity result and a random
    # instance, back to back on this thread's scratch
    rng = random.Random(0xEC + 12)
    a = curve.rand_nonzero_scalar(rng)
    a_pt = curve.scalar_mul(GEN, a)
    m = curve.rand_nonzero_scalar(rng)
    g = curve.rand_nonzero_scalar(rng)
    cases = [
        (0, g, a_pt),  # m = 0
        (m, 0, a_pt),  # gamma = 0
        (0, 0, a_pt),
        ((-g * a) % Q, g, a_pt),  # identity
        (rng.randrange(Q), rng.randrange(Q), a_pt),
        (rng.randrange(Q), rng.randrange(Q), curve.point_neg(a_pt)),
    ]
    expected = [msm2_wnaf(*case) for case in cases]
    for i, first in enumerate(cases):
        for j, second in enumerate(cases):
            assert curve._msm2_libcrypto(*first) == expected[i], first
            assert curve._msm2_libcrypto(*second) == expected[j], (first, second)


@needs_libcrypto
def test_import_self_check_leaves_no_scratch(monkeypatch):
    spec = importlib.util.spec_from_file_location("_curve_fresh_copy", curve.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert fresh.BACKEND == "libcrypto"
    assert fresh.scalar_mul is fresh._scalar_mul_libcrypto
    assert "scratch" not in vars(fresh._TLS)


def test_msm2_falls_back_to_reference_without_libcrypto(monkeypatch):
    isolated = curve_without_libcrypto(monkeypatch)
    assert isolated._LIBCRYPTO is None
    assert isolated.BACKEND == "pure-python"
    assert isolated.msm2 is isolated._msm2_ladder
    assert isolated.scalar_mul is isolated.ladder_mul
    _check_msm2_degenerate_terms(isolated.msm2)
    for pt, s in _scalar_edge_cases()[:12]:
        assert isolated.scalar_mul(pt, s) == curve.ladder_mul(pt, s), (pt, s)


def test_msm2_public_name_is_the_loaded_backend():
    bound = (curve.msm2, curve.scalar_mul, curve._pow_p, curve.BACKEND)
    if curve._LIBCRYPTO is None:
        assert bound == (curve._msm2_ladder, curve.ladder_mul, curve._pow_p_py, "pure-python")
    else:
        assert bound == (curve._msm2_libcrypto, curve._scalar_mul_libcrypto, curve._pow_p_libcrypto, "libcrypto")


def _off_curve_points():
    """Points ``is_on_curve`` refuses: a wrong y, y = 0, the unreduced twin
    (x + P, y) of a point with a small x (libcrypto would reduce it), and
    coordinates below 0 or at 2^224."""
    small = next(pt for pt in map(curve.solve_y, range(1, 100)) if pt is not None)
    return [
        (GEN[0], (GEN[1] + 1) % P),
        (0, 0),
        (GEN[0], 0),
        (small[0] + P, small[1]),
        (GEN[0], -GEN[1]),
        (-1, GEN[1]),
        (2**224, GEN[1]),
    ]


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the ValueError it raises, as a value."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@needs_libcrypto
def test_both_backends_return_the_same_point_or_both_refuse(monkeypatch):
    fallback = curve_without_libcrypto(monkeypatch)
    assert (fallback.msm2, fallback.scalar_mul) == (fallback._msm2_ladder, fallback.ladder_mul)
    rng = random.Random(0xEC + 22)
    a_pt = curve.scalar_mul(GEN, curve.rand_nonzero_scalar(rng))
    m, g = curve.rand_nonzero_scalar(rng), curve.rand_nonzero_scalar(rng)
    scalars = [(0, 0), (m, 0), (m, Q), (0, g), (m, g), (Q + m, 2 * Q + g)]
    points = [None, GEN, a_pt] + _off_curve_points()
    refused = 0
    for mm, gg, pt in [(mm, gg, pt) for pt in points for mm, gg in scalars] + _degenerate_msm2_cases():
        off = pt is not None and not curve.is_on_curve(pt)
        native = _outcome(curve._msm2_libcrypto, mm, gg, pt)
        assert native == _outcome(fallback.msm2, mm, gg, pt), (mm, gg, pt)
        assert (native == ("ValueError", "point not on the curve")) == (off and gg % Q != 0), (mm, gg, pt)
        refused += off and gg % Q != 0
    for pt in points:
        off = pt is not None and not curve.is_on_curve(pt)
        for s in (0, Q, g, Q + g):
            native = _outcome(curve._scalar_mul_libcrypto, pt, s)
            assert native == _outcome(fallback.scalar_mul, pt, s), (pt, s)
            assert (native == ("ValueError", "point not on the curve")) == (off and s % Q != 0), (pt, s)
    assert refused == 3 * len(_off_curve_points())


def _libcrypto_error_pending():
    """True when this thread's libcrypto error queue is not empty."""
    lib = ctypes.CDLL("libcrypto.so.3")  # the loaded library; its queue is per thread
    lib.ERR_peek_error.restype = ctypes.c_ulong
    lib.ERR_peek_error.argtypes = []
    return lib.ERR_peek_error() != 0


@needs_libcrypto
def test_libcrypto_refusal_leaves_no_error_and_the_scratch_usable():
    rng = random.Random(0xEC + 13)
    a_pt = curve.scalar_mul(GEN, curve.rand_nonzero_scalar(rng))
    scratch = curve._scratch()
    for off in _off_curve_points():
        m, g = rng.randrange(1, Q), rng.randrange(1, Q)
        with pytest.raises(ValueError, match="point not on the curve"):
            curve._msm2_libcrypto(m, g, off)
        assert not _libcrypto_error_pending()
        assert curve._msm2_libcrypto(m, g, a_pt) == msm2_wnaf(m, g, a_pt)
        with pytest.raises(ValueError, match="point not on the curve"):
            curve._scalar_mul_libcrypto(off, g)
        assert not _libcrypto_error_pending()
        assert curve._scalar_mul_libcrypto(GEN, g) == curve.ladder_mul(GEN, g)
    assert curve._scratch() is scratch


def test_point_add_inverse_and_identity():
    assert curve.point_add(GEN, None) == GEN
    assert curve.point_add(None, GEN) == GEN
    assert curve.point_add(GEN, curve.point_neg(GEN)) is None
    assert curve.point_add(GEN, GEN) == oracle_add(GEN, GEN)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=Q - 1), st.integers(min_value=0, max_value=Q - 1))
def test_scalar_mul_is_additive_homomorphism(a, b):
    lhs = curve.point_add(curve.scalar_mul(GEN, a), curve.scalar_mul(GEN, b))
    assert lhs == curve.scalar_mul(GEN, (a + b) % Q)


def test_compress_round_trip():
    rng = random.Random(0xEC + 4)
    for _ in range(32):
        pt = curve.scalar_mul(GEN, curve.rand_nonzero_scalar(rng))
        assert curve.point_decompress(curve.point_compress(pt)) == pt
    assert curve.point_decompress(curve.point_compress(None)) is None


def test_decompress_rejects_bad_input():
    with pytest.raises(ValueError):
        curve.point_decompress(b"\x02" + bytes(27))
    with pytest.raises(ValueError):
        curve.point_decompress(b"\x05" + bytes(28))
    # x = 0: 0^3 + a*0 + b must be a residue for this to decode; check behaviour
    # is a clean error or a valid point, never junk
    try:
        pt = curve.point_decompress(b"\x02" + bytes(28))
        assert curve.is_on_curve(pt)
    except ValueError:
        pass


def _decodes_to_a_point(data):
    """``point_decompress``'s verdict: True for a point other than O."""
    try:
        return curve.point_decompress(data) is not None
    except ValueError:
        return False


def _accepted(check, data):
    try:
        return check(data) == data
    except ValueError:
        return False


def _compressed_corpus():
    """29-byte strings around every rule of the encoding: random points
    of both parities under every prefix 0-5, off-curve x, x = P, x > P
    (also with x - P on the curve), and 29 zero bytes."""
    rng = random.Random(0xEC + 30)
    on_x = [x for x in range(1, 100) if curve.solve_y(x) is not None][:4]
    off_x = [x for x in range(1, 100) if curve.solve_y(x) is None][:4]
    xs = on_x + off_x + [x + P for x in on_x] + [0, P, P + 1, 2**224 - 1]
    for _ in range(150):
        xs.append(curve.scalar_mul(GEN, rng.randrange(1, Q))[0])
        xs.append(rng.randrange(P))
    return [bytes(29)] + [bytes([prefix]) + x.to_bytes(28, "big") for x in xs for prefix in range(6)]


def test_check_compressed_accepts_exactly_what_decodes_to_a_point():
    corpus = _compressed_corpus()
    accepted = [data for data in corpus if _accepted(curve.check_compressed, data)]
    for data in corpus:
        assert _accepted(curve.check_compressed, data) == _decodes_to_a_point(data), data.hex()
    # both parities of real points, and refusals for every other rule
    assert {data[0] for data in accepted} == {2, 3}
    assert 100 < len(accepted) < len(corpus) - 100
    for bad in (bytes(28), bytes(30), b"\x02" + bytes(29), b"", curve.point_compress(GEN)[:28]):
        with pytest.raises(ValueError):
            curve.check_compressed(bad)
        with pytest.raises(ValueError):
            curve.point_decompress(bad)


def test_check_compressed_takes_no_square_root(monkeypatch):
    corpus = _compressed_corpus()
    calls = []
    monkeypatch.setattr(curve, "sqrt_mod_p", lambda n: calls.append(n))
    assert sum(_accepted(curve.check_compressed, data) for data in corpus) > 100
    assert calls == []


def test_check_compressed_agrees_without_libcrypto(monkeypatch):
    isolated = curve_without_libcrypto(monkeypatch)
    assert isolated._pow_p is isolated._pow_p_py
    for data in _compressed_corpus()[:300]:
        assert _accepted(isolated.check_compressed, data) == _decodes_to_a_point(data), data.hex()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(min_size=29, max_size=29),
        st.builds(lambda p, rest: bytes([p]) + rest, st.integers(0, 5), st.binary(min_size=28, max_size=28)),
    )
)
def test_check_compressed_agrees_with_point_decompress_on_random_bytes(data):
    assert _accepted(curve.check_compressed, data) == _decodes_to_a_point(data)


def test_sqrt_mod_p_agrees_with_squaring():
    rng = random.Random(0xEC + 5)
    for _ in range(64):
        v = rng.randrange(P)
        root = curve.sqrt_mod_p(v * v % P)
        assert root is not None
        assert root * root % P == v * v % P


def test_sqrt_mod_p_rejects_non_residue():
    # 11 is the canonical non-residue for this field
    assert curve.sqrt_mod_p(11) is None


def test_solve_y_even_convention():
    rng = random.Random(0xEC + 6)
    found = 0
    for _ in range(64):
        x = rng.randrange(P)
        pt = curve.solve_y(x)
        if pt is not None:
            assert curve.is_on_curve(pt)
            assert pt[1] % 2 == 0
            found += 1
    assert found > 0


def _check_root(n, root):
    """sqrt_mod_p's result for n against the oracle."""
    if not oracle_is_residue(n):
        assert root is None, n
    else:
        assert root is not None and 0 <= root < P, n
        assert root * root % P == n % P, n


def test_sqrt_mod_p_squares_back_on_seeded_residues():
    rng = random.Random(0xEC + 12)
    for _ in range(10_000):
        n = pow(rng.randrange(P), 2, P)
        root = curve.sqrt_mod_p(n)
        assert root is not None and root * root % P == n, n


def test_sqrt_mod_p_rejects_exactly_the_oracle_non_residues():
    rng = random.Random(0xEC + 13)
    residues = 0
    for _ in range(10_000):
        n = rng.randrange(P)
        root = curve.sqrt_mod_p(n)
        _check_root(n, root)
        residues += root is not None
    assert 4_500 < residues < 5_500


def test_sqrt_mod_p_matches_tonelli_shanks_up_to_sign():
    rng = random.Random(0xEC + 14)
    for _ in range(200):
        n = rng.randrange(P)
        expected = oracle_sqrt(n)
        root = curve.sqrt_mod_p(n)
        if expected is None:
            assert root is None, n
        else:
            assert root in (expected, P - expected), n


def test_sqrt_mod_p_edge_inputs():
    # 0, 1, the non-residue generator 11, -1 (a square, as P = 1 mod 4),
    # and unreduced inputs
    assert curve.sqrt_mod_p(0) == 0
    assert curve.sqrt_mod_p(P) == 0
    for n in (0, 1, 11, P - 1, P, P + 4, 2 * P + 9, 4, 9, 3 * P - 1):
        root = curve.sqrt_mod_p(n)
        _check_root(n, root)
        expected = oracle_sqrt(n)
        assert (root is None) == (expected is None), n
        if root is not None:
            assert root in (expected, (P - expected) % P), n
    assert curve.sqrt_mod_p(11) is None
    assert curve.sqrt_mod_p(P - 1) is not None


def _pow_p_inputs():
    """10^4 seeded bases for the square root's exponent: the edges 0, 1,
    P - 1, unreduced values in [P, 2^224), and uniform field elements."""
    rng = random.Random(0xEC + 16)
    edges = [0, 1, 2, 11, P - 1, P, P + 1, 2**224 - 1]
    unreduced = [rng.randrange(P, 2**224) for _ in range(500)]
    return edges + unreduced + [rng.randrange(P) for _ in range(10_000 - len(edges) - len(unreduced))]


@needs_libcrypto
def test_pow_p_libcrypto_matches_python_pow():
    e = curve._SQRT_EXP
    for n in _pow_p_inputs():
        assert curve._pow_p_libcrypto(n, e) == curve._pow_p_py(n, e) == pow(n, e, P), n
    for e in (0, 1, 2, P - 2, P - 1, (P - 1) // 2):
        for n in (0, 1, 3, P - 1, GEN[0]):
            assert curve._pow_p_libcrypto(n, e) == pow(n, e, P), (n, e)


@needs_libcrypto
def test_pow_p_libcrypto_concurrent_calls_match_reference():
    e = curve._SQRT_EXP
    cases = _pow_p_inputs()[:200]
    expected = [pow(n, e, P) for n in cases]
    results = {}

    def worker(tid):
        results[tid] = [curve._pow_p_libcrypto(n, e) for _ in range(8) for n in cases]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert got == expected * 8


@needs_libcrypto
def test_pow_p_libcrypto_edge_inputs_and_seeded_pairs():
    # the Montgomery context and bignums are reused from call to call, so
    # edges run back to back with random pairs on one thread's scratch
    for n in (0, 1, P - 1, P, 2**224 - 1):
        for e in (0, 1, P - 2, curve._SQRT_EXP):
            assert curve._pow_p_libcrypto(n, e) == pow(n, e, P), (n, e)
    rng = random.Random(0xEC + 17)
    for _ in range(10_000):
        n = rng.randrange(2**224)
        e = rng.randrange(2 ** rng.randrange(1, 257))
        assert curve._pow_p_libcrypto(n, e) == pow(n, e, P), (n, e)


def test_sqrt_mod_p_falls_back_to_python_pow_without_libcrypto(monkeypatch):
    isolated = curve_without_libcrypto(monkeypatch)
    assert isolated._pow_p is isolated._pow_p_py
    inputs = _pow_p_inputs()[:2_000] + [2 * P + 9, 3 * P - 1, 2**300 + 5]
    for n in inputs:
        assert isolated.sqrt_mod_p(n) == curve.sqrt_mod_p(n), n


def test_solve_y_even_root_matches_oracle():
    rng = random.Random(0xEC + 15)
    found = 0
    for _ in range(200):
        x = rng.randrange(P)
        expected = oracle_sqrt((x * x * x + curve.A * x + curve.B) % P)
        pt = curve.solve_y(x)
        if expected is None:
            assert pt is None, x
            continue
        even = expected if expected % 2 == 0 else P - expected
        assert pt == (x, even), x
        assert curve.point_decompress(bytes([2]) + x.to_bytes(28, "big")) == pt
        assert curve.point_decompress(bytes([3]) + x.to_bytes(28, "big")) == (x, P - even)
        found += 1
    assert found > 50


def _seeded_abscissas(count):
    """(on, off): ``count`` seeded random x in [0, P) that name a point,
    and the x without one drawn on the way."""
    rng = random.Random(0xEC + 18)
    on, off = [], []
    while len(on) < count:
        x = rng.randrange(P)
        (on if curve.solve_y(x) is not None else off).append(x)
    return on, off


def test_point_from_hint_equals_solve_y_on_seeded_points():
    on, _ = _seeded_abscissas(10_000)
    for x in on:
        hint = curve.root_hint(x)
        assert len(hint) == curve.HINT_BYTES and hint[-1] < 0x80, x
        pt = curve.point_from_hint(x, hint)
        assert pt == curve.solve_y(x) and pt[1] % 2 == 0, x


def test_point_from_hint_refuses_every_other_hint():
    # two roots differ by the factor -1 = g^(2^95), so one hint in
    # [0, 2^95) passes the square check and every single-bit change fails it
    on, _ = _seeded_abscissas(20)
    for x in on:
        hint = int.from_bytes(curve.root_hint(x), "little")
        for bit in range(8 * curve.HINT_BYTES):
            wrong = (hint ^ (1 << bit)).to_bytes(curve.HINT_BYTES, "little")
            assert curve.point_from_hint(x, wrong) is None, (x, bit)
        for wrong in (hint + 1, hint - 1, hint + (1 << 95)):
            if 0 <= wrong < 2**96:
                assert curve.point_from_hint(x, wrong.to_bytes(curve.HINT_BYTES, "little")) is None, x


def test_point_from_hint_refuses_x_without_a_point():
    on, off = _seeded_abscissas(400)
    rng = random.Random(0xEC + 19)
    assert len(off) > 300
    for x in off:
        hints = [0, 1, rng.randrange(2**95), curve.root_hint(rng.choice(on))]
        for hint in hints:
            if isinstance(hint, int):
                hint = hint.to_bytes(curve.HINT_BYTES, "little")
            assert curve.point_from_hint(x, hint) is None, x
        with pytest.raises(ValueError):
            curve.root_hint(x)


def test_point_from_hint_refuses_a_hint_of_2_95_or_more_and_x_at_or_above_p():
    on, _ = _seeded_abscissas(50)
    for x in on + [3]:
        hint = curve.root_hint(x)
        # the same residue mod 2^95 with the top bit set: a second
        # encoding of the same root, refused before any arithmetic
        assert curve.point_from_hint(x, hint[:-1] + bytes([hint[-1] | 0x80])) is None, x
        assert curve.point_from_hint(x, b"\xff" * curve.HINT_BYTES) is None, x
    # x = 3 is on the curve and 3 + P still fits in 28 bytes
    hint = curve.root_hint(3)
    assert curve.point_from_hint(3, hint) == curve.solve_y(3)
    for x in (3 + P, P, 2**224 - 1, -1):
        assert curve.point_from_hint(x, hint) is None
        with pytest.raises(ValueError):
            curve.root_hint(x)
    for bad in (b"", hint[:-1], hint + b"\x00"):
        with pytest.raises(ValueError):
            curve.point_from_hint(3, bad)


def test_point_from_hint_agrees_without_libcrypto(monkeypatch):
    isolated = curve_without_libcrypto(monkeypatch)
    assert isolated._pow_p is isolated._pow_p_py
    on, off = _seeded_abscissas(300)
    for x in on:
        hint = curve.root_hint(x)
        assert isolated.root_hint(x) == hint, x
        assert isolated.point_from_hint(x, hint) == curve.point_from_hint(x, hint), x
    for x in off[:100]:
        assert isolated.point_from_hint(x, bytes(curve.HINT_BYTES)) is None, x


def test_scalar_bytes_round_trip():
    rng = random.Random(0xEC + 7)
    for _ in range(32):
        s = rng.randrange(Q)
        data = curve.scalar_to_bytes(s)
        assert len(data) == curve.SCALAR_BYTES and int.from_bytes(data, "big") == s
        assert curve.scalar_to_bytes(s + Q) == data


def test_rand_scalar_in_range():
    rng = random.Random(0xEC + 8)
    for _ in range(200):
        assert 0 <= curve.rand_scalar(rng) < Q
        assert 1 <= curve.rand_nonzero_scalar(rng) < Q


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=Q - 1),
    st.integers(min_value=0, max_value=Q - 1),
    st.integers(min_value=0, max_value=Q - 1),
)
def test_scalar_ring_matches_bigint_oracle(a, b, c):
    # protocol-side scalar algebra (k - r*x style) against plain bigints
    assert (a + b * c) % Q == (a % Q + (b % Q) * (c % Q)) % Q
    assert (a - b * c) % Q == (a - (b * c) % Q) % Q
