import math

import numpy as np
import pytest

from entropion import (
    RngState,
    random_cptp,
    random_density,
    random_matrix,
    random_povm,
    random_simplex,
    random_unit_vector,
    random_unitary,
)
from entropion.randgen import (
    _BULK_MIN_ENTRIES,
    _LEAD,
    _MASK64,
    _XORSHIFT_MULT,
    _jump,
    _jump_tables,
    _splitmix64,
    _states,
)


# Golden values pin the generator bit-for-bit.  If any of these move, every
# seeded suite in the package changes silently, so treat a diff here as a
# breaking change, not a tolerance issue.
GOLDEN_U64 = [
    3580622183945639842,
    10378725325292465923,
    8967075514996744559,
    5001014893397904463,
]


def test_u64_golden_sequence():
    r = RngState(42)
    assert [r.next_u64() for _ in range(4)] == GOLDEN_U64


def test_splitmix_golden():
    assert _splitmix64(42) == 13679457532755275413


def test_uniform_golden_and_range():
    r = RngState(42)
    assert r.uniform() == 0.1941059175341826
    assert r.uniform() == 0.5626318272656207
    vals = np.array([r.uniform() for _ in range(5000)])
    assert np.all(vals >= 0) and np.all(vals < 1)
    # uniform_pos never returns 0 (safe to take logs of)
    r2 = RngState(0)
    pos = [r2.uniform_pos() for _ in range(5000)]
    assert min(pos) > 0


def test_normal_pair_golden_and_moments():
    assert RngState(42).normal_pair() == (
        -1.6723115204887142,
        -0.6943174943117943,
    )
    r = RngState(8)
    xs = []
    for _ in range(20000):
        a, b = r.normal_pair()
        xs += [a, b]
    xs = np.array(xs)
    assert abs(xs.mean()) < 0.02
    assert abs(xs.var() - 1.0) < 0.03


def test_complex_normal_scale():
    z = RngState(42).complex_normal()
    assert z == complex(-1.182502816393956, -0.49095660852432194)
    r = RngState(3)
    zs = np.array([r.complex_normal() for _ in range(20000)])
    # E|z|^2 = 1 under the sqrt(1/2) component scaling
    assert abs(np.mean(np.abs(zs) ** 2) - 1.0) < 0.03


def test_same_seed_same_stream():
    a = RngState(123)
    b = RngState(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_child_streams_are_independent_of_draw_order():
    parent = RngState(99)
    parent.next_u64()  # advancing the parent must not move the children
    c3 = parent.child(3).next_u64()
    c5 = parent.child(5).next_u64()
    assert RngState(99).child(3).next_u64() == c3
    assert RngState(99).child(5).next_u64() == c5
    assert c3 != c5


def test_integer_bounds():
    r = RngState(12)
    assert [r.integer(10) for _ in range(5)] == [1, 6, 4, 2, 1]
    r2 = RngState(4)
    draws = [r2.integer(3) for _ in range(300)]
    assert set(draws) == {0, 1, 2}


def test_random_matrix_row_major_fill():
    # the (0,0) entry must equal the first complex draw from the same stream
    m = random_matrix(2, 3, RngState(7))
    z = RngState(7).complex_normal()
    assert m[0, 0] == z
    assert m.shape == (2, 3)


def _assert_draw_matches_stream(shape, a, b):
    """random_matrix on ``a`` equals complex_normal() calls on ``b``, bit for bit."""
    m = random_matrix(*shape, a)
    ref = np.array([b.complex_normal() for _ in range(shape[0] * shape[1])]).reshape(shape)
    assert m.shape == shape and m.dtype == np.complex128
    assert np.array_equal(m.view(np.uint64), ref.view(np.uint64)), shape
    assert (a._state, a.position) == (b._state, b.position)
    assert a.uniform() == b.uniform()
    return m


def test_random_matrix_matches_scalar_stream():
    t = _BULK_MIN_ENTRIES
    shapes = [(r, c) for r in (1, 2, 3, 5, 8) for c in (1, 2, 4, 7)]
    shapes += [(1, 64), (64, 1), (t - 1, 1), (1, t), (t, 1), (16, 16), (33, 70), (64, 64)]
    sizes = {r * c for r, c in shapes}
    assert min(sizes) == 1 and any(n < t for n in sizes) and any(n >= t for n in sizes)
    for k in range(240):
        a, b = RngState(k), RngState(k)
        for _ in range(k % 3):  # start at odd and even stream positions
            a.next_u64(), b.next_u64()
        _assert_draw_matches_stream(shapes[k % len(shapes)], a, b)


def test_jump_ahead_words_match_next_u64():
    # the lead alone, the first jump, and every doubling's edges
    counts = [_LEAD - 1, _LEAD, _LEAD + 1, 6272]
    counts += [(1 << k) + e for k in range(7, 14) for e in (-1, 0, 1)]
    for seed in (1, 7, 123456789):
        ref = RngState(seed)
        outputs, states = [], []
        for _ in range(max(counts)):
            outputs.append(ref.next_u64())
            states.append(ref._state)
        for count in counts:
            rng = RngState(seed)
            words = _states(rng, count) * np.uint64(_XORSHIFT_MULT)
            assert words.tolist() == outputs[:count], (seed, count)
            assert (rng._state, rng.position) == (states[count - 1], count)


def test_jump_tables_equal_repeated_steps():
    words = np.random.default_rng(5).integers(0, 1 << 64, 100, dtype=np.uint64).tolist()
    for i in range(5):  # A^64 ... A^1024
        jumped = _jump(_jump_tables(i), np.array(words, dtype=np.uint64)).tolist()
        stepped = []
        for s in words:
            for _ in range(_LEAD << i):
                s ^= s >> 12
                s ^= (s << 25) & _MASK64
                s ^= s >> 27
            stepped.append(s)
        assert jumped == stepped, i


def _state_before(word: int) -> int:
    """The xorshift state whose next ``next_u64()`` returns ``word``."""
    s = (word * pow(_XORSHIFT_MULT, -1, 1 << 64)) & _MASK64
    for shift in (27, -25, 12):  # undo the three xorshifts, last first
        x = s
        for _ in range(64):
            x = s ^ (x >> shift if shift > 0 else (x << -shift) & _MASK64)
        s = x
    return s


def test_random_matrix_signed_zeros_match():
    # a first word whose top 53 bits are all ones gives uniform_pos() == 1.0,
    # so r = sqrt(-0.0) = -0.0 and the first entry is zero; the signs of its
    # parts depend on the angle the next word draws
    signs = set()
    for low in range(8):
        for shape in ((1, 1), (_BULK_MIN_ENTRIES, 1)):
            a, b = RngState(0), RngState(0)
            a._state = b._state = _state_before(_MASK64 ^ low)
            z = _assert_draw_matches_stream(shape, a, b)[0, 0]
            assert z == 0
            signs.add((math.copysign(1.0, z.real), math.copysign(1.0, z.imag)))
    assert len(signs) >= 3


def test_random_density_golden_and_validity():
    rho = random_density(2, 2, RngState(42))
    assert rho[0, 0].real == pytest.approx(0.6251047190007802, abs=1e-16)
    assert rho[0, 1] == pytest.approx(
        -0.08589009134527609 + 0.018099991138492207j, abs=1e-16
    )
    rng = RngState(1)
    for d, rank in [(2, 1), (3, 3), (5, 2), (8, 8)]:
        rho = random_density(d, rank, rng.child(d * 10 + rank))
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-13)
        evs = np.linalg.eigvalsh(rho)
        assert evs.min() > -1e-13
        assert np.sum(evs > 1e-12) == rank
    with pytest.raises(ValueError):
        random_density(3, 0, rng)
    with pytest.raises(ValueError):
        random_density(3, 4, rng)


def test_random_unitary_properties():
    rng = RngState(2)
    for d in (1, 2, 3, 6):
        u = random_unitary(d, rng.child(d))
        assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
        # phase convention: the diagonal is real and non-negative
        assert np.all(np.abs(u.diagonal().imag) < 1e-12)
        assert np.all(u.diagonal().real > -1e-12)


def test_skip_equals_stepping():
    # every n in 0 .. 3000: the jumps of n // 64 and the steps of n % 64
    for seed in (3, 99):
        ref = RngState(seed)
        for n in range(3001):
            rng = RngState(seed)
            rng._skip(n)
            assert (rng._state, rng.position) == (ref._state, ref.position), (seed, n)
            ref.next_u64()


def _column_unitary(d, rng):
    """The column-by-column construction random_unitary used before it drew
    its columns as one matrix: d draws of random_matrix(d, 1)."""
    cols = []
    for _ in range(d):
        v = random_matrix(d, 1, rng).ravel()
        for _pass in range(2):
            for u in cols:
                v = v - u * np.vdot(u, v)
        n = float(np.linalg.norm(v))
        while n < 1e-10:  # pragma: no cover - probability ~0
            v = random_matrix(d, 1, rng).ravel()
            for u in cols:
                v = v - u * np.vdot(u, v)
            n = float(np.linalg.norm(v))
        cols.append(v / n)
    u = np.stack(cols, axis=1)
    for j in range(d):
        piv = u[j, j]
        if abs(piv) > 1e-300:
            u[:, j] = u[:, j] * (piv.conjugate() / abs(piv))
    return u


def test_unitary_and_channel_draws_match_the_column_construction():
    # same bits (signed zeros included), same state and stream position;
    # random_cptp kept the first d columns of the whole unitary and drew the
    # rest, which it now skips
    for seed in range(6):
        for d in range(1, 13):
            a, b = RngState(seed).child(d), RngState(seed).child(d)
            assert random_unitary(d, a).tobytes() == _column_unitary(d, b).tobytes()
            assert (a._state, a.position) == (b._state, b.position)
        for d, r in [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)]:
            a, b = RngState(seed).child(10 * d + r), RngState(seed).child(10 * d + r)
            kraus = random_cptp(d, r, a)
            big = _column_unitary(d * r, b)[:, :d]
            assert kraus.shape == (r, d, d)
            assert kraus.tobytes() == np.ascontiguousarray(big).tobytes()
            assert (a._state, a.position) == (b._state, b.position)


def test_random_povm_is_one_draw_of_the_looped_factors():
    # n draws of random_matrix(d, d) are one random_matrix(n d, d): the same
    # effects bit for bit as the Wisharts built one at a time
    for d, n in [(1, 2), (2, 2), (2, 5), (3, 4)]:
        a, b = RngState(d).child(n), RngState(d).child(n)
        effects = random_povm(d, n, a)
        raw = []
        for _ in range(n):
            g = random_matrix(d, d, b)
            w = g @ g.conj().T
            raw.append((w + w.conj().T) / 2)
        lam, u = np.linalg.eigh(sum(raw))
        s_half_inv = (u * lam ** -0.5) @ u.conj().T
        s_half_inv = (s_half_inv + s_half_inv.conj().T) / 2
        looped = [(s_half_inv @ w @ s_half_inv + (s_half_inv @ w @ s_half_inv).conj().T) / 2
                  for w in raw]
        assert effects.tobytes() == np.stack(looped).tobytes()
        assert (a._state, a.position) == (b._state, b.position)


def test_random_unit_vector():
    v = random_unit_vector(5, RngState(10))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)


def test_random_cptp_is_trace_preserving():
    rng = RngState(6)
    for d, n in [(2, 1), (2, 3), (3, 2), (4, 4)]:
        ks = random_cptp(d, n, rng.child(d * 10 + n))
        assert len(ks) == n
        s = sum(k.conj().T @ k for k in ks)
        assert np.allclose(s, np.eye(d), atol=1e-12)


def test_random_povm_resolves_identity():
    rng = RngState(6)
    for d, n in [(2, 2), (2, 5), (3, 4)]:
        ms = random_povm(d, n, rng.child(n))
        s = sum(ms)
        assert np.allclose(s, np.eye(d), atol=1e-12)
        for m in ms:
            assert np.linalg.eigvalsh(m).min() > -1e-12


def test_random_simplex_golden():
    s = random_simplex(3, RngState(7))
    assert np.allclose(
        s, [0.11772211047801008, 0.3721096824140043, 0.5101682071079857]
    )
    s2 = random_simplex(50, RngState(11))
    assert s2.sum() == pytest.approx(1.0, abs=1e-13)
    assert s2.min() > 0

