"""Deterministic random instance generation.

Reports must be reproducible bit for bit from ``(seed, trial_index)``, so
the generator is pinned down completely here rather than delegated to a
platform RNG.  The core stream is xorshift64* (Vigna's multiplier variant):

    state ^= state >> 12
    state ^= (state << 25) & (2^64 - 1)
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2^64

seeded through one round of splitmix64 so that small consecutive seeds give
unrelated streams.  Uniform doubles take the top 53 bits of an output word;
normals come from the Box-Muller transform.  Child streams for trial ``i``
use the seed ``splitmix64(seed) XOR splitmix64(i)`` fed through the same
construction, which makes every trial independent of trial order.

``RngState``'s methods are the reference stream.  ``random_matrix`` draws a
whole matrix at once and gives the same bits as ``complex_normal()`` called
entry by entry.  The xorshift step is linear over GF(2) (Vigna, ACM TOMS
42(4), 2016): it is a 64x64 bit matrix A, and state i + h is A^h applied to
state i.  So the 2n states come from jump-ahead (Haramoto et al., INFORMS J.
Computing 20(3), 2008): the first ``_LEAD`` are stepped in Python, then each
numpy pass applies A^h to the h states made so far, doubling them.  A^h is
applied as eight 256-entry tables, one per input byte, XORed together.  The
output multiply, the shift to 53 bits and the power-of-two scalings then
run on numpy ``uint64``/``float64`` arrays, where they are exact.  ``log``,
``cos`` and ``sin`` stay on ``math``, applied per element: numpy's ``log``
differs from ``math.log`` in the last bit for some inputs, and numpy's
``cos``/``sin`` may take a SIMD path that depends on the CPU, so the stream
would depend on the machine.  ``sqrt`` and the products may run in numpy
because IEEE-754 rounds them correctly either way.  Draws under
``_BULK_MIN_ENTRIES`` entries, where numpy's fixed cost per call dominates,
run the same arithmetic in one scalar loop.
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import _psd, _spectral_function, _symmetrize

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
# random_matrix draws of fewer entries run in one scalar loop: below this size
# numpy's fixed cost per call outweighs the per-entry work it saves (the two
# paths took the same time at 20-28 entries on a 2-vCPU machine).
_BULK_MIN_ENTRIES = 24


def _splitmix64(z: int) -> int:
    z = (z + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class RngState:
    """xorshift64* stream with deterministic child derivation."""

    __slots__ = ("seed", "position", "_state")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.position = 0
        # splitmix of 0 is nonzero, so the xorshift state never sticks at 0
        self._state = _splitmix64(self.seed) or _SPLITMIX_GAMMA

    def __repr__(self):
        return f"RngState(seed={self.seed}, position={self.position})"

    def child(self, index: int) -> "RngState":
        """Independent stream for trial ``index`` of this seed."""
        if index < 0:
            raise ValueError("child index must be nonnegative")
        return RngState(_splitmix64(self.seed) ^ _splitmix64(int(index)))

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self._state = s
        self.position += 1
        return (s * _XORSHIFT_MULT) & _MASK64

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_pos(self) -> float:
        """Uniform double in (0, 1]; safe under log."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def integer(self, n: int) -> int:
        """Integer in [0, n) by reduction; bias is negligible for small n."""
        if n < 1:
            raise ValueError("integer() needs n >= 1")
        return self.next_u64() % n

    def normal_pair(self) -> tuple[float, float]:
        """Two independent standard normals (Box-Muller)."""
        r = math.sqrt(-2.0 * math.log(self.uniform_pos()))
        theta = 2.0 * math.pi * self.uniform()
        return r * math.cos(theta), r * math.sin(theta)

    def complex_normal(self) -> complex:
        """Complex normal with unit second moment E|z|^2 = 1."""
        x, y = self.normal_pair()
        return complex(x, y) * math.sqrt(0.5)

    def _skip(self, n: int) -> None:
        """Advance the stream by ``n`` words without forming them: one jump
        through ``_jump_tables(i)`` per set bit i of n // _LEAD, then fewer
        than _LEAD steps."""
        s = np.array([self._state], dtype=np.uint64)
        jumps = n // _LEAD
        for i in range(jumps.bit_length()):
            if jumps >> i & 1:
                s = _jump(_jump_tables(i), s)
        steps = n % _LEAD
        self._state = _walk(int(s[0]), steps)[-1] if steps else int(s[0])
        self.position += n


def _walk(s: int, count: int) -> list[int]:
    """The ``count`` xorshift states after ``s``, stepped one by one."""
    out = [0] * count
    for i in range(count):
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        out[i] = s
    return out


def _jump(tables: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The map with byte tables ``tables`` applied to each word of ``x``:
    one lookup per byte, XORed together."""
    b = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8).T.copy()
    out = tables[0][b[0]]
    for i in range(1, 8):
        out ^= tables[i][b[i]]
    return out


# _JUMPS[i] holds the byte tables (16 KB) of A^(_LEAD * 2^i), A the xorshift
# step.  One jump costs about as much as _LEAD steps in Python (10-20 us on a
# 2-vCPU x86 machine), so runs shorter than _LEAD are stepped.
_LEAD = 64
_JUMPS: list[np.ndarray] = []


def _jump_tables(i: int) -> np.ndarray:
    """``_JUMPS[i]``, built on first use.  Row b of a map's tables holds its
    images of ``v << 8b`` for v < 256.  A's come from its images of the 64
    unit words, and each square from applying the tables to themselves."""
    while len(_JUMPS) <= i:
        if _JUMPS:
            t, squarings = _JUMPS[-1], 1
        else:
            cols = np.array([_walk(1 << bit, 1)[0] for bit in range(64)], dtype=np.uint64)
            t = np.zeros((8, 256), dtype=np.uint64)
            for j in range(8):  # v in [2^j, 2^(j+1)): v - 2^j, plus bit 8b + j
                t[:, 1 << j : 2 << j] = t[:, : 1 << j] ^ cols[j::8, None]
            squarings = _LEAD.bit_length() - 1
        for _ in range(squarings):
            t = _jump(t, t.ravel()).reshape(8, 256)
        t.flags.writeable = False  # shared by every caller in the process
        _JUMPS.append(t)
    return _JUMPS[i]


def _states(rng: RngState, count: int) -> np.ndarray:
    """The next ``count`` xorshift states of ``rng``, unscrambled, as uint64.

    The first ``_LEAD`` are stepped one by one.  Then, with h states made,
    state j + h is A^h applied to state j, so each jump makes up to h more;
    a last run shorter than ``_LEAD`` is stepped.  ``rng`` ends where
    ``count`` calls of ``next_u64`` would leave it."""
    states = np.empty(count, dtype=np.uint64)
    h = min(count, _LEAD)
    states[:h] = _walk(rng._state, h)
    i = 0
    while count - h >= _LEAD:  # h = _LEAD * 2^i
        m = min(h, count - h)
        states[h : h + m] = _jump(_jump_tables(i), states[:m])
        h, i = h + m, i + 1
    states[h:] = _walk(int(states[h - 1]), count - h)
    rng._state = int(states[-1])
    rng.position += count
    return states


def random_matrix(d_rows: int, d_cols: int, rng: RngState) -> np.ndarray:
    """Ginibre matrix: iid complex normal entries, filled row-major.

    Entry ``k`` is bit for bit the ``k``-th ``rng.complex_normal()``, and
    ``rng`` ends where those calls would leave it."""
    if d_rows < 1 or d_cols < 1:
        raise ValueError("matrix dimensions must be positive")
    n = d_rows * d_cols
    h = math.sqrt(0.5)
    if n < _BULK_MIN_ENTRIES:
        out = np.empty((d_rows, d_cols), dtype=complex)
        flat = out.ravel()
        s = rng._state
        for i in range(n):
            s ^= s >> 12
            s ^= (s << 25) & _MASK64
            s ^= s >> 27
            u = ((((s * _XORSHIFT_MULT) & _MASK64) >> 11) + 1) * 2.0 ** -53
            s ^= s >> 12
            s ^= (s << 25) & _MASK64
            s ^= s >> 27
            v = (((s * _XORSHIFT_MULT) & _MASK64) >> 11) * 2.0 ** -53
            r = math.sqrt(-2.0 * math.log(u))
            theta = 2.0 * math.pi * v
            flat[i] = complex(r * math.cos(theta), r * math.sin(theta)) * h
        rng._state = s
        rng.position += 2 * n
        return out
    # The scramble and the power-of-two scalings are exact in uint64/float64,
    # and numpy rounds sqrt and products as math does.  np.log can differ
    # from math.log in the last bit and np.cos/np.sin dispatch by CPU, so
    # log, cos and sin stay on math.
    words = _states(rng, 2 * n)
    top = ((words * np.uint64(_XORSHIFT_MULT)) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u = top[0::2] + 2.0 ** -53  # uniform_pos(), (k + 1) * 2^-53 exactly
    theta = (2.0 * math.pi * top[1::2]).tolist()  # uniform() of the odd words
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u.tolist()), float, n))
    x = r * np.fromiter(map(math.cos, theta), float, n)
    y = r * np.fromiter(map(math.sin, theta), float, n)
    # complex(x, y) * h as CPython forms it, h promoted to complex(h, 0.0);
    # the zero terms decide the sign of a zero part
    out = np.empty(n, dtype=complex)
    out.real = x * h - y * 0.0
    out.imag = x * 0.0 + y * h
    return out.reshape(d_rows, d_cols)


def random_unit_vector(d: int, rng: RngState) -> np.ndarray:
    v = random_matrix(d, 1, rng).ravel()
    n = float(np.linalg.norm(v))
    while n < 1e-12:  # pragma: no cover - probability ~0
        v = random_matrix(d, 1, rng).ravel()
        n = float(np.linalg.norm(v))
    return v / n


def random_density(d: int, rank: int, rng: RngState) -> np.ndarray:
    """Trace-normalized Wishart state G G^dag / Tr with G of shape (d, rank)."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in 1..{d}, got {rank}")
    g = random_matrix(d, rank, rng)
    m = _symmetrize(g @ g.conj().T)
    return m / float(np.trace(m).real)


def _unitary_columns(d: int, k: int, rng: RngState) -> np.ndarray:
    """The first k columns of ``random_unitary(d, rng)``, as a d x k array.

    The k Ginibre columns are one draw, the rows of ``random_matrix(k, d)``.
    Should Gram-Schmidt leave a column of norm under 1e-10 (probability ~0),
    that column is redrawn as a column draw from the words after all k."""
    rows = random_matrix(k, d, rng)
    cols: list[np.ndarray] = []
    for v in rows:
        for _pass in range(2):  # reorthogonalize once for numerical stability
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
    for j in range(k):
        piv = u[j, j]
        if abs(piv) > 1e-300:
            u[:, j] = u[:, j] * (piv.conjugate() / abs(piv))
    return u


def random_unitary(d: int, rng: RngState) -> np.ndarray:
    """Haar-style unitary: Gram-Schmidt on Ginibre columns, then the phase of
    each diagonal entry is rotated away so U[j, j] is real and nonnegative.

    The phase fix makes the output a deterministic function of the stream
    (and gives [[1]] at d = 1)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return _unitary_columns(d, d, rng)


def random_cptp(d: int, n_kraus: int, rng: RngState) -> np.ndarray:
    """Kraus operators of a random channel, stacked as (n_kraus, d, d): the
    first d columns of a random unitary on C^(d*n_kraus), in blocks of d
    rows.  Only those columns are drawn; the stream skips the others."""
    if d < 1 or n_kraus < 1:
        raise ValueError("dimension and Kraus count must be positive")
    big = d * n_kraus
    v = _unitary_columns(big, d, rng)
    rng._skip(2 * big * (big - d))
    return v.reshape(n_kraus, d, d)


def random_povm(d: int, n_effects: int, rng: RngState) -> np.ndarray:
    """POVM from full-rank Wisharts A_a, normalized by the inverse square
    root of their sum so the effects add to the identity; stacked as
    (n_effects, d, d).  The Ginibre factors are one draw."""
    if n_effects < 1:
        raise ValueError("need at least one effect")
    g = random_matrix(n_effects * d, d, rng).reshape(n_effects, d, d)
    raw = _symmetrize(g @ g.conj().swapaxes(-1, -2))
    s_half_inv = _spectral_function(_psd(raw.sum(axis=0), True)[1], lambda x: x ** -0.5)
    return _symmetrize(s_half_inv @ raw @ s_half_inv)


def random_simplex(n: int, rng: RngState) -> np.ndarray:
    """Strictly positive weights summing to one (iid uniforms, normalized)."""
    if n < 1:
        raise ValueError("need at least one weight")
    w = np.array([rng.uniform_pos() for _ in range(n)])
    return w / w.sum()

