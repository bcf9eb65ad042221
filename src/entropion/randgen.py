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
entry by entry: it advances the state for all 2n words in one loop of local
variables, then applies the output multiply, the shift to 53 bits and the
power-of-two scalings to numpy ``uint64``/``float64`` arrays, where they are
exact.  ``log``, ``cos`` and ``sin`` stay on ``math``, applied per element,
because numpy's ``log`` differs from ``math.log`` in the last bit for some
inputs; ``sqrt`` and the products may run in numpy because IEEE-754 rounds
them correctly either way.  Draws under ``_BULK_MIN_ENTRIES`` entries, where
numpy's fixed cost per call dominates, run the same arithmetic in one scalar
loop.
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import _spectral_function, psd_eig

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


def _advance(rng: RngState, count: int) -> list[int]:
    """The next ``count`` xorshift states of ``rng``, unscrambled.

    One loop over local variables; ``rng`` ends where ``count`` calls of
    ``next_u64`` would leave it."""
    s = rng._state
    states = [0] * count
    for i in range(count):
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        states[i] = s
    rng._state = s
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
    # from math.log in the last bit, so log, cos and sin stay on math.
    words = np.array(_advance(rng, 2 * n), dtype=np.uint64)
    top = ((words * np.uint64(_XORSHIFT_MULT)) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u = top[0::2] + 2.0 ** -53  # uniform_pos(), (k + 1) * 2^-53 exactly
    theta = (2.0 * math.pi * top[1::2]).tolist()  # uniform() of the odd words
    r = np.sqrt(-2.0 * np.array(list(map(math.log, u.tolist()))))
    x = r * np.array(list(map(math.cos, theta)))
    y = r * np.array(list(map(math.sin, theta)))
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
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / float(np.trace(m).real)


def random_unitary(d: int, rng: RngState) -> np.ndarray:
    """Haar-style unitary: Gram-Schmidt on Ginibre columns, then the phase of
    each diagonal entry is rotated away so U[j, j] is real and nonnegative.

    The phase fix makes the output a deterministic function of the stream
    (and gives [[1]] at d = 1)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    cols: list[np.ndarray] = []
    for _ in range(d):
        v = random_matrix(d, 1, rng).ravel()
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
    for j in range(d):
        piv = u[j, j]
        if abs(piv) > 1e-300:
            u[:, j] = u[:, j] * (piv.conjugate() / abs(piv))
    return u


def random_cptp(d: int, n_kraus: int, rng: RngState) -> list[np.ndarray]:
    """Kraus operators of a random channel: the first d columns of a random
    unitary on C^(d*n_kraus), sliced into n_kraus stacked d x d blocks."""
    if d < 1 or n_kraus < 1:
        raise ValueError("dimension and Kraus count must be positive")
    big = random_unitary(d * n_kraus, rng)
    v = big[:, :d]
    return [np.ascontiguousarray(v[j * d : (j + 1) * d, :]) for j in range(n_kraus)]


def random_povm(d: int, n_effects: int, rng: RngState) -> list[np.ndarray]:
    """POVM from full-rank Wisharts A_a, normalized by the inverse square
    root of their sum so the effects add to the identity."""
    if n_effects < 1:
        raise ValueError("need at least one effect")
    raw = []
    for _ in range(n_effects):
        g = random_matrix(d, d, rng)
        a = g @ g.conj().T
        raw.append((a + a.conj().T) / 2)
    s_half_inv = _spectral_function(psd_eig(sum(raw))[1], lambda x: x ** -0.5)
    out = []
    for a in raw:
        m = s_half_inv @ a @ s_half_inv
        out.append((m + m.conj().T) / 2)
    return out


def random_simplex(n: int, rng: RngState) -> np.ndarray:
    """Strictly positive weights summing to one (iid uniforms, normalized)."""
    if n < 1:
        raise ValueError("need at least one weight")
    w = np.array([rng.uniform_pos() for _ in range(n)])
    return w / w.sum()

