"""(P, Q) pairs with known spectra, for the relent_conditioned workload.

Each pair is built from random unitaries and spectra chosen here, so its
relative entropy follows from the construction alone:

    H(P, Q) = sum_i p_i ln p_i - sum_ij p_i |<u_i|v_j>|^2 ln q_j

with u_i, v_j the eigenvectors put into P and Q.  No eigensolver is used for
the reference value; the overlaps come from a matrix product of the two
unitaries (or, for singular pairs, straight from the isometry that places P
inside the support of Q).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
# Bound at import, before a traced run wraps numpy.linalg, so building
# inputs never shows up as program work in a trace.
from numpy.linalg import qr as _qr


class Pair(NamedTuple):
    kind: str
    p: np.ndarray
    q: np.ndarray
    h: float  # reference H(P, Q); math.inf on support violation


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = _qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def spectrum(rng: np.random.Generator, n: int, floor: float) -> np.ndarray:
    """n eigenvalues in [floor, 1]: both ends present, the rest log-uniform."""
    inner = np.exp(rng.uniform(math.log(floor), 0.0, n - 2))
    return np.concatenate(([floor, 1.0], inner))


def _compose(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


def _reference(p_eigs, overlaps, q_eigs) -> float:
    """sum_i p_i ln p_i - sum_ij p_i O_ij ln q_j over p_i > 0; +inf when
    some p_i > 0 has weight on a q_j = 0."""
    live = p_eigs > 0.0
    p = p_eigs[live]
    o = overlaps[live]
    ker = q_eigs == 0.0
    if float(p @ o[:, ker].sum(axis=1)) > 0.0:
        return math.inf
    ln_q = np.log(np.where(ker, 1.0, q_eigs))
    return float(np.dot(p, np.log(p)) - p @ o @ ln_q)


def full_rank(rng: np.random.Generator, d: int, floor: float) -> Pair:
    u = haar_unitary(rng, d)
    v = haar_unitary(rng, d)
    p_eigs = spectrum(rng, d, floor)
    q_eigs = spectrum(rng, d, floor)
    overlaps = np.abs(u.conj().T @ v) ** 2
    return Pair(f"full_d{d}_f{floor:g}", _compose(u, p_eigs), _compose(v, q_eigs),
                _reference(p_eigs, overlaps, q_eigs))


def _singular_q(rng: np.random.Generator, d: int, q_rank: int, floor: float):
    v = haar_unitary(rng, d)
    q_eigs = np.concatenate((spectrum(rng, q_rank, floor), np.zeros(d - q_rank)))
    return v, q_eigs


def singular(rng: np.random.Generator, d: int, q_rank: int, p_rank: int, floor: float) -> Pair:
    """Q of rank q_rank; P of rank p_rank with supp P inside supp Q."""
    v, q_eigs = _singular_q(rng, d, q_rank, floor)
    w = haar_unitary(rng, q_rank)
    u = v[:, :q_rank] @ w  # columns of P's eigenbasis, all inside supp Q
    p_eigs = np.concatenate((spectrum(rng, p_rank, floor), np.zeros(q_rank - p_rank)))
    overlaps = np.zeros((q_rank, d))
    overlaps[:, :q_rank] = (np.abs(w) ** 2).T  # <v_j|u_i> = w_ji inside supp Q, 0 outside
    return Pair(f"singular_d{d}", _compose(u, p_eigs), _compose(v, q_eigs),
                _reference(p_eigs, overlaps, q_eigs))


def violating(rng: np.random.Generator, d: int, q_rank: int, floor: float) -> Pair:
    """Q of rank q_rank, P of full rank: P has weight on ker Q, H = +inf."""
    v, q_eigs = _singular_q(rng, d, q_rank, floor)
    u = haar_unitary(rng, d)
    p_eigs = spectrum(rng, d, floor)
    overlaps = np.abs(u.conj().T @ v) ** 2
    return Pair(f"violating_d{d}", _compose(u, p_eigs), _compose(v, q_eigs),
                _reference(p_eigs, overlaps, q_eigs))
