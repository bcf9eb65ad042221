"""Quantum channels in Kraus form, with dilation and purification.

A channel is one complex array K of shape (r, d_out, d_in): its r Kraus
operators, stacked, so it is completely positive by construction.  As a
(r*d_out, d_in) matrix, K is the Stinespring isometry V = sum_j |j> (x) K_j
(Watrous, *The Theory of Quantum Information*, 2018, sec. 2.2); each
operation below is one array operation on it, and trace preservation,
V^dag V = I to 1e-10, is checked by `require_tp` alone.  Dephasing, partial
traces and measurements are channels (`trace_out_channel`, `povm_channel`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    Spectrum,
    _density,
    _from_spectrum,
    _kept_first,
    _one_shape,
    _psd_stacks,
    _symmetrize,
    as_hermitian,
    as_matrix,
    max_abs,
    zero_band,
)

TP_TOL = 1e-10
POVM_TOL = 1e-10


class KrausMap:
    """Completely positive map; ``kraus_ops`` stacks its Kraus operators as (r, d_out, d_in)."""

    __slots__ = ("kraus_ops", "d_in", "d_out")

    def __init__(self, kraus_ops):
        try:
            ops = np.asarray(kraus_ops, dtype=complex)
        except ValueError:
            _one_shape("Kraus shapes differ: {} vs {}", kraus_ops)
            raise
        if ops.shape[:1] == (0,):
            raise ValueError("need at least one Kraus operator")
        if ops.ndim != 3:
            raise ValueError(f"expected a 2-d matrix, got shape {ops.shape[1:]}")
        if not np.isfinite(ops).all():
            raise ValueError("matrix entries must be finite")
        self.kraus_ops = ops
        _, self.d_out, self.d_in = ops.shape

    def __len__(self):
        return len(self.kraus_ops)

    def completeness_defect(self) -> float:
        """max-norm distance of V^dag V = sum K^dag K from the identity."""
        v = self.kraus_ops.reshape(-1, self.d_in)
        return max_abs(v.conj().T @ v - np.eye(self.d_in))


def require_tp(phi: KrausMap) -> KrausMap:
    """The one trace-preservation check: raises unless sum K^dag K = I to TP_TOL."""
    defect = phi.completeness_defect()
    if defect > TP_TOL:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    return phi


def apply_linear(phi: KrausMap, x) -> np.ndarray:
    """sum_j K_j X K_j^dag on an arbitrary (square) operand."""
    return _linear(phi, as_matrix(x))


def _linear(phi: KrausMap, x: np.ndarray) -> np.ndarray:
    """`apply_linear` on a complex operand or stack, one broadcast product."""
    if x.shape[-2:] != (phi.d_in, phi.d_in):
        raise ValueError(f"operand shape {x.shape[-2:]} != ({phi.d_in}, {phi.d_in})")
    k = phi.kraus_ops
    return (k @ x[..., None, :, :] @ k.conj().transpose(0, 2, 1)).sum(axis=-3)


def apply_channel(phi: KrausMap, rho) -> np.ndarray:
    """Channel action on a Hermitian operand; output is re-symmetrized."""
    return _channel(phi, as_hermitian(rho))


def _channel(phi: KrausMap, rho: np.ndarray) -> np.ndarray:
    """`apply_channel` on a validated operand or stack: exactly Hermitian."""
    return _symmetrize(_linear(phi, rho))


def adjoint_channel(phi: KrausMap) -> KrausMap:
    """Heisenberg-picture adjoint {K_j^dag}; unital when phi is TP."""
    return KrausMap(phi.kraus_ops.conj().transpose(0, 2, 1))


def identity_channel(d: int) -> KrausMap:
    return KrausMap([np.eye(d)])


def tensor_channel(phi: KrausMap, psi: KrausMap) -> KrausMap:
    """Product channel with Kraus operators K_i (x) L_j, i-major order."""
    # broadcast to (i, j, row_K, row_L, col_K, col_L): np.kron's bits, not einsum's
    k, l = phi.kraus_ops, psi.kraus_ops
    prod = k[:, None, :, None, :, None] * l[:, None, :, None, :]
    return KrausMap(prod.reshape(len(k) * len(l), phi.d_out * psi.d_out, -1))


def trace_out_channel(dims, keep) -> KrausMap:
    """Partial trace as a rectangular Kraus channel.

    Kraus operators are indexed row-major by the basis labels of the traced
    factors; kept factors remain in their original order, matching
    ``matcore.partial_trace``, and ``dims`` and ``keep`` are checked as
    there.  Each operator is a block of rows of the identity, read off in
    `matcore._kept_first`'s order, with the traced labels then moved first.
    """
    ds, order, d_keep = _kept_first(dims, keep)
    n = math.prod(ds)
    rows = np.eye(n).reshape(ds + [n]).transpose(order + [len(ds)])
    return KrausMap(rows.reshape(d_keep, -1, n).transpose(1, 0, 2))


def dephase(x) -> np.ndarray:
    """Kill all off-diagonal entries (measurement in the standard basis)."""
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError("dephase needs a square matrix")
    return np.diag(np.diag(x))


def dephase_via_z(x) -> np.ndarray:
    """Same projection as the average (1/d) sum_j Z^j X Z^{-j} over the
    clock unitary Z = diag(1, w, ..., w^{d-1}), w = exp(2 pi i / d)."""
    x = as_matrix(x)
    d = x.shape[0]
    if x.shape[0] != x.shape[1]:
        raise ValueError("dephase_via_z needs a square matrix")
    z = np.array([cmath.exp(2j * math.pi * k / d) for k in range(d)])
    out = np.zeros_like(x)
    for j in range(d):
        phase = z ** j
        out += (phase[:, None] * x) * phase.conj()[None, :]
    return out / d


class Povm:
    """Measurement effects: PSD to 1e-10, summing to the identity to 1e-10.

    ``effects`` is one (n, d, d) stack, and ``spectra`` the stacked
    `Spectrum` of the one ``eigh`` that validated it, so `povm_channel`
    takes the square roots from it.
    """

    __slots__ = ("effects", "spectra")

    def __init__(self, effects):
        if not len(effects):
            raise ValueError("need at least one effect")
        _one_shape("effect shapes differ", effects)
        (ops, spectra), = _psd_stacks([effects], [True])
        defect = max_abs(ops.sum(axis=0) - np.eye(ops.shape[-1]))
        if defect > POVM_TOL:
            raise ValueError(f"effects do not sum to the identity (defect {defect:.3e})")
        self.effects, self.spectra = ops, spectra

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    def __len__(self):
        return len(self.effects)


def povm_channel(povm: Povm) -> KrausMap:
    """Measure-and-record channel rho -> sum_a Tr(rho M_a) |a><a|.

    Kraus operators |a><b| sqrt(M_a), one per (effect a, basis row b),
    a-major; output dimension is the number of effects.
    """
    n, d = len(povm), povm.dim
    roots = _from_spectrum(povm.spectra, np.sqrt)
    ops = np.zeros((n, d, n, d), dtype=complex)
    # operator (a, b) holds row b of sqrt(M_a) in its output row a
    ops[np.arange(n), :, np.arange(n), :] = roots
    return KrausMap(ops.reshape(n * d, n, d))


@dataclass(frozen=True)
class AncillaRep:
    """Unitary dilation: Phi(rho) = Tr_anc U (rho (x) |0><0|) U^dag, with
    the ancilla as the second (fastest) factor."""

    unitary: np.ndarray
    anc_dim: int

    @property
    def anc_state(self) -> np.ndarray:
        v = np.zeros(self.anc_dim, dtype=complex)
        v[0] = 1.0
        return v


def ancilla_representation(phi: KrausMap) -> AncillaRep:
    """Extend the isometry V = sum_j K_j (x) |j>_anc to a unitary.

    Columns of V occupy the slots |i> (x) |0>; the remaining slots take,
    in index order, the orthonormal complement of V's range from a
    complete QR factorization, so the completion is deterministic.
    """
    if phi.d_in != phi.d_out:
        raise ValueError("ancilla representation needs a square channel")
    require_tp(phi)
    d, r = phi.d_in, len(phi)
    big = d * r
    # row (a, j) of the isometry is row a of K_j
    iso = phi.kraus_ops.transpose(1, 0, 2).reshape(big, d)
    u = np.empty((big, big), dtype=complex)
    on_ancilla_zero = np.arange(big) % r == 0
    u[:, on_ancilla_zero] = iso
    u[:, ~on_ancilla_zero] = np.linalg.qr(iso, mode="complete")[0][:, d:]
    defect = max_abs(u.conj().T @ u - np.eye(big))
    if defect > 1e-10:
        raise ArithmeticError(f"dilation unitary defect {defect:.3e}")
    return AncillaRep(u, r)


def apply_ancilla(rep: AncillaRep, rho) -> np.ndarray:
    """Joint system+ancilla output U (rho (x) |0><0|) U^dag = W rho W^dag,
    where W = U[:, ::anc_dim] are the columns on |i> (x) |0>, the isometry
    that `ancilla_representation` placed there."""
    w = rep.unitary[:, :: rep.anc_dim]
    return _symmetrize(w @ as_hermitian(rho) @ w.conj().T)


def purify(rho) -> np.ndarray:
    """Unit vector psi on system (x) ancilla with Tr_anc |psi><psi| = rho.

    The ancilla dimension is the rank of rho (eigenvalues above the zero
    band), and the ancilla basis enumerates those eigenvalues in ascending
    order; psi.size // d recovers the ancilla dimension.  One ``eigh``
    validates rho; `_purify` is the kernel on its spectrum.
    """
    return _purify(_density(rho, True)[1])


def _purify(spec: Spectrum) -> np.ndarray:
    """`purify` from a validated density matrix's spectrum, clipped at zero."""
    lam = spec.eigenvalues
    sel = lam > zero_band(lam)
    lam = lam[sel]
    vecs = spec.eigenvectors[:, sel]
    psi = (vecs * np.sqrt(lam)).reshape(-1)  # index (i, k) -> i * rank + k
    return psi / float(np.linalg.norm(psi))
