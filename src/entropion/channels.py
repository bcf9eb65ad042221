"""Quantum channels in Kraus form, with dilation and purification.

A channel is a finite list of Kraus operators K_j of common shape
(d_out, d_in), so it is completely positive by construction; trace
preservation means sum_j K_j^dag K_j = I to 1e-10, and `require_tp` is the
one check of it.  Dephasing, partial traces and measurements are channels
like any other (see `trace_out_channel` and `povm_channel`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    Spectrum,
    _keep_factors,
    as_hermitian,
    as_matrix,
    max_abs,
    psd_eig,
    require_unit_trace,
    tensor,
    zero_band,
)

TP_TOL = 1e-10
POVM_TOL = 1e-10


class KrausMap:
    """Completely positive map given by its Kraus operators."""

    __slots__ = ("kraus_ops", "d_in", "d_out")

    def __init__(self, kraus_ops):
        ops = tuple(as_matrix(k) for k in kraus_ops)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        shape = ops[0].shape
        for k in ops[1:]:
            if k.shape != shape:
                raise ValueError(f"Kraus shapes differ: {shape} vs {k.shape}")
        self.kraus_ops = ops
        self.d_out, self.d_in = shape

    def __len__(self):
        return len(self.kraus_ops)

    def completeness_defect(self) -> float:
        """max-norm distance of sum K^dag K from the identity."""
        s = sum(k.conj().T @ k for k in self.kraus_ops)
        return max_abs(s - np.eye(self.d_in))


def require_tp(phi: KrausMap) -> KrausMap:
    """The one trace-preservation check: raises unless sum K^dag K = I to TP_TOL."""
    defect = phi.completeness_defect()
    if defect > TP_TOL:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    return phi


def apply_linear(phi: KrausMap, x) -> np.ndarray:
    """sum_j K_j X K_j^dag on an arbitrary (square) operand."""
    x = as_matrix(x)
    if x.shape != (phi.d_in, phi.d_in):
        raise ValueError(f"operand shape {x.shape} != ({phi.d_in}, {phi.d_in})")
    out = np.zeros((phi.d_out, phi.d_out), dtype=complex)
    for k in phi.kraus_ops:
        out += k @ x @ k.conj().T
    return out


def apply_channel(phi: KrausMap, rho) -> np.ndarray:
    """Channel action on a Hermitian operand; output is re-symmetrized."""
    rho = as_hermitian(rho)
    out = apply_linear(phi, rho)
    return (out + out.conj().T) / 2


def adjoint_channel(phi: KrausMap) -> KrausMap:
    """Heisenberg-picture adjoint {K_j^dag}; unital when phi is TP."""
    return KrausMap([k.conj().T for k in phi.kraus_ops])


def identity_channel(d: int) -> KrausMap:
    return KrausMap([np.eye(d)])


def tensor_channel(phi: KrausMap, psi: KrausMap) -> KrausMap:
    """Product channel with Kraus list {K_i (x) L_j}, i-major order."""
    return KrausMap([np.kron(k, l) for k in phi.kraus_ops for l in psi.kraus_ops])


def trace_out_channel(dims, keep) -> KrausMap:
    """Partial trace as a rectangular Kraus channel.

    Kraus operators are indexed row-major by the basis labels of the traced
    factors; kept factors remain in their original order, matching
    ``matcore.partial_trace``.  Each operator is a block of rows of the
    identity, read off with the kept axes first.
    """
    ds = [int(d) for d in dims]
    keep_set = _keep_factors(keep, len(ds))
    traced = [i for i in range(len(ds)) if i not in keep_set]
    n = math.prod(ds)
    rows = np.eye(n).reshape(ds + [n]).transpose(keep_set + traced + [len(ds)])
    rows = rows.reshape(math.prod(ds[i] for i in keep_set), -1, n)
    return KrausMap([rows[:, j, :] for j in range(rows.shape[1])])


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


@dataclass(frozen=True)
class Povm:
    """Measurement effects: PSD to 1e-10, summing to the identity to 1e-10.

    ``spectra`` keeps the decomposition that validated each effect, so
    `povm_channel` takes the square roots from it.
    """

    effects: tuple
    spectra: tuple = field(repr=False, compare=False)

    def __init__(self, effects):
        validated = [psd_eig(m) for m in effects]
        ops = tuple(m for m, _ in validated)
        if not ops:
            raise ValueError("need at least one effect")
        d = ops[0].shape[0]
        for m in ops[1:]:
            if m.shape != (d, d):
                raise ValueError("effect shapes differ")
        defect = max_abs(sum(ops) - np.eye(d))
        if defect > POVM_TOL:
            raise ValueError(f"effects do not sum to the identity (defect {defect:.3e})")
        object.__setattr__(self, "effects", ops)
        object.__setattr__(self, "spectra", tuple(spec for _, spec in validated))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self):
        return len(self.effects)


def povm_channel(povm: Povm) -> KrausMap:
    """Measure-and-record channel rho -> sum_a Tr(rho M_a) |a><a|.

    Kraus operators |a><b| sqrt(M_a), one per (effect a, basis row b),
    a-major; output dimension is the number of effects.
    """
    n = len(povm)
    d = povm.dim
    ops = []
    for a, spec in enumerate(povm.spectra):
        u = spec.eigenvectors
        root = (u * np.sqrt(spec.eigenvalues)) @ u.conj().T
        for b in range(d):
            k = np.zeros((n, d), dtype=complex)
            k[a, :] = root[b, :]
            ops.append(k)
    return KrausMap(ops)


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
    d = phi.d_in
    r = len(phi.kraus_ops)
    big = d * r
    iso = np.zeros((big, d), dtype=complex)
    for j, k in enumerate(phi.kraus_ops):
        # row (a, j) of the isometry is row a of K_j
        iso[j::r, :] = k
    u = np.empty((big, big), dtype=complex)
    on_ancilla_zero = np.arange(big) % r == 0
    u[:, on_ancilla_zero] = iso
    u[:, ~on_ancilla_zero] = np.linalg.qr(iso, mode="complete")[0][:, d:]
    defect = max_abs(u.conj().T @ u - np.eye(big))
    if defect > 1e-10:
        raise ArithmeticError(f"dilation unitary defect {defect:.3e}")
    return AncillaRep(u, r)


def apply_ancilla(rep: AncillaRep, rho) -> np.ndarray:
    """Joint system+ancilla output U (rho (x) |0><0|) U^dag."""
    rho = as_hermitian(rho)
    anc = np.outer(rep.anc_state, rep.anc_state.conj())
    joint = rep.unitary @ tensor(rho, anc) @ rep.unitary.conj().T
    return (joint + joint.conj().T) / 2


def purify(rho) -> np.ndarray:
    """Unit vector psi on system (x) ancilla with Tr_anc |psi><psi| = rho.

    The ancilla dimension is the rank of rho (eigenvalues above the zero
    band), and the ancilla basis enumerates those eigenvalues in ascending
    order; psi.size // d recovers the ancilla dimension.  One ``eigh``
    validates rho; `_purify` is the kernel on its spectrum.
    """
    rho, spec = psd_eig(rho)
    require_unit_trace(rho)
    return _purify(spec)


def _purify(spec: Spectrum) -> np.ndarray:
    """`purify` from a validated density matrix's spectrum, clipped at zero."""
    lam = spec.eigenvalues
    sel = lam > zero_band(lam)
    lam = lam[sel]
    vecs = spec.eigenvectors[:, sel]
    psi = (vecs * np.sqrt(lam)).reshape(-1)  # index (i, k) -> i * rank + k
    return psi / float(np.linalg.norm(psi))
