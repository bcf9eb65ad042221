"""Quantum channels in Kraus form, with Choi, dilation, and purification.

A channel is a finite list of Kraus operators K_j of common shape
(d_out, d_in); trace preservation means sum_j K_j^dag K_j = I to 1e-10.
The Choi matrix is (id (x) Phi) applied to the unnormalized maximally
entangled matrix sum_{ij} |ii><jj|, with the identity leg slowest, so the
channel is completely positive exactly when the Choi matrix is PSD.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .matcore import (
    as_hermitian,
    as_matrix,
    as_psd,
    hermitian_eig,
    max_abs,
    partial_trace,
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

    @property
    def is_trace_preserving(self) -> bool:
        return self.completeness_defect() <= TP_TOL


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
    ``matcore.partial_trace``.
    """
    ds = [int(d) for d in dims]
    keep_set = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= len(ds) for i in keep_set):
        raise ValueError(f"keep={keep!r} out of range")
    traced = [i for i in range(len(ds)) if i not in keep_set]
    ops = []
    idx = [0] * len(traced)
    while True:
        factors = []
        pos = 0
        for f, d in enumerate(ds):
            if f in keep_set:
                factors.append(np.eye(d, dtype=complex))
            else:
                row = np.zeros((1, d), dtype=complex)
                row[0, idx[pos]] = 1.0
                factors.append(row)
                pos += 1
        k = factors[0]
        for f in factors[1:]:
            k = np.kron(k, f)
        ops.append(k)
        if not traced:
            break
        i = len(traced) - 1
        while i >= 0:
            idx[i] += 1
            if idx[i] < ds[traced[i]]:
                break
            idx[i] = 0
            i -= 1
        if i < 0:
            break
    return KrausMap(ops)


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
    """Measurement effects: PSD to 1e-10, summing to the identity to 1e-10."""

    effects: tuple

    def __init__(self, effects):
        ops = tuple(as_psd(m) for m in effects)
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
    for a, m in enumerate(povm.effects):
        spec = hermitian_eig(m)
        lam = np.maximum(spec.eigenvalues, 0.0)
        root = (spec.eigenvectors * np.sqrt(lam)) @ spec.eigenvectors.conj().T
        for b in range(d):
            k = np.zeros((n, d), dtype=complex)
            k[a, :] = root[b, :]
            ops.append(k)
    return KrausMap(ops)


def choi_matrix(phi: KrausMap) -> np.ndarray:
    """Choi matrix on (input leg) (x) (output leg), input slowest."""
    out = np.zeros((phi.d_in * phi.d_out,) * 2, dtype=complex)
    for k in phi.kraus_ops:
        w = k.T.reshape(-1)  # w[(i, a)] = K[a, i]
        out += np.outer(w, w.conj())
    return (out + out.conj().T) / 2


@dataclass(frozen=True)
class CptpVerdict:
    """Outcome of the CPTP test: Choi positivity + completeness."""

    is_cp: bool
    is_tp: bool
    choi_min_eig: float
    completeness_defect: float

    def __bool__(self):
        return self.is_cp and self.is_tp


def is_cptp(phi: KrausMap, tol: float = 1e-10) -> CptpVerdict:
    """CP iff the Choi matrix has min eigenvalue >= -tol (automatic for an
    actual Kraus list, but checked, not assumed); TP iff sum K^dag K = I
    to tol."""
    w = np.linalg.eigvalsh(choi_matrix(phi))
    lo = float(w[0])
    defect = phi.completeness_defect()
    return CptpVerdict(lo >= -tol, defect <= tol, lo, defect)


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

    Columns of V occupy the slots |i> (x) |0>; the remaining columns are
    filled by Gram-Schmidt over the standard basis in index order, so the
    completion is deterministic.
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
    u = np.zeros((big, big), dtype=complex)
    cols = []
    for i in range(d):
        u[:, i * r] = iso[:, i]
        cols.append(iso[:, i])
    free_slots = [j for j in range(big) if j % r != 0]
    filled = 0
    for cand in range(big):
        if filled == len(free_slots):
            break
        v = np.zeros(big, dtype=complex)
        v[cand] = 1.0
        for _pass in range(2):
            for c in cols:
                v = v - c * np.vdot(c, v)
        n = float(np.linalg.norm(v))
        if n > 1e-7:
            v = v / n
            u[:, free_slots[filled]] = v
            cols.append(v)
            filled += 1
    if filled != len(free_slots):
        raise ArithmeticError("failed to complete the dilation unitary")
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
    order; psi.size // d recovers the ancilla dimension.
    """
    rho, spec = psd_eig(rho)
    require_unit_trace(rho)
    lam = spec.eigenvalues
    sel = lam > zero_band(lam)
    lam = lam[sel]
    vecs = spec.eigenvectors[:, sel]
    psi = (vecs * np.sqrt(lam)).reshape(-1)  # index (i, k) -> i * rank + k
    return psi / float(np.linalg.norm(psi))
