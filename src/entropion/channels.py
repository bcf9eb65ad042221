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
    _array,
    _rank,
    _finite,
    _first,
    _from_spectrum,
    _hermitian,
    _kept_first,
    _kron,
    _one_shape,
    _psd_stack,
    _psd_stacks,
    _symmetrize,
    _worst,
)

TP_TOL = 1e-10
POVM_TOL = 1e-10


class KrausMap:
    """Completely positive map; ``kraus_ops`` stacks its Kraus operators as
    (r, d_out, d_in).  The constructor takes one channel and refuses a 4-d
    array, which a list of operator stacks would give: a stack of channels
    has no shape of its own to tell it from that error.  So a stack of
    channels of one Kraus count and shape, (..., r, d_out, d_in), is held
    by `KrausMap._stack`, the one stacked constructor; the functions below
    then act with each channel of the stack."""

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
        self._set(ops)

    @classmethod
    def _stack(cls, kraus_ops) -> "KrausMap":
        """Channels (..., r, d_out, d_in) of one Kraus count and shape, their
        entries checked finite as the constructor checks one's, in one call."""
        out = cls.__new__(cls)
        out._set(np.asarray(kraus_ops, dtype=complex))
        return out

    def _set(self, ops: np.ndarray) -> None:
        self.kraus_ops = _finite(ops)
        self.d_out, self.d_in = ops.shape[-2:]

    def __len__(self):
        return self.kraus_ops.shape[-3]

    def completeness_defect(self) -> float:
        """max-norm distance of V^dag V = sum K^dag K from the identity."""
        return float(_tp_defect(self.kraus_ops))


def _tp_defect(k: np.ndarray) -> np.ndarray:
    """`KrausMap.completeness_defect` of a Kraus stack (r, d_out, d_in), or
    of each channel of a stack of them (..., r, d_out, d_in)."""
    v = k.reshape(*k.shape[:-3], -1, k.shape[-1])
    return np.abs(v.conj().swapaxes(-1, -2) @ v - np.eye(k.shape[-1])).max(axis=(-2, -1))


def require_tp(phi: KrausMap) -> KrausMap:
    """The one trace-preservation check: raises unless sum K^dag K = I to
    TP_TOL, for a channel or for every channel of a stack."""
    defect = _worst(_tp_defect(phi.kraus_ops))
    if defect > TP_TOL:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    return phi


def apply_linear(phi: KrausMap, x) -> np.ndarray:
    """sum_j K_j X K_j^dag on an arbitrary (square) operand, or on each of
    a stack (..., d, d)."""
    return _linear(phi.kraus_ops, _finite(_array(x)))


# Entries of the products K_j X and K_j X K_j^dag that `_linear` forms at
# once; a longer Kraus stack is applied in runs of operators.
_LINEAR_ENTRIES = 1 << 14


def _linear(k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`apply_linear` of the Kraus stack ``k`` (..., r, d_out, d_in) on a
    complex operand or stack: one broadcast product per run of operators,
    the terms added in operator order."""
    *_, r, d_out, d_in = k.shape
    if x.shape[-2:] != (d_in, d_in):
        raise ValueError(f"operand shape {x.shape[-2:]} != ({d_in}, {d_in})")
    x = x[..., None, :, :]
    lead = math.prod(np.broadcast_shapes(k.shape[:-3], x.shape[:-3]))
    run = max(1, _LINEAR_ENTRIES // (lead * d_out * (d_in + d_out)))
    total = None
    for lo in range(0, r, run):
        ks = k[..., lo:lo + run, :, :]
        terms = ks @ x @ ks.conj().swapaxes(-1, -2)
        if total is not None:
            # the running sum comes first, so the sum runs in operator order
            terms = np.concatenate((total[..., None, :, :], terms), axis=-3)
        total = terms.sum(axis=-3)
    return total


def apply_channel(phi: KrausMap, rho) -> np.ndarray:
    """Channel action on a Hermitian operand, or on each of a stack
    (..., d, d); the output is re-symmetrized, so exactly Hermitian."""
    return _symmetrize(_linear(phi.kraus_ops, _hermitian(_array(rho))))


def adjoint_channel(phi: KrausMap) -> KrausMap:
    """Heisenberg-picture adjoint {K_j^dag}; unital when phi is TP."""
    return KrausMap._stack(phi.kraus_ops.conj().swapaxes(-1, -2))


def identity_channel(d: int) -> KrausMap:
    return KrausMap([np.eye(d)])


def tensor_channel(phi: KrausMap, psi: KrausMap) -> KrausMap:
    """Product channel with Kraus operators K_i (x) L_j, i-major order."""
    prod = _kron(phi.kraus_ops[..., :, None, :, :], psi.kraus_ops[..., None, :, :, :])
    return KrausMap._stack(prod.reshape(*prod.shape[:-4], -1, *prod.shape[-2:]))


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
    """Kill all off-diagonal entries (measurement in the standard basis), of
    a square matrix or of each matrix of a stack."""
    x = _square(x, "dephase")
    out = np.zeros_like(x)
    diag = np.arange(x.shape[-1])
    out[..., diag, diag] = x[..., diag, diag]
    return out


def _square(x, name: str) -> np.ndarray:
    x = _finite(_array(x))
    if x.shape[-2] != x.shape[-1]:
        raise ValueError(f"{name} needs a square matrix")
    return x


def dephase_via_z(x) -> np.ndarray:
    """Same projection as the average (1/d) sum_j Z^j X Z^{-j} over the
    clock unitary Z = diag(1, w, ..., w^{d-1}), w = exp(2 pi i / d); of a
    square matrix or of each matrix of a stack."""
    x = _square(x, "dephase_via_z")
    d = x.shape[-1]
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
    takes the square roots from it.  Effects (..., n, d, d) hold a stack
    of POVMs of one effect count and dimension on leading axes, each
    checked as one is.
    """

    __slots__ = ("effects", "spectra")

    def __init__(self, effects):
        if not len(effects):
            raise ValueError("need at least one effect")
        _one_shape("effect shapes differ", effects)
        if np.ndim(effects) < 3:
            raise ValueError(f"expected a stack of matrices, got shape {np.shape(effects)}")
        ops, spectra = _psd_stacks([effects], [True])[0]
        defect = np.abs(ops.sum(axis=-3) - np.eye(ops.shape[-1])).max(axis=(-2, -1))
        off = defect > POVM_TOL
        if _worst(off):
            raise ValueError(f"effects do not sum to the identity (defect {_first(defect, off):.3e})")
        self.effects, self.spectra = ops, spectra

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    def __len__(self):
        return self.effects.shape[-3]


def povm_channel(povm: Povm) -> KrausMap:
    """Measure-and-record channel rho -> sum_a Tr(rho M_a) |a><a|, one per
    POVM of a stack.

    Kraus operators |a><b| sqrt(M_a), one per (effect a, basis row b),
    a-major; output dimension is the number of effects.
    """
    roots = _from_spectrum(povm.spectra, np.sqrt)
    *lead, n, d, _ = roots.shape
    ops = np.zeros((*lead, n, d, n, d), dtype=complex)
    # operator (a, b) holds row b of sqrt(M_a) in its output row a; the
    # indexed axis a comes first in the selection
    ops[..., np.arange(n), :, np.arange(n), :] = np.moveaxis(roots, -3, 0)
    return KrausMap._stack(ops.reshape(*lead, n * d, n, d))


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
    return AncillaRep(_dilation(phi.kraus_ops), len(phi))


def _dilation(k: np.ndarray) -> np.ndarray:
    """`ancilla_representation`'s unitary of a trace-preserving square Kraus
    stack (r, d, d), or of each channel of a stack of them."""
    *lead, r, d, _ = k.shape
    big = d * r
    # row (a, j) of the isometry is row a of K_j
    iso = k.swapaxes(-3, -2).reshape(*lead, big, d)
    u = np.empty((*lead, big, big), dtype=complex)
    on_ancilla_zero = np.arange(big) % r == 0
    u[..., on_ancilla_zero] = iso
    u[..., ~on_ancilla_zero] = np.linalg.qr(iso, mode="complete")[0][..., d:]
    defect = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(big)).max(axis=(-2, -1))
    off = defect > 1e-10
    if _worst(off):
        raise ArithmeticError(f"dilation unitary defect {_first(defect, off):.3e}")
    return u


def apply_ancilla(rep: AncillaRep, rho) -> np.ndarray:
    """Joint system+ancilla output U (rho (x) |0><0|) U^dag = W rho W^dag,
    where W = U[:, ::anc_dim] are the columns on |i> (x) |0>, the isometry
    that `ancilla_representation` placed there; for a stack of dilations
    or operands, one output per leading index."""
    w = rep.unitary[..., :: rep.anc_dim]
    return _symmetrize(w @ _hermitian(_array(rho)) @ w.conj().swapaxes(-1, -2))


def purify(rho) -> np.ndarray:
    """Unit vector psi on system (x) ancilla with Tr_anc |psi><psi| = rho.

    The ancilla dimension is the rank of rho (eigenvalues above the zero
    band), and the ancilla basis enumerates those eigenvalues in ascending
    order; psi.size // d recovers the ancilla dimension.  A stack (..., d, d)
    of density matrices of one rank gives one vector per leading index.
    One ``eigh`` validates rho; `_purify` is the kernel on its spectrum.
    """
    return _purify(_psd_stack(rho, True, True)[1])


def _purify(spec: Spectrum) -> np.ndarray:
    """`purify` from a validated density matrix's spectrum, clipped at zero,
    or from a stack of spectra of one rank."""
    lam = spec.eigenvalues
    ranks = sorted(set(np.ravel(_rank(lam)).tolist()))
    if len(ranks) != 1:
        raise ValueError(f"the states of a stack must share one rank, got ranks {ranks}")
    rank, = ranks
    # the eigenvalues ascend, so the support is the last rank of them
    keep = slice(lam.shape[-1] - rank, None)
    psi = spec.eigenvectors[..., keep] * np.sqrt(lam[..., None, keep])
    psi = psi.reshape(*lam.shape[:-1], -1)  # index (i, k) -> i * rank + k
    # each vector's own norm, as np.linalg.norm gives it for one vector
    norms = [float(np.linalg.norm(v)) for v in psi.reshape(-1, psi.shape[-1])]
    return psi / np.reshape(norms, (*psi.shape[:-1], 1))
