"""Holevo quantity, its relative-entropy identities, and measurement bounds.

For an ensemble {(pi_j, rho_j)} with average rho_av = sum_j pi_j rho_j:

    chi = S(rho_av) - sum_j pi_j S(rho_j)
        = sum_j pi_j H(rho_j, rho_av)                      (mixture identity)
        = H(gamma_QC, gamma_Q (x) gamma_C)                 (flagged-state identity)

where gamma_QC = sum_j pi_j rho_j (x) |j><j| flags each member on a
classical register (quantum leg slowest).  `check_holevo_bound` gives
the drop of chi under any trace-preserving channel as one margin.
"""

from __future__ import annotations

import numpy as np

from .channels import (
    KrausMap,
    Povm,
    _channel,
    identity_channel,
    povm_channel,
    require_tp,
    tensor_channel,
)
from .entropy import _entropy, _relent, relative_entropy
from .matcore import _one_shape, _psd, _psd_stacks, require_unit_trace, tensor


class Ensemble:
    """Finite ensemble of density matrices with strictly positive weights.

    ``states`` is one (n, d, d) stack and ``spectra`` the (n, d) eigenvalues
    of the one ``eigvalsh`` that validated it, so the member entropies
    decompose nothing again.
    """

    __slots__ = ("weights", "states", "spectra")

    def __init__(self, weights, states):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if np.any(w <= 0.0):
            raise ValueError("ensemble weights must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")
        if len(states) != w.size:
            raise ValueError("one state per weight")
        _one_shape("ensemble states must share one dimension", states)
        self._set(w, *_psd_stacks([states], [False])[0])

    def _set(self, weights: np.ndarray, states: np.ndarray, spectra: np.ndarray) -> None:
        self.weights = weights
        self.states = require_unit_trace(states)
        self.spectra = spectra

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def __len__(self):
        return len(self.states)

    def average(self) -> np.ndarray:
        return (self.weights[:, None, None] * self.states).sum(axis=0)

    def _average(self, vectors: bool):
        """The average, exactly Hermitian, and its eigenvalues (`Spectrum`
        with ``vectors``), checked as a density matrix on that eigensolve."""
        avg, spec = _psd(self.average(), vectors)
        require_unit_trace(avg)
        return avg, spec

    def map(self, phi: KrausMap) -> "Ensemble":
        """Apply one channel to every member, in one product; weights
        unchanged.  One ``eigvalsh`` checks the (exactly Hermitian) images."""
        out = Ensemble.__new__(Ensemble)
        out._set(self.weights, *_psd(_channel(phi, self.states), False))
        return out


def _chi(ensemble: Ensemble, lam_avg: np.ndarray) -> float:
    """chi from the eigenvalues of the average."""
    return _entropy(lam_avg) - float(np.dot(ensemble.weights, _entropy(ensemble.spectra)))


def chi(ensemble: Ensemble) -> float:
    """Holevo quantity S(rho_av) - sum_j pi_j S(rho_j), >= 0.

    The member entropies read the spectra the ensemble already holds, so
    only the average is decomposed.
    """
    return _chi(ensemble, ensemble._average(False)[1])


def yuen_ozawa_gap(ensemble: Ensemble) -> float:
    """|chi - sum_j pi_j H(rho_j, rho_av)|; zero in exact arithmetic, and
    every term is finite because supp(rho_j) lies inside supp(rho_av).
    One ``eigh`` of the average serves both sides."""
    avg = ensemble._average(True)[1]
    mix = sum((ensemble.weights * _relent(ensemble.states, ensemble.spectra, avg)).tolist())
    return abs(_chi(ensemble, avg.eigenvalues) - mix)


def flagged_state(ensemble: Ensemble) -> np.ndarray:
    """gamma_QC = sum_j pi_j rho_j (x) |j><j|, quantum leg slowest: entry
    (a n + j, b n + k) is pi_j rho_j[a, b] if j = k, else zero."""
    n, d = len(ensemble), ensemble.dim
    out = np.zeros((d * n, d * n), dtype=complex)
    for j, (w, r) in enumerate(zip(ensemble.weights, ensemble.states)):
        out[j::n, j::n] = w * r
    return out


def chi_via_qc(ensemble: Ensemble) -> float:
    """chi as H(gamma_QC, gamma_Q (x) gamma_C) on the flagged state."""
    gamma_qc = flagged_state(ensemble)
    product = tensor(ensemble.average(), np.diag(ensemble.weights))
    return relative_entropy(gamma_qc, product)


def check_holevo_bound(ensemble: Ensemble, channel: KrausMap) -> float:
    """chi(E) - chi(Phi E) = f(rho_av) - sum_j pi_j f(rho_j) >= 0 with
    f = S - S o Phi, for a trace-preserving channel Phi: monotonicity of
    relative entropy, term by term in the mixture identity.

    With the record channel of a POVM (`channels.povm_channel`) this is
    the Holevo bound: no measurement extracts more than chi.  With a
    partial trace Tr_B (`channels.trace_out_channel`) it is concavity of
    S(B|A) = S(AB) - S(A); with any other channel, concavity of f.
    """
    require_tp(channel)
    return chi(ensemble) - chi(ensemble.map(channel))


def check_partial_measurement_chain(ensemble: Ensemble, dims, povm_a: Povm,
                                    povm_b: Povm) -> tuple[float, float]:
    """Two-step data processing on a bipartite ensemble:

        chi(E) >= chi((I (x) M_B) E) >= chi((M_A (x) M_B) E)

    returned as the two successive margins."""
    d_a, d_b = (int(dims[0]), int(dims[1]))
    if d_a * d_b != ensemble.dim:
        raise ValueError(f"dims {dims!r} do not factor dimension {ensemble.dim}")
    if povm_a.dim != d_a or povm_b.dim != d_b:
        raise ValueError("POVM dimensions do not match the factors")
    record_b = povm_channel(povm_b)
    measure_b = tensor_channel(identity_channel(d_a), record_b)
    measure_both = tensor_channel(povm_channel(povm_a), record_b)
    chi_full = chi(ensemble)
    chi_half = chi(ensemble.map(measure_b))
    chi_classical = chi(ensemble.map(measure_both))
    return chi_full - chi_half, chi_half - chi_classical
