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
    apply_channel,
    identity_channel,
    povm_channel,
    require_tp,
    tensor_channel,
)
from .entropy import _entropy, _relent, relative_entropy, von_neumann_entropy
from .matcore import psd_eig, psd_eigvalsh, require_unit_trace, tensor


class Ensemble:
    """Finite ensemble of density matrices with strictly positive weights.

    ``spectra`` keeps the eigenvalues that validated each state, so the
    member entropies decompose nothing again.
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
        validated = [psd_eigvalsh(r) for r in states]
        rhos = tuple(require_unit_trace(r) for r, _ in validated)
        if len(rhos) != w.size:
            raise ValueError("one state per weight")
        d = rhos[0].shape[0]
        for r in rhos[1:]:
            if r.shape != (d, d):
                raise ValueError("ensemble states must share one dimension")
        self.weights = w
        self.states = rhos
        self.spectra = tuple(lam for _, lam in validated)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def __len__(self):
        return len(self.states)

    def average(self) -> np.ndarray:
        return sum(w * r for w, r in zip(self.weights, self.states))

    def map(self, phi: KrausMap) -> "Ensemble":
        """Apply one channel to every member; weights unchanged."""
        return Ensemble(self.weights, [apply_channel(phi, r) for r in self.states])


def chi(ensemble: Ensemble) -> float:
    """Holevo quantity S(rho_av) - sum_j pi_j S(rho_j), >= 0.

    The member entropies read the spectra the ensemble already holds, so
    only the average is decomposed.
    """
    members = float(np.dot(ensemble.weights, [_entropy(lam) for lam in ensemble.spectra]))
    return von_neumann_entropy(ensemble.average()) - members


def yuen_ozawa_gap(ensemble: Ensemble) -> float:
    """|chi - sum_j pi_j H(rho_j, rho_av)|; zero in exact arithmetic, and
    every term is finite because supp(rho_j) lies inside supp(rho_av)."""
    avg = psd_eig(ensemble.average())[1]
    mix = sum(
        w * _relent(r, lam, avg)
        for w, r, lam in zip(ensemble.weights, ensemble.states, ensemble.spectra)
    )
    return abs(chi(ensemble) - float(mix))


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
    measure_b = tensor_channel(identity_channel(d_a), povm_channel(povm_b))
    measure_both = tensor_channel(povm_channel(povm_a), povm_channel(povm_b))
    chi_full = chi(ensemble)
    chi_half = chi(ensemble.map(measure_b))
    chi_classical = chi(ensemble.map(measure_both))
    return chi_full - chi_half, chi_half - chi_classical
