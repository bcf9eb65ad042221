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
    _linear,
    identity_channel,
    povm_channel,
    require_tp,
    tensor_channel,
)
from .entropy import _entropy, _relent, _rowdot, _scalar, relative_entropy
from .matcore import (
    Spectrum,
    _first,
    _kron,
    _one_shape,
    _psd,
    _psd_stacks,
    _symmetrize,
    _worst,
    require_unit_trace,
)


class Ensemble:
    """Finite ensemble of density matrices with strictly positive weights.

    ``states`` is one (n, d, d) stack and ``spectra`` the (n, d) eigenvalues
    of the one ``eigvalsh`` that validated it, so the member entropies
    decompose nothing again.  Weights (..., n) and states (..., n, d, d)
    hold a stack of ensembles of one member count and dimension on leading
    axes, each checked as one is; every function below then gives one
    value per ensemble.
    """

    __slots__ = ("weights", "states", "spectra")

    def __init__(self, weights, states):
        w = np.asarray(weights, dtype=float)
        if w.ndim < 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        _check_weights(w)
        _one_shape("ensemble states must share one dimension", states)
        if np.shape(states)[:-2] != w.shape:
            raise ValueError("one state per weight")
        states, self.spectra = _psd_stacks([states], [False])[0]
        self.weights, self.states = w, require_unit_trace(states)

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    def __len__(self):
        return self.states.shape[-3]

    def average(self) -> np.ndarray:
        return (self.weights[..., None, None] * self.states).sum(axis=-3)

    def _average(self, vectors: bool):
        """The average, exactly Hermitian, and its eigenvalues (`Spectrum`
        with ``vectors``), checked as a density matrix on that eigensolve."""
        avg, spec = _psd(self.average(), vectors)
        require_unit_trace(avg)
        return avg, spec

    def map(self, phi: KrausMap) -> "Ensemble":
        """Apply one channel to every member, in one product; weights
        unchanged.  One ``eigvalsh`` checks the (exactly Hermitian) images.
        For a stack of ensembles, ``phi`` is one channel or one per ensemble
        (`KrausMap._stack`)."""
        images = _symmetrize(_linear(phi.kraus_ops[..., None, :, :, :], self.states))
        return Ensemble(self.weights, images)

    def _divergences(self, avg: Spectrum) -> np.ndarray:
        """H(rho_j, A) of every member, for the PSD matrix A of spectrum
        ``avg`` (one per ensemble of a stack)."""
        each = Spectrum(avg.eigenvalues[..., None, :], avg.eigenvectors[..., None, :, :])
        return _relent(self.states, self.spectra, each)


def _check_weights(w: np.ndarray) -> None:
    """Strictly positive weights summing to 1, per row of a stack."""
    if np.any(w <= 0.0):
        raise ValueError("ensemble weights must be strictly positive")
    total = w.sum(axis=-1)
    off = abs(total - 1.0) > 1e-12
    if _worst(off):
        raise ValueError(f"weights must sum to 1, got {_first(total, off)!r}")


def _chi(ensemble: Ensemble, lam_avg: np.ndarray) -> float:
    """chi from the eigenvalues of the average."""
    return _entropy(lam_avg) - _scalar(_rowdot(ensemble.weights, _entropy(ensemble.spectra)))


def chi(ensemble: Ensemble) -> float:
    """Holevo quantity S(rho_av) - sum_j pi_j S(rho_j), >= 0.

    The member entropies read the spectra the ensemble already holds, so
    only the average is decomposed.
    """
    return _chi(ensemble, ensemble._average(False)[1])


def yuen_ozawa_gap(ensemble: Ensemble) -> float:
    """|chi - sum_j pi_j H(rho_j, rho_av)|; zero in exact arithmetic, and
    every term is finite because supp(rho_j) lies inside supp(rho_av).
    One ``eigh`` of the average serves both sides; the sum runs over the
    members in order."""
    avg = ensemble._average(True)[1]
    terms = ensemble.weights * ensemble._divergences(avg)
    mix = _scalar(np.add.accumulate(terms, axis=-1)[..., -1])
    return abs(_chi(ensemble, avg.eigenvalues) - mix)


def flagged_state(ensemble: Ensemble) -> np.ndarray:
    """gamma_QC = sum_j pi_j rho_j (x) |j><j|, quantum leg slowest: entry
    (a n + j, b n + k) is pi_j rho_j[a, b] if j = k, else zero."""
    n, d = len(ensemble), ensemble.dim
    out = np.zeros((*ensemble.weights.shape[:-1], d * n, d * n), dtype=complex)
    for j in range(n):
        out[..., j::n, j::n] = ensemble.weights[..., j, None, None] * ensemble.states[..., j, :, :]
    return out


def flagged_marginals(ensemble: Ensemble) -> np.ndarray:
    """gamma_Q (x) gamma_C, the product of the flagged state's marginals."""
    w = ensemble.weights
    return _kron(ensemble.average(), (w[..., None] * np.eye(w.shape[-1])).astype(complex))


def chi_via_qc(ensemble: Ensemble) -> float:
    """chi as H(gamma_QC, gamma_Q (x) gamma_C) on the flagged state."""
    return relative_entropy(flagged_state(ensemble), flagged_marginals(ensemble))


def check_holevo_bound(ensemble: Ensemble, channel: KrausMap) -> float:
    """chi(E) - chi(Phi E) = f(rho_av) - sum_j pi_j f(rho_j) >= 0 with
    f = S - S o Phi, for a trace-preserving channel Phi: monotonicity of
    relative entropy, term by term in the mixture identity.

    With the record channel of a POVM (`channels.povm_channel`) this is
    the Holevo bound: no measurement extracts more than chi.  With a
    partial trace Tr_B (`channels.trace_out_channel`) it is concavity of
    S(B|A) = S(AB) - S(A); with any other channel, concavity of f.  On a
    stack of ensembles, ``channel`` is one channel or one per ensemble.
    """
    require_tp(channel)
    return chi(ensemble) - chi(ensemble.map(channel))


def check_partial_measurement_chain(ensemble: Ensemble, dims, povm_a: Povm,
                                    povm_b: Povm) -> tuple[float, float]:
    """Two-step data processing on a bipartite ensemble:

        chi(E) >= chi((I (x) M_B) E) >= chi((M_A (x) M_B) E)

    returned as the two successive margins; one pair of margins per
    ensemble of a stack, each with its own POVMs (a `Povm` of stacked effects)."""
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
