"""Margin-style checks for the entropy and Schwarz inequalities.

Every check returns margins with the convention

    margin = (claimed larger side) - (claimed smaller side)

so a correct inequality yields margin >= -tol and equalities show up as
margins near zero.  Agreement checks (two expressions that must coincide)
are reported as negated gaps, -|lhs - rhs|, so the same pass rule applies.
Checks never generate randomness; instances come in from outside.

Both concavity claims (of S(B|A), and of S - S o Phi) are one Holevo
margin under a channel: `holevo.check_holevo_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .channels import (
    KrausMap,
    _channel,
    adjoint_channel,
    apply_channel,
    apply_linear,
    require_tp,
)
from .entropy import (
    _entropy,
    _relent,
    _relent_psd,
    _same_shape,
    _support_split,
    von_neumann_entropy,
)
from .matcore import (
    _density,
    _one_shape,
    _psd_stacks,
    _spectral_function,
    _symmetrize,
    as_matrix,
    as_psd,
    hermitian_eig,
    partial_trace,
    partial_trace_pure,
    psd_eig,
    zero_band,
)
from .superop import SuperOpSpec, _resolvent, solve_resolvent

SIMPLEX_TOL = 1e-12
# Weights below this are clamped to exactly zero and the rest renormalized.
WEIGHT_CLAMP = 1e-12


def _simplex_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if np.any(w < -SIMPLEX_TOL):
        raise ValueError("weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"weights must sum to 1, got {float(w.sum())!r}")
    w = np.where(w < WEIGHT_CLAMP, 0.0, w)
    s = w.sum()
    if s <= 0.0:
        raise ValueError("all weights clamped to zero")
    return w / s


class Failure(NamedTuple):
    trial: int
    margin: float
    digest: str


class TrialError(NamedTuple):
    """A trial that raised instead of returning a margin."""

    trial: int
    error: str  # exception class name
    message: str


@dataclass(frozen=True)
class CheckReport:
    """Aggregated outcome of one randomized suite."""

    suite: str
    trials: int
    seed: int
    tol: float
    worst_margin: float
    skipped_infinite: int
    failures: tuple[Failure, ...] = field(default_factory=tuple)
    runtime_ms: float = 0.0
    errors: tuple[TrialError, ...] = field(default_factory=tuple)
    skipped_kernel: int = 0  # trials refused by a KernelObstruction

    @property
    def passed(self) -> bool:
        # a suite whose every trial was skipped checked nothing
        skipped = self.skipped_infinite + self.skipped_kernel
        return not self.failures and not self.errors and skipped < self.trials

    def to_json_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "tol": self.tol,
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "skipped_infinite": self.skipped_infinite,
            "failures": [
                {"trial": f.trial, "margin": f.margin, "digest": f.digest}
                for f in self.failures
            ],
        }
        # only reports with kernel skips or errors carry these keys, so the
        # rest keep their bytes
        if self.skipped_kernel:
            out["skipped_kernel"] = self.skipped_kernel
        if self.errors:
            out["errors"] = [
                {"trial": e.trial, "error": e.error, "message": e.message}
                for e in self.errors
            ]
        out["runtime_ms"] = self.runtime_ms
        return out


class ConvexityInstance:
    """A convex-combination instance: simplex weights and PSD pairs with
    compatible supports (every P_j supported inside the corresponding Q_j,
    so no term of the combination is infinite by construction).

    ``ps`` and ``qs`` stack the pairs, validated by one ``eigvalsh`` and one
    ``eigh``, and ``terms`` holds each H(P_j, Q_j) from those spectra.
    """

    __slots__ = ("weights", "ps", "qs", "terms")

    def __init__(self, weights, pairs):
        self.weights = _simplex_weights(weights)
        pairs = list(pairs)
        if len(pairs) != self.weights.size:
            raise ValueError("one (P, Q) pair required per weight")
        _one_shape("all pairs must share one dimension", *pairs)
        (ps, lam_p), (qs, spec_q) = _psd_stacks([[p for p, _ in pairs], [q for _, q in pairs]],
                                                [False, True])
        self.ps, self.qs = ps, qs
        self.terms = _relent(ps, lam_p, spec_q)
        if np.isinf(self.terms).any():
            split = _support_split(ps, spec_q)
            j = int(np.argmax(split.infinite))
            raise ValueError(f"pair {j}: P has weight {split.ker_mass[j]:.3e} outside supp(Q)")


class JointConvexityMargins(NamedTuple):
    margin: float
    subadditive_margin: float
    scaling_gap: float


def check_joint_convexity(inst: ConvexityInstance) -> JointConvexityMargins:
    """Joint convexity of H plus its two appendix-route companions.

    margin             sum_j x_j H(P_j, Q_j) - H(sum x P, sum x Q)
    subadditive_margin sum_j H(P_j, Q_j)     - H(sum P, sum Q)
    scaling_gap        |sum_j H(x_j P_j, x_j Q_j) - sum_j x_j H(P_j, Q_j)|

    the last being the homogeneity step that upgrades subadditivity to
    convexity.  Each H is the kernel's on sums or multiples of the pairs.
    """
    x = inst.weights
    scale = x[:, None, None]
    weighted = float(np.dot(x, inst.terms))
    margin = weighted - _relent_psd((scale * inst.ps).sum(axis=0), (scale * inst.qs).sum(axis=0))
    subadditive = sum(inst.terms.tolist()) - _relent_psd(inst.ps.sum(axis=0), inst.qs.sum(axis=0))
    on = x > 0.0
    scaled = sum(np.ravel(_relent_psd(scale[on] * inst.ps[on], scale[on] * inst.qs[on])).tolist())
    scaling_gap = abs(scaled - weighted)
    return JointConvexityMargins(float(margin), float(subadditive), float(scaling_gap))


def check_schwarz_quadratic(a_list: Sequence, p_list: Sequence, q_list: Sequence, t: float) -> float:
    """Convexity of the resolvent quadratic form: the termwise sum
    sum_j Tr A_j^dag (L_{P_j} + t R_{Q_j})^{-1} A_j dominates the same form
    at the summed data; the terms are one stacked solve."""
    if not (len(a_list) == len(p_list) == len(q_list)) or not len(a_list):
        raise ValueError("need equally many A, P, Q entries")
    _one_shape("term shapes differ: {} vs {}", a_list, p_list, q_list)
    (p, spec_p), (q, spec_q) = _psd_stacks([p_list, q_list], [True, True])
    summed = SuperOpSpec(p.sum(axis=0), q.sum(axis=0), t)
    a = np.stack([as_matrix(x) for x in a_list])
    y = _resolvent(spec_p, spec_q, summed.t, a)
    total = sum(np.sum(a.conj() * y, axis=(-2, -1)).real.tolist())
    a_sum = a.sum(axis=0)
    combined = float(np.sum(a_sum.conj() * solve_resolvent(summed, a_sum)).real)
    return total - combined


def _inverse(spec) -> np.ndarray:
    """P^{-1} from P's spectrum; ValueError when P is singular."""
    return _spectral_function(spec, lambda x: 1.0 / x)


def _min_eig(m) -> float:
    return float(np.linalg.eigvalsh(_symmetrize(as_matrix(m)))[0])


def check_operator_schwarz(a_list: Sequence, p_list: Sequence) -> float:
    """Operator Schwarz inequality
    sum_k A_k^dag P_k^{-1} A_k >= (sum A)^dag (sum P)^{-1} (sum A),
    reported as the smallest eigenvalue of the difference."""
    if len(a_list) != len(p_list) or not len(a_list):
        raise ValueError("need equally many A and P entries")
    _one_shape("term shapes differ: {} vs {}", a_list, p_list)
    a = np.stack([as_matrix(x) for x in a_list])
    (p, spec), = _psd_stacks([p_list], [True])
    lhs = (a.conj().swapaxes(-1, -2) @ _inverse(spec) @ a).sum(axis=0)
    a_sum = a.sum(axis=0)
    rhs = a_sum.conj().T @ _inverse(hermitian_eig(p.sum(axis=0))) @ a_sum
    return _min_eig(lhs - rhs)


def check_cp_schwarz(phi: KrausMap, a, b, p) -> tuple[float, float]:
    """Schwarz inequalities under a completely positive map: smallest
    eigenvalues of

        Phi(A^dag P^{-1} A) - Phi(A)^dag Phi(P)^{-1} Phi(A)
        Phi(A^dag A) - Phi(A^dag B) Phi(B^dag B)^{-1} Phi(B^dag A)
    """
    a = as_matrix(a)
    b = as_matrix(b)
    p, spec_p = psd_eig(p)
    t1 = apply_linear(phi, a.conj().T @ _inverse(spec_p) @ a)
    fa = apply_linear(phi, a)
    fp_inv = _inverse(hermitian_eig(apply_channel(phi, p)))
    m1 = _min_eig(t1 - fa.conj().T @ fp_inv @ fa)

    t2 = apply_linear(phi, a.conj().T @ a)
    g = apply_linear(phi, a.conj().T @ b)
    h_inv = _inverse(hermitian_eig(apply_channel(phi, _symmetrize(b.conj().T @ b))))
    m2 = _min_eig(t2 - g @ h_inv @ g.conj().T)
    return m1, m2


@dataclass(frozen=True)
class BlockContractionReport:
    """Equivalence of three positivity criteria for [[P, C], [C^dag, Q]]:
    the block matrix itself, the Schur complement Q - C^dag P^{-1} C, and
    the contraction bound on P^{-1/2} C Q^{-1/2}.  Margins within tol of
    the boundary make the verdict indeterminate rather than failed."""

    block_min_eig: float
    schur_min_eig: float
    max_singular_value: float
    tol: float

    @property
    def indeterminate(self) -> bool:
        return (
            abs(self.block_min_eig) <= self.tol
            or abs(self.schur_min_eig) <= self.tol
            or abs(self.max_singular_value - 1.0) <= self.tol
        )

    @property
    def consistent(self) -> bool:
        if self.indeterminate:
            return True
        block = self.block_min_eig > 0.0
        schur = self.schur_min_eig > 0.0
        contraction = self.max_singular_value < 1.0
        return block == schur == contraction


def check_block_contraction(p, q, c, tol: float = 1e-9) -> BlockContractionReport:
    p, spec_p = psd_eig(p)
    q, spec_q = psd_eig(q)
    c = as_matrix(c)
    if c.shape != p.shape or p.shape != q.shape:
        raise ValueError("P, Q, C must share one square shape")
    block = np.block([[p, c], [c.conj().T, q]])
    block_min = _min_eig(block)
    schur_min = _min_eig(q - c.conj().T @ _inverse(spec_p) @ c)
    p_mhalf = _spectral_function(spec_p, lambda v: v ** -0.5)
    q_mhalf = _spectral_function(spec_q, lambda v: v ** -0.5)
    x = p_mhalf @ c @ q_mhalf
    smax = float(np.linalg.svd(x, compute_uv=False)[0])
    return BlockContractionReport(block_min, schur_min, smax, float(tol))


def check_monotonicity(rho, gamma, channel: KrausMap) -> float:
    """Data-processing margin H(rho, gamma) - H(Phi rho, Phi gamma) for a
    trace-preserving Kraus channel Phi (Lindblad-Uhlmann monotonicity).

    Dephasing and partial traces are channels like any other (see
    `channels.trace_out_channel`).  Returns +inf (trial skipped) when the
    input relative entropy is infinite, and -inf (a failure: data
    processing cannot break the support inclusion) when only the output
    one is.
    """
    require_tp(channel)
    rho, lam_rho = _density(rho, False)
    gamma, spec_gamma = _density(gamma, True)
    _same_shape(rho, gamma)
    h_in = _relent(rho, lam_rho, spec_gamma)
    if math.isinf(h_in):
        return math.inf
    # the images are symmetrized, exactly Hermitian: the kernel takes them
    return h_in - _relent_psd(*_channel(channel, np.stack((rho, gamma))))


class SsaMargins(NamedTuple):
    primary: float
    alt: float


def check_ssa(rho_abc, dims) -> SsaMargins:
    """Strong subadditivity margins for a tripartite state.

    primary = S(AB) + S(BC) - S(ABC) - S(B);
    alt     = S(AB) + S(AC) - S(B) - S(C), the concave functional F with
    the third factor in the purifying role; it vanishes on pure states.
    One ``eigvalsh`` validates the state; `_ssa` is the kernel.
    """
    rho, lam = _density(rho_abc, False)
    if len(dims) != 3:
        raise ValueError(f"dims must list three factors, got {dims!r}")
    return _ssa(rho, lam, dims)


def _ssa(rho: np.ndarray, lam: np.ndarray, ds: Sequence[int]) -> SsaMargins:
    """`check_ssa` on a validated density matrix and its clipped eigenvalues."""
    s_ab, s_bc, s_ac, s_b, s_c = (von_neumann_entropy(partial_trace(rho, ds, keep))
                                  for keep in ((0, 1), (1, 2), (0, 2), (1,), (2,)))
    return SsaMargins(float(s_ab + s_bc - _entropy(lam) - s_b), float(s_ab + s_ac - s_b - s_c))


def check_pure_state_lemmas(psi, dims) -> float:
    """Both reductions of a bipartite pure state share one nonzero
    spectrum; returns the max deviation between the sorted spectra
    (padded with zeros to a common length)."""
    return _pure_state_lemmas(psi, dims)[0]


def _pure_state_lemmas(psi, dims) -> tuple[float, list[np.ndarray]]:
    """The gap and the two nonzero spectra, descending, one ``eigvalsh`` each."""
    v = np.asarray(psi, dtype=complex).ravel()
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-12:
        raise ValueError(f"state vector must be normalized, got norm {n!r}")
    if len(dims) != 2:
        raise ValueError(f"dims must list two factors, got {dims!r}")
    lams = [np.maximum(np.linalg.eigvalsh(partial_trace_pure(v, dims, keep)), 0.0)
            for keep in ((0,), (1,))]
    a, b = spectra = [lam[lam > zero_band(lam)][::-1] for lam in lams]  # eigvalsh ascends
    k = max(a.size, b.size)
    gap = np.abs(np.pad(a, (0, k - a.size)) - np.pad(b, (0, k - b.size)))
    return (float(gap.max()) if k else 0.0), spectra


def check_adjoint_contraction(phi: KrausMap, p, q, a, t: float = 1.0) -> float:
    """Quadratic-form drop under the adjoint channel.

    With X = (L_{Phi(P)} + t R_{Phi(Q)})^{-1} Phi(A), the Schwarz step
    behind monotonicity demands

        Tr X^dag (Phi(P) X + t X Phi(Q))
          >= Tr Phi^*(X)^dag (P Phi^*(X) + t Phi^*(X) Q)

    and the margin is lhs - rhs."""
    require_tp(phi)
    p = as_psd(p)
    q = as_psd(q)
    a = as_matrix(a)
    fp = apply_channel(phi, p)
    fq = apply_channel(phi, q)
    fa = apply_linear(phi, a)
    x = solve_resolvent(SuperOpSpec(fp, fq, t), fa)
    lhs = float(np.sum(x.conj() * (fp @ x + t * (x @ fq))).real)
    back = apply_linear(adjoint_channel(phi), x)
    rhs = float(np.sum(back.conj() * (p @ back + t * (back @ q))).real)
    return lhs - rhs
