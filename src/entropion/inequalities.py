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
    _linear,
    adjoint_channel,
    apply_channel,
    apply_linear,
    require_tp,
)
from .entropy import (
    _entropy,
    _relent,
    _relent_psd,
    _rowdot,
    _same_shape,
    _scalar,
    _support_split,
    von_neumann_entropy,
)
from .matcore import (
    _array,
    _eigh,
    _finite,
    _first,
    _from_spectrum,
    _one_shape,
    _psd_stack,
    _psd_stacks,
    _spectral_function,
    _symmetrize,
    _worst,
    partial_trace,
    partial_trace_pure,
    zero_band,
)
from .superop import SuperOpSpec, solve_resolvent

SIMPLEX_TOL = 1e-12
# Weights below this are clamped to exactly zero and the rest renormalized.
WEIGHT_CLAMP = 1e-12


def _simplex_weights(weights) -> np.ndarray:
    """Checked simplex weights, clamped and renormalized; a stack of weight
    vectors (..., n) is checked as each one is."""
    w = np.asarray(weights, dtype=float)
    if w.ndim < 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if np.any(w < -SIMPLEX_TOL):
        raise ValueError("weights must be nonnegative")
    total = w.sum(axis=-1)
    off = abs(total - 1.0) > SIMPLEX_TOL
    if _worst(off):
        raise ValueError(f"weights must sum to 1, got {_first(total, off)!r}")
    w = np.where(w < WEIGHT_CLAMP, 0.0, w)
    s = w.sum(axis=-1, keepdims=True)
    if np.any(s <= 0.0):
        raise ValueError("all weights clamped to zero")
    return w / s


def _matrices(a) -> np.ndarray:
    """`as_matrix` of every matrix of a list, or of a stack of such lists
    on leading axes, in one call."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 3:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape[1:]}")
    return _finite(a)


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
    Weights (..., n) and pairs (..., n, 2, d, d) hold a stack of instances
    of one member count and dimension on leading axes, each checked as one
    is.
    """

    __slots__ = ("weights", "ps", "qs", "terms")

    def __init__(self, weights, pairs):
        w = _simplex_weights(weights)
        pairs = list(pairs)
        _one_shape("all pairs must share one dimension", *pairs)
        pairs = np.asarray(pairs, dtype=complex)
        if pairs.shape[:-2] != (*w.shape, 2):
            raise ValueError("one (P, Q) pair required per weight")
        (ps, lam_p), (qs, spec_q) = _psd_stacks([pairs[..., 0, :, :], pairs[..., 1, :, :]],
                                                [False, True])
        self.weights, self.ps, self.qs = w, ps, qs
        self.terms = _relent(ps, lam_p, spec_q)
        if np.isinf(self.terms).any():
            split = _support_split(ps, spec_q)
            first = int(np.argmax(split.infinite))  # over all members of the stack, in order
            raise ValueError(f"pair {first % w.shape[-1]}: P has weight "
                             f"{split.ker_mass.flat[first]:.3e} outside supp(Q)")


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
    Sums over j run in member order; a stack of instances gives one triple
    of arrays.
    """
    x = inst.weights
    scale = x[..., None, None]
    weighted = _rowdot(x, inst.terms)
    margin = weighted - _relent_psd((scale * inst.ps).sum(axis=-3), (scale * inst.qs).sum(axis=-3))
    subadditive = _ordered_sum(inst.terms) - _relent_psd(inst.ps.sum(axis=-3), inst.qs.sum(axis=-3))
    # a member of weight zero adds an exact 0
    scaled = _ordered_sum(np.where(x > 0.0, _relent_psd(scale * inst.ps, scale * inst.qs), 0.0))
    return JointConvexityMargins(*map(_scalar, (margin, subadditive, abs(scaled - weighted))))


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum along the last axis, left to right, as Python's ``sum`` adds."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


def check_schwarz_quadratic(a_list: Sequence, p_list: Sequence, q_list: Sequence, t: float) -> float:
    """Convexity of the resolvent quadratic form: the termwise sum
    sum_j Tr A_j^dag (L_{P_j} + t R_{Q_j})^{-1} A_j dominates the same form
    at the summed data; the terms are one stacked solve.  For stacks of
    term lists (..., n, d, d) and t of the leading shape, one margin per
    instance."""
    if not (len(a_list) == len(p_list) == len(q_list)) or not len(a_list):
        raise ValueError("need equally many A, P, Q entries")
    _one_shape("term shapes differ: {} vs {}", a_list, p_list, q_list)
    t = np.asarray(t, dtype=float)
    terms = SuperOpSpec(p_list, q_list, t[..., None])
    summed = SuperOpSpec(terms.left.sum(axis=-3), terms.right.sum(axis=-3), t)
    a = _matrices(a_list)
    y = solve_resolvent(terms, a)
    total = _ordered_sum(np.sum(a.conj() * y, axis=(-2, -1)).real)
    a_sum = a.sum(axis=-3)
    y_sum = solve_resolvent(summed, a_sum)
    return _scalar(total - np.sum(a_sum.conj() * y_sum, axis=(-2, -1)).real)


def _inverse(spec) -> np.ndarray:
    """P^{-1} from P's spectrum, or of each matrix of a stack, in one
    vectorized call: 1 / x on an array has the bits of 1 / x on each float.
    Where an entry is not finite (P singular), `_spectral_function`'s loop
    gives the result, or its ValueError naming the eigenvalue."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _from_spectrum(spec, _reciprocal)
    return out if np.isfinite(out).all() else _spectral_function(spec, _reciprocal)


def _reciprocal(x):
    return 1.0 / x


def _min_eig(m):
    """The smallest eigenvalue of the Hermitian part of a finite matrix, or
    of each matrix of a stack."""
    return _scalar(np.linalg.eigvalsh(_symmetrize(_finite(m)))[..., 0])


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def check_operator_schwarz(a_list: Sequence, p_list: Sequence) -> float:
    """Operator Schwarz inequality
    sum_k A_k^dag P_k^{-1} A_k >= (sum A)^dag (sum P)^{-1} (sum A),
    reported as the smallest eigenvalue of the difference; for stacks of
    term lists (..., n, d, d), one per instance."""
    if len(a_list) != len(p_list) or not len(a_list):
        raise ValueError("need equally many A and P entries")
    _one_shape("term shapes differ: {} vs {}", a_list, p_list)
    a = _matrices(a_list)
    (p, spec), = _psd_stacks([p_list], [True])
    lhs = (_adjoint(a) @ _inverse(spec) @ a).sum(axis=-3)
    a_sum = a.sum(axis=-3)
    # a sum of exactly Hermitian matrices is exactly Hermitian
    rhs = _adjoint(a_sum) @ _inverse(_eigh(p.sum(axis=-3))) @ a_sum
    return _min_eig(lhs - rhs)


def check_cp_schwarz(phi: KrausMap, a, b, p) -> tuple[float, float]:
    """Schwarz inequalities under a completely positive map: smallest
    eigenvalues of

        Phi(A^dag P^{-1} A) - Phi(A)^dag Phi(P)^{-1} Phi(A)
        Phi(A^dag A) - Phi(A^dag B) Phi(B^dag B)^{-1} Phi(B^dag A)

    For stacks of channels (`KrausMap._stack`) or operands, one pair of
    margins per leading index.
    """
    a, b = _finite(_array(a)), _finite(_array(b))
    p, spec_p = _psd_stack(p, True)
    t1 = apply_linear(phi, _adjoint(a) @ _inverse(spec_p) @ a)
    fa = apply_linear(phi, a)
    # the channel's images are exactly Hermitian
    fp_inv = _inverse(_eigh(_finite(apply_channel(phi, p))))
    m1 = _min_eig(t1 - _adjoint(fa) @ fp_inv @ fa)

    t2 = apply_linear(phi, _adjoint(a) @ a)
    g = apply_linear(phi, _adjoint(a) @ b)
    h_inv = _inverse(_eigh(_finite(apply_channel(phi, _symmetrize(_adjoint(b) @ b)))))
    m2 = _min_eig(t2 - g @ h_inv @ _adjoint(g))
    return m1, m2


@dataclass(frozen=True)
class BlockContractionReport:
    """Equivalence of three positivity criteria for [[P, C], [C^dag, Q]]:
    the block matrix itself, the Schur complement Q - C^dag P^{-1} C, and
    the contraction bound on P^{-1/2} C Q^{-1/2}.  Margins within tol of
    the boundary make the verdict indeterminate rather than failed.  With
    arrays of criteria (a stack of instances) the verdicts are elementwise."""

    block_min_eig: float
    schur_min_eig: float
    max_singular_value: float
    tol: float

    @property
    def indeterminate(self) -> bool:
        return ((np.abs(self.block_min_eig) <= self.tol)
                | (np.abs(self.schur_min_eig) <= self.tol)
                | (np.abs(self.max_singular_value - 1.0) <= self.tol))

    @property
    def consistent(self) -> bool:
        block = self.block_min_eig > 0.0
        schur = self.schur_min_eig > 0.0
        contraction = self.max_singular_value < 1.0
        return self.indeterminate | ((block == schur) & (schur == contraction))


def check_block_contraction(p, q, c, tol: float = 1e-9) -> BlockContractionReport:
    """The three criteria of `BlockContractionReport` for PSD P, Q and a
    matrix C of one square shape, or for stacks of them (arrays of
    criteria)."""
    p, spec_p = _psd_stack(p, True)
    q, spec_q = _psd_stack(q, True)
    c = _finite(_array(c))
    if c.shape != p.shape or p.shape != q.shape:
        raise ValueError("P, Q, C must share one square shape")
    block_min = _min_eig(np.block([[p, c], [_adjoint(c), q]]))
    schur_min = _min_eig(q - _adjoint(c) @ _inverse(spec_p) @ c)
    # v ** -0.5 stays on the scalar loop: numpy's vectorized power can round
    # the last bit other than the C library's pow does
    p_mhalf = _spectral_function(spec_p, lambda v: v ** -0.5)
    q_mhalf = _spectral_function(spec_q, lambda v: v ** -0.5)
    x = p_mhalf @ c @ q_mhalf
    smax = _scalar(np.linalg.svd(x, compute_uv=False)[..., 0])
    return BlockContractionReport(block_min, schur_min, smax, float(tol))


def check_monotonicity(rho, gamma, channel: KrausMap) -> float:
    """Data-processing margin H(rho, gamma) - H(Phi rho, Phi gamma) for a
    trace-preserving Kraus channel Phi (Lindblad-Uhlmann monotonicity).

    Dephasing and partial traces are channels like any other (see
    `channels.trace_out_channel`).  Returns +inf (trial skipped) when the
    input relative entropy is infinite, and -inf (a failure: data
    processing cannot break the support inclusion) when only the output
    one is.  For stacks of states (..., d, d), one margin per pair, under
    one channel or one per pair (`KrausMap._stack`).
    """
    require_tp(channel)
    rho, lam_rho = _psd_stack(rho, False, True)
    gamma, spec_gamma = _psd_stack(gamma, True, True)
    _same_shape(rho, gamma)
    h_in = _relent(rho, lam_rho, spec_gamma)
    if np.isinf(h_in).all():
        return h_in
    # the images are symmetrized, exactly Hermitian: the kernel takes them
    pair = np.stack((rho, gamma), axis=-3)
    images = _symmetrize(_linear(channel.kraus_ops[..., None, :, :, :], pair))
    h_out = _relent_psd(images[..., 0, :, :], images[..., 1, :, :])
    return _scalar(np.where(np.isinf(h_in), math.inf, h_in - h_out))


class SsaMargins(NamedTuple):
    primary: float
    alt: float


def check_ssa(rho_abc, dims) -> SsaMargins:
    """Strong subadditivity margins for a tripartite state.

    primary = S(AB) + S(BC) - S(ABC) - S(B);
    alt     = S(AB) + S(AC) - S(B) - S(C), the concave functional F with
    the third factor in the purifying role; it vanishes on pure states.
    For a stack (..., d, d) of states, one margin of each per state.
    One ``eigvalsh`` validates the state; `_ssa` is the kernel.
    """
    rho, lam = _psd_stack(rho_abc, False, True)
    if len(dims) != 3:
        raise ValueError(f"dims must list three factors, got {dims!r}")
    return _ssa(rho, lam, dims)


def _ssa(rho: np.ndarray, lam: np.ndarray, ds: Sequence[int]) -> SsaMargins:
    """`check_ssa` on a validated density matrix, or stack, and its clipped
    eigenvalues."""
    s_ab, s_bc, s_ac, s_b, s_c = _stacked_entropies(rho, ds, ((0, 1), (1, 2), (0, 2), (1,), (2,)))
    return SsaMargins(s_ab + s_bc - _entropy(lam) - s_b, s_ab + s_ac - s_b - s_c)


def _stacked_entropies(state: np.ndarray, dims: Sequence[int], keeps, reduce=partial_trace) -> list:
    """The entropies of ``reduce(state, dims, keep)`` for each of ``keeps``:
    the reductions of one shape as one stacked `von_neumann_entropy`."""
    reductions = [reduce(state, dims, keep) for keep in keeps]
    entropies = [None] * len(keeps)
    for shape in dict.fromkeys(r.shape for r in reductions):
        js = [j for j, r in enumerate(reductions) if r.shape == shape]
        for j, s in zip(js, von_neumann_entropy(np.stack([reductions[j] for j in js]))):
            entropies[j] = _scalar(s)
    return entropies


def check_pure_state_lemmas(psi, dims) -> float:
    """Both reductions of a bipartite pure state share one nonzero
    spectrum; returns the max deviation between the sorted spectra
    (padded with zeros to a common length), for a stack (..., n) of
    vectors one per vector."""
    return _pure_state_lemmas(psi, dims)[0]


def _pure_state_lemmas(psi, dims) -> tuple[float, list[np.ndarray]]:
    """The gap and the two reductions' spectra, ascending and clipped at
    zero, one stacked ``eigvalsh`` each."""
    v = np.asarray(psi, dtype=complex)
    norms = np.linalg.norm(v, axis=-1)
    if _worst(np.abs(norms - 1.0)) > 0.5e-12:
        # the bound above is cheap; each vector's own norm decides
        for row in v.reshape(-1, v.shape[-1]):
            n = float(np.linalg.norm(row))
            if abs(n - 1.0) > 1e-12:
                raise ValueError(f"state vector must be normalized, got norm {n!r}")
    if len(dims) != 2:
        raise ValueError(f"dims must list two factors, got {dims!r}")
    lams = [np.maximum(np.linalg.eigvalsh(partial_trace_pure(v, dims, keep)), 0.0)
            for keep in ((0,), (1,))]
    # ascending, each spectrum ends in its nonzero part: the shorter one
    # lines up with the longer one's last entries, and the longer one's
    # first entries are matched with the zeros the shorter one lacks
    a, b = sorted((np.where(lam > zero_band(lam), lam, 0.0) for lam in lams), key=lambda lam: lam.shape[-1])
    extra = b.shape[-1] - a.shape[-1]
    gap = np.maximum(np.abs(b[..., extra:] - a).max(axis=-1, initial=0.0), b[..., :extra].max(axis=-1, initial=0.0))
    return _scalar(gap), lams


def check_adjoint_contraction(phi: KrausMap, p, q, a, t: float = 1.0) -> float:
    """Quadratic-form drop under the adjoint channel.

    With X = (L_{Phi(P)} + t R_{Phi(Q)})^{-1} Phi(A), the Schwarz step
    behind monotonicity demands

        Tr X^dag (Phi(P) X + t X Phi(Q))
          >= Tr Phi^*(X)^dag (P Phi^*(X) + t Phi^*(X) Q)

    and the margin is lhs - rhs; for stacks of channels (`KrausMap._stack`)
    and operands, with t of the leading shape, one margin each."""
    require_tp(phi)
    p = _psd_stack(p, False)[0]
    q = _psd_stack(q, False)[0]
    a = _finite(_array(a))
    fp = apply_channel(phi, p)
    fq = apply_channel(phi, q)
    spec = SuperOpSpec(fp, fq, t)
    x = solve_resolvent(spec, apply_linear(phi, a))
    lhs = np.sum(x.conj() * (fp @ x + spec.t * (x @ fq)), axis=(-2, -1)).real
    back = apply_linear(adjoint_channel(phi), x)
    rhs = np.sum(back.conj() * (p @ back + spec.t * (back @ q)), axis=(-2, -1)).real
    return _scalar(lhs - rhs)
