"""Randomized verification suites.

Each suite is a table entry ``Suite(draw, batch, local_dims)``.
``draw(rng, d)`` builds one trial's instance, a tuple of arrays, lists of
same-shape arrays and floats, from the deterministic child stream
``RngState(seed).child(trial_index)``; ``Suite.check(*instance)`` reduces
it to one float margin.  So trials are reproducible in isolation, the run
order (or any parallel execution) cannot change the report, and a
replayed instance can be checked on its own.  The pass rule is uniform:

    margin >= -tol        inequality holds / expressions agree
    margin = +inf         trial skipped (the claim is infinite on both sides)
    margin = -inf         failure (an infinity on one side only)
    KernelObstruction     trial skipped, counted apart as a kernel skip
    margin = NaN          failure
    trial raises          failure, recorded as an error against the trial
                          (NonConvergence, ValueError, ArithmeticError)

Agreement margins are negated gaps, -|lhs - rhs|.  A suite with
``Suite.local_dims`` set builds multipartite states and reads each --dims
entry as the local factor dimension; its check reads the factors back from
the instance's shapes.  All others read it as the full matrix dimension.
Trial i uses dims[i % len(dims)].

Batched trials.  ``batch`` takes the instances' fields stacked on a leading
trial axis and returns one margin per trial, and ``check`` is ``batch``
applied to a stack of one trial, so each claim has one implementation.  A
``batch`` hands its stacks to the package's public checks, operations and
constructors, which take operands with leading axes and return one value
per leading index (a channel per trial is a `KrausMap._stack`).  Where a
kernel's shape depends on a rank found inside the batch (the
purifications of ``ssa`` and ``purification``, the nonzero spectra of
``pure_states``, the integral and kernel routes' rows on supp Q), the
stack is split by rank.  `run_suite` draws ``_CHUNK`` trials at a time,
each from its own stream, groups them by dimension and by the shape of
every field (ensembles and channels of different member or Kraus counts
fall into groups of their own), and calls ``batch`` once per group, at
most ``_STACK_ENTRIES // n**4`` trials per call for n x n matrices, so
memory stays bounded in --trials and d.  A group that raises is checked
again trial by trial through ``check``, so each error and kernel skip
lands on its own trial with its own class and message.  Only a plain
``(rng, d) -> (margin, instance)`` callable put into ``SUITES`` runs trial
by trial: it draws and checks in one call, so there is no instance to
stack before its check.  Checks that combine several margins take the
least by `_least`, which keeps a NaN from any of them.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Callable, NamedTuple

import numpy as np

from .channels import (
    KrausMap,
    Povm,
    _purify,
    ancilla_representation,
    apply_ancilla,
    apply_channel,
    dephase,
    dephase_via_z,
    identity_channel,
    povm_channel,
    tensor_channel,
    trace_out_channel,
)
from .entropy import (
    _conditional,
    _entropy,
    _relent,
    relative_entropy,
    relative_entropy_integral,
    relative_entropy_spectral_kernel,
    scalar_log_identity,
    von_neumann_entropy,
)
from .holevo import (
    Ensemble,
    _chi,
    check_holevo_bound,
    check_partial_measurement_chain,
    chi,
    chi_via_qc,
    flagged_marginals,
    flagged_state,
    yuen_ozawa_gap,
)
from .inequalities import (
    CheckReport,
    ConvexityInstance,
    Failure,
    TrialError,
    _pure_state_lemmas,
    _ssa,
    _stacked_entropies,
    check_adjoint_contraction,
    check_block_contraction,
    check_cp_schwarz,
    check_joint_convexity,
    check_monotonicity,
    check_operator_schwarz,
    check_pure_state_lemmas,
    check_schwarz_quadratic,
)
from .matcore import (
    KernelObstruction,
    NonConvergence,
    _from_spectrum,
    _kron,
    _psd,
    _per_rank,
    _psd_stack,
    _rank,
    _symmetrize,
    partial_trace,
    partial_trace_pure,
)
from .randgen import (
    RngState,
    random_cptp,
    random_density,
    random_matrix,
    random_povm,
    random_simplex,
    random_unit_vector,
    random_unitary,
)
from .superop import SuperOpSpec, solve_resolvent, superop_matrix


class Suite(NamedTuple):
    """One randomized claim: ``draw(rng, d)`` builds an instance, and
    ``batch`` checks instances stacked on a leading trial axis, one margin
    per trial (see the module docstring)."""

    draw: Callable[[RngState, int], tuple]
    batch: Callable[..., np.ndarray]
    local_dims: bool = False

    def check(self, *instance) -> float:
        """The margin of one instance: ``batch`` on a stack of one trial."""
        return float(self.batch(*_stack([instance]))[0])

    def __call__(self, rng: RngState, d: int) -> tuple[float, tuple]:
        instance = self.draw(rng, d)
        return self.check(*instance), instance


def _stack(instances) -> tuple:
    """Same-shape instances as one, each field stacked on a leading trial axis."""
    return tuple(np.stack(field) for field in zip(*instances))


def _least(first, *rest):
    """``min`` of margins, elementwise over a stack of trials, except that a
    NaN from any margin is kept, so a NaN margin is a failure: otherwise the
    earlier margin stands where a later one is equal, as in ``min``."""
    for x in rest:
        first = np.where((x < first) | np.isnan(x), x, first)
    return first


def _max_abs(a: np.ndarray) -> np.ndarray:
    """`max_abs` of each matrix of a stack."""
    return np.abs(a).max(axis=(-2, -1))


def _digest(instance: tuple) -> str:
    h = hashlib.sha256()
    for a in instance:
        h.update(np.asarray(a, dtype=complex).tobytes())  # C order, copied if needed
    return h.hexdigest()[:12]


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """The root of a package-built PSD matrix, from its one eigensolve."""
    return _from_spectrum(_psd(m, True)[1], np.sqrt)


def _scaled_psd(rng: RngState, d: int, rank: int | None = None) -> np.ndarray:
    """Random PSD matrix of the given rank with trace in [0.5, 2)."""
    return random_density(d, d if rank is None else rank, rng) * (0.5 + 1.5 * rng.uniform())


def _conditioned_psd(rng: RngState, d: int) -> np.ndarray:
    """Random positive matrix with condition number O(d).

    Checks built on strict inverses lose ~cond^2 digits to cancellation, so
    their instances are drawn away from singularity; the inequalities
    themselves are scale free and lose no generality.
    """
    blend = 0.7 * random_density(d, d, rng) + 0.3 * np.eye(d) / d
    return blend * (0.5 + 1.5 * rng.uniform())


def _compatible_pair(rng: RngState, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) with Q singular and supp(P) inside supp(Q)."""
    q = _scaled_psd(rng, d, rank=max(1, d - 1))
    root = _sqrt_psd(q)
    g = random_matrix(d, d, rng)
    p = _symmetrize(root @ (g @ g.conj().T) @ root)
    p = p / float(np.trace(p).real) * (0.5 + 1.5 * rng.uniform())
    return p, q


def _psd_pair(rng: RngState, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Mostly full-rank pairs, with a singular-but-compatible pair mixed in."""
    if d >= 2 and rng.integer(4) == 0:
        return _compatible_pair(rng, d)
    return _scaled_psd(rng, d), _scaled_psd(rng, d)


def _mixed_rank_density(rng: RngState, d: int) -> np.ndarray:
    return random_density(d, 1 + rng.integer(d), rng)


def _state_pair(rng: RngState, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(rho, gamma): a density of random rank and a full-rank one."""
    return _mixed_rank_density(rng, d), random_density(d, d, rng)


def _ensemble(rng: RngState, d: int, spread: int = 3) -> tuple[np.ndarray, list]:
    """Weights and states of a 2 .. spread + 1 member ensemble."""
    n = 2 + rng.integer(spread)
    return random_simplex(n, rng), [_mixed_rank_density(rng, d) for _ in range(n)]


def _ensemble_povm(rng: RngState, d: int) -> tuple[np.ndarray, list, list]:
    return (*_ensemble(rng, d), random_povm(d, 2 + rng.integer(d), rng))


def _bipartite(m: np.ndarray) -> tuple[int, int]:
    d = math.isqrt(m.shape[-1])
    return d, d


def _draw_resolvent(rng: RngState, d: int):
    q = _scaled_psd(rng, d)
    p = _scaled_psd(rng, d)
    t = 0.1 + 2.0 * rng.uniform()
    return q, p, random_matrix(d, d, rng), t


def _check_resolvent(q, p, x, t):
    spec = SuperOpSpec(q, p, t)
    y_oracle = np.linalg.solve(superop_matrix(spec), x.reshape(len(x), -1, 1)).reshape(x.shape)
    return -_max_abs(solve_resolvent(spec, x) - y_oracle)


def _check_relent_routes(p, q):
    h1 = relative_entropy(p, q)
    h2 = relative_entropy_integral(p, q)
    h3 = relative_entropy_spectral_kernel(p, q)
    with np.errstate(invalid="ignore"):  # inf - inf, where the infinite branch is taken
        gap = _least(-np.abs(h1 - h2), -np.abs(h1 - h3), -np.abs(h2 - h3))
    # a skip when all three find the supports incompatible, else a failure
    infinite = np.where((h1 == h2) & (h2 == h3), math.inf, -math.inf)
    return np.where(np.isinf(h1) | np.isinf(h2) | np.isinf(h3), infinite, gap)


def _check_scalar_identity(w):
    lhs, rhs1, rhs2 = scalar_log_identity(w)
    return _least(-np.abs(lhs - rhs1), -np.abs(lhs - rhs2))


def _draw_joint_convexity(rng: RngState, d: int):
    n = 2 + rng.integer(3)
    return random_simplex(n, rng), [_psd_pair(rng, d) for _ in range(n)]


def _check_joint_convexity(weights, pairs):
    res = check_joint_convexity(ConvexityInstance(weights, pairs))
    return _least(res.margin, res.subadditive_margin, -res.scaling_gap)


_SCHWARZ_TS = (0.0, 0.5, 1.0, 10.0)


def _draw_schwarz_quadratic(rng: RngState, d: int):
    n = 2 + rng.integer(3)
    t = _SCHWARZ_TS[rng.integer(len(_SCHWARZ_TS))]
    a_list = random_matrix(n * d, d, rng).reshape(n, d, d)
    p_list = [_scaled_psd(rng, d) for _ in range(n)]
    q_list = [_scaled_psd(rng, d) for _ in range(n)]
    return a_list, p_list, q_list, t


def _draw_operator_schwarz(rng: RngState, d: int):
    n = 2 + rng.integer(3)
    return random_matrix(n * d, d, rng).reshape(n, d, d), [_conditioned_psd(rng, d) for _ in range(n)]


def _draw_cp_schwarz(rng: RngState, d: int):
    kraus = random_cptp(d, 1 + rng.integer(4), rng)
    return kraus, random_matrix(d, d, rng), random_matrix(d, d, rng), _conditioned_psd(rng, d)


def _draw_block_contraction(rng: RngState, d: int):
    p = _conditioned_psd(rng, d)
    q = _conditioned_psd(rng, d)
    g = random_matrix(d, d, rng)
    # aim decisively inside or outside the contraction ball
    target = 0.3 + 0.65 * rng.uniform() if rng.integer(2) else 1.05 + 0.65 * rng.uniform()
    smax = float(np.linalg.svd(g, compute_uv=False)[0])
    return p, q, _sqrt_psd(p) @ (g * (target / smax)) @ _sqrt_psd(q)


def _check_cp_schwarz(kraus, a, b, p):
    return _least(*check_cp_schwarz(KrausMap._stack(kraus), a, b, p))


def _check_block_contraction(p, q, c):
    rep = check_block_contraction(p, q, c)
    scores = (np.abs(rep.block_min_eig), np.abs(rep.schur_min_eig), np.abs(rep.max_singular_value - 1.0))
    margin = np.where(rep.consistent, _least(*scores), _least(*(-s for s in scores)))
    # an indeterminate verdict scores 0, unless a criterion is NaN: a failure
    return np.where(rep.indeterminate & ~np.isnan(margin), 0.0, margin)


def _check_monotonicity_dephase(rho, gamma):
    return check_monotonicity(rho, gamma, KrausMap([np.diag(e) for e in np.eye(rho.shape[-1])]))


def _check_monotonicity_ptrace(rho, gamma):
    return check_monotonicity(rho, gamma, trace_out_channel(_bipartite(rho), (0,)))


def _check_monotonicity_unitary(rho, gamma, u):
    margin = check_monotonicity(rho, gamma, KrausMap._stack(u[:, None]))
    # unitaries preserve relative entropy: the margin must vanish
    return np.where(margin == math.inf, margin, -np.abs(margin))


def _check_ssa(rho):
    big = rho.shape[-1]
    d = round(big ** (1 / 3))
    if d ** 3 != big:
        raise ValueError(f"ssa needs a dimension d^3, got {big}")
    rho, spec = _psd_stack(rho, True, True)  # one eigh serves the kernels _ssa and _purify
    margins = _ssa(rho, spec.eigenvalues, (d, d, d))
    # the functional on ABD, purifying D in the third role: S(AB) + S(AD) - S(B) - S(D).
    # psi is pure, so S(AD) = S(BC) (Schmidt), read from the d^2 x d^2 BC marginal.
    # The purifications of one rank, one size, form one stack

    def functional(rows, key):
        psi = _purify(spec[rows])
        dims = (d, d, d, psi.shape[-1] // big)
        s_ab, s_ad = _stacked_entropies(psi, dims, ((0, 1), (1, 2)), partial_trace_pure)
        s_b, s_d = (von_neumann_entropy(partial_trace_pure(psi, dims, keep)) for keep in ((1,), (3,)))
        return s_ab + s_ad - s_b - s_d

    gap = np.abs(_per_rank(functional, _rank(spec.eigenvalues)) - margins.primary)
    return _least(margins.primary, margins.alt, -gap)


def _check_pure_states(psi):
    # d_B = d_A + k with k < 3, so d_A d_B < (d_A + 1)^2 and isqrt gives d_A
    d = math.isqrt(psi.shape[-1])
    gap, (lam_a, lam_b) = _pure_state_lemmas(psi, (d, psi.shape[-1] // d))
    # each entropy from its nonzero spectrum, descending, one stack per pair of ranks

    def entropy_gap(rows, ranks):
        s_a, s_b = (_entropy(lam[rows, lam.shape[-1] - r:][:, ::-1]) for lam, r in zip((lam_a, lam_b), ranks))
        return np.abs(s_a - s_b)

    return _least(-gap, -_per_rank(entropy_gap, _rank(lam_a), _rank(lam_b)))


_ADJOINT_TS = (0.5, 1.0, 2.0)


def _draw_adjoint_quadratic(rng: RngState, d: int):
    kraus = random_cptp(d, 1 + rng.integer(3), rng)
    p = _scaled_psd(rng, d)
    q = _scaled_psd(rng, d)
    a = random_matrix(d, d, rng)
    return kraus, p, q, a, _ADJOINT_TS[rng.integer(len(_ADJOINT_TS))]


def _check_adjoint_quadratic(kraus, p, q, a, t):
    return check_adjoint_contraction(KrausMap._stack(kraus), p, q, a, t)


def _check_holevo_identities(weights, states):
    ens = Ensemble(weights, states)
    val = chi(ens)
    return _least(val, -yuen_ozawa_gap(ens), -abs(chi_via_qc(ens) - val))


def _check_concavity_condent(weights, states):
    ens = Ensemble(weights, states)
    return check_holevo_bound(ens, trace_out_channel(_bipartite(ens.states), (0,)))


def _draw_holevo_chain(rng: RngState, d: int):
    weights, states = _ensemble(rng, d * d, 2)
    effects_a = random_povm(d, 2 + rng.integer(2), rng)
    return weights, states, effects_a, random_povm(d, 2 + rng.integer(2), rng)


def _check_holevo_chain(weights, states, effects_a, effects_b):
    ens = Ensemble(weights, states)
    return _least(*check_partial_measurement_chain(ens, _bipartite(states), Povm(effects_a),
                                                   Povm(effects_b)))


def _check_holevo_routes(weights, states, effects):
    ens = Ensemble(weights, states)
    phi = povm_channel(Povm(effects))
    out = ens.map(phi)
    # route one: member-by-member data processing, with each average
    # decomposed once and the members and images read, as one stack each,
    # through the spectra that validated them
    avg, spec_avg = ens._average(True)
    spec_out = _psd(apply_channel(phi, avg), True)[1]
    per_member = np.min(ens._divergences(spec_avg) - out._divergences(spec_out), axis=-1)
    # route two: data processing on the flagged state
    big_phi = tensor_channel(phi, identity_channel(len(ens)))
    qc_margin = check_monotonicity(flagged_state(ens), flagged_marginals(ens), big_phi)
    # route three: chi(E) - chi(Phi E), concavity of rho -> S(rho) - S(Phi rho),
    # with both averages read from route one's decompositions
    conc_margin = _chi(ens, spec_avg.eigenvalues) - _chi(out, spec_out.eigenvalues)
    return _least(per_member, qc_margin, conc_margin)


def _check_klein(p, q):
    # an infinite H stays +inf: a skip
    h = relative_entropy(p, q)
    return h - (np.trace(p, axis1=-2, axis2=-1).real - np.trace(q, axis1=-2, axis2=-1).real)


_HOMOGENEITY_XS = (0.1, 0.5, 2.0, 10.0)


def _check_homogeneity(p, q):
    h = relative_entropy(p, q)
    return _least(*(-np.abs(relative_entropy(x * p, x * q) - x * h) for x in _HOMOGENEITY_XS))


def _draw_ancilla(rng: RngState, d: int):
    kraus = random_cptp(d, 1 + rng.integer(3), rng)
    return kraus, _mixed_rank_density(rng, d)


def _check_ancilla(kraus, rho):
    phi = KrausMap._stack(kraus)
    rep = ancilla_representation(phi)
    joint = apply_ancilla(rep, rho)
    reduced = partial_trace(joint, (rho.shape[-1], rep.anc_dim), (0,))
    err = _max_abs(reduced - apply_channel(phi, rho))
    s_joint, s_rho = (_entropy(_psd_stack(m, False, True)[1]) for m in (joint, rho))
    return _least(-err, -np.abs(s_joint - s_rho))


def _check_purification(rho):
    spec = _psd_stack(rho, True, True)[1]  # purify's validation and eigh

    def margin(rows, key):
        psi = _purify(spec[rows])
        dims = (rho.shape[-1], psi.shape[-1] // rho.shape[-1])
        err = _max_abs(partial_trace_pure(psi, dims, (0,)) - rho[rows])
        return _least(-err, -check_pure_state_lemmas(psi, dims))

    return _per_rank(margin, _rank(spec.eigenvalues))


def _check_condent_identity(rho):
    d = math.isqrt(rho.shape[-1])
    # one eigvalsh of rho serves S(AB) and H(rho, rho_A (x) I/d)
    rho, lam = _psd_stack(rho, False, True)
    value = _conditional(rho, lam, (d, d))
    product = _kron(partial_trace(rho, (d, d), (0,)), np.eye(d, dtype=complex) / d)
    rhs = math.log(d) - _relent(rho, lam, _psd_stack(product, True)[1])
    return -np.abs(value - rhs)


def _check_dephase_z(x):
    return -_max_abs(dephase(x) - dephase_via_z(x))


SUITES: dict[str, Suite] = {
    "resolvent_oracle": Suite(_draw_resolvent, _check_resolvent),
    "relent_routes": Suite(_psd_pair, _check_relent_routes),
    "scalar_identity": Suite(lambda rng, d: (10.0 ** (-2.0 + 4.0 * rng.uniform()),),
                             _check_scalar_identity),
    "joint_convexity": Suite(_draw_joint_convexity, _check_joint_convexity),
    "schwarz_quadratic": Suite(_draw_schwarz_quadratic,
                                  lambda a, p, q, t: check_schwarz_quadratic(a, p, q, t)),
    "operator_schwarz": Suite(_draw_operator_schwarz, lambda a, p: check_operator_schwarz(a, p)),
    "cp_schwarz": Suite(_draw_cp_schwarz, _check_cp_schwarz),
    "block_contraction": Suite(_draw_block_contraction, _check_block_contraction),
    "monotonicity_dephase": Suite(_state_pair, _check_monotonicity_dephase),
    "monotonicity_ptrace": Suite(lambda rng, d: _state_pair(rng, d * d),
                                    _check_monotonicity_ptrace, local_dims=True),
    "monotonicity_general": Suite(
        lambda rng, d: (*_state_pair(rng, d), random_cptp(d, 2 + rng.integer(3), rng)),
        lambda rho, gamma, kraus: check_monotonicity(rho, gamma, KrausMap._stack(kraus)),
    ),
    "monotonicity_unitary": Suite(lambda rng, d: (*_state_pair(rng, d), random_unitary(d, rng)),
                                     _check_monotonicity_unitary),
    "ssa": Suite(lambda rng, d: (random_density(d ** 3, 1 + rng.integer(d ** 3), rng),),
                 _check_ssa, local_dims=True),
    "concavity_condent": Suite(lambda rng, d: _ensemble(rng, d * d), _check_concavity_condent,
                                  local_dims=True),
    "concavity_channel": Suite(
        lambda rng, d: (*_ensemble(rng, d), random_cptp(d, 2 + rng.integer(3), rng)),
        lambda weights, states, kraus: check_holevo_bound(Ensemble(weights, states),
                                                          KrausMap._stack(kraus)),
    ),
    "pure_states": Suite(lambda rng, d: (random_unit_vector(d * (d + rng.integer(3)), rng),),
                         _check_pure_states, local_dims=True),
    "adjoint_quadratic": Suite(_draw_adjoint_quadratic, _check_adjoint_quadratic),
    "holevo_identities": Suite(_ensemble, _check_holevo_identities),
    "holevo_bound": Suite(
        _ensemble_povm,
        lambda weights, states, effects: check_holevo_bound(Ensemble(weights, states),
                                                            povm_channel(Povm(effects))),
    ),
    "holevo_chain": Suite(_draw_holevo_chain, _check_holevo_chain, local_dims=True),
    "holevo_routes": Suite(_ensemble_povm, _check_holevo_routes),
    "klein": Suite(_psd_pair, _check_klein),
    "homogeneity": Suite(lambda rng, d: (_scaled_psd(rng, d), _scaled_psd(rng, d)),
                         _check_homogeneity),
    "dephase_z": Suite(lambda rng, d: (random_matrix(d, d, rng),), _check_dephase_z),
    "ancilla": Suite(_draw_ancilla, _check_ancilla),
    "purification": Suite(lambda rng, d: (_mixed_rank_density(rng, d),), _check_purification),
    "condent_identity": Suite(lambda rng, d: (_mixed_rank_density(rng, d * d),),
                                 _check_condent_identity, local_dims=True),
}


def suite_names() -> list[str]:
    return list(SUITES)


# Trials drawn, then checked, per pass of `run_suite`, and the bound on
# trials * n**4 per stacked call for n x n matrices (n**4 entries: the
# resolvent oracle's dense map), so memory is bounded in --trials and in d.
_CHUNK = 64
_STACK_ENTRIES = 1 << 18
# What a trial may raise and still be a trial outcome, not a program error.
_TRIAL_ERRORS = (NonConvergence, ValueError, ArithmeticError)


def _attempt(fn, *args):
    """``fn(*args)``, or the trial error it raised; any other exception is a
    program error and propagates."""
    try:
        return fn(*args)
    except _TRIAL_ERRORS as exc:
        return exc


def _outcomes(suite, root: RngState, dims: list[int], start: int, stop: int) -> list:
    """Trials start .. stop - 1 of ``suite`` as (margin, or the exception
    the trial raised; its instance, or None if the draw raised), in index
    order: one stacked ``suite.batch`` call per group of same-shape
    instances, or trial by trial for a plain callable (see the module
    docstring)."""
    if not isinstance(suite, Suite):
        trials = (_attempt(suite, root.child(i), dims[i % len(dims)]) for i in range(start, stop))
        return [(t, None) if isinstance(t, Exception) else t for t in trials]
    done, groups = {}, {}
    for i in range(start, stop):
        d = dims[i % len(dims)]
        instance = _attempt(suite.draw, root.child(i), d)
        if isinstance(instance, Exception):
            done[i] = (instance, None)
        else:
            groups.setdefault((d, *map(np.shape, instance)), []).append((i, instance))
    for key, members in groups.items():
        side = max((shape[-1] for shape in key[1:] if len(shape) >= 2), default=1)
        per_call = max(1, _STACK_ENTRIES // side ** 4)
        for lo in range(0, len(members), per_call):
            part = members[lo:lo + per_call]
            margins = _attempt(suite.batch, *_stack([instance for _, instance in part]))
            for j, (i, instance) in enumerate(part):
                # a group that raised is checked again trial by trial
                if isinstance(margins, Exception):
                    done[i] = (_attempt(suite.check, *instance), instance)
                else:
                    done[i] = (float(margins[j]), instance)
    return [done[i] for i in range(start, stop)]


def run_suite(name: str, dims=(2, 3), trials: int = 100, seed: int = 42,
              tol: float = 1e-9) -> CheckReport:
    """Run one named suite and aggregate margins into a CheckReport."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}") from None
    dim_list = [int(d) for d in dims]
    if not dim_list or any(d < 1 for d in dim_list):
        raise ValueError(f"dims must be positive integers, got {dims!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (tol >= 0.0):
        raise ValueError("tol must be >= 0")
    root = RngState(seed)
    start = time.perf_counter()
    worst = math.inf
    skipped = kernel = 0
    failures: list[Failure] = []
    errors: list[TrialError] = []
    for lo in range(0, trials, _CHUNK):
        for i, (margin, instance) in enumerate(_outcomes(suite, root, dim_list, lo,
                                                         min(lo + _CHUNK, trials)), lo):
            if isinstance(margin, KernelObstruction):
                kernel += 1
                continue
            if isinstance(margin, Exception):
                # one trial's error fails the suite but does not end the run
                errors.append(TrialError(i, type(margin).__name__, str(margin)))
                continue
            if math.isinf(margin) and margin > 0:
                skipped += 1
                continue
            margin = float(margin)
            # a NaN margin is a failure, and the worst margin stays NaN after it
            worst = margin if math.isnan(margin) else min(worst, margin)
            if math.isnan(margin) or margin < -tol:
                failures.append(Failure(i, margin, _digest(instance)))
    runtime_ms = (time.perf_counter() - start) * 1e3
    return CheckReport(
        suite=name,
        trials=trials,
        seed=seed,
        tol=float(tol),
        worst_margin=worst,
        skipped_infinite=skipped,
        skipped_kernel=kernel,
        failures=tuple(failures),
        runtime_ms=runtime_ms,
        errors=tuple(errors),
    )
