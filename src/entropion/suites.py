"""Randomized verification suites.

Each suite is a table entry ``Suite(draw, check, local_dims)``.
``draw(rng, d)`` builds one trial's instance, a tuple of arrays, lists of
same-shape arrays and floats, from the deterministic child stream
``RngState(seed).child(trial_index)``; ``check(*instance)`` reduces it to
one float margin.  So trials are reproducible in isolation, the run order
(or any parallel execution) cannot change the report, and a replayed
instance can be checked on its own.  The pass rule is uniform:

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
    _channel,
    _purify,
    ancilla_representation,
    apply_ancilla,
    apply_channel,
    dephase,
    dephase_via_z,
    identity_channel,
    povm_channel,
    purify,
    tensor_channel,
    trace_out_channel,
)
from .entropy import (
    _entropy,
    _relent,
    conditional_entropy,
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
    _density,
    _from_spectrum,
    _psd,
    _symmetrize,
    max_abs,
    partial_trace,
    partial_trace_pure,
    tensor,
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
    """One randomized claim: ``draw(rng, d)`` builds an instance and
    ``check(*instance)`` returns its margin."""

    draw: Callable[[RngState, int], tuple]
    check: Callable[..., float]
    local_dims: bool = False

    def __call__(self, rng: RngState, d: int) -> tuple[float, tuple]:
        instance = self.draw(rng, d)
        return self.check(*instance), instance


def _digest(instance: tuple) -> str:
    h = hashlib.sha256()
    for a in instance:
        h.update(np.asarray(a, dtype=complex).tobytes())  # C order, copied if needed
    return h.hexdigest()[:12]


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
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
    d = math.isqrt(m.shape[0])
    return d, d


def _draw_resolvent(rng: RngState, d: int):
    q = _scaled_psd(rng, d)
    p = _scaled_psd(rng, d)
    t = 0.1 + 2.0 * rng.uniform()
    return q, p, random_matrix(d, d, rng), t


def _check_resolvent(q, p, x, t) -> float:
    spec = SuperOpSpec(q, p, t)
    y_oracle = np.linalg.solve(superop_matrix(spec), x.reshape(-1)).reshape(x.shape)
    return -max_abs(solve_resolvent(spec, x) - y_oracle)


def _check_relent_routes(p, q) -> float:
    h1 = relative_entropy(p, q)
    h2 = relative_entropy_integral(p, q)
    h3 = relative_entropy_spectral_kernel(p, q)
    if any(math.isinf(h) for h in (h1, h2, h3)):
        # a skip when all three find the supports incompatible, else a failure
        return math.inf if h1 == h2 == h3 else -math.inf
    return -max(abs(h1 - h2), abs(h1 - h3), abs(h2 - h3))


def _check_scalar_identity(w) -> float:
    lhs, rhs1, rhs2 = scalar_log_identity(w)
    return -max(abs(lhs - rhs1), abs(lhs - rhs2))


def _draw_joint_convexity(rng: RngState, d: int):
    n = 2 + rng.integer(3)
    return random_simplex(n, rng), [_psd_pair(rng, d) for _ in range(n)]


def _check_joint_convexity(weights, pairs) -> float:
    res = check_joint_convexity(ConvexityInstance(weights, pairs))
    return min(res.margin, res.subadditive_margin, -res.scaling_gap)


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


def _check_block_contraction(p, q, c) -> float:
    rep = check_block_contraction(p, q, c, tol=1e-9)
    scores = (abs(rep.block_min_eig), abs(rep.schur_min_eig), abs(rep.max_singular_value - 1.0))
    if rep.indeterminate:
        return 0.0
    return min(scores) if rep.consistent else -max(scores)


def _check_monotonicity_dephase(rho, gamma) -> float:
    dephasing = KrausMap([np.diag(e) for e in np.eye(len(rho))])
    return check_monotonicity(rho, gamma, dephasing)


def _check_monotonicity_unitary(rho, gamma, u) -> float:
    margin = check_monotonicity(rho, gamma, KrausMap([u]))
    # unitaries preserve relative entropy: the margin must vanish
    return margin if margin == math.inf else -abs(margin)


def _check_ssa(rho) -> float:
    big = len(rho)
    d = round(big ** (1 / 3))
    if d ** 3 != big:
        raise ValueError(f"ssa needs a dimension d^3, got {big}")
    rho, spec = _density(rho, True)  # one eigh serves the kernels _ssa and _purify
    margins = _ssa(rho, spec.eigenvalues, (d, d, d))
    # the functional on ABD, purifying D in the third role: S(AB) + S(AD) - S(B) - S(D).
    # psi is pure, so S(AD) = S(BC) (Schmidt), read from the d^2 x d^2 BC marginal
    psi = _purify(spec)
    dims = (d, d, d, psi.size // big)
    s_ab, s_ad, s_b, s_d = (von_neumann_entropy(partial_trace_pure(psi, dims, keep))
                            for keep in ((0, 1), (1, 2), (1,), (3,)))
    equiv_gap = abs(s_ab + s_ad - s_b - s_d - margins.primary)
    return min(margins.primary, margins.alt, -equiv_gap)


def _check_pure_states(psi) -> float:
    # d_B = d_A + k with k < 3, so d_A d_B < (d_A + 1)^2 and isqrt gives d_A
    d = math.isqrt(psi.size)
    dims = (d, psi.size // d)
    dist, (lam_a, lam_b) = _pure_state_lemmas(psi, dims)
    return -max(dist, abs(_entropy(lam_a) - _entropy(lam_b)))


_ADJOINT_TS = (0.5, 1.0, 2.0)


def _draw_adjoint_quadratic(rng: RngState, d: int):
    kraus = random_cptp(d, 1 + rng.integer(3), rng)
    p = _scaled_psd(rng, d)
    q = _scaled_psd(rng, d)
    a = random_matrix(d, d, rng)
    return kraus, p, q, a, _ADJOINT_TS[rng.integer(len(_ADJOINT_TS))]


def _check_holevo_identities(weights, states) -> float:
    ens = Ensemble(weights, states)
    val = chi(ens)
    return min(val, -yuen_ozawa_gap(ens), -abs(chi_via_qc(ens) - val))


def _draw_holevo_chain(rng: RngState, d: int):
    weights, states = _ensemble(rng, d * d, 2)
    effects_a = random_povm(d, 2 + rng.integer(2), rng)
    return weights, states, effects_a, random_povm(d, 2 + rng.integer(2), rng)


def _check_holevo_chain(weights, states, effects_a, effects_b) -> float:
    ens = Ensemble(weights, states)
    dims = _bipartite(states[0])
    return min(check_partial_measurement_chain(ens, dims, Povm(effects_a), Povm(effects_b)))


def _check_holevo_routes(weights, states, effects) -> float:
    ens = Ensemble(weights, states)
    phi = povm_channel(Povm(effects))
    out = ens.map(phi)
    # route one: member-by-member data processing, with each average
    # decomposed once and the members and images read, as one stack each,
    # through the spectra that validated them
    avg, spec_avg = ens._average(True)
    spec_out = _psd(_channel(phi, avg), True)[1]
    per_member = float(np.min(_relent(ens.states, ens.spectra, spec_avg)
                              - _relent(out.states, out.spectra, spec_out)))
    # route two: data processing on the flagged state
    product = tensor(avg, np.diag(ens.weights))
    big_phi = tensor_channel(phi, identity_channel(len(ens)))
    qc_margin = check_monotonicity(flagged_state(ens), product, big_phi)
    # route three: chi(E) - chi(Phi E), concavity of rho -> S(rho) - S(Phi rho),
    # with both averages read from route one's decompositions
    conc_margin = _chi(ens, spec_avg.eigenvalues) - _chi(out, spec_out.eigenvalues)
    return min(per_member, qc_margin, conc_margin)


def _check_klein(p, q) -> float:
    # an infinite H stays +inf: a skip
    return relative_entropy(p, q) - float(np.trace(p).real - np.trace(q).real)


_HOMOGENEITY_XS = (0.1, 0.5, 2.0, 10.0)


def _check_homogeneity(p, q) -> float:
    h = relative_entropy(p, q)
    return -max(abs(relative_entropy(x * p, x * q) - x * h) for x in _HOMOGENEITY_XS)


def _draw_ancilla(rng: RngState, d: int):
    kraus = random_cptp(d, 1 + rng.integer(3), rng)
    return kraus, _mixed_rank_density(rng, d)


def _check_ancilla(kraus, rho) -> float:
    phi = KrausMap(kraus)
    rep = ancilla_representation(phi)
    joint = apply_ancilla(rep, rho)
    reduced = partial_trace(joint, (len(rho), rep.anc_dim), (0,))
    err = max_abs(reduced - apply_channel(phi, rho))
    entropy_gap = abs(von_neumann_entropy(joint) - von_neumann_entropy(rho))
    return -max(err, entropy_gap)


def _check_purification(rho) -> float:
    psi = purify(rho)
    dims = (len(rho), psi.size // len(rho))
    err = max_abs(partial_trace_pure(psi, dims, (0,)) - rho)
    return -max(err, check_pure_state_lemmas(psi, dims))


def _check_condent_identity(rho) -> float:
    d = math.isqrt(len(rho))
    value = conditional_entropy(rho, (d, d))
    rho_a = partial_trace(rho, (d, d), (0,))
    rhs = math.log(d) - relative_entropy(rho, tensor(rho_a, np.eye(d) / d))
    return -abs(value - rhs)


SUITES: dict[str, Suite] = {
    "resolvent_oracle": Suite(_draw_resolvent, _check_resolvent),
    "relent_routes": Suite(_psd_pair, _check_relent_routes),
    "scalar_identity": Suite(lambda rng, d: (10.0 ** (-2.0 + 4.0 * rng.uniform()),),
                             _check_scalar_identity),
    "joint_convexity": Suite(_draw_joint_convexity, _check_joint_convexity),
    "schwarz_quadratic": Suite(_draw_schwarz_quadratic, check_schwarz_quadratic),
    "operator_schwarz": Suite(_draw_operator_schwarz, check_operator_schwarz),
    "cp_schwarz": Suite(_draw_cp_schwarz,
                        lambda kraus, a, b, p: min(check_cp_schwarz(KrausMap(kraus), a, b, p))),
    "block_contraction": Suite(_draw_block_contraction, _check_block_contraction),
    "monotonicity_dephase": Suite(_state_pair, _check_monotonicity_dephase),
    "monotonicity_ptrace": Suite(
        lambda rng, d: _state_pair(rng, d * d),
        lambda rho, gamma: check_monotonicity(rho, gamma,
                                              trace_out_channel(_bipartite(rho), (0,))),
        local_dims=True,
    ),
    "monotonicity_general": Suite(
        lambda rng, d: (*_state_pair(rng, d), random_cptp(d, 2 + rng.integer(3), rng)),
        lambda rho, gamma, kraus: check_monotonicity(rho, gamma, KrausMap(kraus)),
    ),
    "monotonicity_unitary": Suite(lambda rng, d: (*_state_pair(rng, d), random_unitary(d, rng)),
                                  _check_monotonicity_unitary),
    "ssa": Suite(lambda rng, d: (random_density(d ** 3, 1 + rng.integer(d ** 3), rng),),
                 _check_ssa, local_dims=True),
    "concavity_condent": Suite(
        lambda rng, d: _ensemble(rng, d * d),
        lambda weights, states: check_holevo_bound(
            Ensemble(weights, states), trace_out_channel(_bipartite(states[0]), (0,))
        ),
        local_dims=True,
    ),
    "concavity_channel": Suite(
        lambda rng, d: (*_ensemble(rng, d), random_cptp(d, 2 + rng.integer(3), rng)),
        lambda weights, states, kraus: check_holevo_bound(Ensemble(weights, states),
                                                          KrausMap(kraus)),
    ),
    "pure_states": Suite(lambda rng, d: (random_unit_vector(d * (d + rng.integer(3)), rng),),
                         _check_pure_states, local_dims=True),
    "adjoint_quadratic": Suite(
        _draw_adjoint_quadratic,
        lambda kraus, p, q, a, t: check_adjoint_contraction(KrausMap(kraus), p, q, a, t),
    ),
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
    "dephase_z": Suite(lambda rng, d: (random_matrix(d, d, rng),),
                       lambda x: -max_abs(dephase(x) - dephase_via_z(x))),
    "ancilla": Suite(_draw_ancilla, _check_ancilla),
    "purification": Suite(lambda rng, d: (_mixed_rank_density(rng, d),), _check_purification),
    "condent_identity": Suite(lambda rng, d: (_mixed_rank_density(rng, d * d),),
                              _check_condent_identity, local_dims=True),
}


def suite_names() -> list[str]:
    return list(SUITES)


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
    for i in range(trials):
        try:
            margin, instance = suite(root.child(i), dim_list[i % len(dim_list)])
        except KernelObstruction:
            kernel += 1
            continue
        except (NonConvergence, ValueError, ArithmeticError) as exc:
            # one trial's error fails the suite but does not end the run
            errors.append(TrialError(i, type(exc).__name__, str(exc)))
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
