"""Randomized verification suites.

Every suite draws its instances from the deterministic child stream
``RngState(seed).child(trial_index)``, so trials are reproducible in
isolation and the run order (or any parallel execution) cannot change the
report.  A trial reduces to one float margin; the pass rule is uniform:

    margin >= -tol        inequality holds / expressions agree
    margin = +inf         trial skipped (an infinite entropy showed up)
    margin = NaN          failure
    trial raises          failure, recorded as an error against the trial
                          (NonConvergence, ValueError, ArithmeticError)

Agreement margins are negated gaps, -|lhs - rhs|.  The per-suite meaning
of the --dims values: suites over multipartite states (ssa,
monotonicity_ptrace, concavity_condent, pure_states, holevo_chain,
condent_identity) read each entry as the local factor dimension; all
others read it as the full matrix dimension.  Trial i uses
dims[i % len(dims)].
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Callable

import numpy as np

from .channels import (
    KrausMap,
    Povm,
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
    check_adjoint_contraction,
    check_block_contraction,
    check_cp_schwarz,
    check_joint_convexity,
    check_monotonicity,
    check_operator_schwarz,
    check_pure_state_lemmas,
    check_schwarz_quadratic,
    check_ssa,
)
from .matcore import (
    KernelObstruction,
    NonConvergence,
    matrix_function,
    max_abs,
    partial_trace,
    partial_trace_pure,
    psd_eig,
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

Payload = tuple
TrialFn = Callable[[RngState, int], tuple[float, Payload]]


def _digest(payload: Payload) -> str:
    h = hashlib.sha256()
    for a in payload:
        arr = np.ascontiguousarray(np.asarray(a, dtype=complex))
        h.update(arr.tobytes())
    return h.hexdigest()[:12]


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
    root = matrix_function(q, lambda x: math.sqrt(max(x, 0.0)))
    g = random_matrix(d, d, rng)
    p = root @ (g @ g.conj().T) @ root
    p = (p + p.conj().T) / 2
    p = p / float(np.trace(p).real) * (0.5 + 1.5 * rng.uniform())
    return p, q


def _psd_pair(rng: RngState, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Mostly full-rank pairs, with a singular-but-compatible pair mixed in."""
    if d >= 2 and rng.integer(4) == 0:
        return _compatible_pair(rng, d)
    return _scaled_psd(rng, d), _scaled_psd(rng, d)


def _mixed_rank_density(rng: RngState, d: int) -> np.ndarray:
    return random_density(d, 1 + rng.integer(d), rng)


# --------------------------------------------------------------------------
# trial functions


def _trial_resolvent_oracle(rng: RngState, d: int):
    q = _scaled_psd(rng, d)
    p = _scaled_psd(rng, d)
    t = 0.1 + 2.0 * rng.uniform()
    x = random_matrix(d, d, rng)
    spec = SuperOpSpec(q, p, t)
    y = solve_resolvent(spec, x)
    dense = superop_matrix(spec)
    y_oracle = np.linalg.solve(dense, x.reshape(-1)).reshape(d, d)
    return -max_abs(y - y_oracle), (q, p, x, np.array([t]))


def _trial_relent_routes(rng: RngState, d: int):
    p, q = _psd_pair(rng, d)
    h1 = relative_entropy(p, q)
    h2 = relative_entropy_integral(p, q)
    h3 = relative_entropy_spectral_kernel(p, q)
    if any(math.isinf(h) for h in (h1, h2, h3)):
        return math.inf, (p, q)
    spread = max(abs(h1 - h2), abs(h1 - h3), abs(h2 - h3))
    return -spread, (p, q)


def _trial_scalar_identity(rng: RngState, d: int):
    w = 10.0 ** (-2.0 + 4.0 * rng.uniform())
    lhs, rhs1, rhs2 = scalar_log_identity(w)
    return -max(abs(lhs - rhs1), abs(lhs - rhs2)), (np.array([w]),)


def _trial_joint_convexity(rng: RngState, d: int):
    n = 2 + rng.integer(3)
    weights = random_simplex(n, rng)
    pairs = [_psd_pair(rng, d) for _ in range(n)]
    res = check_joint_convexity(ConvexityInstance(weights, pairs))
    if math.isinf(res.margin):
        return math.inf, (weights,)
    margin = min(res.margin, res.subadditive_margin, -res.scaling_gap)
    payload = (weights,) + tuple(m for pair in pairs for m in pair)
    return margin, payload


_SCHWARZ_TS = (0.0, 0.5, 1.0, 10.0)


def _trial_schwarz_quadratic(rng: RngState, d: int):
    n = 2 + rng.integer(3)
    t = _SCHWARZ_TS[rng.integer(len(_SCHWARZ_TS))]
    a_list = [random_matrix(d, d, rng) for _ in range(n)]
    p_list = [_scaled_psd(rng, d) for _ in range(n)]
    q_list = [_scaled_psd(rng, d) for _ in range(n)]
    margin = check_schwarz_quadratic(a_list, p_list, q_list, t)
    return margin, tuple(a_list) + tuple(p_list) + tuple(q_list) + (np.array([t]),)


def _trial_operator_schwarz(rng: RngState, d: int):
    n = 2 + rng.integer(3)
    a_list = [random_matrix(d, d, rng) for _ in range(n)]
    p_list = [_conditioned_psd(rng, d) for _ in range(n)]
    return check_operator_schwarz(a_list, p_list), tuple(a_list) + tuple(p_list)


def _trial_cp_schwarz(rng: RngState, d: int):
    phi = KrausMap(random_cptp(d, 1 + rng.integer(4), rng))
    a = random_matrix(d, d, rng)
    b = random_matrix(d, d, rng)
    p = _conditioned_psd(rng, d)
    m1, m2 = check_cp_schwarz(phi, a, b, p)
    return min(m1, m2), phi.kraus_ops + (a, b, p)


def _trial_block_contraction(rng: RngState, d: int):
    p = _conditioned_psd(rng, d)
    q = _conditioned_psd(rng, d)
    g = random_matrix(d, d, rng)
    # aim decisively inside or outside the contraction ball
    target = 0.3 + 0.65 * rng.uniform() if rng.integer(2) else 1.05 + 0.65 * rng.uniform()
    smax = float(np.linalg.svd(g, compute_uv=False)[0])
    x = g * (target / smax)
    root_p = matrix_function(p, lambda v: math.sqrt(max(v, 0.0)))
    root_q = matrix_function(q, lambda v: math.sqrt(max(v, 0.0)))
    c = root_p @ x @ root_q
    rep = check_block_contraction(p, q, c, tol=1e-9)
    scores = (abs(rep.block_min_eig), abs(rep.schur_min_eig), abs(rep.max_singular_value - 1.0))
    if rep.indeterminate:
        margin = 0.0
    elif rep.consistent:
        margin = min(scores)
    else:
        margin = -max(scores)
    return margin, (p, q, c)


def _trial_monotonicity_dephase(rng: RngState, d: int):
    rho = _mixed_rank_density(rng, d)
    gamma = random_density(d, d, rng)
    dephasing = KrausMap([np.diag(e) for e in np.eye(d)])
    return check_monotonicity(rho, gamma, dephasing), (rho, gamma)


def _trial_monotonicity_ptrace(rng: RngState, d: int):
    big = d * d
    rho = _mixed_rank_density(rng, big)
    gamma = random_density(big, big, rng)
    margin = check_monotonicity(rho, gamma, trace_out_channel((d, d), (0,)))
    return margin, (rho, gamma)


def _trial_monotonicity_general(rng: RngState, d: int):
    rho = _mixed_rank_density(rng, d)
    gamma = random_density(d, d, rng)
    phi = KrausMap(random_cptp(d, 2 + rng.integer(3), rng))
    margin = check_monotonicity(rho, gamma, phi)
    return margin, (rho, gamma) + phi.kraus_ops


def _trial_monotonicity_unitary(rng: RngState, d: int):
    rho = _mixed_rank_density(rng, d)
    gamma = random_density(d, d, rng)
    phi = KrausMap([random_unitary(d, rng)])
    margin = check_monotonicity(rho, gamma, phi)
    if math.isinf(margin):
        return math.inf, (rho, gamma)
    # unitaries preserve relative entropy: the margin must vanish
    return -abs(margin), (rho, gamma) + phi.kraus_ops


def _trial_ssa(rng: RngState, d: int):
    big = d ** 3
    rho = random_density(big, 1 + rng.integer(big), rng)
    margins = check_ssa(rho, (d, d, d))
    # the alternative functional on ABD, with the purifying factor D in the
    # third role, from psi's own marginals: S(AB) + S(AD) - S(B) - S(D)
    psi = purify(rho)
    dims = (d, d, d, psi.size // big)
    s_ab, s_ad, s_b, s_d = (von_neumann_entropy(partial_trace_pure(psi, dims, keep))
                            for keep in ((0, 1), (0, 3), (1,), (3,)))
    equiv_gap = abs(s_ab + s_ad - s_b - s_d - margins.primary)
    return min(margins.primary, margins.alt, -equiv_gap), (rho,)


def _trial_concavity_condent(rng: RngState, d: int):
    big = d * d
    n = 2 + rng.integer(3)
    weights = random_simplex(n, rng)
    states = [_mixed_rank_density(rng, big) for _ in range(n)]
    margin = check_holevo_bound(Ensemble(weights, states), trace_out_channel((d, d), (0,)))
    return margin, (weights,) + tuple(states)


def _trial_concavity_channel(rng: RngState, d: int):
    n = 2 + rng.integer(3)
    weights = random_simplex(n, rng)
    states = [_mixed_rank_density(rng, d) for _ in range(n)]
    phi = KrausMap(random_cptp(d, 2 + rng.integer(3), rng))
    margin = check_holevo_bound(Ensemble(weights, states), phi)
    return margin, (weights,) + tuple(states) + phi.kraus_ops


def _trial_pure_states(rng: RngState, d: int):
    d_b = d + rng.integer(3)
    psi = random_unit_vector(d * d_b, rng)
    dist = check_pure_state_lemmas(psi, (d, d_b))
    s_a = von_neumann_entropy(partial_trace_pure(psi, (d, d_b), (0,)))
    s_b = von_neumann_entropy(partial_trace_pure(psi, (d, d_b), (1,)))
    return -max(dist, abs(s_a - s_b)), (psi.reshape(-1, 1),)


_ADJOINT_TS = (0.5, 1.0, 2.0)


def _trial_adjoint_quadratic(rng: RngState, d: int):
    phi = KrausMap(random_cptp(d, 1 + rng.integer(3), rng))
    p = _scaled_psd(rng, d)
    q = _scaled_psd(rng, d)
    a = random_matrix(d, d, rng)
    t = _ADJOINT_TS[rng.integer(len(_ADJOINT_TS))]
    margin = check_adjoint_contraction(phi, p, q, a, t)
    return margin, phi.kraus_ops + (p, q, a, np.array([t]))


def _random_ensemble(rng: RngState, d: int, n: int) -> Ensemble:
    weights = random_simplex(n, rng)
    states = [_mixed_rank_density(rng, d) for _ in range(n)]
    return Ensemble(weights, states)


def _trial_holevo_identities(rng: RngState, d: int):
    ens = _random_ensemble(rng, d, 2 + rng.integer(3))
    val = chi(ens)
    yo = yuen_ozawa_gap(ens)
    qc = abs(chi_via_qc(ens) - val)
    margin = min(val, -yo, -qc)
    return margin, (ens.weights,) + ens.states


def _trial_holevo_bound(rng: RngState, d: int):
    ens = _random_ensemble(rng, d, 2 + rng.integer(3))
    povm = Povm(random_povm(d, 2 + rng.integer(d), rng))
    margin = check_holevo_bound(ens, povm_channel(povm))
    return margin, (ens.weights,) + ens.states + povm.effects


def _trial_holevo_chain(rng: RngState, d: int):
    big = d * d
    ens = _random_ensemble(rng, big, 2 + rng.integer(2))
    povm_a = Povm(random_povm(d, 2 + rng.integer(2), rng))
    povm_b = Povm(random_povm(d, 2 + rng.integer(2), rng))
    m1, m2 = check_partial_measurement_chain(ens, (d, d), povm_a, povm_b)
    return min(m1, m2), (ens.weights,) + ens.states + povm_a.effects + povm_b.effects


def _trial_holevo_routes(rng: RngState, d: int):
    ens = _random_ensemble(rng, d, 2 + rng.integer(3))
    povm = Povm(random_povm(d, 2 + rng.integer(d), rng))
    phi = povm_channel(povm)
    out = ens.map(phi)
    avg = ens.average()
    # route one: member-by-member data processing, with each average
    # decomposed once and each member and image read through the
    # spectrum that validated it
    spec_avg = psd_eig(avg)[1]
    spec_out = psd_eig(apply_channel(phi, avg))[1]
    per_member = math.inf
    for r, lam_r, r_out, lam_out in zip(ens.states, ens.spectra, out.states, out.spectra):
        h_in = _relent(r, lam_r, spec_avg)
        h_out = _relent(r_out, lam_out, spec_out)
        per_member = min(per_member, h_in - h_out)
    # route two: data processing on the flagged state
    n = len(ens)
    gamma = flagged_state(ens)
    product = tensor(avg, np.diag(ens.weights))
    big_phi = tensor_channel(phi, identity_channel(n))
    qc_margin = relative_entropy(gamma, product) - relative_entropy(
        apply_channel(big_phi, gamma), apply_channel(big_phi, product)
    )
    # route three: chi(E) - chi(Phi E), concavity of rho -> S(rho) - S(Phi rho)
    conc_margin = chi(ens) - chi(out)
    margin = min(per_member, qc_margin, conc_margin)
    return margin, (ens.weights,) + ens.states + povm.effects


def _trial_klein(rng: RngState, d: int):
    p, q = _psd_pair(rng, d)
    h = relative_entropy(p, q)
    if math.isinf(h):
        return math.inf, (p, q)
    lower = float(np.trace(p).real - np.trace(q).real)
    return h - lower, (p, q)


_HOMOGENEITY_XS = (0.1, 0.5, 2.0, 10.0)


def _trial_homogeneity(rng: RngState, d: int):
    p = _scaled_psd(rng, d)
    q = _scaled_psd(rng, d)
    h = relative_entropy(p, q)
    gap = max(abs(relative_entropy(x * p, x * q) - x * h) for x in _HOMOGENEITY_XS)
    return -gap, (p, q)


def _trial_dephase_z(rng: RngState, d: int):
    x = random_matrix(d, d, rng)
    return -max_abs(dephase(x) - dephase_via_z(x)), (x,)


def _trial_ancilla(rng: RngState, d: int):
    phi = KrausMap(random_cptp(d, 1 + rng.integer(3), rng))
    rep = ancilla_representation(phi)
    rho = _mixed_rank_density(rng, d)
    joint = apply_ancilla(rep, rho)
    reduced = partial_trace(joint, (d, rep.anc_dim), (0,))
    err = max_abs(reduced - apply_channel(phi, rho))
    entropy_gap = abs(von_neumann_entropy(joint) - von_neumann_entropy(rho))
    return -max(err, entropy_gap), phi.kraus_ops + (rho,)


def _trial_purification(rng: RngState, d: int):
    rho = _mixed_rank_density(rng, d)
    psi = purify(rho)
    m = psi.size // d
    err = max_abs(partial_trace_pure(psi, (d, m), (0,)) - rho)
    spectra_gap = check_pure_state_lemmas(psi, (d, m))
    return -max(err, spectra_gap), (rho,)


def _trial_condent_identity(rng: RngState, d: int):
    big = d * d
    rho = _mixed_rank_density(rng, big)
    value = conditional_entropy(rho, (d, d))
    rho_a = partial_trace(rho, (d, d), (0,))
    rhs = math.log(d) - relative_entropy(rho, tensor(rho_a, np.eye(d) / d))
    return -abs(value - rhs), (rho,)


SUITES: dict[str, TrialFn] = {
    "resolvent_oracle": _trial_resolvent_oracle,
    "relent_routes": _trial_relent_routes,
    "scalar_identity": _trial_scalar_identity,
    "joint_convexity": _trial_joint_convexity,
    "schwarz_quadratic": _trial_schwarz_quadratic,
    "operator_schwarz": _trial_operator_schwarz,
    "cp_schwarz": _trial_cp_schwarz,
    "block_contraction": _trial_block_contraction,
    "monotonicity_dephase": _trial_monotonicity_dephase,
    "monotonicity_ptrace": _trial_monotonicity_ptrace,
    "monotonicity_general": _trial_monotonicity_general,
    "monotonicity_unitary": _trial_monotonicity_unitary,
    "ssa": _trial_ssa,
    "concavity_condent": _trial_concavity_condent,
    "concavity_channel": _trial_concavity_channel,
    "pure_states": _trial_pure_states,
    "adjoint_quadratic": _trial_adjoint_quadratic,
    "holevo_identities": _trial_holevo_identities,
    "holevo_bound": _trial_holevo_bound,
    "holevo_chain": _trial_holevo_chain,
    "holevo_routes": _trial_holevo_routes,
    "klein": _trial_klein,
    "homogeneity": _trial_homogeneity,
    "dephase_z": _trial_dephase_z,
    "ancilla": _trial_ancilla,
    "purification": _trial_purification,
    "condent_identity": _trial_condent_identity,
}

# Suites whose trials build multipartite states read each --dims entry as a
# local factor dimension (total dimension grows as its square or cube); the
# rest read it as the full matrix dimension.
LOCAL_DIM_SUITES = frozenset(
    {
        "ssa",
        "monotonicity_ptrace",
        "concavity_condent",
        "pure_states",
        "holevo_chain",
        "condent_identity",
    }
)


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(name: str, dims=(2, 3), trials: int = 100, seed: int = 42,
              tol: float = 1e-9) -> CheckReport:
    """Run one named suite and aggregate margins into a CheckReport."""
    try:
        fn = SUITES[name]
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
    skipped = 0
    failures: list[Failure] = []
    errors: list[TrialError] = []
    for i in range(trials):
        rng = root.child(i)
        d = dim_list[i % len(dim_list)]
        try:
            margin, payload = fn(rng, d)
        except KernelObstruction:
            skipped += 1
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
            failures.append(Failure(i, margin, _digest(payload)))
    runtime_ms = (time.perf_counter() - start) * 1e3
    return CheckReport(
        suite=name,
        trials=trials,
        seed=seed,
        tol=float(tol),
        worst_margin=worst,
        skipped_infinite=skipped,
        failures=tuple(failures),
        runtime_ms=runtime_ms,
        errors=tuple(errors),
    )
