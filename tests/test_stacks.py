"""The public checks, operations and constructors take operands with
leading axes, (..., d, d) or (..., n) for state vectors, and give one value
per leading index: each member of a stack gets, bit for bit, the value of
its own call, and one instance (2-d matrices, vectors or lists of them)
still gets Python floats."""

import dataclasses

import numpy as np
import pytest

from entropion import (
    ConvexityInstance,
    Ensemble,
    KrausMap,
    Povm,
    RngState,
    SuperOpSpec,
    ancilla_representation,
    apply_ancilla,
    apply_channel,
    apply_linear,
    check_adjoint_contraction,
    check_block_contraction,
    check_cp_schwarz,
    check_joint_convexity,
    check_monotonicity,
    check_operator_schwarz,
    check_pure_state_lemmas,
    check_schwarz_quadratic,
    check_ssa,
    chi,
    dephase,
    dephase_via_z,
    partial_trace,
    partial_trace_pure,
    povm_channel,
    purify,
    random_cptp,
    random_density,
    random_matrix,
    random_povm,
    random_simplex,
    random_unit_vector,
    relative_entropy,
    relative_entropy_integral,
    relative_entropy_spectral_kernel,
    scalar_log_identity,
    solve_resolvent,
    superop_matrix,
    von_neumann_entropy,
)
from entropion.channels import require_tp

D = 3
MEMBERS = 6


def _channel(kraus) -> KrausMap:
    # a stack of channels has its own constructor (see KrausMap)
    return KrausMap._stack(kraus) if np.ndim(kraus) == 4 else KrausMap(kraus)


def _psd(rng):
    return (0.5 + rng.uniform()) * random_density(D, D, rng)


def _compatible(rng):
    # P of random rank, and Q whose support holds P's, of random rank too:
    # the integral and kernel routes group pairs by the rank of Q
    p = random_density(D, 1 + rng.integer(D), rng)
    return p, p + (0.5 + rng.uniform()) * random_density(D, 1 + rng.integer(D), rng)


def _terms(rng, n=3):
    return [random_matrix(D, D, rng) for _ in range(n)], [_psd(rng) for _ in range(n)]


# name: (draw(rng) -> instance fields, call(*fields) -> value)
CASES = {
    "relative_entropy": (lambda rng: (random_density(D, 1 + rng.integer(D), rng), _psd(rng)),
                         relative_entropy),
    "check_monotonicity": (lambda rng: (random_density(D, D, rng), random_density(D, 2, rng),
                                        random_cptp(D, 2, rng)),
                           lambda rho, gamma, k: check_monotonicity(rho, gamma, _channel(k))),
    "check_schwarz_quadratic": (lambda rng: (*_terms(rng), [_psd(rng) for _ in range(3)],
                                             0.5 + rng.uniform()),
                                check_schwarz_quadratic),
    "check_operator_schwarz": (_terms, check_operator_schwarz),
    "check_cp_schwarz": (lambda rng: (random_cptp(D, 2, rng), random_matrix(D, D, rng),
                                      random_matrix(D, D, rng), _psd(rng)),
                         lambda k, a, b, p: check_cp_schwarz(_channel(k), a, b, p)),
    "check_block_contraction": (lambda rng: (_psd(rng), _psd(rng), 0.3 * random_matrix(D, D, rng)),
                                check_block_contraction),
    "check_adjoint_contraction": (lambda rng: (random_cptp(D, 2, rng), _psd(rng), _psd(rng),
                                               random_matrix(D, D, rng), 0.5 + rng.uniform()),
                                  lambda k, p, q, a, t: check_adjoint_contraction(_channel(k), p, q, a, t)),
    "solve_resolvent": (lambda rng: (_psd(rng), _psd(rng), rng.uniform(), random_matrix(D, D, rng)),
                        lambda l, r, t, x: solve_resolvent(SuperOpSpec(l, r, t), x)),
    "SuperOpSpec": (lambda rng: (_psd(rng), _psd(rng), rng.uniform()),
                    lambda l, r, t: superop_matrix(SuperOpSpec(l, r, t))),
    "require_tp": (lambda rng: (random_cptp(D, 2, rng),), lambda k: require_tp(_channel(k)).kraus_ops),
    "apply_channel": (lambda rng: (random_cptp(D, 2, rng), random_density(D, D, rng)),
                      lambda k, rho: apply_channel(_channel(k), rho)),
    "apply_linear": (lambda rng: (random_cptp(D, 2, rng), random_matrix(D, D, rng)),
                     lambda k, x: apply_linear(_channel(k), x)),
    "dephase": (lambda rng: (random_matrix(D, D, rng),), dephase),
    "dephase_via_z": (lambda rng: (random_matrix(D, D, rng),), dephase_via_z),
    "apply_ancilla": (lambda rng: (random_cptp(D, 2, rng), random_density(D, D, rng)),
                      lambda k, rho: apply_ancilla(ancilla_representation(_channel(k)), rho)),
    "partial_trace": (lambda rng: (random_density(D * 2, D * 2, rng),),
                      lambda m: partial_trace(m, (D, 2), (1,))),
    "Ensemble": (lambda rng: (random_simplex(3, rng), [random_density(D, 2, rng) for _ in range(3)]),
                 lambda w, states: chi(Ensemble(w, states))),
    "Povm": (lambda rng: (random_povm(D, 3, rng),), lambda e: povm_channel(Povm(e)).kraus_ops),
    "ConvexityInstance": (lambda rng: (random_simplex(2, rng), [(_psd(rng), _psd(rng)) for _ in range(2)]),
                          lambda w, pairs: check_joint_convexity(ConvexityInstance(w, pairs))),
    "von_neumann_entropy": (lambda rng: (random_density(D, 1 + rng.integer(D), rng),), von_neumann_entropy),
    "check_ssa": (lambda rng: (random_density(8, 1 + rng.integer(8), rng),),
                  lambda rho: check_ssa(rho, (2, 2, 2))),
    "check_ssa (2, 3, 4)": (lambda rng: (random_density(24, 1 + rng.integer(24), rng),),
                            lambda rho: check_ssa(rho, (2, 3, 4))),
    "check_pure_state_lemmas": (lambda rng: (random_unit_vector(D * 5, rng),),
                                lambda psi: check_pure_state_lemmas(psi, (D, 5))),
    # a stack of states of one rank purifies on one ancilla dimension
    "purify": (lambda rng: (random_density(D, 2, rng),), purify),
    "partial_trace_pure": (lambda rng: (random_unit_vector(D * 4, rng),),
                           lambda psi: partial_trace_pure(psi, (D, 2, 2), (0, 2))),
    "relative_entropy_integral": (_compatible, relative_entropy_integral),
    "relative_entropy_spectral_kernel": (_compatible, relative_entropy_spectral_kernel),
    "scalar_log_identity": (lambda rng: (10.0 ** (-2.0 + 4.0 * rng.uniform()),), scalar_log_identity),
}


def _fields(value):
    """A result as a tuple of its parts: a NamedTuple's or report's fields,
    or the value alone."""
    if dataclasses.is_dataclass(value):
        return dataclasses.astuple(value)
    return tuple(value) if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_stack_gives_each_member_the_bits_of_its_own_call(name):
    draw, call = CASES[name]
    members = [draw(RngState(7).child(i)) for i in range(MEMBERS)]
    stacked = _fields(call(*(np.stack(field) for field in zip(*members))))
    for j, member in enumerate(members):
        one = _fields(call(*member))
        assert len(one) == len(stacked)
        for got, want in zip(stacked, one):
            if isinstance(want, np.ndarray):
                assert want.ndim in (1, 2, 3)  # a state vector, a matrix, or a channel's Kraus stack
                assert got[j].tobytes() == want.tobytes(), (name, j)
            else:
                # one instance gives Python floats; a report's tol stays one float
                assert type(want) is float, (name, type(want))
                got = got if isinstance(got, float) else float(got[j])
                assert got.hex() == want.hex(), (name, j)


def test_a_stack_raises_the_error_of_its_first_defective_member():
    # validation runs once per stack, and names the defect as its member would
    rng = RngState(8)
    rhos = np.stack([random_density(D, D, rng.child(i)) for i in range(MEMBERS)])
    kraus = np.stack([random_cptp(D, 2, rng.child(10 + i)) for i in range(MEMBERS)])
    leaky = kraus.copy()
    leaky[3] *= 0.9
    with pytest.raises(ValueError) as want:
        require_tp(KrausMap(leaky[3]))
    with pytest.raises(ValueError) as got:
        check_monotonicity(rhos, rhos[::-1], KrausMap._stack(leaky))
    assert str(got.value) == str(want.value)
    bad = rhos.copy()
    bad[4] = np.diag([1.2, 0.0, -0.2])
    with pytest.raises(ValueError, match=r"^matrix is not PSD \(min eigenvalue -2.000e-01\)$"):
        relative_entropy(rhos, bad)
    with pytest.raises(ValueError, match="^expected a 2-d matrix, got shape \\(3,\\)$"):
        relative_entropy(rhos[0][0], rhos[0][0])


def test_stacks_of_states_of_mixed_rank_purify_apart():
    # one purification per rank: a stack whose ranks differ has no one
    # ancilla dimension, and purify says so
    rhos = np.stack([random_density(D, 1 + i % 2, RngState(9).child(i)) for i in range(4)])
    with pytest.raises(ValueError, match=r"^the states of a stack must share one rank, got ranks \[1, 2\]$"):
        purify(rhos)
    for rank in (1, 2):
        psi = purify(rhos[rank - 1::2])
        assert psi.shape == (2, D * rank)
        assert np.abs(partial_trace_pure(psi, (D, rank), (0,)) - rhos[rank - 1::2]).max() < 1e-15


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 3, 4), (3, 2, 2)])
def test_check_ssa_takes_factors_of_unequal_dimensions(dims):
    # marginals of different shapes cannot share a stack; each margin is the
    # one its marginals' own entropies give
    n = int(np.prod(dims))
    rhos = np.stack([random_density(n, 1 + i, RngState(12).child(i)) for i in range(MEMBERS)])
    stacked = check_ssa(rhos, dims)
    for j, rho in enumerate(rhos):
        s_ab, s_bc, s_ac, s_b, s_c = (von_neumann_entropy(partial_trace(rho, dims, keep))
                                      for keep in ((0, 1), (1, 2), (0, 2), (1,), (2,)))
        want = (s_ab + s_bc - von_neumann_entropy(rho) - s_b, s_ab + s_ac - s_b - s_c)
        assert tuple(check_ssa(rho, dims)) == want
        assert (stacked.primary[j], stacked.alt[j]) == want
