import math

import numpy as np
import pytest

from entropion import (
    Ensemble,
    as_density,
    Povm,
    RngState,
    check_holevo_bound,
    check_partial_measurement_chain,
    chi,
    chi_via_qc,
    flagged_state,
    partial_trace,
    povm_channel,
    random_density,
    random_povm,
    random_simplex,
    tensor,
    von_neumann_entropy,
    yuen_ozawa_gap,
)


def _ensemble(d, n, rank, rng):
    """Weights and states of an n-member ensemble on C^d, all of one rank."""
    return random_simplex(n, rng), [random_density(d, rank, rng) for _ in range(n)]


def test_ensemble_validation():
    rng = RngState(100)
    rho = random_density(2, 2, rng)
    Ensemble([1.0], [rho])
    with pytest.raises(ValueError):
        Ensemble([0.5, 0.5], [rho])  # one state missing
    with pytest.raises(ValueError):
        Ensemble([0.0, 1.0], [rho, rho])  # zero weight
    with pytest.raises(ValueError):
        Ensemble([0.6, 0.6], [rho, rho])  # sums past 1


_NOT_HERMITIAN = np.array([[0.0, 1e-6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _message(validate, m) -> str:
    with pytest.raises(ValueError) as err:
        validate(m)
    return str(err.value)


def test_ensemble_names_its_first_defective_member():
    # the member stack is checked in one call, yet each defect raises the
    # class and message its member raises alone, and the first member in
    # order wins; ragged shapes are caught before stacking
    rng = RngState(103)
    w = random_simplex(3, rng.child(9))
    states = [random_density(3, 3, rng.child(i)) for i in range(3)]
    defects = {
        "hermitian": lambda r: r + _NOT_HERMITIAN,
        "psd": lambda r: np.diag([1.2, 0.0, -0.2]),
        "trace": lambda r: 2.0 * r,
    }
    for j in range(3):
        for kind, spoil in defects.items():
            bad = list(states)
            bad[j] = spoil(states[j])
            with pytest.raises(ValueError) as err:
                Ensemble(w, bad)
            assert type(err.value) is ValueError
            assert str(err.value) == _message(as_density, bad[j]), (j, kind)
        ragged = list(states)
        ragged[j] = np.eye(2) / 2
        with pytest.raises(ValueError, match="^ensemble states must share one dimension$"):
            Ensemble(w, ragged)
    # two defects: the earlier member's, of either kind
    for first, second in (("hermitian", "psd"), ("psd", "hermitian"), ("trace", "trace")):
        bad = [defects[first](states[0]), states[1], defects[second](states[2])]
        with pytest.raises(ValueError) as err:
            Ensemble(w, bad)
        assert str(err.value) == _message(as_density, bad[0])


def test_chi_identical_states_is_zero():
    rng = RngState(101)
    rho = random_density(3, 3, rng)
    ens = Ensemble([0.2, 0.8], [rho, rho])
    assert chi(ens) == pytest.approx(0, abs=1e-12)


def test_chi_orthogonal_pure_states_is_shannon():
    # perfectly distinguishable signals carry exactly H(weights) nats
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    ens = Ensemble([0.3, 0.7], [e0, e1])
    expected = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    assert chi(ens) == pytest.approx(expected, abs=1e-13)
    # and is capped by the average's entropy
    assert chi(ens) <= von_neumann_entropy(ens.average()) + 1e-12


def test_chi_nonnegative_random():
    rng = RngState(102)
    for i in range(10):
        w, states = _ensemble(3, 3, 3, rng.child(i))
        assert chi(Ensemble(w, states)) > -1e-11


def test_yuen_ozawa_identity():
    rng = RngState(104)
    w, states = _ensemble(3, 4, 2, rng)
    assert yuen_ozawa_gap(Ensemble(w, states)) < 1e-11


def test_flagged_state_structure():
    rng = RngState(105)
    w, states = _ensemble(2, 3, 2, rng)
    ens = Ensemble(w, states)
    gamma = flagged_state(ens)
    assert gamma.shape == (6, 6)
    assert np.trace(gamma).real == pytest.approx(1.0, abs=1e-12)
    # tracing out the flag register returns the average state
    assert np.allclose(partial_trace(gamma, (2, 3), keep=(0,)), ens.average(), atol=1e-12)
    # tracing out the quantum leg leaves the weight distribution
    assert np.allclose(partial_trace(gamma, (2, 3), keep=(1,)), np.diag(w), atol=1e-12)


def test_flagged_state_equals_the_kron_sum():
    # every entry of gamma_QC gets at most one nonzero term, so writing the
    # weighted blocks in place gives the sum of Kronecker products exactly
    rng = RngState(108)
    for i in range(200):
        r = rng.child(i)
        d, n = 1 + r.integer(4), 1 + r.integer(5)
        ens = Ensemble(*_ensemble(d, n, 1 + r.integer(d), r))
        flags = np.eye(n)
        kron_sum = sum(w * tensor(rho, np.diag(flags[j]))
                       for j, (w, rho) in enumerate(zip(ens.weights, ens.states)))
        assert np.array_equal(flagged_state(ens), kron_sum), (d, n)


def test_chi_via_qc_identity():
    rng = RngState(106)
    w, states = _ensemble(3, 3, 3, rng)
    ens = Ensemble(w, states)
    assert chi_via_qc(ens) == pytest.approx(chi(ens), abs=1e-10)


def test_measured_ensemble_is_classical():
    rng = RngState(107)
    w, states = _ensemble(3, 2, 3, rng.child(0))
    povm = Povm(random_povm(3, 4, rng.child(1)))
    measured = Ensemble(w, states).map(povm_channel(povm))
    assert measured.dim == 4
    for r in measured.states:
        assert np.all(r == np.diag(np.diag(r)))  # exactly diagonal


def test_holevo_bound_margin():
    rng = RngState(108)
    for i in range(10):
        w, states = _ensemble(2, 3, 2, rng.child(2 * i))
        povm = Povm(random_povm(2, 3, rng.child(2 * i + 1)))
        assert check_holevo_bound(Ensemble(w, states), povm_channel(povm)) > -1e-10


def test_holevo_bound_orthogonal_projective_equality():
    # orthogonal signal states measured in their own basis lose nothing
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    ens = Ensemble([0.4, 0.6], [e0, e1])
    povm = Povm([e0, e1])
    assert check_holevo_bound(ens, povm_channel(povm)) == pytest.approx(0, abs=1e-12)


def test_partial_measurement_chain():
    rng = RngState(109)
    for i in range(5):
        w, states = _ensemble(4, 2, 4, rng.child(3 * i))
        povm_a = Povm(random_povm(2, 2, rng.child(3 * i + 1)))
        povm_b = Povm(random_povm(2, 3, rng.child(3 * i + 2)))
        m1, m2 = check_partial_measurement_chain(
            Ensemble(w, states), (2, 2), povm_a, povm_b
        )
        assert m1 > -1e-10
        assert m2 > -1e-10
    with pytest.raises(ValueError):
        check_partial_measurement_chain(Ensemble(w, states), (3, 2), povm_a, povm_b)


def test_product_ensemble_chain_is_tight_on_first_step():
    # members that ignore factor B make the first measurement step free
    rng = RngState(110)
    b_state = random_density(2, 2, rng.child(0))
    members = [tensor(random_density(2, 2, rng.child(i + 1)), b_state) for i in range(2)]
    ens = Ensemble([0.5, 0.5], members)
    povm_b = Povm(random_povm(2, 2, rng.child(9)))
    povm_a = Povm(random_povm(2, 2, rng.child(10)))
    m1, m2 = check_partial_measurement_chain(ens, (2, 2), povm_a, povm_b)
    # measuring the common factor reveals nothing about the label
    assert m1 == pytest.approx(0, abs=1e-10)
    assert m2 > -1e-10
