import math

import numpy as np
import pytest

from entropion import (
    ConvexityInstance,
    Ensemble,
    KrausMap,
    RngState,
    check_adjoint_contraction,
    check_block_contraction,
    check_cp_schwarz,
    check_holevo_bound,
    check_joint_convexity,
    check_monotonicity,
    check_operator_schwarz,
    check_pure_state_lemmas,
    check_schwarz_quadratic,
    check_ssa,
    chi,
    conditional_entropy,
    dephase,
    matrix_function,
    partial_trace,
    random_cptp,
    random_density,
    random_matrix,
    random_simplex,
    random_unitary,
    relative_entropy,
    tensor,
    trace_out_channel,
)
from entropion.matcore import psd_eig, psd_eigvalsh


def _psd(d, rng, floor=0.0):
    g = random_matrix(d, d, rng)
    return g @ g.conj().T / d + floor * np.eye(d)


def test_simplex_validation():
    rng = RngState(80)
    pairs = [(random_density(2, 2, rng.child(i)), random_density(2, 2, rng.child(10 + i)))
             for i in range(2)]
    with pytest.raises(ValueError):
        ConvexityInstance([0.5, 0.6], pairs)  # sums to 1.1
    with pytest.raises(ValueError):
        ConvexityInstance([1.5, -0.5], pairs)  # negative weight
    # sub-clamp weights are zeroed and the rest renormalized
    inst = ConvexityInstance([1.0 - 1e-15, 1e-15], pairs)
    assert inst.weights[1] == 0.0
    assert inst.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_convexity_instance_rejects_support_mismatch():
    p = np.diag([0.5, 0.5])
    q = np.diag([1.0, 0.0])  # supp(P) not inside supp(Q)
    with pytest.raises(ValueError):
        ConvexityInstance([1.0], [(p, q)])


def test_convexity_instance_names_its_first_defective_matrix():
    # P and Q are each one stacked check, yet a defect raises the message
    # its matrix raises alone, pair by pair with P before Q, the first in
    # that order winning; a support violation names its pair
    rng = RngState(81)
    pairs = [(random_density(3, 3, rng.child(i)), random_density(3, 3, rng.child(10 + i)))
             for i in range(3)]
    not_hermitian = np.array([[0.0, 1e-6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    not_psd = np.diag([1.2, 0.0, -0.2])

    def spoiled(j, side, m):
        out = [list(pair) for pair in pairs]
        out[j][side] = m
        return [tuple(pair) for pair in out]

    for j in range(3):
        for side, validate in ((0, psd_eigvalsh), (1, psd_eig)):
            for m in (pairs[j][side] + not_hermitian, not_psd):
                with pytest.raises(ValueError) as want:
                    validate(m)
                with pytest.raises(ValueError) as got:
                    ConvexityInstance([0.2, 0.3, 0.5], spoiled(j, side, m))
                assert type(got.value) is ValueError
                assert str(got.value) == str(want.value), (j, side)
        with pytest.raises(ValueError, match="^all pairs must share one dimension$"):
            ConvexityInstance([0.2, 0.3, 0.5], spoiled(j, 1, np.eye(2) / 2))
        violating = spoiled(j, 0, np.diag([0.5, 0.5, 0.0]))
        violating = [(p, np.diag([1.0, 0.0, 1.0]) if i == j else q) for i, (p, q) in enumerate(violating)]
        with pytest.raises(ValueError, match=rf"^pair {j}: P has weight 5.000e-01 outside supp\(Q\)$"):
            ConvexityInstance([0.2, 0.3, 0.5], violating)
    # Q of pair 0 comes before P of pair 1
    bad = [(pairs[0][0], not_psd), (pairs[1][0] + not_hermitian, pairs[1][1]), pairs[2]]
    with pytest.raises(ValueError, match=r"^matrix is not PSD \(min eigenvalue -2.000e-01\)$"):
        ConvexityInstance([0.2, 0.3, 0.5], bad)


def test_schwarz_quadratic_names_its_first_defective_pair():
    # all P and all Q are one stacked check each, yet a defect raises the
    # message of the first defective matrix, pair by pair with P before Q
    rng = RngState(83)
    ps = [random_density(3, 3, rng.child(i)) for i in range(3)]
    qs = [random_density(3, 3, rng.child(10 + i)) for i in range(3)]
    a_list = [random_matrix(3, 3, rng.child(20 + i)) for i in range(3)]
    not_hermitian = np.array([[0.0, 1e-6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    not_psd = np.diag([1.2, 0.0, -0.2])
    bad_p = [ps[0], ps[1] + not_hermitian, not_psd]
    with pytest.raises(ValueError, match=r"^matrix is not PSD \(min eigenvalue -2.000e-01\)$"):
        check_schwarz_quadratic(a_list, bad_p, [not_psd, qs[1], qs[2]], 1.0)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(defect 1.000e-06\)$"):
        check_schwarz_quadratic(a_list, bad_p, qs, 1.0)


def test_joint_convexity_random_and_equality():
    rng = RngState(81)
    for i in range(20):
        d = 2 + i % 3
        n = 2 + i % 2
        w = random_simplex(n, rng.child(3 * i))
        pairs = [
            (_psd(d, rng.child(100 + 10 * i + j)), _psd(d, rng.child(200 + 10 * i + j), 0.05))
            for j in range(n)
        ]
        m = check_joint_convexity(ConvexityInstance(w, pairs))
        assert m.margin > -1e-9
        assert m.subadditive_margin > -1e-9
        assert m.scaling_gap < 1e-9
    # identical pairs hit the equality case of convexity
    p = _psd(3, RngState(82).child(0))
    q = _psd(3, RngState(82).child(1), 0.05)
    m = check_joint_convexity(ConvexityInstance([0.3, 0.7], [(p, q), (p, q)]))
    assert abs(m.margin) < 1e-12


def test_schwarz_quadratic_equality_at_one_term():
    rng = RngState(83)
    a = random_matrix(3, 3, rng.child(0))
    p = _psd(3, rng.child(1), 0.1)
    q = _psd(3, rng.child(2), 0.1)
    assert check_schwarz_quadratic([a], [p], [q], 1.0) == pytest.approx(0, abs=1e-11)


def test_schwarz_quadratic_random():
    rng = RngState(84)
    for t in (0.0, 0.5, 1.0, 10.0):
        a_list = [random_matrix(2, 2, rng.child(10 + i)) for i in range(3)]
        p_list = [_psd(2, rng.child(20 + i), 0.05) for i in range(3)]
        q_list = [_psd(2, rng.child(30 + i), 0.05) for i in range(3)]
        assert check_schwarz_quadratic(a_list, p_list, q_list, t) > -1e-10
    with pytest.raises(ValueError):
        check_schwarz_quadratic([], [], [], 1.0)


def test_operator_schwarz_equality_when_a_equals_p():
    # A_k = P_k collapses both sides to sum_k P_k
    rng = RngState(85)
    p_list = [_psd(3, rng.child(i), 0.1) for i in range(3)]
    assert check_operator_schwarz(p_list, p_list) == pytest.approx(0, abs=1e-10)


def test_operator_schwarz_random():
    rng = RngState(86)
    for i in range(20):
        d = 2 + i % 2
        a_list = [random_matrix(d, d, rng.child(100 * i + j)) for j in range(3)]
        p_list = [_psd(d, rng.child(500 + 100 * i + j), 0.1) for j in range(3)]
        assert check_operator_schwarz(a_list, p_list) > -1e-9


def test_cp_schwarz_identity_channel_equalities():
    rng = RngState(87)
    ident = KrausMap([np.eye(3)])
    a = random_matrix(3, 3, rng.child(0))
    b = random_matrix(3, 3, rng.child(1))  # generically invertible
    p = _psd(3, rng.child(2), 0.1)
    m1, m2 = check_cp_schwarz(ident, a, b, p)
    assert m1 == pytest.approx(0, abs=1e-10)
    assert m2 == pytest.approx(0, abs=1e-9)


def test_cp_schwarz_random_channel():
    rng = RngState(88)
    for i in range(10):
        phi = KrausMap(random_cptp(2, 2, rng.child(10 * i)))
        a = random_matrix(2, 2, rng.child(10 * i + 1))
        b = random_matrix(2, 2, rng.child(10 * i + 2))
        p = _psd(2, rng.child(10 * i + 3), 0.1)
        m1, m2 = check_cp_schwarz(phi, a, b, p)
        assert m1 > -1e-9
        assert m2 > -1e-9


def _count_eigensolves(monkeypatch, calls=None):
    # matrices decomposed, each slice of a stacked call counted; the calls
    # themselves go to ``calls`` when given
    matrices = {"eigh": 0, "eigvalsh": 0}
    for name in matrices:
        def counted(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            matrices[_name] += math.prod(np.shape(a)[:-2])
            if calls is not None:
                calls[_name] += 1
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return matrices


def test_schwarz_checks_decompose_each_operand_once(monkeypatch):
    # each PSD operand is validated by the eigh its inverse or root is
    # formed from; eigvalsh runs only for the reported smallest eigenvalues
    rng = RngState(99)
    a, b, c = (random_matrix(3, 3, rng.child(i)) for i in range(3))
    p, q = _psd(3, rng.child(3), 0.1), _psd(3, rng.child(4), 0.1)
    phi = KrausMap(random_cptp(3, 2, rng.child(5)))
    solves = {"eigh": 0, "eigvalsh": 0}
    calls = _count_eigensolves(monkeypatch, solves)
    runs = [
        (lambda p: check_operator_schwarz([a, b], [p, q]), {"eigh": 3, "eigvalsh": 1}),
        (lambda p: check_cp_schwarz(phi, a, b, p), {"eigh": 3, "eigvalsh": 2}),
        (lambda p: check_block_contraction(p, q, c), {"eigh": 2, "eigvalsh": 2}),
    ]
    not_psd = p - 2.0 * np.eye(3) * np.linalg.norm(p)
    singular = np.diag([1.0, 1.0, 0.0])
    for run, want in runs:
        calls.update(eigh=0, eigvalsh=0)
        solves.update(eigh=0, eigvalsh=0)
        run(p)
        assert calls == want
        # the operator form's two P take one stacked eigh
        assert solves["eigh"] == want["eigh"] - (run is runs[0][0])
        for bad in (not_psd, singular):
            with pytest.raises(ValueError):
                run(bad)


def test_block_contraction_positive_case():
    # C = sqrt(P) X sqrt(Q) with ||X|| < 1 makes every criterion positive
    rng = RngState(89)
    p = _psd(3, rng.child(0), 0.2)
    q = _psd(3, rng.child(1), 0.2)
    x = random_matrix(3, 3, rng.child(2))
    x *= 0.9 / np.linalg.svd(x, compute_uv=False)[0]
    root_p = matrix_function(p, np.sqrt)
    root_q = matrix_function(q, np.sqrt)
    rep = check_block_contraction(p, q, root_p @ x @ root_q)
    assert not rep.indeterminate
    assert rep.consistent
    assert rep.block_min_eig > 0
    assert rep.schur_min_eig > 0
    assert rep.max_singular_value < 1


def test_block_contraction_violated_case():
    rng = RngState(90)
    p = _psd(3, rng.child(0), 0.2)
    q = _psd(3, rng.child(1), 0.2)
    x = random_matrix(3, 3, rng.child(2))
    x *= 1.8 / np.linalg.svd(x, compute_uv=False)[0]
    root_p = matrix_function(p, np.sqrt)
    root_q = matrix_function(q, np.sqrt)
    rep = check_block_contraction(p, q, root_p @ x @ root_q)
    # all three criteria must flip together
    assert rep.consistent
    assert rep.block_min_eig < 0
    assert rep.schur_min_eig < 0
    assert rep.max_singular_value > 1


def test_block_contraction_boundary_is_indeterminate():
    p = np.eye(2)
    q = np.eye(2)
    rep = check_block_contraction(p, q, np.eye(2), tol=1e-6)
    assert rep.indeterminate
    assert rep.consistent  # indeterminate verdicts never count as failures


def test_monotonicity_modes():
    # dephasing, a partial trace and a random channel go down one path
    rng = RngState(91)
    rho = random_density(4, 4, rng.child(0))
    gamma = random_density(4, 4, rng.child(1))
    dephasing = KrausMap([np.diag(e) for e in np.eye(4)])
    trace_out = trace_out_channel((2, 2), (0,))
    phi = KrausMap(random_cptp(4, 3, rng.child(2)))
    for channel in (dephasing, trace_out, phi):
        assert check_monotonicity(rho, gamma, channel) > -1e-10
    # the projector and trace-out channels give the direct reductions' margins
    h = relative_entropy(rho, gamma)
    for channel, reduce in ((dephasing, dephase),
                            (trace_out, lambda m: partial_trace(m, (2, 2), (0,)))):
        want = h - relative_entropy(reduce(rho), reduce(gamma))
        assert check_monotonicity(rho, gamma, channel) == want


def test_monotonicity_unitary_is_equality():
    rng = RngState(92)
    rho = random_density(3, 3, rng.child(0))
    gamma = random_density(3, 3, rng.child(1))
    u = KrausMap([random_unitary(3, rng.child(2))])
    assert check_monotonicity(rho, gamma, u) == pytest.approx(
        0, abs=1e-10
    )


def test_monotonicity_skips_infinite_inputs():
    rho = np.diag([0.5, 0.5])
    gamma = np.diag([1.0, 0.0])
    dephasing = KrausMap([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert check_monotonicity(rho, gamma, dephasing) == math.inf


def test_monotonicity_argument_errors():
    rng = RngState(93)
    rho = random_density(2, 2, rng.child(0))
    gamma = random_density(2, 2, rng.child(1))
    leaky = KrausMap([np.eye(2) * 0.5])
    with pytest.raises(ValueError, match="not trace preserving"):
        check_monotonicity(rho, gamma, leaky)
    with pytest.raises(ValueError):
        check_monotonicity(rho, gamma, KrausMap([np.eye(3)]))  # wrong input dimension


def test_ssa_margins_random_and_product():
    rng = RngState(94)
    for i in range(10):
        rho = random_density(8, 8, rng.child(i))
        m = check_ssa(rho, (2, 2, 2))
        assert m.primary > -1e-10
        assert m.alt > -1e-10
    # a fully product state saturates SSA
    a = random_density(2, 2, rng.child(100))
    b = random_density(2, 2, rng.child(101))
    c = random_density(2, 2, rng.child(102))
    m = check_ssa(tensor(tensor(a, b), c), (2, 2, 2))
    assert m.primary == pytest.approx(0, abs=1e-10)


def test_concavity_conditional_entropy():
    # concavity of S(B|A) is the Holevo margin under Tr_B
    rng = RngState(95)
    states = [random_density(4, 4, rng.child(i)) for i in range(3)]
    w = random_simplex(3, rng.child(50))
    trace_b = trace_out_channel((2, 2), (0,))
    assert check_holevo_bound(Ensemble(w, states), trace_b) > -1e-10
    # equal states make it an equality
    same = [states[0]] * 3
    assert check_holevo_bound(Ensemble(w, same), trace_b) == pytest.approx(0, abs=1e-11)


def test_concavity_entropy_diff():
    rng = RngState(96)
    states = [random_density(3, 3, rng.child(i)) for i in range(3)]
    w = random_simplex(3, rng.child(50))
    phi = KrausMap(random_cptp(3, 2, rng.child(60)))
    assert check_holevo_bound(Ensemble(w, states), phi) > -1e-10
    with pytest.raises(ValueError, match="not trace preserving"):
        check_holevo_bound(Ensemble(w, states), KrausMap([1.1 * k for k in phi.kraus_ops]))


def test_concavity_gap_matches_conditional_entropy():
    # chi(E) - chi(Tr_B E) = S(B|A)(sum w rho) - sum w S(B|A)(rho)
    rng = RngState(99)
    for d in (2, 3):
        states = [random_density(d * d, 1 + i, rng.child(10 * d + i)) for i in range(3)]
        w = random_simplex(3, rng.child(10 * d + 5))
        ens = Ensemble(w, states)
        direct = conditional_entropy(ens.average(), (d, d)) - sum(
            wi * conditional_entropy(r, (d, d)) for wi, r in zip(w, states)
        )
        via_chi = chi(ens) - chi(ens.map(trace_out_channel((d, d), (0,))))
        assert check_holevo_bound(ens, trace_out_channel((d, d), (0,))) == via_chi
        assert via_chi == pytest.approx(direct, abs=1e-13)


def test_concavity_validates_through_its_entropies(monkeypatch):
    # each state and each image is validated by the eigenvalues its entropy
    # needs, and each average is decomposed once: 3 + 3 + 2 matrices, the
    # states in one stacked eigvalsh and the images in another
    rng = RngState(98)
    states = [random_density(4, 4, rng.child(i)) for i in range(3)]
    w = random_simplex(3, rng.child(50))
    phi = KrausMap(random_cptp(4, 2, rng.child(60)))
    solves = {"eigh": 0, "eigvalsh": 0}
    calls = _count_eigensolves(monkeypatch, solves)
    for channel in (trace_out_channel((2, 2), (0,)), phi):
        calls.update(eigh=0, eigvalsh=0)
        solves.update(eigh=0, eigvalsh=0)
        check_holevo_bound(Ensemble(w, states), channel)
        assert (calls["eigh"], calls["eigvalsh"]) == (0, 8)
        assert (solves["eigh"], solves["eigvalsh"]) == (0, 4)
        not_psd = states[:2] + [states[2] - 0.5 * np.eye(4)]
        not_unit = states[:2] + [2.0 * states[2]]
        for bad in (not_psd, not_unit):
            with pytest.raises(ValueError):
                check_holevo_bound(Ensemble(w, bad), channel)
    with pytest.raises(ValueError):
        check_holevo_bound(Ensemble(w, states[:2] + [np.eye(2) / 2]), phi)


def test_pure_state_reductions_share_spectrum():
    rng = RngState(97)
    from entropion import random_unit_vector

    for da, db in [(2, 2), (2, 3), (3, 5)]:
        psi = random_unit_vector(da * db, rng.child(da * 10 + db))
        assert check_pure_state_lemmas(psi, (da, db)) < 1e-12
    with pytest.raises(ValueError):
        check_pure_state_lemmas(np.array([1.0, 1.0]), (1, 2))  # not normalized
    with pytest.raises(ValueError):
        check_pure_state_lemmas(np.array([1.0, 0.0]), (2, 2))  # size mismatch


def test_adjoint_contraction_random_and_unitary():
    rng = RngState(98)
    for t in (0.5, 1.0, 2.0):
        phi = KrausMap(random_cptp(3, 2, rng.child(int(10 * t))))
        p = _psd(3, rng.child(int(10 * t) + 1), 0.1)
        q = _psd(3, rng.child(int(10 * t) + 2), 0.1)
        a = random_matrix(3, 3, rng.child(int(10 * t) + 3))
        assert check_adjoint_contraction(phi, p, q, a, t) > -1e-9
    # unitary conjugation turns the inequality into an identity
    u = KrausMap([random_unitary(3, rng.child(99))])
    p = _psd(3, rng.child(100), 0.1)
    q = _psd(3, rng.child(101), 0.1)
    a = random_matrix(3, 3, rng.child(102))
    assert check_adjoint_contraction(u, p, q, a, 1.0) == pytest.approx(0, abs=1e-10)
