import itertools
import math
import tracemalloc

import numpy as np
import pytest

from entropion import (
    KrausMap,
    Povm,
    RngState,
    adjoint_channel,
    ancilla_representation,
    apply_ancilla,
    apply_channel,
    apply_linear,
    dephase,
    dephase_via_z,
    identity_channel,
    partial_trace,
    povm_channel,
    purify,
    random_cptp,
    random_density,
    random_matrix,
    random_povm,
    random_unitary,
    tensor,
    tensor_channel,
    trace_out_channel,
    von_neumann_entropy,
)
from entropion.channels import require_tp
from entropion.matcore import psd_eig


def test_kraus_map_validation():
    k = KrausMap([np.eye(2)])
    assert k.d_in == 2 and k.d_out == 2
    require_tp(k)
    with pytest.raises(ValueError):
        KrausMap([])
    with pytest.raises(ValueError):
        KrausMap([np.eye(2), np.eye(3)])  # mismatched shapes
    # rectangular operators set d_out != d_in
    v = np.zeros((3, 2))
    v[0, 0] = v[1, 1] = 1.0
    tall = KrausMap([v])
    assert tall.d_in == 2 and tall.d_out == 3
    require_tp(tall)
    with pytest.raises(ValueError, match="finite"):
        KrausMap([np.eye(2), np.diag([1.0, np.nan])])
    # a stacked (r, d_out, d_in) array is the same channel as its list
    ops = random_cptp(2, 3, RngState(66))
    listed, stacked = KrausMap(ops), KrausMap(np.array(ops))
    assert (stacked.d_in, stacked.d_out, len(stacked)) == (listed.d_in, listed.d_out, len(listed))
    assert np.array_equal(stacked.kraus_ops, listed.kraus_ops)
    # a 2-d array is one matrix, not a stack; a 4-d array stacks 3-d blocks
    for bad in (np.eye(2), np.zeros((2, 2, 2, 2))):
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            KrausMap(bad)


def test_completeness_defect():
    half = KrausMap([np.eye(2) / 2])
    with pytest.raises(ValueError):
        require_tp(half)
    # sum K^dag K = I/4, defect = |I/4 - I| max entry = 0.75
    assert half.completeness_defect() == pytest.approx(0.75, abs=1e-14)


def test_apply_channel_unitary():
    rng = RngState(60)
    u = random_unitary(3, rng.child(0))
    rho = random_density(3, 3, rng.child(1))
    out = apply_channel(KrausMap([u]), rho)
    assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-13)
    assert np.trace(out) == pytest.approx(1.0, abs=1e-13)


def test_apply_linear_general_operand():
    rng = RngState(61)
    ks = random_cptp(2, 3, rng.child(0))
    phi = KrausMap(ks)
    x = random_matrix(2, 2, rng.child(1))
    expected = sum(k @ x @ k.conj().T for k in ks)
    assert np.allclose(apply_linear(phi, x), expected, atol=1e-13)


def test_adjoint_channel_duality():
    # Tr[A Phi(B)] = Tr[Phi^*(A) B] for all A, B
    rng = RngState(62)
    phi = KrausMap(random_cptp(3, 2, rng.child(0)))
    star = adjoint_channel(phi)
    a = random_matrix(3, 3, rng.child(1))
    b = random_matrix(3, 3, rng.child(2))
    lhs = np.trace(a @ apply_linear(phi, b))
    rhs = np.trace(apply_linear(star, a) @ b)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # adjoint of a TP map is unital
    ident = apply_linear(star, np.eye(3))
    assert np.allclose(ident, np.eye(3), atol=1e-12)


def test_dephase_kills_off_diagonal():
    rng = RngState(63)
    rho = random_density(4, 4, rng)
    out = dephase(rho)
    assert np.allclose(out, np.diag(np.diag(rho)))
    # exact zeros off the diagonal, not merely small
    assert out[0, 1] == 0.0


def test_dephase_via_z_matches_projection():
    rng = RngState(64)
    for d in range(2, 9):
        rho = random_density(d, d, rng.child(d))
        direct = dephase(rho)
        averaged = dephase_via_z(rho)
        assert np.allclose(direct, averaged, atol=1e-13)


def test_povm_validation():
    half = np.eye(2) / 2
    Povm([half, half])
    with pytest.raises(ValueError):
        Povm([half])  # does not resolve the identity
    with pytest.raises(ValueError):
        Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # negative effect
    with pytest.raises(ValueError, match=r"^expected a stack of matrices, got shape \(2, 2\)$"):
        Povm(np.eye(2))  # one matrix, not a list of effects


def test_povm_names_its_first_defective_effect():
    # one stacked check, the errors of a loop: each effect's own class and
    # message, the first effect in order winning, ragged shapes caught first
    basis = [np.diag(e).astype(complex) for e in np.eye(3)]
    shift = np.diag([0.0, 0.5, 0.0])
    not_hermitian = np.array([[0.0, 1e-6, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for j in range(3):
        k = (j + 1) % 3
        not_psd = list(basis)
        not_psd[j] = basis[j] - np.diag(np.roll([0.0, 0.5, 0.0], j))
        not_psd[k] = basis[k] + np.diag(np.roll([0.0, 0.5, 0.0], j))
        not_herm = list(basis)
        not_herm[j] = basis[j] + not_hermitian
        for bad in (not_psd, not_herm):
            with pytest.raises(ValueError) as want:
                psd_eig(bad[j])
            with pytest.raises(ValueError) as got:
                Povm(bad)
            assert type(got.value) is ValueError
            assert str(got.value) == str(want.value), j
        ragged = list(basis)
        ragged[j] = np.eye(2)
        with pytest.raises(ValueError, match="^effect shapes differ$"):
            Povm(ragged)
    # a non-Hermitian effect after a non-PSD one: the non-PSD one's message
    bad = [basis[0] - shift, basis[1] + shift, basis[2] + not_hermitian]
    with pytest.raises(ValueError, match=r"^matrix is not PSD \(min eigenvalue -5.000e-01\)$"):
        Povm(bad)
    with pytest.raises(ValueError, match=r"^effects do not sum to the identity \(defect 5.000e-01\)$"):
        Povm([basis[0], basis[1], basis[2] + shift])
    with pytest.raises(ValueError, match="^need at least one effect$"):
        Povm([])


def test_povm_channel_roots_come_from_the_validating_decomposition(monkeypatch):
    # each effect is decomposed once, and all four in one stacked eigh
    effects = random_povm(3, 4, RngState(69))
    calls = {"eigh": 0, "eigvalsh": 0}
    matrices = dict(calls)
    for name in calls:
        def counted(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            matrices[_name] += math.prod(np.shape(a)[:-2])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    povm_channel(Povm(effects))
    assert matrices == {"eigh": 4, "eigvalsh": 0}
    assert calls == {"eigh": 1, "eigvalsh": 0}


def test_povm_channel_outputs_exact_diagonal():
    rng = RngState(65)
    povm = Povm(random_povm(3, 4, rng.child(0)))
    phi = povm_channel(povm)
    assert phi.d_in == 3 and phi.d_out == 4
    require_tp(phi)
    rho = random_density(3, 3, rng.child(1))
    out = apply_channel(phi, rho)
    # diagonal entries are the Born probabilities Tr(M_a rho)
    probs = [np.trace(m @ rho).real for m in povm.effects]
    assert np.allclose(np.diag(out).real, probs, atol=1e-12)
    off = out - np.diag(np.diag(out))
    assert np.all(off == 0)  # exactly zero, not just small


def test_tensor_channel_factorizes():
    rng = RngState(67)
    phi = KrausMap(random_cptp(2, 2, rng.child(0)))
    psi = KrausMap(random_cptp(3, 2, rng.child(1)))
    joint = tensor_channel(phi, psi)
    assert joint.d_in == 6
    a = random_density(2, 2, rng.child(2))
    b = random_density(3, 3, rng.child(3))
    out = apply_channel(joint, tensor(a, b))
    expected = tensor(apply_channel(phi, a), apply_channel(psi, b))
    assert np.allclose(out, expected, atol=1e-12)


def test_tensor_channel_stack_is_the_kron_list():
    rng = RngState(74)
    phi = KrausMap(random_cptp(3, 2, rng.child(0)))
    psi = KrausMap(random_cptp(2, 3, rng.child(1)))
    joint = tensor_channel(phi, psi)
    krons = [np.kron(k, l) for k in phi.kraus_ops for l in psi.kraus_ops]
    assert joint.kraus_ops.shape == (6, 6, 6)
    # the broadcast product multiplies the same pairs as np.kron, bit for bit
    assert np.array_equal(joint.kraus_ops, krons)


def test_trace_out_channel_matches_partial_trace():
    rng = RngState(68)
    cases = [((2, 3, 2), (0,)), ((2, 3, 2), (1,)), ((2, 3, 2), (0, 2)),
             ((2, 3, 2), (1, 2)), ((3, 3), (0,)), ((3, 3), (1,))]
    # every keep subset of three and four factors of unequal dimensions
    cases += [(dims, keep) for dims in ((2, 3, 4), (3, 2, 4, 2)) for r in range(len(dims) + 1)
              for keep in itertools.combinations(range(len(dims)), r)]
    for i, (dims, keep) in enumerate(cases):
        rho = random_density(math.prod(dims), math.prod(dims), rng.child(i))
        phi = trace_out_channel(dims, keep)
        require_tp(phi)
        out = apply_channel(phi, rho)
        want = partial_trace(rho, dims, keep)
        if len(dims) - len(keep) == 1:
            # one traced factor: both add the same terms in the same order
            assert np.array_equal(out, want)
        else:
            # both sum the traced labels in one sequence, in orders that
            # may round differently
            assert np.allclose(out, want, rtol=0.0, atol=1e-15), (dims, keep)


@pytest.mark.parametrize("dims, keep", [((), ()), ((0, 2), (0,)), ((2, -1), (0,))])
@pytest.mark.parametrize("reduce", [lambda dims, keep: partial_trace(np.eye(2), dims, keep),
                                    trace_out_channel], ids=["partial_trace", "trace_out_channel"])
def test_trace_out_channel_refuses_what_partial_trace_refuses(reduce, dims, keep):
    with pytest.raises(ValueError, match="factor dimensions must be positive"):
        reduce(dims, keep)


def test_trace_out_channel_memory_stays_small():
    # tracing out one factor of 16 x 16: the Kraus stack is 16 x 16 x 256
    # complex (1 MB); a transfer matrix would need 256 x 65536 (268 MB)
    rho = random_density(256, 4, RngState(75))
    tracemalloc.start()
    try:
        out = apply_channel(trace_out_channel((16, 16), (0,)), rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert np.allclose(out, partial_trace(rho, (16, 16), (0,)), rtol=0.0, atol=1e-15)


def test_ancilla_representation_roundtrip():
    rng = RngState(69)
    for d, n in [(2, 2), (3, 3), (2, 4)]:
        phi = KrausMap(random_cptp(d, n, rng.child(10 * d + n)))
        rep = ancilla_representation(phi)
        u = rep.unitary
        assert u.shape == (d * rep.anc_dim, d * rep.anc_dim)
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-10)
        rho = random_density(d, d, rng.child(1000 + 10 * d + n))
        joint = apply_ancilla(rep, rho)
        # the isometry columns give U (rho (x) |0><0|) U^dag without the big products
        anc = np.zeros((rep.anc_dim, rep.anc_dim))
        anc[0, 0] = 1.0
        full = u @ np.kron(rho, anc) @ u.conj().T
        assert np.allclose(joint, full, rtol=0.0, atol=1e-15)
        assert np.array_equal(joint, joint.conj().T)
        via_dilation = partial_trace(joint, (d, rep.anc_dim), keep=(0,))
        direct = apply_channel(phi, rho)
        assert np.allclose(via_dilation, direct, atol=1e-10)


def test_ancilla_representation_deterministic():
    rng = RngState(70)
    phi = KrausMap(random_cptp(2, 3, rng))
    u1 = ancilla_representation(phi).unitary
    u2 = ancilla_representation(phi).unitary
    assert np.array_equal(u1, u2)


def test_purify_reduces_to_input():
    rng = RngState(71)
    for d in (2, 3, 5):
        rho = random_density(d, d, rng.child(d))
        psi = purify(rho)
        # full-rank input: ancilla dimension equals d
        assert psi.shape == (d * d,)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        full = np.outer(psi, psi.conj())
        back = partial_trace(full, (d, d), keep=(0,))
        assert np.allclose(back, rho, atol=1e-10)


def test_purify_pure_state_needs_no_ancilla():
    # a pure state purifies with a one-dimensional ancilla
    rho = np.diag([1.0, 0.0])
    psi = purify(rho)
    assert psi.shape == (2,)
    assert abs(psi[0]) == pytest.approx(1.0, abs=1e-12)


def test_purification_entropy_matches():
    # both reductions of a purification carry the same spectrum
    rng = RngState(72)
    d = 4
    rho = random_density(d, 3, rng)
    psi = purify(rho)
    r = psi.size // d
    assert r == 3  # ancilla tracks the rank
    full = np.outer(psi, psi.conj())
    anc = partial_trace(full, (d, r), keep=(1,))
    assert von_neumann_entropy(anc) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-10
    )


def test_stinespring_entropy_exchange():
    # applying a channel through its dilation and tracing the system out
    # gives a valid state on the environment
    rng = RngState(73)
    phi = KrausMap(random_cptp(2, 2, rng.child(0)))
    rep = ancilla_representation(phi)
    rho = random_density(2, 2, rng.child(1))
    r = rep.anc_dim
    joint = tensor(rho, np.outer(rep.anc_state, rep.anc_state.conj()))
    evolved = rep.unitary @ joint @ rep.unitary.conj().T
    env = partial_trace(evolved, (2, r), keep=(1,))
    assert np.trace(env).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(env).min() > -1e-12
