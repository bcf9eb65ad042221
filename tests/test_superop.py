import numpy as np
import pytest

from entropion import (
    KernelObstruction,
    RngState,
    SuperOpSpec,
    random_density,
    random_matrix,
    solve_resolvent,
    superop_matrix,
)


def _rand_psd(d, rng, scale=1.0):
    g = random_matrix(d, d, rng)
    return scale * (g @ g.conj().T) / d


def test_spec_validation():
    rng = RngState(4)
    p = _rand_psd(2, rng.child(0))
    SuperOpSpec(p, p, 1.0)
    with pytest.raises(ValueError):
        SuperOpSpec(p, -p, 1.0)  # right factor not PSD
    with pytest.raises(ValueError):
        SuperOpSpec(p, p, -0.5)  # negative t
    with pytest.raises(ValueError):
        SuperOpSpec(p, _rand_psd(3, rng.child(1)), 1.0)  # shape mismatch


def test_superop_matrix_diagonal_case():
    # for diagonal L, R the dense matrix is diagonal with entries l_i + t r_j
    l = np.diag([1.0, 2.0])
    r = np.diag([10.0, 20.0])
    spec = SuperOpSpec(l, r, 0.5)
    m = superop_matrix(spec)
    assert np.allclose(np.diag(m), [1 + 5, 1 + 10, 2 + 5, 2 + 10])
    assert np.allclose(m, np.diag(np.diag(m)))


def test_superop_matrix_vec_convention():
    # vec is row-major: vec(L X + t X R) = (L (x) I + t I (x) R^T) vec(X)
    rng = RngState(5)
    l = _rand_psd(3, rng.child(0))
    r = _rand_psd(3, rng.child(1))
    x = random_matrix(3, 3, rng.child(2))
    spec = SuperOpSpec(l, r, 0.7)
    direct = l @ x + 0.7 * x @ r
    via_matrix = (superop_matrix(spec) @ x.reshape(-1)).reshape(3, 3)
    assert np.allclose(direct, via_matrix, atol=1e-12)


def test_resolvent_matches_dense_solve():
    rng = RngState(31)
    for i in range(60):
        d = 2 + i % 3
        l = _rand_psd(d, rng.child(3 * i))
        r = _rand_psd(d, rng.child(3 * i + 1))
        x = random_matrix(d, d, rng.child(3 * i + 2))
        t = [0.0, 0.3, 1.0, 7.5][i % 4]
        spec = SuperOpSpec(l, r, t)
        y = solve_resolvent(spec, x)
        dense = np.linalg.solve(superop_matrix(spec), x.reshape(-1)).reshape(d, d)
        assert np.allclose(y, dense, atol=1e-9)
        # residual check: (L + t R) y == x
        assert np.allclose(l @ y + t * (y @ r), x, atol=1e-9)


def test_resolvent_self_adjoint_superoperator():
    # L_Q + t R_P is self-adjoint for the Hilbert-Schmidt inner product
    rng = RngState(77)
    q = _rand_psd(3, rng.child(0))
    p = _rand_psd(3, rng.child(1))
    spec = SuperOpSpec(q, p, 2.0)
    x = random_matrix(3, 3, rng.child(2))
    y = random_matrix(3, 3, rng.child(3))
    m = superop_matrix(spec)
    lhs = np.vdot(y.reshape(-1), m @ x.reshape(-1))
    rhs = np.vdot(m @ y.reshape(-1), x.reshape(-1))
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_symmetric_sylvester_solution_is_hermitian():
    # QY + YQ = H has a unique solution, so Y inherits H's hermiticity
    rng = RngState(78)
    q = _rand_psd(3, rng.child(0)) + 0.1 * np.eye(3)
    h = _rand_psd(3, rng.child(1))
    y = solve_resolvent(SuperOpSpec(q, q, 1.0), h)
    assert np.allclose(y, y.conj().T, atol=1e-11)


def test_resolvent_positive_definite_form():
    # Tr X^dag (L_Q + t R_P)^{-1} X > 0 for X != 0 when Q, P > 0
    rng = RngState(13)
    q = _rand_psd(2, rng.child(0)) + 0.1 * np.eye(2)
    p = _rand_psd(2, rng.child(1)) + 0.1 * np.eye(2)
    x = random_matrix(2, 2, rng.child(2))
    y = solve_resolvent(SuperOpSpec(q, p, 1.0), x)
    val = np.sum(np.conj(x) * y).real
    assert val > 0


def test_kernel_obstruction_and_pseudo_inverse():
    # joint kernel present, operand has mass there -> obstruction
    l = np.diag([0.0, 1.0])
    r = np.diag([0.0, 2.0])
    spec = SuperOpSpec(l, r, 1.0)
    x_bad = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(KernelObstruction):
        solve_resolvent(spec, x_bad)
    # operand supported off the kernel -> pseudo-inverse solve succeeds
    x_ok = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
    y = solve_resolvent(spec, x_ok)
    # denominators: (0,0)->kernel, (0,1)->0+1*2=2, (1,0)->1, (1,1)->1+2=3
    assert np.allclose(y, [[0, 0.5], [1, 1 / 3]])


def test_t_zero_reduces_to_left_inverse():
    rng = RngState(19)
    q = _rand_psd(3, rng.child(0)) + 0.2 * np.eye(3)
    x = random_matrix(3, 3, rng.child(1))
    y = solve_resolvent(SuperOpSpec(q, np.eye(3), 0.0), x)
    assert np.allclose(q @ y, x, atol=1e-10)
