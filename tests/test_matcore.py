import itertools
import json
import math

import numpy as np
import pytest

from entropion import (
    KernelObstruction,
    NonConvergence,
    RngState,
    as_density,
    as_hermitian,
    as_matrix,
    as_psd,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    partial_trace,
    partial_trace_pure,
    random_density,
    random_matrix,
    random_unit_vector,
    random_unitary,
    read_matrix,
    tensor,
    write_matrix,
)
from entropion.matcore import max_abs, zero_band


def _rand_herm(d, rng):
    g = random_matrix(d, d, rng)
    return (g + g.conj().T) / 2


def test_as_matrix_coerces_and_validates():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)
    # rectangular is fine (Kraus operators may change dimension)
    assert as_matrix([[1, 2, 3], [4, 5, 6]]).shape == (2, 3)
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])  # not 2-d
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_as_hermitian_accepts_roundoff_rejects_structure():
    m = np.array([[1.0, 1e-14 + 1j * 1e-14], [0, 2.0]])
    h = as_hermitian(m)
    assert np.allclose(h, h.conj().T)
    with pytest.raises(ValueError):
        as_hermitian([[0, 1], [0, 0]])


def test_as_hermitian_output_bits():
    rng = RngState(21)
    for d in (1, 2, 3, 9):
        a = random_matrix(d, d, rng.child(d))
        a = a + a.conj().T + 1e-14 * random_matrix(d, d, rng.child(d + 100))
        want = (a + a.conj().T) / 2
        got = as_hermitian(a)
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert as_hermitian(np.zeros((0, 0))).shape == (0, 0)
    assert np.array_equal(as_hermitian([[1, 2], [2, 3]]), [[1, 2], [2, 3]])


@pytest.mark.parametrize("m, message", [
    ([1.0, 2.0], "expected a 2-d matrix, got shape (2,)"),
    (np.full((2, 2, 2), np.nan), "expected a 2-d matrix, got shape (2, 2, 2)"),
    ([[np.inf, 0.0], [0.0, 1.0]], "matrix entries must be finite"),
    ([[0.0, complex(0.0, np.nan)], [0.0, 1.0]], "matrix entries must be finite"),
    ([[1.0, np.nan, 0.0]], "matrix entries must be finite"),
    ([[1.0, 2.0, 0.0]], "expected a square matrix, got shape (1, 3)"),
    # |z| overflows to inf, but every entry is finite
    ([[1.3e308 + 1.3e308j, 0.0]], "expected a square matrix, got shape (1, 2)"),
    ([[0.0, 1.0], [0.0, 0.0]], "matrix is not Hermitian (defect 1.000e+00)"),
    ([[1.0, 1e-9], [0.0, 1.0]], "matrix is not Hermitian (defect 1.000e-09)"),
    # the defect is measured (and reported) on a / 4, where no modulus overflows
    ([[0.0, 1.3e308 + 1.3e308j], [0.0, 0.0]], "matrix is not Hermitian (defect 4.596e+307)"),
])
def test_as_hermitian_errors_in_order(m, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
        as_hermitian(m)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_as_hermitian_near_the_float_limit():
    # |z| overflows for these finite entries, and so would a + a^dag
    big = np.array([[1e308, 1.3e308 + 1.3e308j], [1.3e308 - 1.3e308j, -1e308]])
    with np.errstate(over="ignore"):
        h = as_hermitian(big)
    assert np.array_equal(h, big)


def test_as_hermitian_keeps_finite_entries_whose_sum_overflows():
    # every modulus is finite here, but a + a^dag is not: 2^1023 + 2^1023
    big = 2.0 ** 1023 * np.array([[1.5, 0.3], [0.3, 1.0]]) / 1.5
    h = as_hermitian(big)  # a RuntimeWarning is an error in this test suite
    assert np.array_equal(h.view(np.uint64), big.astype(complex).view(np.uint64))


def test_as_psd_and_density():
    as_psd([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        as_psd([[1, 0], [0, -0.5]])
    as_density([[0.5, 0], [0, 0.5]])
    with pytest.raises(ValueError):
        as_density([[1.0, 0], [0, 0.5]])  # trace 1.5


def test_matrix_function_known_values():
    # exp(0) = I
    z = np.zeros((3, 3))
    assert np.allclose(matrix_function(z, np.exp), np.eye(3))
    # -log of the maximally mixed qubit is (ln 2) I
    half = np.eye(2) / 2
    out = matrix_function(half, lambda x: -np.log(x))
    assert np.allclose(out, np.log(2) * np.eye(2))
    # square of the sign function is the identity on the support
    h = np.diag([2.0, -3.0, 1.0])
    s = matrix_function(h, np.sign)
    assert np.allclose(s @ s, np.eye(3))


def test_matrix_function_kernel_policy():
    p = np.diag([1.0, 0.0])
    # the zero eigenvalue goes through f like any other and fails here
    with pytest.raises(ValueError):
        matrix_function(p, lambda x: 1.0 / x)
    # eigenvalues inside the relative band snap to exact zero first
    tiny = np.diag([1.0, 1e-15])
    with pytest.raises(ValueError):
        matrix_function(tiny, lambda x: 1.0 / x)
    assert np.array_equal(matrix_function(tiny, lambda x: x), np.diag([1.0, 0.0]))


def test_matrix_function_commutes_with_conjugation():
    rng = RngState(17)
    h = _rand_herm(4, rng)
    u = random_unitary(4, rng.child(1))
    lhs = matrix_function(u @ h @ u.conj().T, np.exp)
    rhs = u @ matrix_function(h, np.exp) @ u.conj().T
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_zero_band_scale():
    assert zero_band(np.array([1.0, 2.0])) == pytest.approx(2e-12)
    assert zero_band(np.array([0.0, 0.0])) >= 0


def test_tensor_and_partial_trace_inverse():
    rng = RngState(5)
    a = random_density(2, 2, rng.child(0))
    b = random_density(3, 3, rng.child(1))
    ab = tensor(a, b)
    assert ab.shape == (6, 6)
    assert np.allclose(partial_trace(ab, (2, 3), keep=(0,)), a, atol=1e-13)
    assert np.allclose(partial_trace(ab, (2, 3), keep=(1,)), b, atol=1e-13)
    assert partial_trace(ab, (2, 3), keep=(0, 1)).shape == (6, 6)


# three and four factors of unequal dimensions, so a misplaced factor shows
UNEQUAL_DIMS = [(2, 3, 4), (3, 2, 4, 2)]


def _keep_subsets(k):
    return [keep for r in range(k + 1) for keep in itertools.combinations(range(k), r)]


def _summed_trace(rho, dims, keep):
    """partial_trace by einsum: every traced factor shares its row and column label."""
    k = len(dims)
    rows = [chr(97 + i) for i in range(k)]
    cols = [chr(97 + k + i) if i in keep else rows[i] for i in range(k)]
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    d_keep = math.prod(dims[i] for i in keep)
    return np.einsum("".join(rows + cols) + "->" + out, rho.reshape(dims + dims)).reshape(d_keep, d_keep)


def test_partial_trace_three_factors():
    rng = RngState(9)
    rho = random_density(12, 12, rng)
    dims = (2, 3, 2)
    # tracing in two stages agrees with tracing at once
    ab = partial_trace(rho, dims, keep=(0, 1))
    a1 = partial_trace(ab, (2, 3), keep=(0,))
    a2 = partial_trace(rho, dims, keep=(0,))
    assert np.allclose(a1, a2, atol=1e-13)
    assert np.trace(a2) == pytest.approx(1.0)
    # every keep subset, the full trace included, against a label-by-label sum
    for n, dims in enumerate(UNEQUAL_DIMS):
        rho = random_density(math.prod(dims), math.prod(dims), rng.child(n))
        for keep in _keep_subsets(len(dims)):
            got = partial_trace(rho, dims, keep)
            assert got.flags.c_contiguous
            assert max_abs(got - _summed_trace(rho, dims, keep)) <= 1e-15, (dims, keep)
            if len(keep) < len(dims):
                # tracing the last traced factor alone first changes nothing
                last = max(set(range(len(dims))) - set(keep))
                rest = [d for i, d in enumerate(dims) if i != last]
                kept = [i - (i > last) for i in keep]
                stage = partial_trace(partial_trace(rho, dims, [i for i in range(len(dims)) if i != last]),
                                      rest, kept)
                assert np.allclose(stage, got, rtol=0.0, atol=1e-15), (dims, keep)


def test_partial_trace_pure_matches_projector():
    rng = RngState(71)
    for n, dims in enumerate([(2, 3), (2, 3, 2), (2, 2, 3, 5), *UNEQUAL_DIMS]):
        psi = random_unit_vector(math.prod(dims), rng.child(n))
        proj = np.outer(psi, psi.conj())
        for keep in _keep_subsets(len(dims)):
            want = partial_trace(proj, dims, keep)
            got = partial_trace_pure(psi, dims, keep)
            assert got.shape == want.shape
            assert max_abs(got - want) <= 1e-13, (dims, keep)


def test_partial_trace_pure_rejects_bad_input():
    psi = np.ones(6, dtype=complex) / math.sqrt(6)
    for dims, keep in [((2, 2), (0,)), ((2, 3), (0, 0)), ((2, 3), (2,)), ((2, 3), (-1,))]:
        with pytest.raises(ValueError):
            partial_trace_pure(psi, dims, keep)
    for bad in (np.nan, np.inf):
        v = psi.copy()
        v[2] = bad
        with pytest.raises(ValueError):
            partial_trace_pure(v, (2, 3), (0,))
    with pytest.raises(ValueError, match=r"^expected a state vector, got shape \(\)$"):
        partial_trace_pure(np.array(1.0), (1,), (0,))
    # a 2-d input is a stack of vectors, each of the length dims multiply to
    with pytest.raises(ValueError, match=r"^factor dimensions \[2, 2\] do not multiply to 2$"):
        partial_trace_pure(np.eye(2), (2, 2), (0,))
    rhos = partial_trace_pure(np.eye(4), (2, 2), (0,))
    assert rhos.shape == (4, 2, 2)
    for row, rho in zip(np.eye(4), rhos):
        assert np.array_equal(rho, partial_trace_pure(row, (2, 2), (0,)))


def test_json_roundtrip(tmp_path):
    rng = RngState(33)
    m = random_matrix(3, 3, rng)
    obj = matrix_to_json(m)
    assert set(obj) == {"d_rows", "d_cols", "re", "im"}
    assert obj["d_rows"] == 3
    m2 = matrix_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(m, m2)

    path = tmp_path / "m.json"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises((ValueError, KeyError, TypeError)):
        matrix_from_json({"d_rows": 2, "d_cols": 2, "re": [1, 2, 3]})
    with pytest.raises((ValueError, KeyError, TypeError)):
        matrix_from_json({"rows": 2})


def test_error_types_exist():
    assert issubclass(NonConvergence, RuntimeError)
    assert issubclass(KernelObstruction, ValueError)
    assert max_abs(np.array([[1, -4.5], [2, 0]])) == 4.5


def test_stacked_linalg_equals_looped_bit_for_bit():
    # the stacks of ensembles, POVMs and convex pairs rely on numpy's
    # stacked eigh / eigvalsh / matmul giving each matrix the bits of its
    # own call; another LAPACK or BLAS build could break that, and the
    # golden gate's margins would then move with it
    rng = RngState(31)
    for d in range(1, 13):
        for n in range(1, 6):
            g = random_matrix(n * d, d, rng.child(100 * d + n)).reshape(n, d, d)
            h = g @ g.conj().swapaxes(-1, -2)
            h = (h + h.conj().swapaxes(-1, -2)) / 2
            w, (lam, vec) = np.linalg.eigvalsh(h), np.linalg.eigh(h)
            prod = g @ h
            for j in range(n):
                assert np.linalg.eigvalsh(h[j]).tobytes() == w[j].tobytes(), (d, n, j)
                lam_j, vec_j = np.linalg.eigh(h[j])
                assert lam_j.tobytes() == lam[j].tobytes(), (d, n, j)
                assert vec_j.tobytes() == vec[j].tobytes(), (d, n, j)
                assert (g[j] @ h[j]).tobytes() == prod[j].tobytes(), (d, n, j)
