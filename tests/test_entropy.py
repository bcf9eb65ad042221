import math
import time

import numpy as np
import pytest

from entropion import entropy as entropy_mod
from entropion.matcore import _psd
from entropion import (
    RngState,
    SuperOpSpec,
    bures_distance,
    conditional_entropy,
    kernel_k,
    partial_trace,
    random_density,
    random_matrix,
    random_unit_vector,
    random_unitary,
    relative_entropy,
    relative_entropy_integral,
    relative_entropy_integral_steps,
    relative_entropy_spectral_kernel,
    scalar_log_identity,
    tensor,
    von_neumann_entropy,
)

ALL_ROUTES = (
    relative_entropy,
    relative_entropy_integral,
    relative_entropy_spectral_kernel,
)

# Fixed non-commuting qubit pair used by several oracles below.  Reference
# values were computed with 40-digit interval arithmetic, independently of
# this package, then rounded to double precision.
P_QUBIT = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
Q_QUBIT = np.array([[0.5, -0.15j], [0.15j, 0.5]])
H_QUBIT = 0.11058206830213947
BURES_QUBIT = 0.23439753350094890


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.array([[1.0]])) == 0
    # pure state
    assert von_neumann_entropy(np.diag([1.0, 0, 0])) == pytest.approx(0, abs=1e-14)
    # maximally mixed
    for d in (2, 3, 7):
        assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(
            math.log(d), abs=1e-13
        )
    rho = np.diag([0.2, 0.3, 0.5])
    expected = -(0.2 * math.log(0.2) + 0.3 * math.log(0.3) + 0.5 * math.log(0.5))
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-14)


def test_entropy_unitary_invariance():
    rng = RngState(40)
    rho = random_density(4, 4, rng.child(0))
    u = random_unitary(4, rng.child(1))
    assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
        von_neumann_entropy(rho), abs=1e-12
    )


def test_relative_entropy_one_by_one():
    # scalars: H([p],[q]) = p ln(p/q)
    assert relative_entropy(np.array([[2.0]]), np.array([[1.0]])) == pytest.approx(
        2 * math.log(2), abs=1e-14
    )
    for route in ALL_ROUTES:
        assert route(np.array([[2.0]]), np.array([[1.0]])) == pytest.approx(
            1.3862943611198906, abs=1e-12
        )


def test_relative_entropy_commuting_oracle():
    p = np.diag([0.3, 0.7])
    q = np.diag([0.6, 0.4])
    expected = 0.18378689738681229  # 0.3 ln(1/2) + 0.7 ln(7/4)
    for route in ALL_ROUTES:
        assert route(p, q) == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_qubit_oracle():
    for route in ALL_ROUTES:
        assert route(P_QUBIT, Q_QUBIT) == pytest.approx(H_QUBIT, abs=1e-12)


def test_relative_entropy_zero_iff_equal():
    rng = RngState(44)
    rho = random_density(3, 3, rng)
    for route in ALL_ROUTES:
        assert route(rho, rho) == pytest.approx(0, abs=1e-12)


def test_relative_entropy_nonnegative_on_states():
    rng = RngState(45)
    for i in range(50):
        d = 2 + i % 3
        p = random_density(d, d, rng.child(2 * i))
        q = random_density(d, d, rng.child(2 * i + 1))
        assert relative_entropy(p, q) > -1e-12


def test_routes_agree_on_random_pairs():
    rng = RngState(46)
    for i in range(25):
        d = 2 + i % 4
        p = random_density(d, d, rng.child(2 * i))
        q = random_density(d, d, rng.child(2 * i + 1))
        vals = [route(p, q) for route in ALL_ROUTES]
        assert max(vals) - min(vals) < 1e-10


def test_support_violation_gives_infinity():
    # Q is rank-1, P has mass outside it
    q = np.diag([1.0, 0.0])
    p = np.diag([0.5, 0.5])
    for route in ALL_ROUTES:
        assert route(p, q) == math.inf
    assert all(value == math.inf for _, value in relative_entropy_integral_steps(p, q))
    # the reverse direction is finite: supp(Q') inside supp(P')
    assert relative_entropy(q, p) == pytest.approx(math.log(2), abs=1e-13)


def test_relative_entropy_scaling_identity():
    # H(cP, cQ) = c H(P, Q) for c > 0
    rng = RngState(47)
    p = random_density(3, 3, rng.child(0))
    q = random_density(3, 3, rng.child(1))
    base = relative_entropy(p, q)
    for c in (0.1, 2.0, 17.0):
        assert relative_entropy(c * p, c * q) == pytest.approx(c * base, rel=1e-12)


def test_additivity_over_tensor_products():
    rng = RngState(48)
    p1 = random_density(2, 2, rng.child(0))
    q1 = random_density(2, 2, rng.child(1))
    p2 = random_density(3, 3, rng.child(2))
    q2 = random_density(3, 3, rng.child(3))
    lhs = relative_entropy(tensor(p1, p2), tensor(q1, q2))
    rhs = relative_entropy(p1, q1) + relative_entropy(p2, q2)
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_kernel_k_frozen_values():
    # closed form k(a,b) = integral of 1/((a+tb)(1+t)^2) over t in [0,inf)
    assert kernel_k(1.0, 1.0) == 0.5
    assert kernel_k(2.0, 2.0) == 0.25
    assert kernel_k(1.0, 2.0) == pytest.approx(0.38629436111989062, abs=1e-15)
    assert kernel_k(0.7, 2.3) == pytest.approx(0.44376693508196241, abs=1e-15)
    assert kernel_k(3.0, 0.001) == pytest.approx(0.33255429173649744, abs=1e-15)
    # domain is strictly positive arguments
    with pytest.raises(ValueError):
        kernel_k(5.0, 0.0)
    with pytest.raises(ValueError):
        kernel_k(0.0, 5.0)


def test_kernel_k_series_band():
    # near-diagonal values go through the series expansion; reference values
    # from direct high-precision quadrature
    assert kernel_k(1.0, 1.000003) == pytest.approx(0.49999950000075000, abs=1e-15)
    assert kernel_k(5.0, 4.99999) == pytest.approx(0.10000006666673333, abs=1e-15)


def test_kernel_k_continuity_across_switches():
    # all three evaluation branches must sit on the same smooth curve; the
    # truncated Taylor series around b = a is the common reference
    def series(a, delta):
        return (
            0.5
            - delta / 6
            + delta ** 2 / 12
            - delta ** 3 / 20
            + delta ** 4 / 30
            - delta ** 5 / 42
        ) / a

    for a in (0.5, 1.0, 3.0):
        for eps in (1e-9, 5e-9, 2e-8, 1e-6, 9e-6):
            # inside the constant band the value is pinned to 1/(2a), which
            # differs from the true curve by ~eps/6 in relative terms
            tol = max(1e-10, eps)
            assert kernel_k(a, a * (1 + eps)) == pytest.approx(
                series(a, eps), rel=tol
            )
            assert kernel_k(a, a * (1 - eps)) == pytest.approx(
                series(a, -eps), rel=tol
            )
        for eps in (1e-4, 1e-3):
            # generic branch just past the switch; its cancellation noise is
            # ~1e-16/eps^2 in relative terms
            assert kernel_k(a, a * (1 + eps)) == pytest.approx(
                series(a, eps), rel=1e-7
            )


def test_kernel_k_just_above_the_series_switch():
    # log(b / a) rounded b / a first and cost ~1e-6 relative here; the
    # reference is the series sum_n (-delta)^n / ((n + 1)(n + 2)) / a
    a = 1e-3
    for delta in (1.2e-5, -1.2e-5, 3e-5):
        b = a * (1.0 + delta)
        exact = (b - a) / a  # b - a is exact, so this is delta as stored
        ref = math.fsum((-exact) ** n / ((n + 1) * (n + 2)) for n in range(12)) / a
        assert kernel_k(a, b) == pytest.approx(ref, rel=1e-10, abs=0.0)
    # far below a, ln(b / a) must not be read off log1p((b - a) / a) = log1p(-1)
    assert kernel_k(1.0, 1e-20) == pytest.approx(1.0, rel=1e-15)


def _count_nodes(monkeypatch):
    """Records (L, nodes evaluated) for each trapezoid pass."""
    passes = []
    trapezoid = entropy_mod._trapezoid

    def counted(g, half, h):
        nodes = []

        def counted_g(u, jac):
            nodes.append(u.size)
            return g(u, jac)

        total = trapezoid(counted_g, half, h)
        passes.append((half, sum(nodes)))
        return total

    monkeypatch.setattr(entropy_mod, "_trapezoid", counted)
    return passes


def test_integral_route_time_is_bounded_in_conditioning(monkeypatch):
    # p = diag(1-e, e), q = diag(e, 1-e): the terms turn over at t = e^2
    # and 1/e^2, far outside any fixed grid in t
    passes = _count_nodes(monkeypatch)
    used = {}
    for k in range(2, 13):
        eps = 10.0 ** -k
        p = np.diag([1.0 - eps, eps])
        q = np.diag([eps, 1.0 - eps])
        del passes[:]
        start = time.perf_counter()
        h = relative_entropy_integral(p, q)
        assert time.perf_counter() - start < 1.0
        assert h == pytest.approx(relative_entropy(p, q), abs=1e-8)
        assert len(passes) == 1
        used[k] = passes[0]
    # C = (1 - 2 eps)^2 (1/eps + 1/(1 - eps)), so the cut L = ln(C / tau)
    # widens by ln 10 per decade, plus ln (1 - 2 eps)^-2 = 0.04 at eps =
    # 1e-2; a pass costs 2 ceil(L (L + ln 4) / pi^2) + 1 nodes
    (l_2, nodes_2), (l_12, nodes_12) = used[2], used[12]
    l_max = l_2 + 10 * math.log(10.0) + 0.05
    assert l_12 <= l_max
    growth = 2 * (l_max * (l_max + math.log(4.0)) - l_2 * (l_2 + math.log(4.0))) / math.pi ** 2
    assert 0 < nodes_12 <= nodes_2 + growth + 2


def _trapezoid_bound(c: float, h: float) -> float:
    """The a priori error of one trapezoid pass at step h on an integrand
    with tail constant C: discretisation plus both cut tails."""
    return 4.0 * c / math.expm1(math.pi ** 2 / h) + 2.0 * entropy_mod._TAU


def _with_floor(d: int, floor: float, rng: RngState) -> np.ndarray:
    """PSD with eigenvalues floor, 1 and d - 2 log-uniform between them,
    in a random eigenbasis."""
    u = random_unitary(d, rng)
    lam = np.array([floor, 1.0] + [floor ** rng.uniform() for _ in range(d - 2)])
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


def _conditioned_pairs():
    """(P, Q) pairs with eigenvalue floors 1e-1 to 1e-8."""
    # the 1x1 pair where panel doubling stopped 1.27e-9 short
    yield np.eye(1), np.array([[4.204897886709956]])
    for k in range(1, 9):
        eps = 10.0 ** -k
        yield np.diag([1.0 - eps, eps]), np.diag([eps, 1.0 - eps])
    rng = RngState(16)
    for d in range(2, 9):
        for k in range(1, 9):
            draw = rng.child(10 * d + k)
            yield tuple(_with_floor(d, 10.0 ** -k, draw.child(i)) for i in range(2))


def _tail_constant_and_cut(p, q) -> tuple[float, float]:
    """C and L of the integral route on (P, Q); the route's data are those
    of (P, Q) / scale, so C is scale times theirs."""
    data = entropy_mod._IntegralData(p, q)
    return data.scale * float(np.sum(data.weights / data.q_eigs)), data.half_width


def test_integral_route_meets_its_a_priori_bound():
    for p, q in _conditioned_pairs():
        (c, half), h = _tail_constant_and_cut(p, q), relative_entropy(p, q)
        gap = abs(relative_entropy_integral(p, q) - h)
        assert gap <= _trapezoid_bound(c, entropy_mod._step(half)) + 1e-14 * max(1.0, h), (p, q, gap)


def test_every_step_of_the_study_meets_its_a_priori_bound():
    # the tails beyond the cut hold at most tau at any step, so each row of
    # the study is bounded by the discretisation error at its own step
    for p, q in _conditioned_pairs():
        (c, half), h = _tail_constant_and_cut(p, q), relative_entropy(p, q)
        rows = relative_entropy_integral_steps(p, q)
        steps = [step for step, _ in rows]
        assert steps[-1] == entropy_mod._step(half) and 2.0 * steps[0] > half
        assert all(a == 2.0 * b for a, b in zip(steps, steps[1:]))
        assert rows[-1][1] == relative_entropy_integral(p, q)
        for step, value in rows:
            assert abs(value - h) <= _trapezoid_bound(c, step) + 1e-14 * max(1.0, h), (p, q, step)


def test_integral_route_equal_operands():
    # every weight is zero, so the tail bound C is zero too
    rng = RngState(62)
    for p in (np.eye(3) / 3, 1.7 * random_density(4, 4, rng), random_density(4, 2, rng.child(1))):
        assert relative_entropy_integral(p, p) == pytest.approx(0.0, abs=1e-14)


def test_integral_route_singular_p():
    # p_n = 0 terms decay only like e^{-|u|} on the right, the slowest the
    # tail bound allows; the kernel route sums them with the rest as
    # k(q, 0) = 1/q
    rng = RngState(63)
    u = random_unitary(4, rng.child(0))
    v = random_unitary(4, rng.child(1))
    q = (v * np.array([1e-9, 0.2, 0.3, 0.5])) @ v.conj().T
    for route in (relative_entropy_integral, relative_entropy_spectral_kernel):
        for p_eigs in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.6, 0.4], [0.7, 0.0, 0.3, 0.0]):
            p = (u * np.array(p_eigs)) @ u.conj().T
            assert route(p, q) == pytest.approx(relative_entropy(p, q), abs=1e-9)
        # singular on both sides, supp P inside supp Q: the ker Q rows drop out
        p = np.diag([0.0, 0.0, 0.25, 0.75])
        q_sing = np.diag([0.0, 1e-10, 0.5, 0.5 - 1e-10])
        assert route(p, q_sing) == pytest.approx(relative_entropy(p, q_sing), abs=1e-10)
        assert route(np.diag([1.0, 0.0]), np.diag([1e-12, 1.0])) == pytest.approx(
            relative_entropy(np.diag([1.0, 0.0]), np.diag([1e-12, 1.0])), abs=1e-10
        )


def test_integral_and_kernel_routes_at_any_scale():
    # H(sP, sQ) = s H(P, Q): both routes run on the pair over a power of two
    # near lambda_max(Q), so no weight or eigenvalue leaves the float range
    p, q = np.diag([1.0, 2.0]), np.array([[1.5, 0.3], [0.3, 1.0]])
    h = relative_entropy_spectral_kernel(p, q)
    for s in (1e160, 2.0 ** 1000, 2.0 ** -560):
        ref = relative_entropy(s * p, s * q)
        assert relative_entropy_spectral_kernel(s * p, s * q) == pytest.approx(ref, rel=1e-12)
        assert relative_entropy_spectral_kernel(s * p, s * q) == pytest.approx(s * h, rel=1e-15)
        if s > 1.0:
            assert relative_entropy_integral(s * p, s * q) == pytest.approx(ref, rel=1e-12)
            rows = relative_entropy_integral_steps(s * p, s * q)
            assert len(rows) < 20 and all(math.isfinite(value) for _, value in rows)
    # the kernel route has no absolute cut: in range, its bits scale exactly
    for e in (-40, -1, 1, 40):
        assert relative_entropy_spectral_kernel(2.0 ** e * p, 2.0 ** e * q) == 2.0 ** e * h
    # the power of two follows the larger operand, so a P far above Q keeps
    # every weight finite too
    ref = relative_entropy(p, 1e-160 * q)
    assert relative_entropy_spectral_kernel(p, 1e-160 * q) == pytest.approx(ref, rel=1e-12)
    assert relative_entropy_integral(p, 1e-160 * q) == pytest.approx(ref, rel=1e-12)
    rows = relative_entropy_integral_steps(p, 1e-160 * q)
    assert len(rows) < 20 and rows[-1][1] == pytest.approx(ref, rel=1e-12)
    # past the normal range of P's eigenvalues, C overflows: refused, not looped on
    for route in (relative_entropy_spectral_kernel, relative_entropy_integral, relative_entropy_integral_steps):
        with pytest.raises(ValueError, match="tail bound C = inf"):
            route(p, 1e-310 * q)


def test_scalar_log_identity_fixed_points():
    for w in (0.1, 0.5, 1.0, 2.0, 10.0):
        lhs, rhs1, rhs2 = scalar_log_identity(w)
        assert lhs == pytest.approx(-math.log(w), abs=1e-14)
        assert rhs1 == pytest.approx(lhs, abs=1e-10)
        assert rhs2 == pytest.approx(lhs, abs=1e-10)


def test_scalar_log_identity_at_the_doubling_failure():
    # panel doubling took two agreeing under-resolved estimates here and
    # missed -ln w by 1.27e-9; both trapezoid passes sit at rounding level
    w = 4.204897886709956
    lhs, rhs1, rhs2 = scalar_log_identity(w)
    assert abs(rhs1 - lhs) <= 1e-13
    assert abs(rhs2 - lhs) <= 1e-13
    c1 = abs(1.0 - w) * max(1.0, 1.0 / w)
    step = entropy_mod._step(entropy_mod._half_width(c1))
    assert abs(rhs1 - lhs) <= _trapezoid_bound(c1, step) + 1e-14


def test_scalar_log_identity_time_is_bounded_in_w():
    # both integrals run on u = ln t over a range that grows like |ln w|,
    # so no w takes much longer than w = 1
    for k in range(-12, 3):
        w = 10.0 ** k
        start = time.perf_counter()
        lhs, rhs1, rhs2 = scalar_log_identity(w)
        assert time.perf_counter() - start < 0.1, w
        assert rhs1 == pytest.approx(lhs, abs=1e-8), w
        assert rhs2 == pytest.approx(lhs, abs=1e-8), w


def test_bures_distance_values():
    rng = RngState(51)
    rho = random_density(3, 3, rng)
    assert bures_distance(rho, rho) == pytest.approx(0, abs=1e-7)
    # orthogonal pure states are at the maximum distance sqrt(2)
    e0 = np.diag([1.0, 0.0])
    e1 = np.diag([0.0, 1.0])
    assert bures_distance(e0, e1) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert bures_distance(P_QUBIT, Q_QUBIT) == pytest.approx(BURES_QUBIT, abs=1e-12)


def test_bures_distance_decomposes_each_operand_once(monkeypatch):
    # one eigh of P gives sqrt(P); Q is validated by one eigvalsh, and the
    # fidelity needs only the eigenvalues of sqrt(P) Q sqrt(P)
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    bures_distance(P_QUBIT, Q_QUBIT)
    assert calls == {"eigh": 1, "eigvalsh": 2}


def _condent_via_relent(rho, d_a, d_b):
    """ln d_B - H(rho_AB, rho_A (x) I/d_B), the relative-entropy form of S(B|A)."""
    rho_a = partial_trace(rho, (d_a, d_b), keep=(0,))
    return math.log(d_b) - relative_entropy(rho, tensor(rho_a, np.eye(d_b) / d_b))


def test_conditional_entropy_product_state():
    rng = RngState(52)
    a = random_density(2, 2, rng.child(0))
    b = random_density(3, 3, rng.child(1))
    # S(AB) - S(A) collapses to S(B) on product states
    val = conditional_entropy(tensor(a, b), (2, 3))
    assert val == pytest.approx(von_neumann_entropy(b), abs=1e-10)
    assert val == pytest.approx(_condent_via_relent(tensor(a, b), 2, 3), abs=1e-9)


def test_conditional_entropy_pure_entangled_is_negative():
    # maximally entangled qubit pair: S(A|B) = -ln 2
    psi = np.zeros(4)
    psi[0] = psi[3] = 1 / math.sqrt(2)
    rho = np.outer(psi, psi)
    val = conditional_entropy(rho, (2, 2))
    assert val == pytest.approx(-math.log(2), abs=1e-10)
    assert val == pytest.approx(_condent_via_relent(rho, 2, 2), abs=1e-9)


def test_relative_entropy_via_conditional_identity():
    # S(B|A) = ln d_B - H(rho_AB, rho_A (x) I/d_B), exercised on random input
    rng = RngState(53)
    rho = random_density(6, 6, rng)
    assert conditional_entropy(rho, (2, 3)) == pytest.approx(
        _condent_via_relent(rho, 2, 3), abs=1e-9
    )


def test_validation_reads_the_one_decomposition(monkeypatch):
    # PSD validation uses the eigensolve each computation needs anyway:
    # eigenvalues for an entropy or the P side of the spectral route, a
    # full decomposition wherever eigenvectors are needed
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(fn, *args):
        calls.update(eigh=0, eigvalsh=0)
        fn(*args)
        return calls["eigh"], calls["eigvalsh"]

    rng = RngState(61)
    p = random_density(4, 4, rng.child(0))
    q = 1.5 * random_density(4, 4, rng.child(1))
    assert count(relative_entropy, p, q) == (1, 1)
    assert count(relative_entropy_integral, p, q) == (2, 0)
    assert count(relative_entropy_spectral_kernel, p, q) == (2, 0)
    assert count(von_neumann_entropy, p) == (0, 1)
    assert count(SuperOpSpec, p, q, 0.5) == (2, 0)


def test_stacked_kernels_equal_per_matrix_calls_bit_for_bit():
    # _entropy and _relent take one matrix or a stack, and each member of a
    # stack gets the bits of its own call: rank-deficient members, an
    # infinite H, and one unstacked Q against stacked P included
    rng = RngState(19)
    for d in (1, 2, 3, 5, 8):
        ps = np.stack([random_density(d, 1 + i % d, rng.child(10 * d + i)) for i in range(4)])
        qs = np.stack([random_density(d, d, rng.child(100 + 10 * d + i)) for i in range(4)])
        if d > 1:
            qs[3] = np.diag(np.eye(d)[0])  # P_3 has weight off supp Q_3
        ps, lam_p = _psd(ps, False)
        qs, spec_q = _psd(qs, True)
        avg = spec_q.__class__(spec_q.eigenvalues[0], spec_q.eigenvectors[0])
        entropies = entropy_mod._entropy(lam_p)
        stacked = entropy_mod._relent(ps, lam_p, spec_q)
        against_one = entropy_mod._relent(ps, lam_p, avg)
        assert (d == 1) or math.isinf(stacked[3])
        for j in range(4):
            p_j, lam_j = _psd(ps[j], False)
            one = entropy_mod._relent(p_j, lam_j, _psd(qs[j], True)[1])
            assert float(entropies[j]).hex() == entropy_mod._entropy(lam_j).hex(), (d, j)
            assert float(stacked[j]).hex() == one.hex(), (d, j)
            assert float(against_one[j]).hex() == entropy_mod._relent(p_j, lam_j, avg).hex(), (d, j)
