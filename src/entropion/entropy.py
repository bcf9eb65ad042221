"""Entropies and three independent routes to quantum relative entropy.

Sign convention, used everywhere: H(P, Q) = Tr P (ln P - ln Q), in nats,
nonnegative for density matrices and +inf when the kernel of Q is not
contained in the kernel of P.  (Some sources print the opposite sign; this
package never does.)

The three routes:

* ``relative_entropy``         - spectral: Tr P ln P - Tr P ln Q;
* ``relative_entropy_integral``- trapezoid quadrature of the representation
      H(P, Q) = Tr(P - Q)
               + int_0^inf Tr[(Q-P) (L_Q + t R_P)^{-1} (Q-P)] (1+t)^{-2} dt
  where L/R are left/right multiplication;
* ``relative_entropy_spectral_kernel`` - the same integral done in closed
  form per eigenpair via ``kernel_k``.

The Tr(P - Q) correction makes all three total on PSD pairs with
compatible supports, not just on density matrices.

In the eigenbases of Q (rows m) and P (columns n) the integrand is
sum_k w_k / (q_k + t p_k) (1+t)^{-2}, with w_k = |(U^dag (Q-P) V)_{mn}|^2.
Each term turns over near t = q_k / p_k, so the quadrature runs in
u = ln t, where every turnover has width O(1) whatever the conditioning:

    g(u) = sum_k w_k / (q_k + e^u p_k) * e^u / (1 + e^u)^2.

Rows in ker Q are dropped, so every q_k > 0 and g(u) <= C e^{-|u|} with
C = sum_k w_k / q_k.  The route is one trapezoid pass, step h, over
u_j = j h for |j| <= n = ceil(L / h), with L = ln(C / tau), tau = 1e-16:
the nodes left out hold at most h sum_{j>n} C e^{-jh} <= tau a side, and
as g ~ C e^u on the left, the cut biases every value low by about tau.
g is analytic in |Im u| < pi.  For |Im u| <= pi/2, Re e^u >= 0 gives
|q_k + e^u p_k| >= q_k and |1 + e^u|^2 >= (1 + e^x)^2 / 2, so the integral
of |g(x + iy)| over x is at most M = 2C, and the sum over the whole line
misses the integral by at most 2M / (e^{pi^2 / h} - 1) (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
56(3), 2014, Thm 5.1).  The step h = pi^2 / (L + ln 4) makes that
4C / (4C / tau - 1), about tau.  A pass costs 2n + 1 ~ 2 L (L + ln 4) / pi^2
nodes, and L grows like ln(1 / lambda_min(Q)).  ``scalar_log_identity``'s
first integrand, (1-w)(1+t)/(w+t) (1+t)^{-2}, has the same bound with
C = |1-w| max(1, 1/w), as |1 + t| / |w + t| <= max(1, 1/w) for Re t >= 0.
``relative_entropy_integral_steps`` and the ``convergence`` command study
the same pass at steps h 2^k: each tail stays below tau at any step, so
the error follows 4C / (e^{pi^2 / step} - 1), squaring as the step halves.
The integral and kernel routes run on (P, Q) / s, s a power of two within a
factor 2 of the larger lambda_max, and scale the integral back by s
(H(sP, sQ) = s H(P, Q)), so no weight overflows; C and L are the pair's own
(L summed in logs where C / tau overflows), and both routes refuse a pair
whose C overflows (Q's eigenvalues ~1e-308 of P's).  tau is absolute: at a
scale of 1e-100 the cut alone costs the integral route a few percent of H.

Each route validates its operands on the decomposition it needs anyway
(``matcore.psd_eigvalsh`` / ``psd_eig``), so a relative entropy costs two
eigensolves and an entropy one.  One function, ``_support_split``, holds
the support rule that decides +inf: P's weight on ker Q against
``SUPPORT_MASS_TOL * max(1, Tr P)``.  All three routes read it, and no
route calls another.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .matcore import (
    Spectrum,
    _density,
    _from_spectrum,
    _per_rank,
    _psd,
    _psd_stack,
    _symmetrize,
    _worst,
    as_density,
    partial_trace,
    zero_band,
)

# Relative mass of P allowed on ker(Q) before H(P, Q) is declared +inf.
SUPPORT_MASS_TOL = 1e-10

_NODE_CHUNK = 4096  # quadrature nodes evaluated per batch, bounds memory
# Each tail of u = ln t beyond the integral route's cut holds at most _TAU.
_TAU = 1e-16


def _step(half: float) -> float:
    """The trapezoid step h = pi^2 / (L + ln 4) for the cut L = ``half``."""
    return math.pi ** 2 / (half + math.log(4.0))


def _trapezoid(g: Callable[[np.ndarray, float], np.ndarray], half: float, h: float) -> float:
    """Trapezoid rule on the line, cut at |u| = L = ``half``: the sum of
    g(u_j, h) over u_j = j h, |j| <= ceil(L / h).  ``g(u, jac)`` returns
    its integrand at the nodes u times jac."""
    n = math.ceil(half / h)
    total = 0.0
    for start in range(-n, n + 1, _NODE_CHUNK):
        u = np.arange(start, min(start + _NODE_CHUNK, n + 1)) * h
        total += float(np.sum(g(u, h)))
    return total


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum x y along the last axis: ``np.dot`` on one row, and on each row
    of a stack (rows broadcast) the same BLAS dot, as a (1, d) by (d, 1)
    product."""
    if x.ndim == 1 == y.ndim:
        return np.dot(np.ascontiguousarray(x), y)
    if x.shape[:-1] == (1,) == y.shape[:-1]:  # a stack of one row: that row's dot
        return np.dot(np.ascontiguousarray(x[0]), y[0])[None]
    return (_aligned_rows(x)[..., None, :] @ _aligned_rows(y)[..., None])[..., 0, 0]


def _aligned_rows(a: np.ndarray) -> np.ndarray:
    """``a`` with every row starting on a 16-byte boundary, as a fresh 1-d
    array does: OpenBLAS's SSE3 dot kernels round by the operands'
    alignment, so a row at an odd offset could get other bits than ``np.dot``
    gives the same row alone.  Rows of even length in a C-contiguous array
    (the package's stacks, from 16-byte aligned allocations) already are."""
    n = a.shape[-1]
    if n % 2 == 0 and a.flags.c_contiguous:
        return a
    out = np.empty((*a.shape[:-1], n + n % 2))
    out[..., :n] = a
    return out[..., :n]


def _dot_log(x: np.ndarray, y: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """sum x ln y over ``sel`` along the last axis, with ln 1 = 0 outside
    ``sel``, by `_rowdot`."""
    return _rowdot(x, np.log(np.where(sel, y, 1.0)))


def _scalar(v: np.ndarray):
    """A float for one matrix's result, the array for a stack's."""
    return float(v) if v.ndim == 0 else v


def _entropy(lam: np.ndarray):
    """-sum lam ln lam over the eigenvalues above the zero band, per row."""
    return _scalar(0.0 - _dot_log(lam, lam, lam > zero_band(lam)))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho ln rho, in nats, over the support of rho; for a
    stack (..., d, d) of density matrices, one value each."""
    return _entropy(_psd_stack(rho, False, True)[1])


def _same_shape(p: np.ndarray, q: np.ndarray) -> None:
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")


class _Support(NamedTuple):
    p_in_q: np.ndarray    # diagonal of P in the eigenbasis of Q
    on_q: np.ndarray      # mask of Q's eigenvalues above the zero band
    ker_mass: np.ndarray  # weight of P on ker Q
    infinite: np.ndarray  # H(P, Q) = +inf


def _support_split(p: np.ndarray, q: Spectrum) -> _Support:
    """The support rule for H(P, Q): +inf exactly when P's weight on ker Q
    exceeds SUPPORT_MASS_TOL * max(1, Tr P).  ``q`` is Q's spectrum with
    eigenvalues clipped at zero.  P, Q or both may be stacks."""
    u = q.eigenvectors
    p_in_q = np.einsum("...ij,...ik,...kj->...j", u.conj(), p, u).real
    on_q = q.eigenvalues > zero_band(q.eigenvalues)
    ker_mass = np.where(on_q, 0.0, p_in_q).sum(axis=-1)
    tol = SUPPORT_MASS_TOL  # ker_mass > tol max(1, Tr P), in scalar arithmetic
    return _Support(p_in_q, on_q, ker_mass, (ker_mass > tol) & (ker_mass > tol * p.trace(0, -2, -1).real))


def _relent(p: np.ndarray, lam_p: np.ndarray, q: Spectrum):
    """The spectral route on validated operands: P with its eigenvalues and
    Q's spectrum, both clipped at zero; one value per member of a stack."""
    tr_p_ln_p = _dot_log(lam_p, lam_p, lam_p > zero_band(lam_p))
    split = _support_split(p, q)
    h = tr_p_ln_p - _dot_log(split.p_in_q, q.eigenvalues, split.on_q)
    if _worst(split.infinite):
        h = np.where(split.infinite, math.inf, h)
    return _scalar(h)


def relative_entropy(p, q) -> float:
    """H(P, Q) = Tr P (ln P - ln Q) on PSD pairs; +inf on support violation.
    For stacks (..., d, d) of pairs, one value per pair, each stack
    validated in one call."""
    p, lam_p = _psd_stack(p, False)
    q, spec_q = _psd_stack(q, True)
    _same_shape(p, q)
    return _relent(p, lam_p, spec_q)


def _relent_psd(p: np.ndarray, q: np.ndarray):
    """H(P, Q) of package-built, exactly Hermitian matrices or stacks: PSD
    checks on the kernel's eigensolves, no Hermiticity check."""
    p, lam_p = _psd(p, False)
    return _relent(p, lam_p, _psd(q, True)[1])


def _half_width(bound: float, scale: float = 1.0) -> float:
    """The cut L of u = ln t for an integrand bounded by C e^{-|u|}, C =
    ``scale * bound``: each tail beyond |u| = L holds at most _TAU.  L >= 1
    keeps the range nonempty when C is tiny, is taken in logs where C / _TAU
    overflows, and is refused where C is not finite (step 0 never ends)."""
    if not math.isfinite(bound):
        raise ValueError(f"tail bound C = {bound!r} of the resolvent integral is not finite")
    ratio = scale * bound / _TAU
    if ratio == math.inf:
        return math.log(scale) + math.log(bound) - math.log(_TAU)
    return math.log(max(ratio, math.e))


def _log_measure(u: np.ndarray, jac: float) -> tuple[np.ndarray, np.ndarray]:
    """t = e^u, capped at e^709 so that t * 0 = 0, and jac e^u / (1 + e^u)^2,
    which turns (1 + t)^{-2} dt into du, in e^{-|u|} so it cannot overflow."""
    decay = np.exp(-np.abs(u))
    return np.exp(np.minimum(u, 709.0)), jac * decay / (1.0 + decay) ** 2


def _integrand(weights: np.ndarray, q_eigs: np.ndarray, p_eigs: np.ndarray,
               u: np.ndarray, jac: float) -> np.ndarray:
    """jac g(u) of one pair's weights and eigenvalues: over the line in u it
    integrates to the resolvent integral over t = e^u."""
    t, measure = _log_measure(u, jac)  # t p < 2 e^709: finite
    terms = weights[:, None] / (q_eigs[:, None] + t[None, :] * p_eigs[:, None])
    return measure * terms.sum(axis=0)


class _IntegralData:
    """Shared spectral preparation for the integral and kernel routes, of one
    pair or of each pair of a stack, each operand stack validated and
    decomposed in one call.

    Per pair, weights and eigenvalues are those of (P, Q) / scale, a power
    of two in (lambda / 2, lambda] for lambda = max(lambda_max(P),
    lambda_max(Q)), so the pair's resolvent integral is scale times theirs.
    ``scale``, ``trace_correction``, ``violated`` and ``half_width`` (the
    cut L of the integral route's range u in [-L, L]) hold one entry per
    pair, over the leading axes ``lead`` flattened.  Rows in ker Q are
    dropped, so the pairs whose Q has one rank share a row length:
    ``groups`` holds, per rank, the pairs' flat indices and their weights,
    Q eigenvalues and P eigenvalues, one row per pair.
    """

    __slots__ = ("lead", "scale", "trace_correction", "violated", "half_width", "groups")

    def __init__(self, p, q):
        p, sp = _psd_stack(p, True)
        q, sq = _psd_stack(q, True)
        _same_shape(p, q)
        self.lead, d = p.shape[:-2], p.shape[-1]
        lam_p, lam_q = sp.eigenvalues.reshape(-1, d), sq.eigenvalues.reshape(-1, d)
        top = np.maximum(lam_p[:, -1], lam_q[:, -1]).tolist()
        self.scale = np.array([math.ldexp(1.0, math.frexp(x)[1] - 1) for x in top])
        column = self.scale[:, None]
        split = _support_split(p, sq)
        # exact divisions: in range the bits are those at scale 1, and |xt| < 4
        xt = (sq.eigenvectors.conj().swapaxes(-1, -2) @ (q - p) @ sp.eigenvectors).reshape(-1, d, d)
        xt = xt / column[..., None]
        w2 = (xt.conj() * xt).real
        lam_p = np.where(lam_p > zero_band(lam_p), lam_p, 0.0) / column
        lam_q = lam_q / column
        self.trace_correction = (p.trace(0, -2, -1).real - q.trace(0, -2, -1).real).reshape(-1)
        self.violated = split.infinite.reshape(-1)
        self.groups = {}

        # rows in ker(Q) carry no true contribution once supports are
        # compatible; drop them so denominators stay bounded away from zero.
        # Q's eigenvalues ascend, so its support is its last rank of them
        def group(rows, key):
            r, = key
            weights = np.ascontiguousarray(w2[rows, d - r:]).reshape(-1, r * d)  # w2 is a strided view
            q_eigs = lam_q[rows, d - r:].repeat(d, axis=-1)
            p_eigs = lam_p[rows, None, :].repeat(r, axis=-2).reshape(weights.shape)
            self.groups[key] = rows, weights, q_eigs, p_eigs
            return (weights / q_eigs).sum(axis=-1)

        # g(u) <= C e^{-|u|}; C overflows only once Q / scale leaves the normal range
        with np.errstate(over="ignore", divide="ignore"):
            bound = _per_rank(group, split.on_q.sum(axis=-1))
        self.half_width = np.array([_half_width(c, s) for c, s in zip(bound.tolist(), self.scale.tolist())])

    def value(self, integral: Callable[..., np.ndarray]):
        """H = Tr(P - Q) + scale * integral of each pair, +inf where the
        supports are incompatible: a float for one pair.  ``integral(rows,
        weights, q_eigs, p_eigs)`` gives the integrals of one rank group."""
        values = np.empty(len(self.scale))
        for group in self.groups.values():
            values[group[0]] = 0.0 if self.violated[group[0]].all() else integral(*group)
        h = self.trace_correction + self.scale * values
        h[self.violated] = math.inf
        return _scalar(h.reshape(self.lead))


def relative_entropy_integral(p, q) -> float:
    """H(P, Q) by one trapezoid pass over the resolvent quadratic form; for
    stacks (..., d, d) of pairs, one pass per pair, each at its own cut and
    step, and one value per pair."""
    data = _IntegralData(p, q)

    def integral(rows, weights, q_eigs, p_eigs):
        return [0.0 if violated else _trapezoid(functools.partial(_integrand, w, qe, pe), half, _step(half))
                for w, qe, pe, half, violated in zip(weights, q_eigs, p_eigs, data.half_width[rows].tolist(),
                                                      data.violated[rows].tolist())]

    return data.value(integral)


def relative_entropy_integral_steps(p, q) -> list[tuple[float, float]]:
    """The integral route's trapezoid pass at steps h 2^k, for convergence
    studies of one pair: (step, value) pairs from the largest such step not
    above the cut L down to the route's own step h, whose value is
    ``relative_entropy_integral(p, q)``.  Values are +inf on a support
    violation."""
    data = _IntegralData(p, q)
    if data.lead:
        raise ValueError(f"expected a 2-d matrix, got shape {np.shape(p)}")
    half = data.half_width[0]
    steps = [_step(half)]
    while 2.0 * steps[-1] <= half:
        steps.append(2.0 * steps[-1])
    (_, (weights,), (q_eigs,), (p_eigs,)), = data.groups.values()
    integrand = functools.partial(_integrand, weights, q_eigs, p_eigs)
    return [(h, data.value(lambda *group: [_trapezoid(integrand, half, h)])) for h in reversed(steps)]


# --------------------------------------------------------------------------
# Closed-form kernel route

# |a - b| below SWITCH_EXACT * max(a, b) returns the a = b limit 1/(2a);
# below SWITCH_SERIES it uses a short series in (b - a)/a, because the
# closed form loses ~half its digits to cancellation there.
_SWITCH_EXACT = 1e-8
_SWITCH_SERIES = 1e-5


def kernel_k(a: float, b: float) -> float:
    """k(a, b) = int_0^inf (a + t b)^{-1} (1 + t)^{-2} dt for a, b > 0.

    Closed form b ln(b/a)/(b-a)^2 + 1/(a-b), with a series takeover near
    the removable singularity at a = b (value 1/(2a)).
    """
    a = float(a)
    b = float(b)
    if not (a > 0.0) or not (b > 0.0):
        raise ValueError(f"kernel_k needs positive arguments, got ({a!r}, {b!r})")
    return float(_kernel_k_arrays(np.array([a]), np.array([b]))[0])


def _kernel_k_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kernel_k elementwise over arrays of a > 0 and b >= 0, k(a, 0) = 1/a."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(a.shape)
    scale = np.maximum(a, b)
    diff = b - a
    near = np.abs(diff) <= _SWITCH_EXACT * scale
    mid = (np.abs(diff) <= _SWITCH_SERIES * scale) & ~near
    zero = b == 0.0
    far = ~(near | mid | zero)
    out[near] = 0.5 / a[near]
    out[zero] = 1.0 / a[zero]
    if mid.any():
        delta = diff[mid] / a[mid]
        out[mid] = (0.5 - delta / 6.0 + delta ** 2 / 12.0 - delta ** 3 / 20.0 + delta ** 4 / 30.0) / a[mid]
    if far.any():
        # ln(b/a) as +-log1p(|b - a| / min(a, b)): log(b / a) rounds b / a
        # first, which costs ~1e-6 relative in k just above the series
        # switch, and log1p((b - a) / a) loses everything once b << a
        d = diff[far]
        ln_ratio = np.sign(d) * np.log1p(np.abs(d) / np.minimum(a[far], b[far]))
        out[far] = b[far] * ln_ratio / (d * d) - 1.0 / d
    return out


def relative_entropy_spectral_kernel(p, q) -> float:
    """H(P, Q) with the resolvent integral evaluated per eigenpair:
    H = Tr(P - Q) + sum_{mn} |(U^dag (Q-P) V)_{mn}|^2 k(q_m, p_n); for
    stacks (..., d, d) of pairs, one value per pair."""
    data = _IntegralData(p, q)
    return data.value(lambda rows, weights, q_eigs, p_eigs: _rowdot(weights, _kernel_k_arrays(q_eigs, p_eigs)))


def scalar_log_identity(w) -> tuple[float, float, float]:
    """The 1x1 sanity chain behind the integral route.

    Returns (-ln w, quadrature of int_0^inf [1/(w+t) - 1/(1+t)] dt,
    (1-w) + quadrature of int_0^inf (w-1)^2 / ((w+t)(1+t)^2) dt); all three
    agree for w > 0.  Both integrals run on the integral route's trapezoid
    in u = ln t: the second is that route on P = 1, Q = w, and the first,
    (1-w)/((w+t)(1+t)), has the bound in the module docstring, so the cost
    grows with |ln w| only through L.  For an array of w, each of the three
    is an array of one value per w: the first integral is one pass per w,
    at its own cut, and the second the integral route on the (..., 1, 1)
    pairs.
    """
    ws = np.asarray(w, dtype=float)
    lhs, first = [], []
    for x in ws.ravel().tolist():
        if not (x > 0.0) or not math.isfinite(x):
            raise ValueError(f"w must be positive and finite, got {x!r}")
        half = _half_width(abs(1.0 - x) * max(1.0, 1.0 / x))
        lhs.append(-math.log(x))
        first.append(_trapezoid(functools.partial(_log_identity_integrand, x), half, _step(half)))
    second = relative_entropy_integral(np.ones(ws.shape + (1, 1)), ws[..., None, None])
    return _scalar(np.reshape(lhs, ws.shape)), _scalar(np.reshape(first, ws.shape)), second


def _log_identity_integrand(w: float, u: np.ndarray, jac: float) -> np.ndarray:
    """`scalar_log_identity`'s first integrand at w, times jac, over u = ln t."""
    t, measure = _log_measure(u, jac)
    return measure * (1.0 - w) * (1.0 + t) / (w + t)


def conditional_entropy(rho_ab, dims) -> float:
    """Entropy of the second factor conditioned on the first:
    S(rho_AB) - S(rho_A).  Reduces to S(rho_B) on product states, and
    equals ln d_B - H(rho_AB, rho_A (x) I/d_B), the form the
    ``condent_identity`` suite checks it against.
    """
    rho, lam = _density(rho_ab, False)
    if len(dims) != 2:
        raise ValueError(f"dims must list two factors, got {dims!r}")
    return _conditional(rho, lam, dims)


def _conditional(rho: np.ndarray, lam: np.ndarray, dims) -> float:
    """`conditional_entropy` of a validated density matrix, or of each of a
    stack, from its clipped eigenvalues."""
    return _entropy(lam) - _entropy(_psd_stack(partial_trace(rho, dims, (0,)), False, True)[1])


def bures_distance(p, q) -> float:
    """Bures distance sqrt(2 (1 - Tr sqrt(sqrt(P) Q sqrt(P)))) between
    density matrices; sqrt(2) for orthogonal pure states.

    sqrt(P) comes from the decomposition that validates P, and the trace
    of the outer root needs only the eigenvalues of sqrt(P) Q sqrt(P).
    """
    p, spec_p = _density(p, True)
    q = as_density(q)
    _same_shape(p, q)
    root_p = _from_spectrum(spec_p, np.sqrt)
    lam = np.linalg.eigvalsh(_symmetrize(root_p @ q @ root_p))
    fid_root = float(np.sqrt(np.where(lam > zero_band(lam), lam, 0.0)).sum())
    return math.sqrt(max(0.0, 2.0 * (1.0 - fid_root)))
