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

import math
from typing import Callable, NamedTuple

import numpy as np

from .matcore import (
    Spectrum,
    _density,
    _from_spectrum,
    _psd,
    _symmetrize,
    _worst,
    as_density,
    partial_trace,
    psd_eig,
    psd_eigvalsh,
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


def _dot_log(x: np.ndarray, y: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """sum x ln y over ``sel`` along the last axis, with ln 1 = 0 outside
    ``sel``: ``np.dot`` on one row, and on each row of a stack the same BLAS
    dot, as a (1, d) by (d, 1) product."""
    x, log = np.ascontiguousarray(x), np.log(np.where(sel, y, 1.0))
    if x.ndim == 1:
        return np.dot(x, log)
    return (x[:, None, :] @ log[..., None])[:, 0, 0]


def _scalar(v: np.ndarray):
    """A float for one matrix's result, the array for a stack's."""
    return float(v) if v.ndim == 0 else v


def _entropy(lam: np.ndarray):
    """-sum lam ln lam over the eigenvalues above the zero band, per row."""
    return _scalar(0.0 - _dot_log(lam, lam, lam > zero_band(lam)))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho ln rho, in nats, over the support of rho."""
    return _entropy(_density(rho, False)[1])


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
    """H(P, Q) = Tr P (ln P - ln Q) on PSD pairs; +inf on support violation."""
    p, lam_p = psd_eigvalsh(p)
    q, spec_q = psd_eig(q)
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


class _IntegralData:
    """Shared spectral preparation for the integral and kernel routes.

    Weights and eigenvalues are those of (P, Q) / ``scale``, a power of two
    in (lambda / 2, lambda] for lambda = max(lambda_max(P), lambda_max(Q)),
    so the pair's resolvent integral is ``scale`` times theirs.  ``half_width``
    is the cut L of the integral route's range u in [-L, L].
    """

    __slots__ = ("weights", "q_eigs", "p_eigs", "scale", "trace_correction", "violated", "half_width")

    def __init__(self, p, q):
        p, sp = psd_eig(p)
        q, sq = psd_eig(q)
        _same_shape(p, q)
        # exact division: in range the bits are those at scale 1, and |xt| < 4
        self.scale = math.ldexp(1.0, math.frexp(max(sp.eigenvalues[-1], sq.eigenvalues[-1]))[1] - 1)
        xt = sq.eigenvectors.conj().T @ (q - p) @ sp.eigenvectors / self.scale
        w2 = (xt.conj() * xt).real
        split = _support_split(p, sq)
        self.violated = bool(split.infinite)

        lam_p = np.where(sp.eigenvalues > zero_band(sp.eigenvalues), sp.eigenvalues, 0.0)
        # rows in ker(Q) carry no true contribution once supports are
        # compatible; drop them so denominators stay bounded away from zero
        self.weights = w2[split.on_q, :].ravel()
        self.q_eigs = np.repeat(sq.eigenvalues[split.on_q] / self.scale, lam_p.size)
        self.p_eigs = np.tile(lam_p / self.scale, int(split.on_q.sum()))
        self.trace_correction = float(np.trace(p).real) - float(np.trace(q).real)
        # g(u) <= C e^{-|u|}; C overflows only once Q / scale leaves the normal range
        with np.errstate(over="ignore", divide="ignore"):
            self.half_width = _half_width(float(np.sum(self.weights / self.q_eigs)), self.scale)

    def integrand(self, u: np.ndarray, jac: float) -> np.ndarray:
        """jac g(u): over the line in u it integrates to the resolvent
        integral over t = e^u."""
        t, measure = _log_measure(u, jac)  # t p < 2 e^709: finite
        terms = self.weights[:, None] / (self.q_eigs[:, None] + t[None, :] * self.p_eigs[:, None])
        return measure * terms.sum(axis=0)


def relative_entropy_integral(p, q) -> float:
    """H(P, Q) by one trapezoid pass over the resolvent quadratic form."""
    data = _IntegralData(p, q)
    if data.violated:
        return math.inf
    half = data.half_width
    return data.trace_correction + data.scale * _trapezoid(data.integrand, half, _step(half))


def relative_entropy_integral_steps(p, q) -> list[tuple[float, float]]:
    """The integral route's trapezoid pass at steps h 2^k, for convergence
    studies: (step, value) pairs from the largest such step not above the
    cut L down to the route's own step h, whose value is
    ``relative_entropy_integral(p, q)``.  Values are +inf on a support
    violation."""
    data = _IntegralData(p, q)
    half = data.half_width
    steps = [_step(half)]
    while 2.0 * steps[-1] <= half:
        steps.append(2.0 * steps[-1])
    if data.violated:
        return [(h, math.inf) for h in reversed(steps)]
    return [(h, data.trace_correction + data.scale * _trapezoid(data.integrand, half, h))
            for h in reversed(steps)]


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
    H = Tr(P - Q) + sum_{mn} |(U^dag (Q-P) V)_{mn}|^2 k(q_m, p_n)."""
    data = _IntegralData(p, q)
    if data.violated:
        return math.inf
    total = float(np.dot(data.weights, _kernel_k_arrays(data.q_eigs, data.p_eigs)))
    return data.trace_correction + data.scale * total


def scalar_log_identity(w: float) -> tuple[float, float, float]:
    """The 1x1 sanity chain behind the integral route.

    Returns (-ln w, quadrature of int_0^inf [1/(w+t) - 1/(1+t)] dt,
    (1-w) + quadrature of int_0^inf (w-1)^2 / ((w+t)(1+t)^2) dt); all three
    agree for w > 0.  Both integrals run on the integral route's trapezoid
    in u = ln t: the second is that route on P = 1, Q = w, and the first,
    (1-w)/((w+t)(1+t)), has the bound in the module docstring, so the cost
    grows with |ln w| only through L.
    """
    w = float(w)
    if not (w > 0.0) or not np.isfinite(w):
        raise ValueError(f"w must be positive and finite, got {w!r}")
    lhs = -math.log(w)
    half = _half_width(abs(1.0 - w) * max(1.0, 1.0 / w))

    def g1(u: np.ndarray, jac: float) -> np.ndarray:
        t, measure = _log_measure(u, jac)
        return measure * (1.0 - w) * (1.0 + t) / (w + t)

    return lhs, _trapezoid(g1, half, _step(half)), relative_entropy_integral([[1.0]], [[w]])


def conditional_entropy(rho_ab, dims) -> float:
    """Entropy of the second factor conditioned on the first:
    S(rho_AB) - S(rho_A).  Reduces to S(rho_B) on product states, and
    equals ln d_B - H(rho_AB, rho_A (x) I/d_B), the form the
    ``condent_identity`` suite checks it against.
    """
    rho, lam = _density(rho_ab, False)
    if len(dims) != 2:
        raise ValueError(f"dims must list two factors, got {dims!r}")
    return _entropy(lam) - von_neumann_entropy(partial_trace(rho, dims, keep=(0,)))


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
