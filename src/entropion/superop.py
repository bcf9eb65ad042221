"""Two-sided multiplication superoperators and their resolvents.

The central object is the map ``X -> L X + t X R`` for PSD matrices L, R
and t >= 0.  Diagonalizing L = U diag(l) U^dag and R = V diag(r) V^dag
turns it into entrywise multiplication by ``l_m + t r_n`` on the matrix
``U^dag X V``, so both the map and its (pseudo-)resolvent cost two
eigendecompositions plus basis changes.  The dense d^2 x d^2 matrix of the
same map under row-major vec serves as an independent oracle.
"""

from __future__ import annotations

import numpy as np

from .matcore import KernelObstruction, as_matrix, max_abs, psd_eig, zero_band

# Inputs may carry at most this relative weight on the joint kernel before
# a resolvent solve is refused.
KERNEL_MASS_TOL = 1e-10


class SuperOpSpec:
    """The map X -> left X + t X right, with cached spectral data.

    Both multipliers must be PSD (to 1e-10) and of the same dimension;
    eigenvalues are clipped at zero after validation so resolvent
    denominators are never spuriously negative.
    """

    __slots__ = ("left", "right", "t", "left_spectrum", "right_spectrum")

    def __init__(self, left, right, t: float = 1.0):
        self.left, self.left_spectrum = psd_eig(left)
        self.right, self.right_spectrum = psd_eig(right)
        if self.left.shape != self.right.shape:
            raise ValueError(
                f"multiplier shapes differ: {self.left.shape} vs {self.right.shape}"
            )
        t = float(t)
        if not (t >= 0.0) or not np.isfinite(t):
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        self.t = t

    @property
    def dim(self) -> int:
        return self.left.shape[0]


def solve_resolvent(spec: SuperOpSpec, x) -> np.ndarray:
    """Solve left Y + t Y right = X on the support of the map.

    Denominators l_m + t r_n in the zero band of all of them (relative
    to the largest, lambda_max(left) + t lambda_max(right)) are joint
    kernel: Y is set to zero there, pseudo-inverse style, provided X
    carries no more than KERNEL_MASS_TOL relative weight on those modes.
    Otherwise raises KernelObstruction.
    """
    x = as_matrix(x)
    if x.shape != spec.left.shape:
        raise ValueError(f"operand shape {x.shape} != {spec.left.shape}")
    lvals = spec.left_spectrum.eigenvalues
    rvals = spec.right_spectrum.eigenvalues
    u = spec.left_spectrum.eigenvectors
    v = spec.right_spectrum.eigenvectors
    xt = u.conj().T @ x @ v
    denom = lvals[:, None] + spec.t * rvals[None, :]
    kernel = denom <= zero_band(denom)
    if kernel.any():
        mass = max_abs(xt[kernel])
        if mass > KERNEL_MASS_TOL * max(1.0, max_abs(x)):
            raise KernelObstruction(
                f"operand has weight {mass:.3e} on the joint kernel of the map"
            )
    yt = np.zeros_like(xt)
    ok = ~kernel
    yt[ok] = xt[ok] / denom[ok]
    return u @ yt @ v.conj().T


def superop_matrix(spec: SuperOpSpec) -> np.ndarray:
    """Dense matrix of the map under row-major vec:
    vec(L X + t X R) = (L (x) I + t I (x) R^T) vec(X)."""
    d = spec.dim
    eye = np.eye(d)
    return np.kron(spec.left, eye) + spec.t * np.kron(eye, spec.right.T)
