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

from .matcore import KernelObstruction, Spectrum, _first, _one_shape, as_matrix, psd_eig, zero_band

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
        _one_shape("multiplier shapes differ: {} vs {}", [self.left, self.right])
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
    return _resolvent(spec.left_spectrum, spec.right_spectrum, spec.t, as_matrix(x))


def _resolvent(left: Spectrum, right: Spectrum, t: float, x: np.ndarray) -> np.ndarray:
    """`solve_resolvent` from the multipliers' spectra, or for a stack of
    maps and operands at once (the first obstructed map raising)."""
    u = left.eigenvectors
    v = right.eigenvectors
    if x.shape[-2:] != u.shape[-2:]:
        raise ValueError(f"operand shape {x.shape[-2:]} != {u.shape[-2:]}")
    xt = u.conj().swapaxes(-1, -2) @ x @ v
    denom = left.eigenvalues[..., :, None] + t * right.eigenvalues[..., None, :]
    # one band per map, over all of its denominators
    kernel = denom <= zero_band(denom.reshape(*denom.shape[:-2], -1))[..., None]
    if kernel.any():
        mass = np.where(kernel, np.abs(xt), 0.0).max(axis=(-2, -1))
        bad = mass > KERNEL_MASS_TOL * np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))
        if bad.any():
            raise KernelObstruction(
                f"operand has weight {_first(mass, bad):.3e} on the joint kernel of the map"
            )
    yt = np.zeros_like(xt)
    ok = ~kernel
    yt[ok] = xt[ok] / denom[ok]
    return u @ yt @ v.conj().swapaxes(-1, -2)


def superop_matrix(spec: SuperOpSpec) -> np.ndarray:
    """Dense matrix of the map under row-major vec:
    vec(L X + t X R) = (L (x) I + t I (x) R^T) vec(X)."""
    d = spec.dim
    eye = np.eye(d)
    return np.kron(spec.left, eye) + spec.t * np.kron(eye, spec.right.T)
