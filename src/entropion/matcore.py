"""Dense complex matrix foundations, and the one home of each convention
used throughout the package:

* matrices are numpy ``complex128`` arrays in row-major layout; a result
  that must be Hermitian is made exactly so by ``_symmetrize``;
* ``tensor(A, B)`` orders factors left to right with the leftmost factor
  slowest (row index ``i_A * d_B + i_B``), by ``_kron``, the one Kronecker
  product (of matrices, stacks or Kraus pairs); ``_kept_first`` checks factor
  dimensions and kept indices and orders the kept factors first for every
  reduction (``partial_trace``, ``partial_trace_pure``, and
  ``channels.trace_out_channel``);
* all logarithms are natural, so entropic quantities are in nats;
* eigenvalues within ``KERNEL_ETA`` of zero, relative to the largest
  eigenvalue magnitude (``zero_band``), are exact zeros.  Every
  kernel-related decision (support projections, pseudo-inverses, +inf
  detection) goes through this one band;
* validate once, decompose once: a PSD operand is checked on the one
  decomposition its caller needs anyway (``psd_eigvalsh``, ``psd_eig``;
  ``_density`` adds the unit trace), never by a separate probe.  Public
  functions validate at the boundary, internal calls reuse that spectrum,
  and a function of a matrix (inverse, root) is rebuilt from it by
  ``_from_spectrum`` (``_spectral_function`` for a scalar f);
* an operand is one matrix or a stack of them on leading axes,
  ``(..., d, d)``, as in ``numpy.linalg``: the public checks and
  operations validate it once (``_array``, ``_psd_stack``) and return one
  value per leading index, a float for one matrix.  A list of same-shape
  operands is one (n, d, d) stack: ``_one_shape`` refuses mixed shapes,
  ``_psd_stacks`` validates it in one call (each matrix at its own scale,
  an error naming the first defective one) and the kernels reduce it in
  one call;
* reductions of a pure state go through ``partial_trace_pure`` on the
  state vector, never through the projector ``|psi><psi|``.

The JSON form of a matrix is
``{"d_rows": r, "d_cols": c, "re": [...], "im": [...]}`` with both entry
lists flattened row-major.  All file I/O in this package reads and writes
that format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Relative width of the spectral band treated as exact zero.
KERNEL_ETA = 1e-12
# max-norm Hermiticity defect allowed at construction, relative to scale.
HERMITICITY_TOL = 1e-12
# How negative an eigenvalue may be before a matrix stops counting as PSD.
PSD_TOL = 1e-10
TRACE_TOL = 1e-10


class NonConvergence(RuntimeError):
    """An iterative numerical procedure did not reach its tolerance."""


class KernelObstruction(ValueError):
    """An input carries significant weight on a kernel where the requested
    map is undefined."""


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return _finite(a)


def _array(m) -> np.ndarray:
    """``m`` as a complex matrix or stack of matrices (any leading axes):
    `as_matrix`'s dimension check, with leading axes allowed."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _finite(a: np.ndarray) -> np.ndarray:
    """`as_matrix`'s finiteness check, on an array of any shape."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def as_hermitian(m) -> np.ndarray:
    """Validate Hermiticity to tolerance and return the symmetrized matrix.

    Checks run in the order of `as_matrix` and then squareness, with the
    same errors."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return _hermitian(a)


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The entry of ``values`` at the first set entry of ``bad``."""
    return float(np.asarray(values)[bad][0])


def _worst(x):
    """The largest of per-matrix values; for one matrix the value itself,
    so its check takes no reduction."""
    return x.max() if x.ndim else x


# Scales from which (a + a^dag) / 2 can overflow in the sum.
_HUGE = 2.0 ** 1022


def _hermitian(a: np.ndarray, huge: float = _HUGE) -> np.ndarray:
    """`as_hermitian`'s checks on a complex matrix or (n, d, d) stack, each
    matrix held to its own scale; scales from ``huge`` up are checked on
    a / 4."""
    scale = float(np.abs(a).max()) if a.size else 0.0
    # |z| overflows to inf for finite entries near the float limit, so an
    # infinite scale alone does not prove a non-finite entry
    if not math.isfinite(scale) and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    r, c = a.shape[-2:]
    if r != c:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if scale >= huge:
        if a.ndim > 2:
            return np.stack([_hermitian(m) for m in a])
        # every entry is finite but a modulus, or the sum a + a^dag, may
        # overflow: check a / 4, which is exact, has finite moduli and parts
        # below 2^1022 (a defect is reported at that scale), then scale the
        # result back
        return _hermitian(a * 0.25, math.inf) * 4.0
    h = a.conj().swapaxes(-1, -2)
    if a.size and np.abs(a - h).max() > HERMITICITY_TOL:
        # only a defect above the tolerance needs each matrix's own scale
        defect = np.abs(a - h).max(axis=(-2, -1))
        bad = defect > HERMITICITY_TOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
        if np.count_nonzero(bad):
            raise ValueError(f"matrix is not Hermitian (defect {_first(defect, bad):.3e})")
    return (a + h) / 2


def _clip_psd(w: np.ndarray) -> np.ndarray:
    """PSD test (scale-aware) on ascending eigenvalues, one row per matrix
    of a stack, then clip at zero."""
    lo = w.T[0]  # each row's smallest eigenvalue
    if _worst(-lo) > PSD_TOL:
        # only a negative eigenvalue past the tolerance needs its row's scale
        bad = lo < -PSD_TOL * np.maximum(1.0, w.T[-1])
        if np.count_nonzero(bad):
            raise ValueError(f"matrix is not PSD (min eigenvalue {_first(lo, bad):.3e})")
    return np.maximum(w, 0.0)


def _psd(a: np.ndarray, vectors: bool):
    """``a`` (Hermitian, or a stack) with its clipped eigenvalues, or its
    `Spectrum` with ``vectors``: the PSD check on its one eigensolve."""
    if vectors:
        return a, _eigh(a, clip=True)
    return a, _clip_psd(np.linalg.eigvalsh(a))


def _psd_stack(a, vectors: bool, density: bool = False):
    """`_psd` of a matrix or of every matrix of a stack (any leading axes),
    each checked as `as_hermitian` checks one, and `_density`'s trace
    condition with ``density``: the validation of a stack in one call."""
    a, spec = _psd(_hermitian(_array(a)), vectors)
    return (require_unit_trace(a) if density else a), spec


def psd_eigvalsh(m) -> tuple[np.ndarray, np.ndarray]:
    """Validate positive semidefiniteness from one ``eigvalsh``.

    Returns the symmetrized matrix and its ascending eigenvalues, clipped
    at zero so that no caller sees a spuriously negative one.
    """
    return _psd(as_hermitian(m), False)


def psd_eig(m) -> tuple[np.ndarray, Spectrum]:
    """Validate positive semidefiniteness from one ``eigh``.

    Returns the symmetrized matrix and its spectrum, eigenvalues clipped at
    zero as in `psd_eigvalsh`.
    """
    return _psd(as_hermitian(m), True)


def _one_shape(message: str, *lists) -> None:
    """Before stacking: ValueError(``message`` formatted with two shapes) on mixed shapes."""
    shapes = list(dict.fromkeys(np.shape(m) for ms in lists for m in ms))
    if len(shapes) > 1:
        raise ValueError(message.format(*shapes[:2])) from None


def _psd_stacks(operands, vectors) -> list:
    """`_psd_stack` of each operand, a matrix, a list of same-shape
    matrices or a stack of such lists, with eigenvectors where its flag in
    ``vectors`` is set.  On a failure the matrices are validated alone, in
    C order over the leading axes and the j-th of every operand before any
    (j + 1)-th, so the error is the first defective one's own."""
    try:
        return [_psd_stack(a, vec) for a, vec in zip(operands, vectors)]
    except ValueError:
        for members in zip(*(np.reshape(a, (-1, *np.shape(a)[-2:])) for a in operands)):
            for m, vec in zip(members, vectors):
                _psd(as_hermitian(m), vec)
        raise


def as_psd(m) -> np.ndarray:
    """Validate positive semidefiniteness to PSD_TOL (scale-aware)."""
    return psd_eigvalsh(m)[0]


def require_unit_trace(a: np.ndarray) -> np.ndarray:
    """The density-matrix trace condition (to 1e-10) on a validated PSD
    matrix or stack."""
    tr = a.trace(0, -2, -1).real
    if _worst(abs(tr - 1.0)) > TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {_first(tr, abs(tr - 1.0) > TRACE_TOL)!r}")
    return a


def _density(m, vectors: bool):
    """`psd_eig` (``vectors``) or `psd_eigvalsh` of a density matrix, trace checked."""
    a, spec = _psd(as_hermitian(m), vectors)
    return require_unit_trace(a), spec


def as_density(m) -> np.ndarray:
    """Validate a density matrix: PSD with unit trace (both to 1e-10)."""
    return require_unit_trace(as_psd(m))


def zero_band(eigenvalues: np.ndarray) -> np.ndarray:
    """Width of the band around zero treated as exact kernel, per row of a
    spectrum or stack of spectra, as shape (..., 1)."""
    return KERNEL_ETA * np.abs(eigenvalues).max(axis=-1, keepdims=True, initial=0.0)


def _rank(lam: np.ndarray) -> np.ndarray:
    """The rank of an ascending spectrum, or of each of a stack: its count
    of eigenvalues above the zero band, which are its last ones."""
    return (lam > zero_band(lam)).sum(axis=-1)


def _per_rank(fn: Callable[[np.ndarray | slice, tuple[int, ...]], np.ndarray], *ranks) -> np.ndarray:
    """``fn(rows, key)`` on each group of a stack's members that share one
    tuple of ranks ``key`` (one array of ranks per operand), its values, one
    per member of ``rows``, scattered back to one per member.  Groups come in
    order of first appearance; when all members share one key, ``rows`` is
    ``slice(None)`` and ``fn``'s values are returned as they are."""
    keys = list(zip(*[r.ravel().tolist() for r in ranks]))
    if keys.count(keys[0]) == len(keys):
        return fn(slice(None), keys[0])
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    out = np.empty(len(keys))
    for key, rows in groups.items():
        out[rows] = fn(np.array(rows), key)
    return out


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (real, ascending) and matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __getitem__(self, rows) -> Spectrum:
        """The spectra of the members ``rows`` of a stack of spectra."""
        return Spectrum(self.eigenvalues[rows], self.eigenvectors[rows])


def _eigh(a: np.ndarray, clip: bool = False) -> Spectrum:
    """The spectrum of a Hermitian matrix or stack, ``clip``ped by `_clip_psd`."""
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver failed: {exc}") from exc
    return Spectrum(_clip_psd(w) if clip else w, u)


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2 of a matrix or stack: exactly Hermitian."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def _from_spectrum(spec: Spectrum, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """U f(Lambda) U^dag, symmetrized, from the spectrum of a Hermitian matrix
    or stack: eigenvalues inside the zero band are snapped to exactly 0, then
    ``f`` maps all of them in one call (``np.sqrt`` for a PSD root)."""
    lam = spec.eigenvalues.copy()
    lam[np.abs(lam) <= zero_band(lam)] = 0.0
    u = spec.eigenvectors
    return _symmetrize((u * f(lam)[..., None, :]) @ u.conj().swapaxes(-1, -2))


def _spectral_function(spec: Spectrum, f: Callable[[float], float]) -> np.ndarray:
    """`_from_spectrum` for a scalar ``f``, called on each eigenvalue as a
    float: ValueError where ``f`` is undefined or not finite, so ``1/x``
    refuses a singular matrix."""

    def each(lam: np.ndarray) -> np.ndarray:
        vals = np.empty(lam.size)
        for i, x in enumerate(lam.ravel().tolist()):
            try:
                y = float(f(x))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ValueError(f"eigenvalue {x!r} outside the domain of f: {exc}") from exc
            if not math.isfinite(y):
                raise ValueError(f"f({x!r}) is not finite")
            vals[i] = y
        return vals.reshape(lam.shape)

    return _from_spectrum(spec, each)


def matrix_function(m, f: Callable[[float], float]) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix spectrally
    (see `_spectral_function` for the kernel policy)."""
    return _spectral_function(_eigh(as_hermitian(m)), f)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the left factor slowest."""
    return _kron(as_matrix(a), as_matrix(b))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`tensor` of two matrices, or of each pair of two stacks (leading axes
    broadcast), with the bits of ``np.kron``: one broadcast product."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], ra * rb, ca * cb)


def _kept_first(dims: Sequence[int], keep: Sequence[int], total: int | None = None):
    """The checked factor dimensions, their order with the kept factors
    first (each group ascending), and the kept dimension."""
    ds = [int(d) for d in dims]
    if not ds or any(d < 1 for d in ds):
        raise ValueError(f"factor dimensions must be positive, got {dims!r}")
    if total is not None and math.prod(ds) != total:
        raise ValueError(f"factor dimensions {ds} do not multiply to {total}")
    keep_set = sorted(set(int(i) for i in keep))
    if len(keep_set) != len(tuple(keep)):
        raise ValueError(f"duplicate factor index in keep={keep!r}")
    if any(i < 0 or i >= len(ds) for i in keep_set):
        raise ValueError(f"keep={keep!r} out of range for {len(ds)} factors")
    order = keep_set + [i for i in range(len(ds)) if i not in keep_set]
    return ds, order, math.prod(ds[i] for i in keep_set)


def partial_trace(m, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``, of a square
    matrix or of each matrix of a stack (..., n, n).

    Kept factors stay in their original order.  ``dims`` lists every factor
    dimension, slowest first, matching the `tensor` convention.
    """
    a = _finite(_array(m))
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise ValueError("partial trace needs a square matrix")
    ds, order, d_keep = _kept_first(dims, keep, n)
    lead = a.shape[:-2]
    axes = [len(lead) + i for i in order]
    t = a.reshape(*lead, *ds, *ds).transpose(*range(len(lead)), *axes, *(len(ds) + i for i in axes))
    return np.trace(t.reshape(*lead, d_keep, n // d_keep, d_keep, n // d_keep), axis1=-3, axis2=-1)


def partial_trace_pure(psi, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """``partial_trace(|psi><psi|, dims, keep)`` without forming the projector,
    of a state vector or of each vector of a stack (..., n).

    The state vector is reshaped into its factors, the kept factors are
    moved to the front in ascending order, and with M the resulting
    (d_keep, d_rest) matrix the reduction is M M^dag.  Memory and time
    scale with the vector and the kept block, not with the square of the
    full dimension.
    """
    v = np.asarray(psi, dtype=complex)
    if v.ndim < 1:
        raise ValueError(f"expected a state vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector entries must be finite")
    ds, order, d_keep = _kept_first(dims, keep, v.shape[-1])
    lead = v.shape[:-1]
    axes = (*range(len(lead)), *(len(lead) + i for i in order))
    m = np.transpose(v.reshape(*lead, *ds), axes).reshape(*lead, d_keep, -1)
    return m @ m.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# JSON serialization


def matrix_to_json(m) -> dict:
    a = as_matrix(m)
    return {
        "d_rows": int(a.shape[0]),
        "d_cols": int(a.shape[1]),
        "re": [float(x) for x in a.real.ravel()],
        "im": [float(x) for x in a.imag.ravel()],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        r = int(obj["d_rows"])
        c = int(obj["d_cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if r < 1 or c < 1:
        raise ValueError(f"matrix dimensions must be positive, got {r}x{c}")
    if re.shape != (r * c,) or im.shape != (r * c,):
        raise ValueError(
            f"re/im must be flat row-major lists of {r * c} values for a "
            f"{r}x{c} matrix, got shapes re={re.shape} im={im.shape}"
        )
    return as_matrix((re + 1j * im).reshape(r, c))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def write_matrix(path, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")
