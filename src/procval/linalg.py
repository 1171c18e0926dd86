"""Dense complex matrix kernel: Kronecker products, partial traces, subsystem
permutations and Hermitian spectra.

Conventions used everywhere in this package: row-major storage, big-endian
composite indexing (leftmost tensor factor is the most significant index).
All operators are square ``numpy`` arrays promoted to complex128.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "tensor",
    "identity",
    "partial_trace",
    "permute_subsystems",
    "min_eigenvalue",
    "eigenvalue_range",
    "frobenius",
    "hermiticity_defect",
    "hermitian_tolerance",
    "require_hermitian",
    "as_operator",
]


def as_operator(m) -> np.ndarray:
    """Coerce input to a square complex128 matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m) -> float:
    """Frobenius norm of a matrix, scaled by its largest modulus first when
    the plain sum of squares overflows; infinite only beyond the double range."""
    a = np.asarray(m)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
        peak = float(np.abs(a).max()) if norm == np.inf else 0.0
    return peak * float(np.linalg.norm(a / peak)) if 0.0 < peak < np.inf else norm


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation |M - M^dagger|."""
    a = as_operator(m)
    return float(np.abs(a - a.conj().T).max())


def hermitian_tolerance(m) -> float:
    """Scale-aware tolerance below which a matrix counts as Hermitian."""
    return 1e-12 * (1.0 + frobenius(m))


def require_hermitian(m, tol: float | None = None) -> np.ndarray:
    """Return ``m`` as complex128, raising ValueError if it is not Hermitian
    within ``tol`` (default: scale-aware tolerance)."""
    a = as_operator(m)
    limit = hermitian_tolerance(a) if tol is None else tol
    defect = float(np.abs(a - a.conj().T).max())
    if defect > limit:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {limit:.3e}"
        )
    return a


def _require_finite(m) -> np.ndarray:
    """Return ``m`` as complex128, raising ValueError on a non-finite entry:
    the check every spectrum in this package is read behind."""
    a = as_operator(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    return a


def identity(d: int) -> np.ndarray:
    """d-dimensional identity matrix."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.eye(d, dtype=np.complex128)


def tensor(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, leftmost factor most
    significant: tensor(a, b)[(i,k),(j,l)] = a[i,j] * b[k,l]."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    mats = [as_operator(f) for f in factors]
    return reduce(np.kron, mats)


def _check_shape(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError("subsystem dimensions must be >= 1")
    total = int(np.prod(dims)) if dims else 1
    if total != m.shape[0]:
        raise ValueError(
            f"shape {dims} has total dimension {total}, matrix has {m.shape[0]}"
        )
    return dims


def partial_trace(m, dims: Sequence[int], discard: Iterable[int]) -> np.ndarray:
    """Trace out the subsystems listed in ``discard``.

    Parameters
    ----------
    m : array_like
        Square matrix on the tensor product of the listed subsystems.
    dims : sequence of int
        Dimension of each tensor factor, leftmost first.
    discard : iterable of int
        Indices (into ``dims``) of the factors to trace out.

    Returns
    -------
    numpy.ndarray
        Matrix on the kept factors, in their original relative order.
        The full trace is preserved: trace(result) == trace(m).
    """
    a = as_operator(m)
    dims = _check_shape(a, dims)
    n = len(dims)
    discard = sorted(set(int(i) for i in discard))
    if discard and (discard[0] < 0 or discard[-1] >= n):
        raise IndexError(f"discard indices {discard} out of range for {n} subsystems")
    t = a.reshape(dims + dims)
    # Trace out pairs from the highest index down so lower positions stay put.
    for k, i in enumerate(reversed(discard)):
        t = np.trace(t, axis1=i, axis2=i + n - k)
    kept = int(np.prod([d for i, d in enumerate(dims) if i not in discard]))
    return np.ascontiguousarray(t.reshape(kept, kept))


def permute_subsystems(m, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors. ``perm[j]`` is the original factor placed at
    slot ``j`` of the result, so the result has shape ``[dims[p] for p in perm]``.

    Inverse round trip: permuting by ``p`` then by ``argsort(p)`` restores the
    input. Trace and spectrum are preserved.
    """
    a = as_operator(m)
    dims = _check_shape(a, dims)
    n = len(dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    t = a.reshape(dims + dims)
    axes = perm + [p + n for p in perm]
    out_dim = a.shape[0]
    return np.ascontiguousarray(t.transpose(axes).reshape(out_dim, out_dim))


def eigenvalue_range(m, tol: float | None = None) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the Hermitian part (M + M^dagger)/2,
    from one eigendecomposition.

    Rejects inputs with a non-finite entry, and inputs that are not Hermitian
    within ``tol`` (default: scale-aware tolerance).
    """
    return _hermitian_extremes(require_hermitian(_require_finite(m), tol))


def _hermitian_extremes(a: np.ndarray) -> tuple[float, float]:
    """:func:`eigenvalue_range` of an operator that has passed its checks."""
    lam = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return float(lam[0]), float(lam[-1])


def min_eigenvalue(m, tol: float | None = None) -> float:
    """Smallest eigenvalue of the Hermitian part (M + M^dagger)/2.

    Rejects inputs with a non-finite entry, and inputs that are not Hermitian
    within ``tol`` (default: scale-aware tolerance).
    """
    return eigenvalue_range(m, tol)[0]
