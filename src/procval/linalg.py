"""Dense complex matrix kernel: Kronecker products, partial traces, subsystem
permutations and Hermitian spectra.

Conventions used everywhere in this package: row-major storage, big-endian
composite indexing (leftmost tensor factor is the most significant index).
All operators are square ``numpy`` arrays promoted to complex128.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "tensor",
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
    """Largest entrywise deviation |M - M^dagger|, read off the upper triangle
    in row blocks, so that no full-size temporary is made."""
    a = as_operator(m)
    step = max(1, 2**16 // len(a))
    blocks = (np.abs(a[i:i + step, i:] - a[i:, i:i + step].conj().T).max()
              for i in range(0, len(a), step))
    return float(max(blocks, key=lambda v: (v != v, v)))  # NaN wins, as in np.max


def hermitian_tolerance(m, norm: float | None = None) -> float:
    """Scale-aware tolerance below which a matrix counts as Hermitian.
    ``norm`` is ``frobenius(m)``, when the caller has taken it already."""
    return 1e-12 * (1.0 + (frobenius(m) if norm is None else norm))


def require_hermitian(m) -> np.ndarray:
    """Return ``m`` as complex128, raising ValueError if it is not Hermitian
    within the scale-aware :func:`hermitian_tolerance`."""
    a = as_operator(m)
    _check_hermitian(a)
    return a


def _check_hermitian(a: np.ndarray, norm: float | None = None) -> float:
    """The check of :func:`require_hermitian` on a complex128 matrix
    (``norm`` as in :func:`hermitian_tolerance`): raises as it does, else
    returns the :func:`hermiticity_defect` that passed."""
    limit = hermitian_tolerance(a, norm)
    defect = hermiticity_defect(a)
    if defect > limit:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} > {limit:.3e}"
        )
    return defect


def _check_threshold(name: str, value) -> None:
    """Raise ValueError unless ``value``, the threshold ``name`` a caller gave,
    is a finite number >= 0: any other would pass or fail every input alike."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def _checked(m) -> tuple[np.ndarray, float, float]:
    """``m`` as complex128, its :func:`frobenius` norm and its
    :func:`hermiticity_defect`, after the one check that every record,
    spectrum and term query reads behind: for a non-finite entry, then for
    Hermiticity within the tolerance of that norm."""
    a = as_operator(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    norm = frobenius(a)
    return a, norm, _check_hermitian(a, norm)


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
    total = math.prod(dims)
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
    kept = math.prod(d for i, d in enumerate(dims) if i not in discard)
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


def eigenvalue_range(m) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the Hermitian part (M + M^dagger)/2:
    from one eigendecomposition, or, from ``_LIVE_MIN`` entries on, from one
    per coupled block of its nonzero pattern (:func:`_hermitian_extremes`).

    Rejects inputs with a non-finite entry, and inputs that are not Hermitian
    within the scale-aware :func:`hermitian_tolerance` (:func:`_checked`);
    an exactly Hermitian input is read without the Hermitian-part copy.
    """
    return _hermitian_extremes(*_checked(m))


# Operator size (entries) from which extraction multiplies only its live
# slices (hsbasis._contract) and a spectrum is read block by block
# (_hermitian_extremes). Below it, finding them costs more than the plain
# work: extracting a dim-16 operator takes 31 us plain against 62 us, a
# dim-32 one 110 against 230, and at dim 81 the two are even. A sparse
# dim-128 product extracts in 274 us against 331 plain, and a dim-256
# gallery product in 1.9 ms against 3.8 (one BLAS thread, best of 5). The
# spectrum of a dim-256 gallery product takes 0.2-0.4 ms by block against
# 5-9 ms for one eigvalsh, and a dim-256 operator that is one block pays
# about 0.06 ms for its first pass.
_LIVE_MIN = 1 << 13
# The norm up to which ``2 a`` and a product's entries and norm are surely
# finite (docs/tolerances.md); a Python float, so that a bound past the
# double range is infinite without a warning.
_SAFE_NORM = 1e300


def _hermitian_extremes(a: np.ndarray, norm: float, defect: float) -> tuple[float, float]:
    """:func:`eigenvalue_range` of an operator ``a`` that has passed
    :func:`_checked`, which gave its ``norm`` and ``defect``. A defect of
    exactly 0 makes ``a`` equal to ``a^dagger`` entry by entry, and below
    ``_SAFE_NORM`` ``2 a`` cannot overflow, so ``a`` is its own Hermitian
    part and is read without the copy: ``eigvalsh`` reads one triangle,
    and its values are the same in both.

    From ``_LIVE_MIN`` entries on, a Hermitian part whose nonzero pattern
    splits into coupled blocks (:func:`_coupled_blocks`) is read block by
    block: a 1 x 1 block's eigenvalue is its real diagonal entry, and the
    blocks of each size go through one stacked ``eigvalsh``."""
    h = a if defect == 0.0 and norm <= _SAFE_NORM else (a + a.conj().T) / 2.0
    blocks = _coupled_blocks(h) if h.size >= _LIVE_MIN else None
    if blocks is None:
        lam = np.linalg.eigvalsh(h)
        return float(lam[0]), float(lam[-1])
    lo, hi = math.inf, -math.inf
    for idx in blocks:
        if idx.shape[1] == 1:
            lam = h[idx, idx].real
        else:
            lam = np.linalg.eigvalsh(h[idx[:, :, None], idx[:, None, :]])
        lo, hi = min(lo, float(lam[:, 0].min())), max(hi, float(lam[:, -1].max()))
    return lo, hi


def _coupled_blocks(h: np.ndarray) -> list[np.ndarray] | None:
    """The connected components of the exact nonzero pattern of the
    Hermitian matrix ``h``, as one ``(count, k)`` array of indices per block
    size ``k``, ascending in each row; None when they are one block, or
    when ``dim.bit_length()`` passes do not settle them.

    ``h`` equals ``h^dagger`` entry by entry, so its pattern is that of the
    triangle ``eigvalsh`` reads, mirrored. Each pass reads the pattern in
    row blocks of at most 2**16 entries and hooks the root of each block
    found so far onto the smallest root next to it, which keeps every
    block connected: a pass that hooks nothing, or that leaves one root,
    has settled them. A first column with no zero joins every row to row
    0 before any pass."""
    n = len(h)
    if (h[:, 0] != 0).all():
        return None
    root = np.arange(n)
    step = max(1, 2**16 // n)
    for k in range(n.bit_length()):
        low = np.empty_like(root)
        for i in range(0, n, step):
            # Either part of an entry nonzero: its two float flags, as one uint16.
            flags = np.ascontiguousarray(h[i:i + step]).view(np.float64) != 0
            nz = flags.view(np.uint16) != 0
            if k:
                low[i:i + step] = np.where(nz, root, n).min(axis=1)
            else:  # each root is its index: the first nonzero column is the smallest
                first = nz.argmax(axis=1)
                low[i:i + step] = np.where(nz[np.arange(len(nz)), first], first, n)
        np.minimum(low, root, out=low)  # a row of zeros is its own block
        if (low == root).all():
            break
        np.minimum.at(root, root.copy(), low)
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up
        if not root.any():
            return None
    else:
        return None
    order = np.argsort(root, kind="stable")
    size = np.bincount(root)[root[order]]
    return [order[size == k].reshape(-1, k) for k in np.flatnonzero(np.bincount(size))]


def _pattern_weights(m, dims: Sequence[int]) -> np.ndarray:
    """Squared Frobenius norm of each pattern part of ``m``, computed without
    an operator basis. Split ``m`` subsystem by subsystem into its trace
    part ``tr_k(m) ⊗ I/d_k`` and the traceless remainder; entry
    ``[b_1, ..., b_n]`` is ``‖m_b‖_F²`` of the part that is a trace part on
    each subsystem with ``b_k = 0`` and traceless on each with ``b_k = 1``.
    A subsystem of dimension 1 has no traceless part, so its axis has size
    1. The parts are orthogonal, so the entries sum to ``‖m‖_F²``; in any
    orthogonal basis with the identity first and ``tr(s_i s_j) = d δ_ij``,
    entry ``b`` is ``dim`` times the sum of the squared coefficients of the
    terms that are not the identity exactly where ``b_k = 1``.

    The split runs depth first on one copy of ``m``: each trace part is a
    new array ``d_k²`` times smaller, and each remainder is made in place,
    so the peak is about ``4/3`` of one copy."""
    a = as_operator(m)
    dims = _check_shape(a, dims)
    n = len(dims)
    # One (row, column) axis pair per subsystem, in order; the copy is split in place.
    x = a.reshape(dims + dims).transpose([ax for k in range(n) for ax in (k, k + n)]).copy()
    out = np.zeros([2 if d > 1 else 1 for d in dims])
    _split(x.reshape(1, -1), dims, (), 1.0, out)
    return out


def _split(x: np.ndarray, dims: tuple[int, ...], index: tuple[int, ...], scale: float,
           out: np.ndarray) -> None:
    """Write into ``out`` the weights of the parts of ``scale``-weighted
    ``x`` below pattern prefix ``index``: ``x`` holds the processed
    subsystems' axes flattened first, then one (row, column) pair per
    remaining subsystem, and is overwritten."""
    k = len(index)
    if k == len(dims):
        out[index] = scale * np.vdot(x, x).real
        return
    d = dims[k]
    if d == 1:
        _split(x, dims, index + (0,), scale, out)
        return
    y = x.reshape(x.shape[0], d * d, -1)
    diag = y[:, :: d + 1]
    trace = diag.sum(axis=1)
    diag -= trace[:, None, :] / d
    # ‖T ⊗ I/d‖² = ‖T‖²/d.
    _split(trace, dims, index + (0,), scale / d, out)
    _split(y.reshape(x.shape[0] * d * d, -1), dims, index + (1,), scale, out)


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of the Hermitian part (M + M^dagger)/2, read as
    :func:`eigenvalue_range` reads it.

    Rejects inputs with a non-finite entry, and inputs that are not Hermitian
    within the scale-aware :func:`hermitian_tolerance`.
    """
    return eigenvalue_range(m)[0]
