"""Hermitian operator basis per subsystem and decomposition of multipartite
operators into real-coefficient tensor-product terms.

The basis for dimension d is the generalized Gell-Mann construction with the
identity in slot 0, rescaled so that trace(s_i s_j) = d * delta_ij. For d = 2
this reproduces the Pauli matrices {I, X, Y, Z} exactly. Index ordering within
each dimension: identity, then symmetric (X-like) elements by (row, col), then
antisymmetric (Y-like) by (row, col), then diagonal (Z-like) ones.

The term rows of a tensor product are made from its factors' term rows
multiplied out, in the factors' product basis: a merged subsystem made of
subsystem ``p`` of one factor and ``q`` of the other has the elements
``s_i x s_j``, index ``i * d_q**2 + j``. That basis is orthogonal, with the
identity at index 0 and traceless elements elsewhere, so the term rule
reads it as it reads the Gell-Mann basis of the merged dimension; the
listings differ, since an extraction of the product operator expands it
over the latter. A merged record keeps one of those rows per tag pattern
(:func:`procval.product._merge_records`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg

__all__ = ["HSBasis", "HSTerm", "make_basis", "decompose", "reconstruct",
           "coefficient_tensor", "default_term_tol"]


@dataclass(frozen=True)
class HSBasis:
    """Orthogonal Hermitian basis of L(C^d): d*d operators, identity first."""

    dim: int
    ops: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True, order=True)
class HSTerm:
    """One tensor-product basis term: a basis index per subsystem (0 means
    identity) and a real coefficient."""

    indices: tuple[int, ...]
    coeff: float

    def is_trivial(self) -> bool:
        return all(i == 0 for i in self.indices)


@lru_cache(maxsize=None)
def make_basis(d: int) -> HSBasis:
    """Build (and cache) the Hermitian operator basis for dimension ``d``."""
    if d < 1:
        raise ValueError("basis dimension must be >= 1")
    ops = [np.eye(d, dtype=np.complex128)]
    scale = math.sqrt(d / 2.0)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = scale
            m[k, j] = scale
            ops.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=np.complex128)
            m[j, k] = -1j * scale
            m[k, j] = 1j * scale
            ops.append(m)
    for l in range(1, d):
        diag = [1.0] * l + [-float(l)] + [0.0] * (d - l - 1)
        m = np.diag(np.asarray(diag, dtype=np.complex128))
        m *= scale * math.sqrt(2.0 / (l * (l + 1)))
        ops.append(m)
    for m in ops:
        m.setflags(write=False)
    return HSBasis(dim=d, ops=tuple(ops))


@lru_cache(maxsize=None)
def _extraction_matrix(d: int) -> np.ndarray:
    """Rows are the flattened transposed basis elements, so that
    row i contracted with a flattened (row, col) pair block of the operator
    yields trace(m s_i) for that subsystem."""
    return np.stack([op.T.reshape(-1) for op in make_basis(d).ops])


def _contract(x: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Apply ``mats[k]`` to axis ``k`` of ``x``, for every ``k``: each step
    contracts the leading axis and appends the new one at the end. A step
    whose operand has ``linalg._LIVE_MIN`` entries or more multiplies only the
    slices that hold a nonzero entry; the others come out zero either way,
    up to the sign of a zero."""
    for t in mats:
        x = x.reshape(t.shape[1], -1)
        live = np.flatnonzero(x.any(axis=0)) if x.size >= linalg._LIVE_MIN else None
        if live is None or len(live) == x.shape[1]:
            x = x.T @ t.T
        else:
            out = np.zeros((x.shape[1], t.shape[0]), dtype=np.result_type(x, t))
            out[live] = x[:, live].T @ t.T
            x = out
    return x.reshape([t.shape[0] for t in mats])


def coefficient_tensor(m, dims: Sequence[int]) -> np.ndarray:
    """Full coefficient array of a Hermitian operator over the tensor-product
    basis, shape (d_1^2, ..., d_n^2); entry [i1,...,in] = trace(m s_I) / D.

    Raises ValueError for non-Hermitian input (:func:`linalg.require_hermitian`)
    or if the extracted coefficients carry an imaginary residue above 1e-10
    (scaled).
    """
    return _extract(linalg.require_hermitian(m), dims)


def _extract(a: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """:func:`coefficient_tensor` of a complex128 operator whose Hermiticity
    the caller has checked."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = math.prod(dims)
    if total != a.shape[0]:
        raise ValueError(f"shape {dims} does not match matrix dimension {a.shape[0]}")
    # Interleave (row_k, col_k), so that each pair is one axis of size d_k^2.
    order = [ax for k in range(n) for ax in (k, k + n)]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned
        t = _contract(a.reshape(dims + dims).transpose(order), [_extraction_matrix(d) for d in dims])
    coeffs = t.real / total
    residue = float(np.abs(t.imag).max()) / total
    peak = float(np.abs(coeffs).max(initial=0.0))
    # Both are finite exactly when every coefficient is.
    if not (math.isfinite(residue) and math.isfinite(peak)) and np.isfinite(a).all():
        raise ValueError("coefficient extraction overflowed: entries too close to the double range")
    if residue > 1e-10 * (1.0 + peak):
        raise ValueError(f"coefficient extraction left imaginary residue {residue:.3e}")
    return coeffs


def default_term_tol(coeffs: np.ndarray) -> float:
    """Pruning threshold separating structural zeros from float residue."""
    peak = max(float(coeffs.max(initial=0.0)), -float(coeffs.min(initial=0.0)))
    return 1e-9 * max(1.0, peak)


def _term_rows(coeffs: np.ndarray, tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices (rows, lexicographic order) and coefficients of the terms
    with |coefficient| > ``tol`` (default :func:`default_term_tol`). A given
    ``tol`` must be a finite number >= 0: NaN would keep no term, and a
    negative one every zero."""
    if tol is None:
        tol = default_term_tol(coeffs)
    else:
        linalg._check_threshold("term threshold", tol)
    kept = (coeffs > tol) | (coeffs < -tol)
    return np.argwhere(kept), coeffs[kept]


def _merge_rows(w: tuple[np.ndarray, np.ndarray], z: tuple[np.ndarray, np.ndarray],
                w_dims: Sequence[int], z_dims: Sequence[int],
                pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Term rows (basis indices in lexicographic order, and coefficients) of
    ``W x Z`` from the term rows of ``W`` and ``Z``: one row per pair of
    rows, with coefficient ``c_w * c_z``. Merged subsystem ``k`` is
    subsystem ``p = pairs[k][0]`` of ``W`` times ``q = pairs[k][1]`` of
    ``Z``, and its index ``i * d_q**2 + j`` names ``s_i x s_j`` of the
    factors' bases. Nothing is pruned, so a row exists exactly when both
    factor rows do, and a non-finite coefficient is kept for the caller.
    A merged subsystem whose indices would not fit int64 raises."""
    (w_idx, w_val), (z_idx, z_val) = w, z
    size = max((w_dims[p] * z_dims[q]) ** 2 for p, q in pairs)
    if size > 2**63:
        raise ValueError(f"a merged subsystem of dim {math.isqrt(size)} has more "
                         "basis elements than int64 indices hold")
    rw, rz = np.divmod(np.arange(len(w_val) * len(z_val)), len(z_val))
    cols = [w_idx[rw, p] * z_dims[q] ** 2 + z_idx[rz, q] for p, q in pairs]
    order = np.lexsort(cols[::-1])
    return np.stack(cols, axis=-1)[order], (w_val[rw] * z_val[rz])[order]


def decompose(m, dims: Sequence[int], tol: float | None = None) -> list[HSTerm]:
    """Expand a Hermitian operator over the tensor-product basis.

    Returns the terms with |coefficient| > ``tol`` (default: relative
    threshold from :func:`default_term_tol`), sorted by multi-index.
    """
    indices, coeffs = _term_rows(coefficient_tensor(m, dims), tol)
    return [HSTerm(tuple(map(int, idx)), float(c)) for idx, c in zip(indices, coeffs)]


def reconstruct(terms: Sequence[HSTerm], dims: Sequence[int]) -> np.ndarray:
    """Sum of coeff * s_I over the given terms, as a dense operator."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = math.prod(dims)
    coeffs = np.zeros([d * d for d in dims])
    for t in terms:
        if len(t.indices) != n:
            raise ValueError(f"term {t.indices} does not match {n} subsystems")
        for i, d in zip(t.indices, dims):
            if not 0 <= i < d * d:
                raise IndexError(f"basis index {i} out of range for dimension {d}")
        coeffs[t.indices] += t.coeff
    # The extraction matrix's conjugate transpose has the flattened basis
    # elements as columns; each d^2 axis then splits into (row, col), rows first.
    t = _contract(coeffs, [_extraction_matrix(d).conj().T for d in dims])
    t = t.reshape([x for d in dims for x in (d, d)])
    rows_then_cols = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return np.ascontiguousarray(t.transpose(rows_then_cols).reshape(total, total))
