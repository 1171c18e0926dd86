"""Hermitian operator basis per subsystem and decomposition of multipartite
operators into real-coefficient tensor-product terms.

The basis for dimension d is the generalized Gell-Mann construction with the
identity in slot 0, rescaled so that trace(s_i s_j) = d * delta_ij. For d = 2
this reproduces the Pauli matrices {I, X, Y, Z} exactly. Index ordering within
each dimension: identity, then symmetric (X-like) elements by (row, col), then
antisymmetric (Y-like) by (row, col), then diagonal (Z-like) ones.
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


@lru_cache(maxsize=None)
def _merge_matrix(a: int, b: int) -> np.ndarray:
    """Basis change ``T[K, (i, j)] = trace(S_K (s_i x s_j)) / (a*b)`` into
    the merged ``a*b`` basis. It is real and maps the identity only to the
    identity, so each factor's identity/traceless split survives."""
    d = a * b
    sa = np.stack(make_basis(a).ops)
    sb = np.stack(make_basis(b).ops)
    products = np.einsum("ipq,jrs->ijprqs", sa, sb).reshape(a * a * b * b, d * d)
    t = (_extraction_matrix(d) @ products.T).real / d
    t.setflags(write=False)
    return t


def _contract(x: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Apply ``mats[k]`` to axis ``k`` of ``x``, for every ``k``: each step
    contracts the leading axis, appends the new one at the end, and
    multiplies only the slices that hold a nonzero entry."""
    for t in mats:
        x = x.reshape(t.shape[1], -1)
        live = np.flatnonzero(x.any(axis=0))
        if len(live) == x.shape[1]:
            x = x.T @ t.T
        else:
            out = np.zeros((x.shape[1], t.shape[0]), dtype=np.result_type(x, t))
            out[live] = x[:, live].T @ t.T
            x = out
    return x.reshape([t.shape[0] for t in mats])


def coefficient_tensor(m, dims: Sequence[int]) -> np.ndarray:
    """Full coefficient array of a Hermitian operator over the tensor-product
    basis, shape (d_1^2, ..., d_n^2); entry [i1,...,in] = trace(m s_I) / D.

    Raises ValueError for non-Hermitian input or if the extracted
    coefficients carry an imaginary residue above 1e-10 (scaled).
    """
    a = linalg.require_hermitian(m)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = math.prod(dims)
    if total != a.shape[0]:
        raise ValueError(f"shape {dims} does not match matrix dimension {a.shape[0]}")
    # Interleave (row_k, col_k), so that each pair is one axis of size d_k^2.
    order = [ax for k in range(n) for ax in (k, k + n)]
    t = _contract(a.reshape(dims + dims).transpose(order), [_extraction_matrix(d) for d in dims])
    coeffs = t.real / total
    residue = float(np.abs(t.imag).max()) / total
    if residue > 1e-10 * (1.0 + float(np.abs(coeffs).max(initial=0.0))):
        raise ValueError(f"coefficient extraction left imaginary residue {residue:.3e}")
    return coeffs


def _merge_coefficients(cw: np.ndarray, cz: np.ndarray,
                        pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Coefficients of ``W x Z`` from those of ``W`` and ``Z``; merged subsystem
    ``k`` is subsystem ``pairs[k][0]`` of ``W`` times ``pairs[k][1]`` of ``Z``."""
    w_axes, z_axes = zip(*pairs)
    n = len(pairs)
    # Outer product, parts of a merged subsystem adjacent: unnamed, so freed after one step.
    return _contract(
        np.expand_dims(cw.transpose(w_axes), tuple(range(1, 2 * n, 2)))
        * np.expand_dims(cz.transpose(z_axes), tuple(range(0, 2 * n, 2))),
        [_merge_matrix(math.isqrt(cw.shape[a]), math.isqrt(cz.shape[b])) for a, b in pairs])


def default_term_tol(coeffs: np.ndarray) -> float:
    """Pruning threshold separating structural zeros from float residue."""
    peak = max(float(coeffs.max(initial=0.0)), -float(coeffs.min(initial=0.0)))
    return 1e-9 * max(1.0, peak)


def _term_rows(coeffs: np.ndarray, tol: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices (rows, lexicographic order) and coefficients of the terms
    with |coefficient| > ``tol`` (default :func:`default_term_tol`)."""
    if tol is None:
        tol = default_term_tol(coeffs)
    indices = np.argwhere((coeffs > tol) | (coeffs < -tol))
    return indices, coeffs[tuple(indices.T)]


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
