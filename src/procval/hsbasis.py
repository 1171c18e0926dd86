"""Hermitian operator basis per subsystem and decomposition of multipartite
operators into real-coefficient tensor-product terms.

The basis for dimension d is the generalized Gell-Mann construction with the
identity in slot 0, rescaled so that trace(s_i s_j) = d * delta_ij. For d = 2
this reproduces the Pauli matrices {I, X, Y, Z} exactly. Index ordering within
each dimension: identity, then symmetric (X-like) elements by (row, col), then
antisymmetric (Y-like) by (row, col), then diagonal (Z-like) ones.

The term rows of a tensor product merge from its factors' term rows, one
merged subsystem at a time, through the columns of the basis change into the
merged basis. Each column is read off the matrix units of ``s_i x s_j``, so
no dense basis-change matrix and no ``dim²`` coefficient tensor is formed.
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
    with |coefficient| > ``tol`` (default :func:`default_term_tol`)."""
    if tol is None:
        tol = default_term_tol(coeffs)
    kept = (coeffs > tol) | (coeffs < -tol)
    return np.argwhere(kept), coeffs[kept]


def _pair(d: int, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row ``j`` and column ``k > j`` of the X-like (equally, Y-like)
    element of dimension ``d`` with the given rank in basis order."""
    # Counted from the last pair, row d-2-m holds the m+1 ranks from m(m+1)/2.
    back = d * (d - 1) // 2 - 1 - rank
    m = ((np.sqrt(8.0 * back + 1.0) - 1.0) // 2).astype(np.int64)
    m += (m + 1) * (m + 2) // 2 <= back  # the float root may be off by one
    m -= m * (m + 1) // 2 > back
    return d - 2 - m, d - 1 - (back - m * (m + 1) // 2)


# Largest number of entries (rows times their width) one step of a merge may
# hold, 32 MB per int64 array; a step holds about a dozen such arrays. A fold
# that needs more fails with an error instead of exhausting memory, and
# [twoway-d2]*5 needs under 2**20.
MAX_MERGE_ENTRIES = 2**22


def _ranges(counts: np.ndarray, width: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Position ``u`` repeated ``counts[u]`` times, and ``0 .. counts[u]-1``
    beside it; refused when the rows, ``width`` entries each, would pass
    ``MAX_MERGE_ENTRIES``."""
    total = int(counts.sum())
    if total * width > MAX_MERGE_ENTRIES:
        raise ValueError(f"a merge step would hold {total} rows of {width} entries, "
                         f"more than {MAX_MERGE_ENTRIES}")
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(total) - (np.cumsum(counts) - counts)[owner]


def _levels(d: int, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level and scale of identity and Z-like elements of dimension ``d``:
    Z-like element ``l`` is ``scale * diag(1, .., 1, -l, 0, ..)`` with ``l``
    ones, and the identity has level ``d`` and scale 1."""
    level = np.where(elems == 0, d, elems - (d * d - d))
    return level, np.where(elems == 0, 1.0, np.sqrt(d / (level * (level + 1.0))))


def _entries(d: int, elems: np.ndarray) -> tuple[np.ndarray, ...]:
    """Nonzero matrix entries of the basis elements ``elems`` of dimension
    ``d``: the position in ``elems`` each belongs to, its row, its column
    and its value."""
    half = d * (d - 1) // 2
    diag = (elems == 0) | (elems > 2 * half)
    level, scale = _levels(d, np.where(diag, elems, 0))
    owner, t = _ranges(np.where(diag, np.minimum(level + 1, d), 2))
    e = elems[owner]
    rows = np.empty(len(owner), dtype=np.int64)
    cols = np.empty(len(owner), dtype=np.int64)
    vals = np.empty(len(owner), dtype=np.complex128)
    # X-like and Y-like: t = 0 is (j, k), t = 1 is (k, j).
    off = ~diag[owner]
    j, k = _pair(d, (e[off] - 1) % max(half, 1))
    first = t[off] == 0
    rows[off] = np.where(first, j, k)
    cols[off] = np.where(first, k, j)
    s = math.sqrt(d / 2.0)
    y_like = e[off] > half
    vals[off] = np.where(y_like, np.where(first, -1j * s, 1j * s), s)
    # Identity and Z-like: the diagonal entries, in order.
    on = ~off
    lv = level[owner[on]]
    rows[on] = cols[on] = t[on]
    vals[on] = scale[owner[on]] * np.where(t[on] < lv, 1, -lv)
    return owner, rows, cols, vals


def _merge_columns(a: int, b: int, codes: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns ``codes`` (each ``i * b*b + j``) of the basis change
    ``T[K, (i, j)] = trace(S_K (s_i x s_j)) / (a*b)`` into the merged ``a*b``
    basis, as compressed columns: offsets, merged indices ``K`` (ascending in
    each column) and values. Each column is read off the matrix units of
    ``s_i x s_j``, so an entry is zero exactly when it is zero in exact
    arithmetic."""
    d = a * b
    i, j = np.divmod(codes, b * b)
    diag_a = (i == 0) | (i > a * a - a)
    diag_b = (j == 0) | (j > b * b - b)
    both = diag_a & diag_b
    owners, ks, vals = [], [], []

    # A matrix unit |P><Q| with P < Q and its mirror carry X-like and Y-like
    # elements only: twice the real part of the entry on the X-like one, minus
    # twice the imaginary part on the Y-like one. Pairs of two diagonal
    # elements have no such entry.
    mixed = np.flatnonzero(~both)
    ua, pa, qa, va = _entries(a, i[mixed])
    ub, pb, qb, vb = _entries(b, j[mixed])
    na = np.bincount(ua, minlength=len(mixed))
    nb = np.bincount(ub, minlength=len(mixed))
    u, t = _ranges(na * nb)
    ea = (np.cumsum(na) - na)[u] + t // nb[u]
    eb = (np.cumsum(nb) - nb)[u] + t % nb[u]
    rows, cols = pa[ea] * b + pb[eb], qa[ea] * b + qb[eb]
    upper = rows < cols
    u, rows, cols = u[upper], rows[upper], cols[upper]
    m = va[ea[upper]] * vb[eb[upper]]
    rank = rows * d - rows * (rows + 1) // 2 + cols - rows - 1
    s = 2.0 * math.sqrt(d / 2.0) / d
    for k, v in ((1 + rank, s * m.real), (1 + d * (d - 1) // 2 + rank, -s * m.imag)):
        nz = v != 0
        owners.append(mixed[u[nz]])
        ks.append(k[nz])
        vals.append(v[nz])

    # Two diagonal elements x and y (integer diagonals, levels lx and ly):
    # s_i x s_j is diagonal with entries x_p y_r at P = p*b + r, and Z-like
    # element L = P reads sum_{P'<P} x_p' y_r' - L x_p y_r. That is zero
    # outside the box p <= lx, r <= ly, and inside it the prefix sums of x
    # and y are p and r, so it reads p * sum(y) + x_p r - L x_p y_r. Only the
    # identity of both reads the identity: 1.
    pairs = np.flatnonzero(both)
    lx, scale_x = _levels(a, i[pairs])
    ly, scale_y = _levels(b, j[pairs])
    ones = (i[pairs] == 0) & (j[pairs] == 0)
    owners.append(pairs[ones])
    ks.append(np.zeros(ones.sum(), dtype=np.int64))
    vals.append(np.ones(ones.sum()))
    height = np.minimum(ly + 1, b)
    u, t = _ranges(np.where(ones, 0, np.minimum(lx + 1, a) * height))
    p, r = np.divmod(t, height[u])
    x = np.where(p < lx[u], 1, -lx[u])
    y = np.where(r < ly[u], 1, -ly[u])
    level = p * b + r
    reads = p * np.where(j[pairs] == 0, b, 0)[u] + x * r - level * x * y
    nz = reads != 0
    u, level = u[nz], level[nz]
    owners.append(pairs[u])
    ks.append(d * d - d + level)
    vals.append((scale_x * scale_y)[u] * np.sqrt(d / (level * (level + 1.0))) / d * reads[nz])

    owner, k, v = (np.concatenate(x) for x in (owners, ks, vals))
    order = np.lexsort((k, owner))
    ptr = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=len(codes)), out=ptr[1:])
    return ptr, k[order], v[order]


@lru_cache(maxsize=None)
def _column_table(a: int, b: int) -> tuple[np.ndarray, ...]:
    """Every column of :func:`_merge_columns`, for merged dims ``a*b`` up to
    64 (at most 4096 columns), indexed by the pair code itself."""
    table = _merge_columns(a, b, np.arange((a * b) ** 2))
    for x in table:
        x.setflags(write=False)
    return table


def _group_rows(cols: Sequence[np.ndarray], sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the index columns ``cols`` (column ``k`` below
    ``sizes[k]``) in lexicographic order: one row number per distinct row,
    and the group of every row. Rows are packed into one int64 key while the
    index space fits, and sorted column by column beyond it."""
    if math.prod(sizes) <= 2**63:
        key = np.zeros(len(cols[0]), dtype=np.int64)
        for c, size in zip(cols, sizes):
            key = key * size + c
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
        return first, group
    order = np.lexsort(cols[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for c in cols:
        c = c[order]
        new[1:] |= c[1:] != c[:-1]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _prune(values: np.ndarray) -> np.ndarray:
    """The rows kept at :func:`default_term_tol`; a non-finite value is kept,
    so that the caller sees it."""
    return (np.abs(values) > default_term_tol(values)) | ~np.isfinite(values)


def _merge_rows(w: tuple[np.ndarray, np.ndarray], z: tuple[np.ndarray, np.ndarray],
                w_dims: Sequence[int], z_dims: Sequence[int],
                pairs: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Term rows (basis indices in lexicographic order, and coefficients) of
    ``W x Z`` from the term rows of ``W`` and ``Z``; merged subsystem ``k`` is
    subsystem ``pairs[k][0]`` of ``W`` times ``pairs[k][1]`` of ``Z``.

    Every pair of rows starts as one product row. Subsystem by subsystem, a
    row expands through the nonzero entries of its merge column; rows that
    are then equal are summed and the sums pruned at
    :func:`default_term_tol`."""
    (w_idx, w_val), (z_idx, z_val) = w, z
    # Before its step a column holds the pair code i * b*b + j, after it the
    # merged index K: both below (a*b)**2.
    sizes = [(w_dims[p] * z_dims[q]) ** 2 for p, q in pairs]
    if max(sizes) > 2**63:
        raise ValueError(f"a merged subsystem of dim {math.isqrt(max(sizes))} has more "
                         "basis elements than int64 indices hold")
    rw, rz = _ranges(np.full(len(w_val), len(z_val)), len(pairs))
    values = w_val[rw] * z_val[rz]
    cols = [w_idx[rw, p] * z_dims[q] ** 2 + z_idx[rz, q] for p, q in pairs]
    for k, (p, q) in enumerate(pairs):
        if w_dims[p] * z_dims[q] <= 64:
            col = cols[k]
            ptr, merged, weights = _column_table(w_dims[p], z_dims[q])
        else:
            codes, col = np.unique(cols[k], return_inverse=True)
            ptr, merged, weights = _merge_columns(w_dims[p], z_dims[q], codes)
        rows, at = _ranges((ptr[1:] - ptr[:-1])[col], len(pairs))
        at += ptr[col][rows]
        cols = [c[rows] for c in cols]
        cols[k] = merged[at]
        first, group = _group_rows(cols, sizes)
        values = np.bincount(group, weights=values[rows] * weights[at], minlength=len(first))
        kept = _prune(values)
        cols = [c[first[kept]] for c in cols]
        values = values[kept]
    return np.stack(cols, axis=-1), values


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
