"""Answers computed by the benchmark itself, apart from the procval code
paths it times. The correctness checks compare procval's outputs with these.
"""

from __future__ import annotations

import numpy as np

IN, OUT = 1, 2  # per-party tag bits


def term_tags(indices) -> tuple[int, ...]:
    """Per-party tag of a basis term from its indices alone: the input index
    of party k sits at 2k, the output index at 2k + 1."""
    return tuple((IN if indices[2 * k] else 0) | (OUT if indices[2 * k + 1] else 0)
                 for k in range(len(indices) // 2))


def blocks(indices_w, indices_z) -> bool:
    """True when two nontrivial terms merge (positionally, party by party)
    into a term that is a pure input on no party."""
    tw, tz = term_tags(indices_w), term_tags(indices_z)
    if not any(tw) or not any(tz):
        return False
    return all((a | b) != IN for a, b in zip(tw, tz))


def pair_indices(pairs) -> int:
    """Hash of the term indices of a blocking-pair list (coefficients left
    out, so the value does not depend on floating-point summation order)."""
    return hash(tuple((tw.indices, tz.indices) for tw, tz in pairs))


def _replace(t: np.ndarray, k: int, n: int, d: int) -> np.ndarray:
    """Trace-and-replace on subsystem k of an operator reshaped to dims+dims:
    (I/d) on k tensored with the partial trace over k."""
    tr = np.expand_dims(np.trace(t, axis1=k, axis2=k + n), (k, k + n))
    shape = [1] * (2 * n)
    shape[k] = shape[k + n] = d
    return tr * (np.eye(d) / d).reshape(shape)


def signals(op: np.ndarray, dims: tuple[int, ...], frm: int, to: int) -> bool:
    """Whether the process has a component that is traceless on party
    ``frm``'s output and on party ``to``'s input and the identity on ``to``'s
    output: the part through which ``frm``'s output reaches ``to``'s input.

    Computed with trace-and-replace projectors on the dense operator, so no
    basis or term list is involved. Parties are given by position; subsystem
    2p is party p's input and 2p + 1 its output.
    """
    n = len(dims)
    t = np.asarray(op).reshape(dims + dims)
    for k, keep_traceless in ((2 * frm + 1, True), (2 * to, True), (2 * to + 1, False)):
        r = _replace(t, k, n, dims[k])
        t = t - r if keep_traceless else r
    return float(np.linalg.norm(t)) > 1e-7 * (1.0 + float(np.linalg.norm(op)))


def two_party_directions(op: np.ndarray, dims: tuple[int, ...]) -> frozenset:
    """Signalling directions of a two-party process, as ('X','Y') pairs."""
    out = set()
    if signals(op, dims, 0, 1):
        out.add(("X", "Y"))
    if signals(op, dims, 1, 0):
        out.add(("Y", "X"))
    return frozenset(out)


def pairwise_rule_valid(direction_sets) -> bool:
    """The pairwise rule for products of valid two-party processes: the
    product is invalid exactly when one factor signals X->Y and another
    factor signals Y->X."""
    sets = list(direction_sets)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and ("X", "Y") in a and ("Y", "X") in b:
                return False
    return True


def built_product(w_op, w_dims, z_op, z_dims) -> tuple[np.ndarray, tuple[int, ...]]:
    """Kronecker product of two processes with the same party count, parties
    merged by position: merged input = (first input, second input), and the
    same for outputs. Returns the operator and its merged subsystem dims."""
    n = len(w_dims)
    raw = np.kron(w_op, z_op).reshape(tuple(w_dims) + tuple(z_dims)
                                       + tuple(w_dims) + tuple(z_dims))
    order = [ax for k in range(n) for ax in (k, n + k)]
    perm = order + [2 * n + ax for ax in order]
    dims = tuple(w_dims[k] * z_dims[k] for k in range(n))
    total = int(np.prod(dims))
    return raw.transpose(perm).reshape(total, total), dims


def _householder(d: int) -> np.ndarray:
    """Real orthogonal matrix on vec(L(C^d)) whose first row is vec(I)/sqrt(d):
    the first coordinate is the identity part, the rest span the traceless
    operators."""
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    e0 = np.zeros(d * d)
    e0[0] = 1.0
    u = e0 - v
    if np.linalg.norm(u) < 1e-12:
        return np.eye(d * d)
    u /= np.linalg.norm(u)
    return np.eye(d * d) - 2.0 * np.outer(u, u)


def pattern_weights(op: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Squared Frobenius weight of every identity/traceless pattern: entry
    [b_1, ..., b_n] (b = 0 identity, 1 traceless on that subsystem) is the
    squared norm of the part of ``op`` with that pattern. The split does not
    depend on the operator basis; this one uses a Householder basis, not the
    Gell-Mann basis procval expands in."""
    n = len(dims)
    t = np.asarray(op).reshape(tuple(dims) + tuple(dims))
    order = [ax for k in range(n) for ax in (k, k + n)]
    t = t.transpose(order).reshape([d * d for d in dims])
    for k, d in enumerate(dims):
        t = np.moveaxis(np.tensordot(_householder(d), t, axes=(1, k)), 0, k)
    w = np.abs(t) ** 2
    for k in range(n):
        w = np.concatenate([w.take([0], axis=k), w.take(range(1, w.shape[k]), axis=k)
                            .sum(axis=k, keepdims=True)], axis=k)
    return w


def term_rule_holds(op: np.ndarray, dims: tuple[int, ...]) -> bool:
    """The term rule on a dense operator: no weight on a pattern that is a
    pure input on no party (the trivial pattern aside)."""
    w = pattern_weights(op, dims)
    forbidden = 0.0
    for pattern in np.ndindex(*w.shape):
        if any(pattern) and not any(pattern[2 * p] and not pattern[2 * p + 1]
                                    for p in range(len(dims) // 2)):
            forbidden += w[pattern]
    return np.sqrt(forbidden) <= 1e-8 * np.sqrt(w.sum())


def process_checks(op: np.ndarray, d_out: int) -> bool:
    """PSD and trace of a factor, at procval's default tolerances."""
    psd = np.linalg.eigvalsh((op + op.conj().T) / 2)[0] >= -1e-9 * np.linalg.norm(op)
    return bool(psd and abs(np.trace(op).real - d_out) <= 1e-9 * d_out)


def basis_sum(terms, dims, basis_ops) -> np.ndarray:
    """Dense operator sum_I c_I (s_i1 x s_i2 x ...) from (indices, coeff)
    pairs; ``basis_ops(d)`` gives the local basis of dimension d."""
    total = int(np.prod(dims))
    acc = np.zeros((total, total), dtype=np.complex128)
    for indices, coeff in terms:
        m = np.ones((1, 1), dtype=np.complex128)
        for i, d in zip(indices, dims):
            m = np.kron(m, basis_ops(d)[i])
        acc += coeff * m
    return acc
