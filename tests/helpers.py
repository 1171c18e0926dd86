"""Shared builders for the test suite: random Hermitian operators and the
randomized bipartite-qubit process suite used by the product/oracle tests."""

from __future__ import annotations

import numpy as np

from procval import (
    PartyLayout,
    ProcessMatrix,
    gallery_entry,
    mixture,
    oneway_channel_process,
    random_valid_process,
    tensor_product,
)

QUBIT_BIPARTITE = PartyLayout.of(("X", 2, 2), ("Y", 2, 2))

# Oracle witness of the squared two-way channel process at zero samples: the
# first sweep tuple (row-major over the party axes) with the largest deviation.
SQUARED_TWOWAY_WITNESS = "sweep[I/4+(|0><0|)x(|1><1|-|2><2|)/4,I/4+(|0><0|)x(|1><1|-|2><2|)/4]"

BASE_NAMES = (
    "twoway-d2",
    "oneway-xy-d2",
    "oneway-yx-d2",
    "state-bell-d2",
    "state-product-d2",
)


def random_hermitian(d: int, rng, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (g + g.conj().T) / 2.0


def random_unitary(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bipartite_qubit_suite(seed: int = 20240811, n_mixtures: int = 15,
                          n_random: int = 16):
    """Valid two-party qubit processes: the gallery fixtures, random convex
    mixtures of them, and randomly projected valid processes."""
    base = [gallery_entry(name).process for name in BASE_NAMES]
    rng = np.random.default_rng(seed)
    suite = list(base)
    for _ in range(n_mixtures):
        i, j = rng.choice(len(base), size=2, replace=False)
        t = float(rng.uniform(0.15, 0.85))
        suite.append(mixture([base[i], base[j]], [t, 1.0 - t]))
    for _ in range(n_random):
        suite.append(random_valid_process(QUBIT_BIPARTITE,
                                          seed=int(rng.integers(2 ** 62))))
    return suite


def suite_pairs(suite, seed: int = 7, n: int = 200):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(suite), size=(n, 2))
    return [(suite[i], suite[j]) for i, j in idx]


def dense_product(w, z, pairing=None):
    """The built product of ``w`` and ``z`` without its carried extremes and
    term rows: validating it eigendecomposes and extracts the whole
    operator, the dense reference the factor paths are compared against."""
    built = tensor_product(w, z, pairing=pairing)
    return ProcessMatrix(built.layout, built.op)


def cyclic_triple():
    """Three valid three-party factors on X, Y and Z that signal X→Y, Y→Z
    and Z→X: every pair has a valid product, the three together do not."""
    xy, yx = oneway_channel_process(2, "xy").op, oneway_channel_process(2, "yx").op
    return (ProcessMatrix(PartyLayout.of(("X", 2, 2), ("Y", 2, 2), ("Z", 1, 1)), xy),
            ProcessMatrix(PartyLayout.of(("X", 1, 1), ("Y", 2, 2), ("Z", 2, 2)), xy),
            ProcessMatrix(PartyLayout.of(("X", 2, 2), ("Y", 1, 1), ("Z", 2, 2)), yx))


def record_eigvalsh_dims(monkeypatch) -> list[int]:
    """Wrap ``numpy.linalg.eigvalsh`` for the rest of the test; the returned
    list collects the dimension of every matrix handed to it."""
    dims = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        dims.append(np.shape(a)[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return dims


def product_terms(w_terms, z_terms, w_layout, z_layout, pairing=None):
    """Term-by-term reference for a product's terms: every pair of a term of
    ``w_terms`` and one of ``z_terms``, multiplied out. Merged subsystem
    ``k``, made of subsystem ``p`` of the first factor and ``q`` of the
    second, takes the index ``i * d_q**2 + j`` of ``s_i x s_j`` in the
    factors' product basis, and the coefficient is ``c_w * c_z``. In
    lexicographic order."""
    from procval import HSTerm, PartyPairing

    if pairing is None:
        pairing = PartyPairing.positional(w_layout, z_layout)
    merged = []
    for wn, zn, _ in pairing.pairs:
        i, j = w_layout.party_index(wn), z_layout.party_index(zn)
        merged += [(2 * i, 2 * j), (2 * i + 1, 2 * j + 1)]
    z_dims = z_layout.subsystem_dims()
    out = [HSTerm(tuple(tw.indices[p] * z_dims[q] ** 2 + tz.indices[q] for p, q in merged),
                  tw.coeff * tz.coeff)
           for tw in w_terms for tz in z_terms]
    return sorted(out, key=lambda t: t.indices)


def first_of_each_pattern(terms, layout):
    """Term-by-term reference for the rows a merged record keeps of a term
    list: the first term with each tag pattern (``classify_term``'s tags on
    every party), the trivial term included, in their order."""
    from procval import classify_term

    seen, out = set(), []
    for term in terms:
        tags = classify_term(term, layout).tags
        if tags not in seen:
            seen.add(tags)
            out.append(term)
    return out


def merged_terms(w_terms, z_terms, w_layout, z_layout, pairing=None):
    """Term-by-term reference for a merged record's rows: the first term of
    each pattern of each factor (:func:`first_of_each_pattern`), multiplied
    out (:func:`product_terms`), and then the first of each merged pattern."""
    from procval import PartyPairing
    from procval.product import combined_layout

    pairing = pairing or PartyPairing.positional(w_layout, z_layout)
    return first_of_each_pattern(product_terms(
        first_of_each_pattern(w_terms, w_layout), first_of_each_pattern(z_terms, z_layout),
        w_layout, z_layout, pairing), combined_layout(w_layout, z_layout, pairing))


def _factors(p):
    """The kept factors of a built product whose record is merged from
    theirs, else None."""
    f = p._factors
    return f if f is not None and f.record is not None else None


def expansion(p, tol=None):
    """Term-by-term reference for the terms procval reads off ``p``: the
    extraction ``p.terms(tol)``, except that a built product carrying its
    factors lists, at the default threshold, its factors' expansions merged
    (:func:`merged_terms`)."""
    f = _factors(p)
    if f is None or tol is not None:
        return p.terms(tol=tol)
    return merged_terms(expansion(f.w), expansion(f.z), f.w.layout, f.z.layout, f.pairing)


def basis_element(p, k: int, i: int) -> np.ndarray:
    """The element with index ``i`` on subsystem ``k`` of the basis that
    ``p``'s terms are listed in: the Gell-Mann element for an extracted
    operator, and for a built product ``s_a x s_b`` of its factors' own
    elements, where ``i = a * d_q**2 + b``."""
    from procval import make_basis

    f = _factors(p)
    if f is None:
        return make_basis(p.layout.subsystem_dims()[k]).ops[i]
    wn, zn, _ = f.pairing.pairs[k // 2]
    kw = 2 * f.w.layout.party_index(wn) + k % 2
    kz = 2 * f.z.layout.party_index(zn) + k % 2
    dq2 = f.z.layout.subsystem_dims()[kz] ** 2
    return np.kron(basis_element(f.w, kw, i // dq2), basis_element(f.z, kz, i % dq2))


def basis_coefficient(p, indices) -> float:
    """The coefficient of ``p.op`` on the basis element ``s_I`` with these
    indices (:func:`basis_element` on each subsystem): ``tr(s_I op) / dim``,
    since ``tr(s_I s_I) = dim`` in both the Gell-Mann and the factors'
    product basis."""
    import functools

    s = functools.reduce(np.kron, [basis_element(p, k, i) for k, i in enumerate(indices)],
                         np.ones((1, 1)))
    return float(np.vdot(s, p.op).real) / p.dim


def term_blocking_pairs(w_terms, z_terms, w_layout, z_layout, pairing=None):
    """Term-by-term reference for the blocking-pair search on two term
    lists: every pair of nontrivial terms, tagged with ``classify_term``.
    Returns ((first term, second term), per-party cases) per blocking pair,
    in lexicographic index order."""
    from procval import PartyPairing, PartyTag, classify_term

    if pairing is None:
        pairing = PartyPairing.positional(w_layout, z_layout)
    w_idx = [w_layout.party_index(p[0]) for p in pairing.pairs]
    z_idx = [z_layout.party_index(p[1]) for p in pairing.pairs]
    out = []
    for tw in w_terms:
        sw = classify_term(tw, w_layout)
        for tz in z_terms:
            sz = classify_term(tz, z_layout)
            if sw.is_trivial() or sz.is_trivial():
                continue
            tags = [(sw.tags[i], sz.tags[j]) for i, j in zip(w_idx, z_idx)]
            if all(a | b != PartyTag.IN for a, b in tags):
                cases = tuple(tuple(sorted((a.code, b.code), key=("0", "1", "2", "12").index))
                              for a, b in tags)
                out.append(((tw, tz), cases))
    return sorted(out, key=lambda x: (x[0][0].indices, x[0][1].indices))


def loop_blocking_pairs(w, z, pairing=None, tol=None):
    """Term-by-term reference for the blocking-pair search: every pair of
    nontrivial terms of the two processes' expansions (:func:`expansion`).
    Returns ((first
    indices, second indices), per-party cases) per blocking pair, in
    lexicographic order."""
    return [((tw.indices, tz.indices), cases) for (tw, tz), cases in term_blocking_pairs(
        expansion(w, tol), expansion(z, tol), w.layout, z.layout, pairing)]


def fold_blocking_pairs(ps, pairings=None, full=False):
    """Term-by-term reference for the listings of ``check_sequence``: per
    step, :func:`term_blocking_pairs` of the accumulated product's terms
    (the expansions of the factors so far, merged by :func:`merged_terms`)
    and the next factor's. With ``full``, the accumulated product holds
    every pair of terms multiplied out (:func:`product_terms`). No product
    is built."""
    from procval import PartyPairing
    from procval.product import combined_layout

    merge = product_terms if full else merged_terms
    terms, layout = expansion(ps[0]), ps[0].layout
    steps = []
    for k, nxt in enumerate(ps[1:]):
        pairing = pairings[k] if pairings is not None else None
        pairing = pairing or PartyPairing.positional(layout, nxt.layout)
        nxt_terms = expansion(nxt)
        steps.append(term_blocking_pairs(terms, nxt_terms, layout, nxt.layout, pairing))
        if k + 2 < len(ps):
            terms = merge(terms, nxt_terms, layout, nxt.layout, pairing)
            layout = combined_layout(layout, nxt.layout, pairing)
    return steps


def loop_forbidden_terms(w, tol=None):
    """Term-by-term reference for the term rule: each term of the
    :func:`expansion` that ``classify_term`` does not allow, with its
    signature, in lexicographic order, as ``is_valid_process`` reports
    them."""
    from procval import classify_term

    out = []
    for term in expansion(w, tol):
        sig = classify_term(term, w.layout)
        if not sig.is_allowed():
            out.append((term, sig))
    return tuple(out)


def loop_parse_entries(text: str) -> np.ndarray:
    """Entry-by-entry reference for reading ``matrix.entries`` of a
    ``procmat/1`` document: the flat complex128 entries, or the
    ``MalformedDocumentError`` of the first bad entry."""
    import json

    from procval.io_format import MalformedDocumentError

    def as_float(x, loc):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise MalformedDocumentError(f"expected a number, got {x!r}", loc)
        try:
            return float(x)
        except OverflowError:
            raise MalformedDocumentError("integer entry does not fit a double", loc) from None

    entries = json.loads(text)["matrix"]["entries"]
    op = np.empty(len(entries), dtype=np.complex128)
    for i, pair in enumerate(entries):
        loc = f"matrix.entries[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise MalformedDocumentError("entry must be a [re, im] pair", loc)
        op[i] = complex(as_float(pair[0], loc), as_float(pair[1], loc))
    return op


def loop_serialize(w, metadata=None) -> str:
    """Entry-by-entry reference for ``io_format.serialize``: one ``repr`` per
    value, one line per entry."""
    import json

    def num(x):
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite entry {x!r}")
        return repr(float(x))

    lines = ["{", '  "format_version": "procmat/1",', '  "parties": [']
    n = len(w.layout.parties)
    for i, p in enumerate(w.layout.parties):
        sep = "," if i + 1 < n else ""
        lines.append(f'    {{"name": {json.dumps(p.name)}, '
                     f'"d_in": {p.d_in}, "d_out": {p.d_out}}}{sep}')
    lines += ["  ],", '  "matrix": {', f'    "dim": {w.dim},', '    "entries": [']
    flat = w.op.reshape(-1)
    for i, z in enumerate(flat):
        sep = "," if i + 1 < flat.size else ""
        lines.append(f"      [{num(z.real)}, {num(z.imag)}]{sep}")
    lines += ["    ]", "  }" + ("," if metadata else "")]
    if metadata:
        lines.append(f'  "metadata": {json.dumps(metadata, sort_keys=True)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def gell_mann_weights(p) -> np.ndarray:
    """Reference for ``linalg._pattern_weights``: entry ``b`` is ``dim``
    times the sum of the squared Gell-Mann coefficients of ``p.op`` over
    the terms that are not the identity exactly on the subsystems with
    ``b_k = 1`` (axes of size 1 for subsystems of dimension 1)."""
    from procval import hsbasis

    dims = p.layout.subsystem_dims()
    squares = hsbasis.coefficient_tensor(p.op, dims) ** 2
    out = np.zeros([2 if d > 1 else 1 for d in dims])
    for b in np.ndindex(out.shape):
        picks = [np.arange(1, d * d) if bit else [0] for bit, d in zip(b, dims)]
        out[b] = squares[np.ix_(*picks)].sum()
    return p.dim * out


def dense_forbidden_weight(p) -> float:
    """Reference for the forbidden weight of ``p.op``: the
    :func:`gell_mann_weights` of the patterns that ``classify_term`` does
    not allow, summed, with no term pruned."""
    from procval import HSTerm, classify_term

    weights = gell_mann_weights(p)
    return float(sum(weights[b] for b in np.ndindex(weights.shape)
                     if not classify_term(HSTerm(b, 0.0), p.layout).is_allowed()))
