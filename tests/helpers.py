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


def assert_same_terms(got, want, tol=1e-12):
    """Two lists of ``(term, signature)`` pairs, as ``is_valid_process``
    reports forbidden terms, hold the same indices and signatures in the
    same order, and coefficients within ``tol``: the check for terms merged
    from factors' rows against terms extracted from a built operator."""
    assert [(t.indices, sig) for t, sig in got] == [(t.indices, sig) for t, sig in want]
    for (a, _), (b, _) in zip(got, want):
        assert abs(a.coeff - b.coeff) <= tol


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


def loop_blocking_pairs(w, z, pairing=None, tol=None):
    """Term-by-term reference for the blocking-pair search: every pair of
    nontrivial terms of the two expansions, tagged with ``classify_term``.
    Returns ((first indices, second indices), per-party cases) per blocking
    pair, in lexicographic order."""
    from procval import PartyPairing, PartyTag, classify_term

    if pairing is None:
        pairing = PartyPairing.positional(w.layout, z.layout)
    w_idx = [w.layout.party_index(p[0]) for p in pairing.pairs]
    z_idx = [z.layout.party_index(p[1]) for p in pairing.pairs]
    out = []
    for tw in w.terms(tol=tol):
        sw = classify_term(tw, w.layout)
        for tz in z.terms(tol=tol):
            sz = classify_term(tz, z.layout)
            if sw.is_trivial() or sz.is_trivial():
                continue
            tags = [(sw.tags[i], sz.tags[j]) for i, j in zip(w_idx, z_idx)]
            if all(a | b != PartyTag.IN for a, b in tags):
                cases = tuple(tuple(sorted((a.code, b.code), key=("0", "1", "2", "12").index))
                              for a, b in tags)
                out.append(((tw.indices, tz.indices), cases))
    return sorted(out)


def loop_forbidden_terms(w, tol=None):
    """Term-by-term reference for the term rule: each term of the expansion
    that ``classify_term`` does not allow, with its signature, in
    lexicographic order, as ``is_valid_process`` reports them."""
    from procval import classify_term

    out = []
    for term in w.terms(tol=tol):
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
