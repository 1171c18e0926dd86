"""Shared builders for the test suite: random Hermitian operators and the
randomized bipartite-qubit process suite used by the product/oracle tests."""

from __future__ import annotations

import numpy as np

from procval import PartyLayout, gallery_entry, mixture, random_valid_process

QUBIT_BIPARTITE = PartyLayout.of(("X", 2, 2), ("Y", 2, 2))

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
