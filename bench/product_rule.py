"""Workload ``product-rule``: the term rule of products, asked through the
library on small factors.

The population mixes random valid processes (3 to 60 terms), gallery
entries, and mixtures of same-direction and non-signalling gallery entries,
on two- and three-party layouts whose products stay at dim <= 256. The
three-party layouts reach that size by making some inputs or outputs
one-dimensional. Term extraction and the Python term loops do most of the
work; no dense operator is larger than 256.
"""

from __future__ import annotations

import itertools

import numpy as np

import reference
from harness import Op, Workload

NAME = "product-rule"

# Layouts by name: (party, d_in, d_out) per party.
LAYOUTS = {
    "Q": (("X", 2, 2), ("Y", 2, 2)),
    "E": (("X", 2, 2), ("Y", 2, 1)),
    "F": (("X", 2, 1), ("Y", 2, 2)),
    "A": (("X", 2, 2), ("Y", 2, 2), ("Z", 1, 2)),
    "B": (("X", 2, 1), ("Y", 1, 2), ("Z", 2, 1)),
    "C": (("X", 1, 2), ("Y", 2, 1), ("Z", 2, 1)),
    "D": (("X", 2, 2), ("Y", 2, 1), ("Z", 1, 2)),
}
# Term counts of the random valid processes drawn on each layout.
RANDOM_TERMS = {
    "Q": (3, 8, 20, 40, 60),
    "E": (4, 12, 30),
    "F": (4, 12, 30),
    "A": (3, 20, 60),
    "B": (4, 16),
    "C": (4, 16),
    "D": (4, 20, 60),
}
QUBIT_GALLERY = ("twoway-d2", "oneway-xy-d2", "oneway-yx-d2", "state-bell-d2",
                 "state-product-d2")
# Same-direction and non-signalling gallery entries mixed with seeded weights;
# with them about half of the products are valid.
MIXTURES = (("oneway-xy-d2", "state-bell-d2"), ("oneway-yx-d2", "state-product-d2"),
            ("oneway-xy-d2", "state-product-d2"), ("state-bell-d2", "state-product-d2"),
            ("state-bell-d2", "state-product-d2"))
MAX_PRODUCT_DIM = 256
SEQUENCES = 8
SEQUENCE_MAX_TERMS = 8


class Member:
    """One factor of the population."""

    def __init__(self, label: str, kind: str, process, declared=None):
        self.label = label
        self.kind = kind
        self.process = process
        self.declared = declared  # gallery signalling set, when there is one
        self.dims = process.layout.subsystem_dims()

    @property
    def n_parties(self) -> int:
        return self.process.layout.n_parties


def population(pv, rng) -> list[Member]:
    members = []
    for kind, terms in RANDOM_TERMS.items():
        layout = pv.PartyLayout.of(*LAYOUTS[kind])
        for n in terms:
            seed = int(rng.integers(2**32))
            members.append(Member(f"random-{kind}{n}", kind,
                                  pv.random_valid_process(layout, seed=seed, n_terms=n)))
    for name in QUBIT_GALLERY:
        entry = pv.gallery_entry(name)
        members.append(Member(name, "Q", entry.process, entry.signalling))
    for k, (first, second) in enumerate(MIXTURES):
        a, b = pv.gallery_entry(first), pv.gallery_entry(second)
        x = float(rng.uniform(0.2, 0.8))
        members.append(Member(f"mix{k}({first},{second})", "Q",
                              pv.mixture([a.process, b.process], [x, 1.0 - x]),
                              a.signalling | b.signalling))
    return members


def build(pv, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    members = population(pv, rng)
    pairs = [(i, j) for i, j in itertools.product(range(len(members)), repeat=2)
             if members[i].n_parties == members[j].n_parties
             and members[i].process.dim * members[j].process.dim <= MAX_PRODUCT_DIM]
    small = [k for k, m in enumerate(members)
             if m.kind == "Q" and len(m.process.terms()) <= SEQUENCE_MAX_TERMS + 1]
    sequences = [tuple(int(k) for k in rng.choice(small, size=3)) for _ in range(SEQUENCES)]

    ops: list[Op] = []
    kinds: list[tuple] = []
    for i, j in pairs:
        w, z = members[i].process, members[j].process
        ops.append(Op(f"find_blocking_pairs({members[i].label},{members[j].label})",
                      lambda w=w, z=z: pv.find_blocking_pairs(w, z)))
        kinds.append(("blocking", i, j))
        if members[i].n_parties == 2:
            ops.append(Op(f"two_party_product_invalid({members[i].label},{members[j].label})",
                          lambda w=w, z=z: pv.two_party_product_invalid(w, z)))
            kinds.append(("shortcut", i, j))
    for k, m in enumerate(members):
        names = m.process.layout.names
        for a, b in ((0, 1), (1, 0)) if m.n_parties == 2 else ((0, 1), (2, 0)):
            ops.append(Op(f"signalling_directions({m.label},{names[a]}->{names[b]})",
                          lambda w=m.process, f=names[a], t=names[b]:
                          pv.signalling_directions(w, f, t)))
            kinds.append(("signalling", k, a, b))
    for seq in sequences:
        ps = [members[k].process for k in seq]
        ops.append(Op("check_sequence(" + ",".join(members[k].label for k in seq) + ")",
                      lambda ps=ps: pv.check_sequence(ps)))
        kinds.append(("sequence",) + seq)
    order = rng.permutation(len(ops))
    ops = [ops[k] for k in order]
    kinds = [kinds[k] for k in order]

    dense_cache: dict[tuple[int, int], bool] = {}
    directions_cache: dict[int, frozenset] = {}

    factor_ok = [reference.process_checks(m.process.op, m.process.d_out) for m in members]

    def dense_valid(i: int, j: int) -> bool:
        """Verdict on the built product: both factors PSD with the right
        trace (so the product is too), and the term rule on its operator."""
        if (i, j) not in dense_cache:
            a, b = members[i], members[j]
            op, dims = reference.built_product(a.process.op, a.dims, b.process.op, b.dims)
            dense_cache[(i, j)] = (factor_ok[i] and factor_ok[j]
                                   and reference.term_rule_holds(op, dims))
        return dense_cache[(i, j)]

    def directions(k: int) -> frozenset:
        if k not in directions_cache:
            m = members[k]
            directions_cache[k] = reference.two_party_directions(m.process.op, m.dims)
        return directions_cache[k]

    def check(idx: int, out) -> list[str]:
        kind = kinds[idx]
        problems = []
        if kind[0] == "blocking":
            _, i, j = kind
            if out.verdict != dense_valid(i, j):
                problems.append(f"verdict {out.verdict} but the built product is "
                                f"{'valid' if dense_valid(i, j) else 'invalid'}")
            if out.verdict != (not out.blocking_pairs):
                problems.append("verdict disagrees with the blocking-pair list")
            if not (out.w_valid and out.z_valid):
                problems.append("a valid factor was reported invalid")
            for tw, tz in out.blocking_pairs:
                if not reference.blocks(tw.indices, tz.indices):
                    problems.append(f"pair {tw.indices} x {tz.indices} is a pure input "
                                    "on some merged party")
                    break
        elif kind[0] == "shortcut":
            _, i, j = kind
            if out != (not dense_valid(i, j)):
                problems.append(f"shortcut says invalid={out}, the built product disagrees")
        elif kind[0] == "signalling":
            _, k, a, b = kind
            m = members[k]
            expected = reference.signals(m.process.op, m.dims, a, b)
            if out != expected:
                problems.append(f"signalling {out}, projector check {expected}")
            names = m.process.layout.names
            if m.declared is not None and out != ((names[a], names[b]) in m.declared):
                problems.append("disagrees with the gallery's declared signalling")
        else:
            seq = kind[1:]
            expected = reference.pairwise_rule_valid(directions(k) for k in seq)
            if out.verdict != expected:
                problems.append(f"verdict {out.verdict}, pairwise rule {expected}")
            if out.steps[0].verdict != dense_valid(seq[0], seq[1]):
                problems.append("first step disagrees with the built product")
        return problems

    def digest(idx: int, out):
        kind = kinds[idx][0]
        if kind == "blocking":
            return (out.verdict, out.w_valid, out.z_valid,
                    reference.pair_indices(out.blocking_pairs), hash(out.per_party_cases))
        if kind == "sequence":
            return (out.verdict, out.first_invalid_step,
                    tuple(reference.pair_indices(s.blocking_pairs) for s in out.steps))
        return out

    facts = {
        "members": len(members),
        "layouts": {kind: sum(m.kind == kind for m in members) for kind in LAYOUTS},
        "term_counts": sorted(len(m.process.terms()) - 1 for m in members),
        "blocking_questions": len(pairs),
        "shortcut_questions": sum(k[0] == "shortcut" for k in kinds),
        "signalling_questions": sum(k[0] == "signalling" for k in kinds),
        "sequence_questions": len(sequences),
    }
    return Workload(NAME, ops, check, digest, facts)
