"""Workload ``dense-fold``: sequence folds and built products of gallery
factors, where dense eigendecompositions and Kronecker products of whole
products dominate time and peak memory.

Every round asks, in a seeded order:
- ``is_valid_process`` on the built product of each ordered pair of the
  five two-party qubit gallery entries (dim 256), three times;
- ``check_sequence`` on each ordered triple of them (the accumulated
  product is dim 256), three times;
- two folds and two built products that pair ``twoway-d3`` with seeded
  qubit entries (dim 1296);
- ``check_sequence([twoway-d2] * 4)``, whose accumulated product is dim 4096.
"""

from __future__ import annotations

import itertools

import numpy as np

import reference
from harness import Op, Workload

NAME = "dense-fold"

QUBITS = ("twoway-d2", "oneway-xy-d2", "oneway-yx-d2", "state-bell-d2",
          "state-product-d2")
QUTRIT = "twoway-d3"
MID_FOLDS = 2
MID_PRODUCTS = 2
# The dim-256 questions carry both percentiles; asking each of them three
# times per round lets the per-question median drop a stalled answer even
# though a run holds a single round.
SMALL_REPEATS = 3


def build(pv, seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    entry = {name: pv.gallery_entry(name) for name in QUBITS + (QUTRIT,)}

    questions: list[tuple[str, tuple[str, ...]]] = []
    for _ in range(SMALL_REPEATS):
        for names in itertools.product(QUBITS, repeat=2):
            questions.append(("product", names))
        for names in itertools.product(QUBITS, repeat=3):
            questions.append(("fold", names))
    for _ in range(MID_FOLDS):
        a, b = (QUBITS[int(k)] for k in rng.integers(len(QUBITS), size=2))
        # The qutrit comes first or second, so the accumulated product is 1296.
        questions.append(("fold", (QUTRIT, a, b) if rng.integers(2) else (a, QUTRIT, b)))
    for _ in range(MID_PRODUCTS):
        a = QUBITS[int(rng.integers(len(QUBITS)))]
        questions.append(("product", (QUTRIT, a) if rng.integers(2) else (a, QUTRIT)))
    questions.append(("fold", ("twoway-d2",) * 4))
    questions = [questions[k] for k in rng.permutation(len(questions))]

    ops = []
    for kind, names in questions:
        ps = [entry[n].process for n in names]
        if kind == "fold":
            ops.append(Op(f"check_sequence({','.join(names)})",
                          lambda ps=ps: pv.check_sequence(ps)))
        else:
            ops.append(Op(f"is_valid_process(tensor_product({','.join(names)}))",
                          lambda a=ps[0], b=ps[1]:
                          pv.is_valid_process(pv.tensor_product(a, b))))

    def expected_valid(names) -> bool:
        return reference.pairwise_rule_valid(entry[n].signalling for n in names)

    def check(idx: int, out) -> list[str]:
        kind, names = questions[idx]
        problems = []
        if out.verdict != expected_valid(names):
            problems.append(f"verdict {out.verdict}, pairwise rule {expected_valid(names)}")
        if kind == "fold":
            first_bad = next((k for k in range(len(names) - 1)
                              if not expected_valid(names[:k + 2])), None)
            if out.first_invalid_step != first_bad:
                problems.append(f"first invalid step {out.first_invalid_step}, "
                                f"pairwise rule {first_bad}")
        else:
            a, b = (entry[n].process for n in names)
            # The product of two valid processes is PSD with trace d_out.
            psd_tol = 1e-9 * np.linalg.norm(a.op) * np.linalg.norm(b.op)
            if out.psd_defect > psd_tol:
                problems.append(f"psd defect {out.psd_defect:.3e} > {psd_tol:.3e}")
            if out.trace_defect > 1e-9 * a.d_out * b.d_out:
                problems.append(f"trace defect {out.trace_defect:.3e}")
        return problems

    def digest(idx: int, out):
        if questions[idx][0] == "fold":
            return (out.verdict, out.first_invalid_step,
                    tuple(reference.pair_indices(s.blocking_pairs) for s in out.steps))
        return (out.verdict, tuple(t.indices for t, _ in out.forbidden_terms))

    def accumulated_dim(kind, names) -> int:
        dims = [entry[n].process.dim for n in names]
        return int(np.prod(dims if kind == "product" else dims[:-1]))

    distinct = sorted(set(questions))
    facts = {
        "questions": len(questions),
        "distinct_questions": len(distinct),
        "accumulated_dims": {str(d): sum(accumulated_dim(*q) == d for q in distinct)
                             for d in sorted({accumulated_dim(*q) for q in distinct})},
        "valid_share": sum(expected_valid(n) for _, n in distinct) / len(distinct),
    }
    # Wall time alone: the time is in BLAS calls at dim 256 and above, which
    # the calibration kernel does not track, and the dim-4096 fold lasts
    # seconds with no kernel sample inside it.
    return Workload(NAME, ops, check, digest, facts, speed_adjusted=False)
