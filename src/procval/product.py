"""Party merging and tensor products of processes, plus the decision of when
such a product is itself a valid process.

Two processes with the same number of parties combine party-wise: paired
parties merge into one party whose input (output) is the tensor product of the
two inputs (outputs). The product operator is always positive semidefinite
with the right trace when both factors are, so only the term rule can fail; it
fails exactly when some pair of nontrivial terms, one from each factor, merges
into a term that is a pure input on no party. Such pairs are reported as
blocking pairs.

The decisions never build the product operator. Each factor is reduced once
to a :class:`~procval.process.FactorRecord` (coefficient tensor, extreme
eigenvalues, Frobenius norm, trace), the record that
:func:`~procval.process.is_valid_process` also reads. A product's record
follows from its factors' records: :mod:`procval.hsbasis` merges the
coefficient tensors, and eigenvalues, norm and trace multiply. A product
built by :func:`tensor_product` remembers its factors, so validating it
reads its extreme eigenvalues from theirs the same way; its coefficients,
norm and trace come from the built operator. The independent
references are the record-free ``ProcessMatrix(p.layout, p.op)`` of a built
product, whose spectrum is computed from the operator, plus coefficient
extraction, the term loops in ``tests/helpers.py`` and ``bench/reference.py``.
A merged record holds one coefficient per term of the product, since later
fold steps enumerate them, so its size is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hsbasis, linalg
from .hsbasis import HSTerm
from .process import (
    FactorRecord,
    Party,
    PartyLayout,
    PartyTag,
    ProcessMatrix,
    _allowed,
    _party_tags,
    _product_extremes,
    _signalling,
    _term,
)

__all__ = [
    "PartyPairing",
    "ProductReport",
    "SequenceReport",
    "combined_layout",
    "tensor_product",
    "find_blocking_pairs",
    "two_party_product_invalid",
    "check_sequence",
]


@dataclass(frozen=True)
class PartyPairing:
    """Bijection between the parties of two processes; each pair carries the
    name of the merged party."""

    pairs: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        w_names = [p[0] for p in self.pairs]
        z_names = [p[1] for p in self.pairs]
        merged = [p[2] for p in self.pairs]
        for side, names in (("first", w_names), ("second", z_names), ("merged", merged)):
            if len(set(names)) != len(names):
                raise ValueError(f"{side} party names must be unique, got {names}")

    @staticmethod
    def positional(w_layout: PartyLayout, z_layout: PartyLayout) -> "PartyPairing":
        """Pair parties in declared order; the merged party keeps the first
        factor's name when both agree, else concatenates the two."""
        if w_layout.n_parties != z_layout.n_parties:
            raise ValueError(
                f"party count mismatch: {w_layout.n_parties} vs {z_layout.n_parties}"
            )
        pairs = []
        for pw, pz in zip(w_layout.parties, z_layout.parties):
            name = pw.name if pw.name == pz.name else pw.name + pz.name
            pairs.append((pw.name, pz.name, name))
        return PartyPairing(tuple(pairs))


def _resolve_pairing(w_layout: PartyLayout, z_layout: PartyLayout,
                     pairing: PartyPairing | None) -> PartyPairing:
    if pairing is None:
        return PartyPairing.positional(w_layout, z_layout)
    if len(pairing.pairs) != w_layout.n_parties or len(pairing.pairs) != z_layout.n_parties:
        raise ValueError("pairing must cover every party of both processes exactly once")
    for wn, zn, _ in pairing.pairs:
        w_layout.party_index(wn)
        z_layout.party_index(zn)
    return pairing


def combined_layout(w_layout: PartyLayout, z_layout: PartyLayout,
                    pairing: PartyPairing) -> PartyLayout:
    parties = []
    for wn, zn, name in pairing.pairs:
        pw = w_layout.parties[w_layout.party_index(wn)]
        pz = z_layout.parties[z_layout.party_index(zn)]
        parties.append(Party(name=name, d_in=pw.d_in * pz.d_in,
                             d_out=pw.d_out * pz.d_out))
    return PartyLayout(tuple(parties))


def _merged_subsystems(w_layout: PartyLayout, z_layout: PartyLayout,
                       pairing: PartyPairing) -> list[tuple[int, int]]:
    """For each subsystem of the merged layout, in order, the subsystem of
    each factor that goes into it: input then output of every merged party,
    the first factor's part most significant."""
    out = []
    for wn, zn, _ in pairing.pairs:
        i = w_layout.party_index(wn)
        j = z_layout.party_index(zn)
        out += [(2 * i, 2 * j), (2 * i + 1, 2 * j + 1)]
    return out


def _frozen(p: ProcessMatrix) -> ProcessMatrix:
    """``p`` when it is a built product (its operator is read-only already),
    else a read-only copy, so that a product's factors cannot change later."""
    if p._factors is not None:
        return p
    op = p.op.copy()
    op.setflags(write=False)
    return ProcessMatrix(p.layout, op)


def tensor_product(w: ProcessMatrix, z: ProcessMatrix,
                   pairing: PartyPairing | None = None) -> ProcessMatrix:
    """Kronecker product of two processes, reordered into the merged-party
    layout (first factor's subsystem before the second's within each merged
    input and output). No term-rule check is performed here.

    The result remembers read-only copies of ``w`` and ``z`` and its ``op``
    is read-only, so :func:`~procval.process.is_valid_process` reads its
    extreme eigenvalues from the factors'."""
    pairing = _resolve_pairing(w.layout, z.layout, pairing)
    layout = combined_layout(w.layout, z.layout, pairing)
    w, z = _frozen(w), _frozen(z)
    raw = linalg.tensor(w.op, z.op)
    dims = w.layout.subsystem_dims() + z.layout.subsystem_dims()
    nw = 2 * w.layout.n_parties
    perm = [k for a, b in _merged_subsystems(w.layout, z.layout, pairing)
            for k in (a, nw + b)]
    built = ProcessMatrix(layout=layout, op=linalg.permute_subsystems(raw, dims, perm))
    built.op.setflags(write=False)
    object.__setattr__(built, "_factors", (w, z))
    return built


def _merge_records(w: FactorRecord, z: FactorRecord, pairing: PartyPairing,
                   layout: PartyLayout) -> FactorRecord:
    """Record of the tensor product of two records in the merged ``layout``,
    without building the product operator."""
    lam_min, lam_max = _product_extremes((w.lam_min, w.lam_max), (z.lam_min, z.lam_max))
    return FactorRecord(
        layout=layout,
        coeffs=hsbasis._merge_coefficients(
            w.coeffs, z.coeffs, _merged_subsystems(w.layout, z.layout, pairing)),
        lam_min=lam_min,
        lam_max=lam_max,
        norm=w.norm * z.norm,
        trace=w.trace * z.trace,
    )


@dataclass(frozen=True)
class ProductReport:
    """Verdict on a tensor product plus the witnesses against it.

    ``blocking_pairs[k]`` is a pair of nontrivial terms (one per factor) whose
    merged term is a pure input on no party; ``per_party_cases[k]`` lists that
    pair's unordered tag-code pair on each merged party. ``w_valid``/
    ``z_valid`` record whether the inputs were themselves valid processes —
    the verdict only speaks for the term rule of the product when they are.
    """

    verdict: bool
    blocking_pairs: tuple[tuple[HSTerm, HSTerm], ...]
    per_party_cases: tuple[tuple[tuple[str, str], ...], ...]
    w_valid: bool
    z_valid: bool
    layout: PartyLayout


def _nontrivial_terms(record: FactorRecord, party_order: list[int],
                      tol: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices, coefficients and tags (parties in ``party_order``) of the
    nontrivial terms of a record."""
    indices, coeffs = record.terms(tol)
    keep = indices.any(axis=1)
    return indices[keep], coeffs[keep], _party_tags(indices[keep])[:, party_order]


def _report(w: FactorRecord, z: FactorRecord, pairing: PartyPairing,
            tol: float | None) -> ProductReport:
    """Blocking pairs of two records and their validity, in the report the
    public product checks return."""
    idx_w, c_w, tags_w = _nontrivial_terms(
        w, [w.layout.party_index(p[0]) for p in pairing.pairs], tol)
    idx_z, c_z, tags_z = _nontrivial_terms(
        z, [z.layout.party_index(p[1]) for p in pairing.pairs], tol)
    # Whether a pair blocks depends only on the two tag patterns, so decide
    # the grid once per pattern pair and expand only the blocking ones.
    pat_w, group_w = np.unique(tags_w, axis=0, return_inverse=True)
    pat_z, group_z = np.unique(tags_z, axis=0, return_inverse=True)
    group_w, group_z = group_w.reshape(-1), group_z.reshape(-1)
    blocks = ~_allowed(pat_w[:, None, :] | pat_z[None, :, :])
    hits = [np.flatnonzero(blocks[g, group_z]) for g in range(len(pat_w))]

    codes = [PartyTag(v).code for v in range(4)]
    cases: dict[tuple[int, int], tuple[tuple[str, str], ...]] = {}
    z_terms: dict[int, HSTerm] = {}
    pairs, per_party = [], []
    # Terms come in lexicographic index order, so the pairs do too.
    for a in np.flatnonzero(blocks.any(axis=1)[group_w]):
        gw = group_w[a]
        tw = _term(idx_w[a], c_w[a])
        for b in hits[gw]:
            if b not in z_terms:
                z_terms[b] = _term(idx_z[b], c_z[b])
            key = (gw, group_z[b])
            if key not in cases:
                cases[key] = tuple((codes[min(p, q)], codes[max(p, q)])
                                   for p, q in zip(pat_w[key[0]], pat_z[key[1]]))
            pairs.append((tw, z_terms[b]))
            per_party.append(cases[key])
    return ProductReport(
        verdict=not pairs,
        blocking_pairs=tuple(pairs),
        per_party_cases=tuple(per_party),
        w_valid=w.valid,
        z_valid=z.valid,
        layout=combined_layout(w.layout, z.layout, pairing),
    )


def find_blocking_pairs(w: ProcessMatrix, z: ProcessMatrix,
                        pairing: PartyPairing | None = None,
                        tol: float | None = None) -> ProductReport:
    """Search the term grid of two processes for pairs that invalidate their
    tensor product.

    A pair of nontrivial terms blocks when, on every merged party, the union
    of the two tags is not a pure input; equivalently, when no party pairs a
    pure-input tag with a trivial or pure-input tag. The product is a valid
    process exactly when no blocking pair exists (for valid inputs).
    Blocking pairs are reported in lexicographic index order. Each input is
    decomposed and eigendecomposed once; ``w_valid``/``z_valid`` carry the
    default-tolerance verdicts of :func:`~procval.process.is_valid_process`.
    """
    pairing = _resolve_pairing(w.layout, z.layout, pairing)
    return _report(FactorRecord.of(w), FactorRecord.of(z), pairing, tol)


def two_party_product_invalid(w: ProcessMatrix, z: ProcessMatrix) -> bool:
    """Shortcut decision for two-party factors: their product is invalid
    exactly when both factors carry signalling terms and the two factors'
    signalling terms jointly cover both directions.

    Signalling terms here are the nontrivial terms acting on the output (or
    both ends) of one party and as a pure input on the other.
    """
    for p in (w, z):
        if p.layout.n_parties != 2:
            raise ValueError("this check applies to two-party processes only")
    dw, dz = _signalling(w), _signalling(z)
    return bool(dw.any() and dz.any() and (dw | dz)[[0, 1], [1, 0]].all())


@dataclass(frozen=True)
class SequenceReport:
    """Step-by-step verdicts of a left-to-right product construction."""

    verdict: bool
    steps: tuple[ProductReport, ...]
    first_invalid_step: int | None


def check_sequence(ps: Sequence[ProcessMatrix],
                   pairings: Sequence[PartyPairing | None] | None = None) -> SequenceReport:
    """Fold a list of processes into one product, checking each step.

    Step k pairs the accumulated product with factor k+1 (positionally by
    default) and records its blocking-pair report; the overall verdict is the
    conjunction of the step verdicts. The final verdict does not depend on the
    fold order: an invalidating pair survives any regrouping.

    No product operator is built or eigendecomposed. Each distinct input is
    reduced once to a :class:`~procval.process.FactorRecord`, and the
    accumulated product's record is merged from its factors' records, so
    ``w_valid`` of step k is decided from the factors alone. A fold whose last
    merged record would exceed 2**24 coefficients is refused up front.
    """
    if len(ps) < 2:
        raise ValueError("need at least two processes to form a product")
    if math.prod(p.dim for p in ps[:-1]) ** 2 > 2**24:  # 134 MB; admits [twoway-d2]*4
        raise ValueError(f"refusing to fold factors of dims {[p.dim for p in ps]}: the "
                         "last merged record would hold more than 2**24 coefficients")
    if pairings is not None and len(pairings) != len(ps) - 1:
        raise ValueError(f"expected {len(ps) - 1} pairings, got {len(pairings)}")

    records = {id(p): FactorRecord.of(p) for p in {id(p): p for p in ps}.values()}
    steps: list[ProductReport] = []
    first_bad: int | None = None
    acc = records[id(ps[0])]
    for k, nxt in enumerate(ps[1:]):
        rec = records[id(nxt)]
        pairing = _resolve_pairing(acc.layout, rec.layout,
                                   pairings[k] if pairings is not None else None)
        report = _report(acc, rec, pairing, tol=None)
        steps.append(report)
        if not report.verdict and first_bad is None:
            first_bad = k
        if k + 2 < len(ps):
            acc = _merge_records(acc, rec, pairing, report.layout)
    return SequenceReport(
        verdict=all(s.verdict for s in steps),
        steps=tuple(steps),
        first_invalid_step=first_bad,
    )
