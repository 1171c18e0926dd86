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
to a :class:`~procval.process.FactorRecord` (term rows, extreme eigenvalues,
Frobenius norm, trace), which :func:`~procval.process.is_valid_process` also
reads, and its nontrivial terms are grouped once by tag pattern; the
blocking-pair search and the two-party shortcut read those patterns. A
product's record is merged from its factors' records: the first term of
each tag pattern of each factor, multiplied out in the factors' product
basis (:func:`procval.hsbasis._merge_rows`), of which it keeps the first
term of each merged pattern, and the eigenvalues, norm and trace multiply.
The patterns of a product are exactly the ORs of a pattern of each factor,
which is the paper's product rule itself, so a built product, a fold and
the blocking-pair search give one verdict. A merged record holds at most
one term per pattern (16 for two qubit parties), never a ``dim²``
coefficient tensor, however many factors it folds. A product built by
:func:`tensor_product` holds only its factors: its record is merged from
theirs on first use, as a fold step merges them, and its operator is made
only when ``op`` is read, so validating it extracts and eigendecomposes
only its factors and, unless a factor is near its Hermiticity tolerance or
the double range, never makes a ``dim²`` array. Its terms are listed in the
factors' product basis; an explicit term threshold extracts the made
operator instead, over the Gell-Mann basis of the merged dimensions, as does
the record-free ``ProcessMatrix(p.layout, p.op)``. The references are that
copy and the term loops in ``tests/helpers.py`` and ``bench/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import compress
from typing import Sequence

import numpy as np

from . import hsbasis, linalg
from .hsbasis import HSTerm
from .process import (
    _CASE_CODES,
    _PRODUCT_ROUNDING,
    FactorRecord,
    Party,
    PartyLayout,
    ProcessMatrix,
    Tolerances,
    _allowed,
    _checked_rows,
    _first_of_each_pattern,
    _signalling,
    _tag_patterns,
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
        # A tuple of tuples however the pairs were given: pairings are hashed.
        object.__setattr__(self, "pairs", tuple(map(tuple, self.pairs)))
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


# The resolved pairing and the merged layout of two layouts come from a small
# cache: a process of a given shape is usually asked about again, and layouts
# and pairings are immutable.
@lru_cache(maxsize=256)
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


@lru_cache(maxsize=256)
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


def _built(w: ProcessMatrix, z: ProcessMatrix, pairing: PartyPairing,
           layout: PartyLayout) -> ProcessMatrix:
    """The product operator of ``w`` and ``z`` in the merged ``layout``, read
    only and holding no factors: each merged input and output holds the
    first factor's subsystem before the second's. One multiply writes it,
    each operator transposed into the merged order (rows, then columns) and
    broadcast across the other's axes; the entries are bit for bit those of
    ``np.kron`` reordered by :func:`linalg.permute_subsystems`. Overflow
    gives infinite entries without a warning; the finiteness check reports
    them."""
    merged = _merged_subsystems(w.layout, z.layout, pairing)
    n = len(merged)
    x = w.op.reshape(w.layout.subsystem_dims() * 2).transpose(
        [i + k * n for k in (0, 1) for i, _ in merged])
    y = z.op.reshape(z.layout.subsystem_dims() * 2).transpose(
        [j + k * n for k in (0, 1) for _, j in merged])
    x = np.expand_dims(x, tuple(range(1, 2 * x.ndim, 2)))
    y = np.expand_dims(y, tuple(range(0, 2 * y.ndim, 2)))
    # A C-ordered output of the final shape: the reshape below copies nothing.
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(x, y, out=out)
    op = out.reshape(layout.dim, layout.dim)
    op.setflags(write=False)
    return ProcessMatrix(layout=layout, op=op)


def _each_once(reduce, ps: Sequence[ProcessMatrix]) -> list:
    """``reduce(p)`` for each of ``ps``, computed once per distinct object,
    so that a process asked against itself is reduced once."""
    done = {id(p): reduce(p) for p in {id(p): p for p in ps}.values()}
    return [done[id(p)] for p in ps]


def _kept(p: ProcessMatrix) -> ProcessMatrix:
    """What a built product keeps of a factor: a built product as it is (its
    operator is fixed), else a read-only copy, so that a later change to the
    factor's operator does not reach the product."""
    if p._factors is not None:
        return p
    op = p.op.copy()
    op.setflags(write=False)
    return ProcessMatrix(p.layout, op)


@dataclass(frozen=True, eq=False)
class _Factors:
    """The kept factors of a built product (:func:`_kept`) and how they
    merge: all the product holds. Its record and its operator are made from
    them, each once, on first use."""

    w: ProcessMatrix
    z: ProcessMatrix
    pairing: PartyPairing
    layout: PartyLayout

    @cached_property
    def op(self) -> np.ndarray:
        return _built(self.w, self.z, self.pairing, self.layout).op

    @cached_property
    def record(self) -> FactorRecord | None:
        """The factors' records merged as a fold step merges them
        (:func:`_merge_records`; trace ``tr W · tr Z``), with these factors
        to make the operator for an explicit term threshold. None when a
        factor fails its checks or the merged record is not finite: the
        product is then decided from its made operator."""
        try:
            rec = _merge_records(*_each_once(FactorRecord.of, (self.w, self.z)),
                                 self.pairing, self.layout)
        except ValueError:
            return None
        return replace(rec, factors=self) if rec.finite() else None


def tensor_product(w: ProcessMatrix, z: ProcessMatrix,
                   pairing: PartyPairing | None = None) -> ProcessMatrix:
    """Kronecker product of two processes, reordered into the merged-party
    layout (first factor's subsystem before the second's within each merged
    input and output). No term-rule check is performed here, and nothing is
    extracted, eigendecomposed or merged.

    The result holds read-only copies of the factors' operators (a factor
    that is a built product is kept as it is, and ``tensor_product(w, w)``
    keeps one copy for both sides) and nothing else. Its record is merged
    from the factors' records when it is first asked a question, as a fold
    step merges them: the term rows (the factors' terms multiplied out, in
    the factors' product basis, one per tag pattern), the extreme
    eigenvalues, the norm ``‖W‖_F ‖Z‖_F``, the trace ``tr W · tr Z`` and a
    bound on the Hermiticity defect. Its read-only ``op`` is made the first
    time it is read. When a factor fails its finiteness or Hermiticity
    check (``(iH) ⊗ (iH)`` is Hermitian) or the merge overflows, the product
    has no merged record and is eigendecomposed and extracted from its made
    operator."""
    pairing = _resolve_pairing(w.layout, z.layout, pairing)
    layout = combined_layout(w.layout, z.layout, pairing)
    return ProcessMatrix._carrying(layout, _Factors(*_each_once(_kept, (w, z)), pairing, layout))


def _merge_records(w: FactorRecord, z: FactorRecord, pairing: PartyPairing,
                   layout: PartyLayout) -> FactorRecord:
    """Record of the tensor product of two records in the merged ``layout``,
    without building the product operator. Its term rows are one per tag
    pattern: the first row of each pattern of each factor (the trivial row
    included) multiplied out, in the factors' product basis
    (:func:`procval.hsbasis._merge_rows`), and of those the first row of
    each merged pattern. Nothing is pruned, so its patterns are exactly the
    ORs of a pattern of each factor, those of every pair of rows multiplied
    out. Its extreme eigenvalues are the extremes of the four products of
    the factors'. Its entries may overflow; the caller checks them. Its
    ``defect`` bounds the product's entrywise Hermiticity defect:
    ``|w_ij z_kl − conj(w_ji z_lk)|`` is at most ``δ_W |z_kl| + |w_ji| δ_Z``,
    each entry is at most the norm, and the last term covers the rounding of
    the product's entries and norm."""
    products = [p * q for p in (w.lam_min, w.lam_max) for q in (z.lam_min, z.lam_max)]
    with np.errstate(over="ignore", invalid="ignore"):
        indices, values = _first_of_each_pattern(*hsbasis._merge_rows(
            _first_of_each_pattern(w.indices, w.values),
            _first_of_each_pattern(z.indices, z.values), w.layout.subsystem_dims(),
            z.layout.subsystem_dims(), _merged_subsystems(w.layout, z.layout, pairing)))
    return FactorRecord(
        layout=layout,
        indices=indices,
        values=values,
        lam_min=min(products),
        lam_max=max(products),
        norm=w.norm * z.norm,
        trace=w.trace * z.trace,
        defect=w.defect * z.norm + w.norm * z.defect + _PRODUCT_ROUNDING * w.norm * z.norm,
    )


@dataclass(frozen=True)
class ProductReport:
    """Verdict on a tensor product plus the witnesses against it.

    ``blocking_pairs[k]`` is a pair of nontrivial terms (one per factor) whose
    merged term is a pure input on no party; ``per_party_cases[k]`` lists that
    pair's unordered tag-code pair on each merged party. A factor's terms are
    over the Gell-Mann basis of its subsystems when it is extracted, and over
    its own factors' product basis when it is a built product or a fold's
    accumulated product (unless an explicit ``tol`` extracts it); such a
    merged record holds one term per tag pattern, so its side of the
    listing names that term for each pattern. ``w_valid``/
    ``z_valid`` record whether the inputs were themselves valid processes —
    the verdict only speaks for the term rule of the product when they are.
    """

    verdict: bool
    blocking_pairs: tuple[tuple[HSTerm, HSTerm], ...]
    per_party_cases: tuple[tuple[tuple[str, str], ...], ...]
    w_valid: bool
    z_valid: bool
    layout: PartyLayout


def _report(w: FactorRecord, z: FactorRecord, pairing: PartyPairing,
            tol: float | None) -> ProductReport:
    """Blocking pairs of two records and their validity, in the report the
    public product checks return."""
    idx_w, c_w, pat_w, group_w = w.patterns(tol)
    idx_z, c_z, pat_z, group_z = z.patterns(tol)
    # Whether a pair blocks depends only on its two tag patterns, so decide the
    # grid once per pattern pair (parties in pairing order), expand the blocking ones.
    pat_w = pat_w[:, [w.layout.party_index(p[0]) for p in pairing.pairs]]
    pat_z = pat_z[:, [z.layout.party_index(p[1]) for p in pairing.pairs]]
    blocks = ~_allowed(pat_w[:, None, :] | pat_z[None, :, :])
    pairs, per_party = [], []
    if blocks.any():
        keys = (4 * pat_w[:, None, :] + pat_z[None, :, :]).tolist()
        cases = {(g, h): tuple(map(_CASE_PAIRS.__getitem__, keys[g][h]))
                 for g, h in np.argwhere(blocks).tolist()}
        z_hits = np.flatnonzero(blocks.any(axis=0)[group_z])
        z_terms = list(map(_term, idx_z[z_hits], c_z[z_hits]))
        z_groups = group_z[z_hits].tolist()
        # The z terms that block each w pattern, and their cases, in term order.
        hits = [(list(compress(z_terms, row)), [cases[g, h] for h in compress(z_groups, row)])
                for g, row in enumerate(blocks[:, z_groups].tolist())]
        # Terms come in lexicographic index order, so the pairs do too.
        w_hits = np.flatnonzero(blocks.any(axis=1)[group_w])
        for tw, g in zip(map(_term, idx_w[w_hits], c_w[w_hits]), group_w[w_hits].tolist()):
            terms, terms_cases = hits[g]
            pairs += [(tw, tz) for tz in terms]
            per_party += terms_cases
    return ProductReport(
        verdict=not pairs,
        blocking_pairs=tuple(pairs),
        per_party_cases=tuple(per_party),
        w_valid=w.valid,
        z_valid=z.valid,
        layout=combined_layout(w.layout, z.layout, pairing),
    )


# The case of a pair of tags (p, q) on one party, at index 4 * p + q: the
# two case codes, lower tag first.
_CASE_PAIRS = tuple((_CASE_CODES[min(p, q)], _CASE_CODES[max(p, q)])
                    for p in range(4) for q in range(4))


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
    return _report(*_each_once(FactorRecord.of, (w, z)), pairing, tol)


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
    return _closes_loop(*_each_once(lambda p: _tag_patterns(*_checked_rows(p)), (w, z)))


def _closes_loop(w_patterns: tuple, z_patterns: tuple) -> bool:
    """:func:`two_party_product_invalid` from the factors' tag patterns."""
    dw, dz = _signalling(w_patterns), _signalling(z_patterns)
    return bool(dw.any() and dz.any() and (dw | dz)[[0, 1], [1, 0]].all())


# A pattern of an operator of dimension D is present when its weight exceeds
# _PRESENT * max(D, largest pattern weight): in coefficient units, when the
# root of its squared coefficients' sum exceeds 1e-9 * max(1, the largest
# such root) (docs/tolerances.md, *The pattern-weight cross-check*).
_PRESENT = 1e-18


def _ldexp(v: float, k: int) -> float:
    """``v * 2**k``, infinite (with the sign of ``v``) past the double range."""
    try:
        return math.ldexp(v, k)
    except OverflowError:
        return math.copysign(math.inf, v)


@dataclass(frozen=True)
class _Weights:
    """The pattern weights of one factor scaled by ``2**-exp``, so that its
    largest entry lies in ``[1/2, 1)`` and no weight overflows
    (:func:`linalg._pattern_weights` of the scaled operator), and which of
    them are present."""

    weights: np.ndarray
    present: np.ndarray
    exp: int

    @staticmethod
    def of(p: ProcessMatrix) -> "_Weights":
        # A tiny operator is scaled by at most 2**1000; its weights then all
        # lie below the floor, which is capped where it passes every weight.
        exp = max(math.frexp(float(np.abs(p.op).max()))[1], -1000)
        weights = linalg._pattern_weights(p.op * math.ldexp(1.0, -exp),
                                          p.layout.subsystem_dims())
        floor = math.ldexp(_PRESENT * p.dim, min(-2 * exp, 1000))
        return _Weights(weights=weights,
                        present=weights > max(floor, _PRESENT * weights.max()),
                        exp=exp)


def _merge_weights(x: np.ndarray, y: np.ndarray, w_layout: PartyLayout,
                   z_layout: PartyLayout, pairing: PartyPairing) -> np.ndarray:
    """Pattern weights of ``W ⊗ Z`` in the merged layout from those of ``W``
    and ``Z``: the OR-convolution ``Σ x[p] · y[q]`` over ``p | q = P`` per
    merged subsystem, a sum of products with nothing to cancel. On 0/1
    indicators it marks the ORs of a pattern of each."""
    merged = _merged_subsystems(w_layout, z_layout, pairing)
    x = x.transpose([p for p, _ in merged])
    y = y.transpose([q for _, q in merged])
    n = x.ndim
    out = np.multiply.outer(x, y).transpose([a for k in range(n) for a in (k, k + n)])
    out = out.reshape([a * b for a, b in zip(x.shape, y.shape)])
    for a, b in zip(x.shape, y.shape):
        fold = [[(i | j) == k for k in range(max(a, b))] for i in range(a) for j in range(b)]
        out = np.tensordot(out, np.array(fold, dtype=float), axes=(0, 0))
    return out


def _forbidden(shape: tuple[int, ...]) -> np.ndarray:
    """Which patterns of a layout with these subsystem axes (input then
    output per party) break the term rule."""
    bits = np.indices(shape)
    return ~_allowed(np.moveaxis(bits[0::2] | bits[1::2] << 1, 0, -1))


def _pattern_check(w: ProcessMatrix, z: ProcessMatrix, rw: FactorRecord, rz: FactorRecord,
                   pairing: PartyPairing) -> tuple[bool, float]:
    """Whether ``W ⊗ Z`` is a valid process, decided at factor size from the
    factors' pattern weights, with no operator basis and no term rows, and
    its forbidden weight ``Σ w(p)·w(q)`` over the factor pattern pairs whose
    OR breaks the term rule, which is ``‖F‖_F²`` of the product's forbidden
    part ``F``. The product is valid when the PSD and trace checks pass on
    the record ``rw`` and ``rz`` merge into (:meth:`FactorRecord.psd_and_trace`,
    as for a built product) and no OR of two present factor patterns is
    forbidden. That record's extremes and trace are all it shares with the
    verdict; its merge also multiplies term rows that are never read here."""
    # Merged first: merged after the weights, its allocations left the heap where
    # later questions fault in about 8x the pages and answer about 10 % slower.
    merged = _merge_records(rw, rz, pairing, combined_layout(w.layout, z.layout, pairing))
    fw, fz = _Weights.of(w), _Weights.of(z)
    weights = _merge_weights(fw.weights, fz.weights, w.layout, z.layout, pairing)
    present = _merge_weights(fw.present, fz.present, w.layout, z.layout, pairing) > 0
    forbidden = _forbidden(weights.shape)
    verdict = merged.psd_and_trace(Tolerances())[0] and not present[forbidden].any()
    return verdict, _ldexp(float(weights[forbidden].sum()), 2 * (fw.exp + fz.exp))


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
    ``w_valid`` of step k is decided from the factors alone. The accumulated
    product's terms in step k's blocking pairs are its factors' terms
    multiplied out, in their product basis, one per tag pattern. The fold
    has no size cap: a merged record holds at most one row per pattern, so
    its cost follows the number of parties and factors, not the product's
    dimension. A merged subsystem past dim ``2**31.5``, whose basis indices
    would not fit int64, raises, as does a fold whose merged record has a
    non-finite row, extreme, norm or trace, at that step.
    """
    if len(ps) < 2:
        raise ValueError("need at least two processes to form a product")
    if pairings is not None and len(pairings) != len(ps) - 1:
        raise ValueError(f"expected {len(ps) - 1} pairings, got {len(pairings)}")

    records = _each_once(FactorRecord.of, ps)
    steps: list[ProductReport] = []
    acc = records[0]
    for k, rec in enumerate(records[1:]):
        pairing = _resolve_pairing(acc.layout, rec.layout,
                                   pairings[k] if pairings is not None else None)
        report = _report(acc, rec, pairing, tol=None)
        steps.append(report)
        if k + 2 < len(ps):
            acc = _merge_records(acc, rec, pairing, report.layout)
            if not acc.finite():
                raise ValueError(f"step {k + 1}: the product of the first {k + 2} factors "
                                 "has a non-finite entry")
    first_bad = next((k for k, s in enumerate(steps) if not s.verdict), None)
    return SequenceReport(
        verdict=first_bad is None,
        steps=tuple(steps),
        first_invalid_step=first_bad,
    )
