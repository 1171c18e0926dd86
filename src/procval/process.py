"""Process-matrix model: party bookkeeping, term-type classification, and the
validity decision for candidate processes.

A process on parties A, B, ... lives on the interleaved tensor order
(a_in, a_out, b_in, b_out, ...). A candidate is a valid process when it is
positive semidefinite, its trace equals the product of output dimensions, and
every nontrivial term of its operator-basis expansion acts as a pure input
(input part non-identity, output part identity) on at least one party.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Mapping

import numpy as np

from . import hsbasis, linalg
from .hsbasis import HSTerm

__all__ = [
    "Party",
    "PartyLayout",
    "ProcessMatrix",
    "PartyTag",
    "TermSignature",
    "Tolerances",
    "ValidityReport",
    "PartyReduction",
    "classify_term",
    "is_valid_process",
    "signalling_directions",
    "reduced_process",
]


class PartyTag(enum.IntFlag):
    """How a basis term acts on one party: on its input, its output, both,
    or neither."""

    TRIVIAL = 0
    IN = 1
    OUT = 2
    INOUT = 3

    @property
    def code(self) -> str:
        """Compact case code: '0', '1', '2' or '12'."""
        return _CASE_CODES[self]


# The tags IN and OUT as plain ints for array arithmetic, and the members and
# case codes indexed by tag value for listings: an enum member costs an
# attribute lookup and a conversion on every use.
_IN, _OUT = int(PartyTag.IN), int(PartyTag.OUT)
_TAGS = tuple(map(PartyTag, range(4)))
_CASE_CODES = ("0", "1", "2", "12")


@dataclass(frozen=True)
class Party:
    name: str
    d_in: int
    d_out: int

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError(f"party {self.name!r}: dimensions must be >= 1")


@dataclass(frozen=True)
class PartyLayout:
    """Ordered parties; fixes the global tensor order as input then output per
    party, parties in declared order. ``names``, ``dim``, ``d_in`` and
    ``d_out`` (exact integers) are computed once, at construction: every
    question reads them."""

    parties: tuple[Party, ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    d_in: int = field(init=False, repr=False, compare=False)
    d_out: int = field(init=False, repr=False, compare=False)
    _dims: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(p.name for p in self.parties)
        if len(set(names)) != len(names):
            raise ValueError(f"party names must be unique, got {list(names)}")
        if not self.parties:
            raise ValueError("layout needs at least one party")
        parties = tuple(self.parties)
        dims = tuple(d for p in parties for d in (p.d_in, p.d_out))
        computed = {"parties": parties, "names": names, "_dims": dims,
                    "dim": int(math.prod(dims)), "d_in": int(math.prod(dims[0::2])),
                    "d_out": int(math.prod(dims[1::2]))}
        for name, value in computed.items():
            object.__setattr__(self, name, value)

    @staticmethod
    def of(*parties: tuple[str, int, int]) -> "PartyLayout":
        return PartyLayout(tuple(Party(*p) for p in parties))

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    def subsystem_dims(self) -> tuple[int, ...]:
        return self._dims

    def party_index(self, name: str) -> int:
        for i, p in enumerate(self.parties):
            if p.name == name:
                return i
        raise KeyError(f"unknown party {name!r} (have {list(self.names)})")


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """A candidate or validated process: a layout plus the operator on the
    full party space. Construction checks the shape only; validity is decided
    by :func:`is_valid_process`.

    A product built by :func:`~procval.product.tensor_product` holds only
    its factors (read-only copies of their operators): its record is merged
    from theirs the first time it is asked a question, and its read-only
    ``op`` is made from them the first time it is read.
    ``ProcessMatrix(p.layout, p.op)`` is the same operator without the
    factors, so its spectrum and terms are computed densely.
    """

    layout: PartyLayout
    op: np.ndarray
    _factors: Any = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a = linalg.as_operator(self.op)
        if a.shape[0] != self.layout.dim:
            raise ValueError(
                f"operator dimension {a.shape[0]} does not match layout dimension "
                f"{self.layout.dim}"
            )
        object.__setattr__(self, "op", a)

    @classmethod
    def _carrying(cls, layout: PartyLayout, factors) -> "ProcessMatrix":
        """A process on ``layout`` that holds ``factors``
        (:class:`procval.product._Factors`), which make its record and its
        operator on first use."""
        p = object.__new__(cls)
        object.__setattr__(p, "layout", layout)
        object.__setattr__(p, "_factors", factors)
        return p

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: the ``op`` of a
        # process made by _carrying, before its first read.
        if name != "op" or self._factors is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        op = self._factors.op
        object.__setattr__(self, "op", op)
        return op

    @property
    def dim(self) -> int:
        return self.layout.dim

    @property
    def d_out(self) -> int:
        return self.layout.d_out

    def terms(self, tol: float | None = None) -> list[HSTerm]:
        """Operator-basis expansion of the process operator."""
        return hsbasis.decompose(self.op, self.layout.subsystem_dims(), tol=tol)


@dataclass(frozen=True)
class TermSignature:
    """Per-party classification of one basis term."""

    tags: tuple[PartyTag, ...]

    def is_trivial(self) -> bool:
        return all(t == PartyTag.TRIVIAL for t in self.tags)

    def is_allowed(self) -> bool:
        """True when the term is a pure input on at least one party (or is
        the trivial term) and may therefore appear in a valid process."""
        return self.is_trivial() or any(t == PartyTag.IN for t in self.tags)

    def type_string(self, layout: PartyLayout) -> str:
        """Human-readable type, e.g. 'x2 y1' for an X-output/Y-input term."""
        tokens = []
        for tag, party in zip(self.tags, layout.parties):
            stem = party.name.lower()
            if tag & PartyTag.IN:
                piece = stem + "1"
                if tag & PartyTag.OUT:
                    piece += stem + "2"
                tokens.append(piece)
            elif tag & PartyTag.OUT:
                tokens.append(stem + "2")
        return " ".join(tokens) if tokens else "trivial"

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(t.code for t in self.tags)


def classify_term(term: HSTerm, layout: PartyLayout) -> TermSignature:
    """Tag a basis term on every party: input index != 0 sets the IN flag,
    output index != 0 sets the OUT flag."""
    if len(term.indices) != 2 * layout.n_parties:
        raise ValueError(
            f"term has {len(term.indices)} indices, layout expects "
            f"{2 * layout.n_parties}"
        )
    tags = []
    for k in range(layout.n_parties):
        tag = PartyTag.TRIVIAL
        if term.indices[2 * k] != 0:
            tag |= PartyTag.IN
        if term.indices[2 * k + 1] != 0:
            tag |= PartyTag.OUT
        tags.append(PartyTag(tag))
    return TermSignature(tags=tuple(tags))


@dataclass(frozen=True)
class Tolerances:
    """Validity thresholds, each a finite number >= 0 when given. ``None``
    means the scale-aware default: PSD ``1e-9 * ||W||_F`` and trace
    ``1e-9 * d_out``, applied in :meth:`FactorRecord.psd_and_trace`, and term
    pruning ``1e-9 * max(1, max |coeff|)``, applied in :func:`hsbasis._term_rows`."""

    psd: float | None = None
    trace: float | None = None
    term: float | None = None

    def __post_init__(self):
        for name in ("psd", "trace", "term"):
            value = getattr(self, name)
            if value is not None:
                linalg._check_threshold(f"{name} threshold", value)


@dataclass(frozen=True)
class ValidityReport:
    """Verdict of :func:`is_valid_process` and what decided it.
    ``forbidden_terms`` lists the terms that break the term rule, with their
    signatures: over the Gell-Mann basis of each subsystem for an extracted
    operator, and over the factors' product basis for a built product's
    merged record, which holds one term per tag pattern, so the list names
    one term for each forbidden pattern (an explicit term threshold
    extracts its made operator, so its terms are then over the Gell-Mann
    basis too)."""

    verdict: bool
    psd_defect: float
    trace_defect: float
    forbidden_terms: tuple[tuple[HSTerm, TermSignature], ...]


def _allowed(tags: np.ndarray) -> np.ndarray:
    """The term rule on tag rows (parties along the last axis): a term is
    allowed when it is trivial or a pure input on some party."""
    return (tags == _IN).any(axis=-1) | ~tags.any(axis=-1)


def _signalling(patterns: tuple[np.ndarray, ...]) -> np.ndarray:
    """Entry ``[i, j]`` is True when one of the tag patterns of
    :func:`_tag_patterns` acts on the output (or both ends) of party ``i``
    and as a pure input on party ``j``."""
    _, _, tags, _ = patterns
    out = (tags & _OUT) != 0
    return (out[:, :, None] & (tags == _IN)[:, None, :]).any(axis=0)


def _tag_patterns(indices: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nontrivial terms among the term rows ``indices`` (basis indices,
    lexicographic order) and ``values`` grouped by tag pattern: their basis
    indices and coefficients, the distinct patterns (a row of tag values
    each, parties in layout order, in the order of their codes), and the
    row of each term's pattern."""
    codes = _pattern_codes(indices)
    keep = codes != 0
    codes = codes[keep]
    # A set finds the few distinct codes without np.unique's fixed cost
    # (60 terms: 5 against 10 us; a dense dim-1024 record's million: 74
    # against 79 ms).
    patterns = np.array(sorted(set(codes.tolist())), dtype=np.uint64)
    group = np.searchsorted(patterns, codes)
    tags = (patterns[:, None] >> _code_bits(indices.shape[1])[1]) & np.uint64(3)
    return indices[keep], values[keep], tags.astype(np.int8), group


@lru_cache(maxsize=None)
def _code_bits(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For term rows over ``n`` subsystems: the bit of each subsystem in a
    pattern code (:func:`_pattern_codes`), and the shift of each party's
    tag in it."""
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    shifts = np.arange(0, n, 2, dtype=np.uint64)
    bits.setflags(write=False)
    shifts.setflags(write=False)
    return bits, shifts


def _pattern_codes(indices: np.ndarray) -> np.ndarray:
    """One tag-pattern code per term row: bit k is set when subsystem k is
    not the identity, so party p's tag is bits 2p and 2p+1 and the trivial
    term's code is 0 (a record's subsystems are those of an extracted
    tensor: numpy's 64 axes fit 64 bits)."""
    return (indices != 0) @ _code_bits(indices.shape[1])[0]


def _first_of_each_pattern(indices: np.ndarray, values: np.ndarray) -> tuple:
    """The first of the term rows ``indices``/``values`` with each tag
    pattern (:func:`_pattern_codes`), the trivial one included, in their
    order: a merged record's rows."""
    first = np.sort(np.unique(_pattern_codes(indices), return_index=True)[1])
    return indices[first], values[first]


def _read(w: ProcessMatrix) -> tuple:
    """``w.op`` after its one check (:func:`linalg._checked`), its norm and
    Hermiticity defect, its coefficient tensor and the term rows of that at
    the default threshold: what a record and a spectrum-free query share."""
    a, norm, defect = linalg._checked(w.op)
    tensor = hsbasis._extract(a, w.layout.subsystem_dims())
    return a, norm, defect, tensor, *hsbasis._term_rows(tensor, None)


def _checked_rows(w: ProcessMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The term rows of :func:`_read`, with no spectrum computed; a built
    product's merged rows are read instead."""
    if w._factors is not None:
        rec = FactorRecord.of(w)
        return rec.indices, rec.values
    return _read(w)[4:]


def _term(indices: np.ndarray, coeff) -> HSTerm:
    return HSTerm(indices=tuple(indices.tolist()), coeff=float(coeff))


# The rounding slack ``c·ε`` (c = 64, ε = 2**-52) of a built product's
# Hermiticity bound, relative to its norm (docs/tolerances.md, *The checks
# of a built product, from its factors*).
_PRODUCT_ROUNDING = 64 * 2.0 ** -52


@dataclass(frozen=True, eq=False)
class FactorRecord:
    """Everything the validity and product decisions need to know about one
    operator: its term rows (the basis indices, over the layout's
    subsystems in lexicographic order, and the coefficients of the terms
    kept at :func:`hsbasis.default_term_tol`, the trivial term included),
    the extreme eigenvalues of its Hermitian part, its Frobenius norm, its
    trace, and its Hermiticity ``defect`` ``max|W − W†|``.

    :meth:`of` reads them off an operator, over the Gell-Mann basis of each
    subsystem, or returns a built product's merged record. The record of
    a tensor product, built or folded, is merged from its factors' records
    in :mod:`procval.product` and never holds a coefficient tensor: its rows
    are the factors' rows multiplied out, over the factors' product basis
    (:func:`hsbasis._merge_rows`), one per tag pattern
    (:func:`_first_of_each_pattern`), its norm and trace are the products of
    the factors' and its ``defect`` a bound on the product's. An explicit term
    threshold reads the coefficient tensor instead of the rows, over the
    Gell-Mann basis: ``tensor`` when :meth:`of` extracted it, else one
    extraction of ``factors.op``, the operator a built product makes from
    its kept factors. Records merged in a fold have neither.
    """

    layout: PartyLayout
    indices: np.ndarray
    values: np.ndarray
    lam_min: float
    lam_max: float
    norm: float
    trace: float
    defect: float
    tensor: np.ndarray | None = None
    factors: Any = None

    @staticmethod
    def of(w: ProcessMatrix) -> "FactorRecord":
        """The record of ``w.op``: :func:`_read`, which checks it once, with
        its spectrum and trace. A built product's record, merged from its
        factors' records, is returned as it is, and its operator is neither
        made nor read when the checks are sure to pass
        (:meth:`checks_certain`); otherwise the made operator is checked
        densely first, so the product raises exactly when its record-free
        copy ``ProcessMatrix(w.layout, w.op)`` raises. A built product with
        no merged record is read off its made operator."""
        rec = w._factors.record if w._factors is not None else None
        if rec is not None:
            if not rec.checks_certain():
                linalg._checked(w.op)
            return rec
        a, norm, defect, tensor, indices, values = _read(w)
        lam_min, lam_max = linalg._hermitian_extremes(a, norm, defect)
        return FactorRecord(layout=w.layout, indices=indices, values=values, lam_min=lam_min,
                            lam_max=lam_max, norm=norm, trace=float(a.trace().real),
                            defect=defect, tensor=tensor)

    def checks_certain(self) -> bool:
        """Whether the dense finiteness and Hermiticity checks of the
        operator are sure to pass on what the record holds: its norm is far
        below the double range, and its ``defect`` (a bound, for a product)
        is within the Hermiticity tolerance of a norm ``c·ε`` smaller."""
        return bool(self.norm <= linalg._SAFE_NORM and self.defect <= linalg.hermitian_tolerance(
            None, (1.0 - _PRODUCT_ROUNDING) * self.norm))

    def patterns(self, tol: float | None = None) -> tuple[np.ndarray, ...]:
        """:func:`_tag_patterns` of the terms with |coefficient| > ``tol``:
        the default ones read the rows and are cached, an explicit ``tol``
        prunes the coefficient tensor."""
        if tol is None:
            return self._default_patterns
        tensor = self.tensor
        if tensor is None:
            if self.factors is None:
                raise ValueError("an explicit term threshold needs the operator of the record")
            tensor = hsbasis.coefficient_tensor(self.factors.op, self.layout.subsystem_dims())
        return _tag_patterns(*hsbasis._term_rows(tensor, tol))

    @cached_property
    def _default_patterns(self) -> tuple[np.ndarray, ...]:
        return _tag_patterns(self.indices, self.values)

    def finite(self) -> bool:
        """Whether the rows, the extremes, the norm and the trace are all
        finite; a merged record can overflow where its factors do not."""
        return bool(np.isfinite(self.values).all() and np.isfinite(
            [self.lam_min, self.lam_max, self.norm, self.trace]).all())

    def check(self, tolerances: Tolerances) -> tuple[bool, float, float, tuple, np.ndarray]:
        """The validity decision: :meth:`psd_and_trace`, and the term rule on
        the patterns of the terms kept at ``tolerances.term``. Returns the
        verdict, the PSD defect, the trace defect, the tag patterns the term
        rule was read from, and the rows of the terms that break it."""
        _, _, tags, group = terms = self.patterns(tolerances.term)
        forbidden = np.flatnonzero(~_allowed(tags)[group])
        ok, psd_defect, trace_defect = self.psd_and_trace(tolerances)
        return ok and not len(forbidden), psd_defect, trace_defect, terms, forbidden

    def psd_and_trace(self, tolerances: Tolerances) -> tuple[bool, float, float]:
        """The one place the PSD and trace thresholds are applied: whether both
        pass, the PSD defect (minus the smallest eigenvalue), the trace defect."""
        psd_defect = -self.lam_min
        trace_defect = abs(self.trace - self.layout.d_out)
        psd_tol = 1e-9 * self.norm if tolerances.psd is None else tolerances.psd
        trace_tol = 1e-9 * self.layout.d_out if tolerances.trace is None else tolerances.trace
        # An overflowed defect or threshold (inf <= inf) says nothing, so it fails.
        ok = bool(-np.inf < psd_defect <= psd_tol < np.inf and trace_defect <= trace_tol)
        return ok, psd_defect, trace_defect

    @cached_property
    def valid(self) -> bool:
        """The verdict of :func:`is_valid_process` with default tolerances,
        decided without making any term objects."""
        return self.check(Tolerances())[0]


def is_valid_process(w: ProcessMatrix, tolerances: Tolerances | None = None) -> ValidityReport:
    """Decide whether ``w`` is a valid process.

    Checks, in order: positive semidefiniteness, trace equal to the product
    of output dimensions, and the term rule (every nontrivial expansion term
    must be a pure input on some party). ``psd_defect`` is minus the smallest
    eigenvalue; ``forbidden_terms`` lists each term violating the term rule
    together with its signature. The decision is :meth:`FactorRecord.check`
    on ``w``'s record; term objects are made for the forbidden terms only.
    """
    verdict, psd_defect, trace_defect, (indices, coeffs, tags, group), forbidden = (
        FactorRecord.of(w).check(tolerances or Tolerances()))
    signatures = [TermSignature(tuple(map(_TAGS.__getitem__, row.tolist()))) for row in tags]
    return ValidityReport(verdict, psd_defect, trace_defect, tuple(
        (_term(indices[r], coeffs[r]), signatures[group[r]]) for r in forbidden))


def signalling_directions(w: ProcessMatrix, frm: str, to: str) -> bool:
    """True when some nontrivial term acts on the output (or both ends) of
    ``frm`` and as a pure input on ``to`` — the pattern that lets ``frm``'s
    output influence ``to``'s input statistics."""
    i = w.layout.party_index(frm)
    j = w.layout.party_index(to)
    if i == j:
        raise ValueError("signalling needs two distinct parties")
    return bool(_signalling(_tag_patterns(*_checked_rows(w)))[i, j])


@dataclass(frozen=True)
class PartyReduction:
    """Factorization of one party into aligned sub-parties and the set to keep.

    ``in_factors[k]`` and ``out_factors[k]`` are the input/output dimensions
    of sub-party k; ``keep`` lists the sub-party slots that survive. Input and
    output factors must pair up — discarding an input without its output is
    rejected.
    """

    in_factors: tuple[int, ...]
    out_factors: tuple[int, ...]
    keep: tuple[int, ...]

    def __post_init__(self):
        if len(self.in_factors) != len(self.out_factors):
            raise ValueError(
                "input and output factor lists must align sub-party by sub-party "
                f"(got {self.in_factors} vs {self.out_factors})"
            )
        n = len(self.in_factors)
        keep = sorted(set(self.keep))
        if not keep:
            raise ValueError("keep set must not be empty")
        if keep[0] < 0 or keep[-1] >= n:
            raise IndexError(f"keep slots {keep} out of range for {n} sub-parties")
        object.__setattr__(self, "keep", tuple(keep))

    @staticmethod
    def whole(party: Party) -> "PartyReduction":
        return PartyReduction((party.d_in,), (party.d_out,), (0,))


def reduced_process(w: ProcessMatrix,
                    keep: Mapping[str, PartyReduction]) -> ProcessMatrix:
    """Trace out whole sub-parties and renormalize.

    Each entry of ``keep`` factorizes one party and selects the sub-parties to
    retain; parties not mentioned are kept whole. The partial trace is divided
    by the product of the discarded output dimensions so the result again has
    trace equal to its output dimension.
    """
    for name in keep:
        w.layout.party_index(name)  # raises on unknown party
    refined_dims: list[int] = []
    discard: list[int] = []
    new_parties: list[Party] = []
    pos = 0
    for party in w.layout.parties:
        red = keep.get(party.name) or PartyReduction.whole(party)
        if math.prod(red.in_factors) != party.d_in:
            raise ValueError(
                f"party {party.name!r}: input factors {red.in_factors} do not "
                f"multiply to {party.d_in}"
            )
        if math.prod(red.out_factors) != party.d_out:
            raise ValueError(
                f"party {party.name!r}: output factors {red.out_factors} do not "
                f"multiply to {party.d_out}"
            )
        kept = set(red.keep)
        for k, d in enumerate(red.in_factors):
            refined_dims.append(d)
            if k not in kept:
                discard.append(pos)
            pos += 1
        for k, d in enumerate(red.out_factors):
            refined_dims.append(d)
            if k not in kept:
                discard.append(pos)
            pos += 1
        new_parties.append(Party(
            name=party.name,
            d_in=int(math.prod(red.in_factors[k] for k in red.keep)),
            d_out=int(math.prod(red.out_factors[k] for k in red.keep)),
        ))
    traced = linalg.partial_trace(w.op, refined_dims, discard)
    discarded_out = w.layout.d_out // math.prod(p.d_out for p in new_parties)
    return ProcessMatrix(layout=PartyLayout(tuple(new_parties)),
                         op=traced / discarded_out)
