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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

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
        return {0: "0", 1: "1", 2: "2", 3: "12"}[int(self)]


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
    party, parties in declared order."""

    parties: tuple[Party, ...]

    def __post_init__(self):
        names = [p.name for p in self.parties]
        if len(set(names)) != len(names):
            raise ValueError(f"party names must be unique, got {names}")
        if not self.parties:
            raise ValueError("layout needs at least one party")

    @staticmethod
    def of(*parties: tuple[str, int, int]) -> "PartyLayout":
        return PartyLayout(tuple(Party(*p) for p in parties))

    @property
    def n_parties(self) -> int:
        return len(self.parties)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parties)

    def subsystem_dims(self) -> tuple[int, ...]:
        dims = []
        for p in self.parties:
            dims += [p.d_in, p.d_out]
        return tuple(dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.subsystem_dims()))

    @property
    def d_out(self) -> int:
        return int(np.prod([p.d_out for p in self.parties]))

    @property
    def d_in(self) -> int:
        return int(np.prod([p.d_in for p in self.parties]))

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

    A product built by :func:`~procval.product.tensor_product` also remembers
    its two factors, and its ``op`` is read-only so that it cannot drift from
    them; :func:`is_valid_process` then reads the product's spectrum from
    the factors'. ``ProcessMatrix(p.layout, p.op)`` is the same operator
    without the factors, so its spectrum is computed densely.
    """

    layout: PartyLayout
    op: np.ndarray
    _factors: tuple["ProcessMatrix", "ProcessMatrix"] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        a = linalg.as_operator(self.op)
        if a.shape[0] != self.layout.dim:
            raise ValueError(
                f"operator dimension {a.shape[0]} does not match layout dimension "
                f"{self.layout.dim}"
            )
        object.__setattr__(self, "op", a)

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
    """Validity thresholds; ``None`` means the scale-aware default applied in
    :meth:`FactorRecord.check`: PSD ``1e-9 * ||W||_F``, trace ``1e-9 * d_out``,
    term pruning ``1e-9 * max(1, max |coeff|)``."""

    psd: float | None = None
    trace: float | None = None
    term: float | None = None


@dataclass(frozen=True)
class ValidityReport:
    verdict: bool
    psd_defect: float
    trace_defect: float
    forbidden_terms: tuple[tuple[HSTerm, TermSignature], ...]


def _party_tags(indices: np.ndarray) -> np.ndarray:
    """PartyTag value of each term (a row of basis indices) on each party."""
    nonzero = (indices != 0).astype(np.int8)
    return nonzero[:, 0::2] * int(PartyTag.IN) + nonzero[:, 1::2] * int(PartyTag.OUT)


def _allowed(tags: np.ndarray) -> np.ndarray:
    """The term rule on tag rows (parties along the last axis): a term is
    allowed when it is trivial or a pure input on some party."""
    return (tags == PartyTag.IN).any(axis=-1) | (tags == PartyTag.TRIVIAL).all(axis=-1)


def _signalling(w: ProcessMatrix) -> np.ndarray:
    """Entry ``[i, j]`` is True when some term of ``w``'s expansion acts on
    the output (or both ends) of party ``i`` and as a pure input on party
    ``j``. Read off the tag rows of the coefficients; no spectrum is computed."""
    coeffs = hsbasis.coefficient_tensor(w.op, w.layout.subsystem_dims())
    tags = _party_tags(hsbasis._term_rows(coeffs, None)[0])
    out = (tags & PartyTag.OUT) != 0
    return (out[:, :, None] & (tags == PartyTag.IN)[:, None, :]).any(axis=0)


def _product_extremes(w: tuple[float, float],
                      z: tuple[float, float]) -> tuple[float, float]:
    """Smallest and largest eigenvalue of ``W ⊗ Z`` from those of ``W`` and
    ``Z``: the extremes of the four products."""
    products = [p * q for p in w for q in z]
    return min(products), max(products)


def _eigenvalue_range(w: ProcessMatrix, check: bool = False) -> tuple[float, float]:
    """Extreme eigenvalues of ``w.op``, checked first if ``check``. A built
    product takes them from its factors, each checked (recursively); if one
    fails its checks, the product's operator is eigendecomposed after all."""
    if check:
        linalg.require_hermitian(linalg._require_finite(w.op))
    if w._factors is not None:
        try:
            return _product_extremes(*(_eigenvalue_range(f, check=True) for f in w._factors))
        except ValueError:
            pass
    return linalg._hermitian_extremes(w.op)


def _term(indices: np.ndarray, coeff) -> HSTerm:
    return HSTerm(indices=tuple(int(i) for i in indices), coeff=float(coeff))


@dataclass(frozen=True, eq=False)
class FactorRecord:
    """Everything the validity and product decisions need to know about one
    operator: its coefficient tensor over the operator basis (shape
    ``(d_1^2, ...)`` over the layout's subsystems), the extreme eigenvalues
    of its Hermitian part, its Frobenius norm and its trace.

    :meth:`of` reads them off an operator, the extremes of a built product
    from its factors; the record of a tensor product is merged from its
    factors' records in :mod:`procval.product`.
    """

    layout: PartyLayout
    coeffs: np.ndarray
    lam_min: float
    lam_max: float
    norm: float
    trace: float

    @staticmethod
    def of(w: ProcessMatrix) -> "FactorRecord":
        """The record of ``w.op``, checked once: for a non-finite entry, then
        for Hermiticity by the coefficient extraction."""
        dims = w.layout.subsystem_dims()
        coeffs = hsbasis.coefficient_tensor(linalg._require_finite(w.op), dims)
        lam_min, lam_max = _eigenvalue_range(w)
        return FactorRecord(
            layout=w.layout,
            coeffs=coeffs,
            lam_min=lam_min,
            lam_max=lam_max,
            norm=linalg.frobenius(w.op),
            trace=float(w.op.trace().real),
        )

    def terms(self, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """:func:`hsbasis._term_rows` of the coefficients; the default rows are cached."""
        return self._default_terms if tol is None else hsbasis._term_rows(self.coeffs, tol)

    @cached_property
    def _default_terms(self) -> tuple[np.ndarray, np.ndarray]:
        return hsbasis._term_rows(self.coeffs, None)

    def check(self, tolerances: Tolerances) -> tuple[bool, float, float, np.ndarray, np.ndarray]:
        """The validity decision, and the one place the three thresholds of
        ``tolerances`` are applied. Returns the verdict, the PSD defect (minus
        the smallest eigenvalue), the trace defect, and the indices and
        coefficients of the terms that break the term rule."""
        indices, coeffs = self.terms(tolerances.term)
        forbidden = ~_allowed(_party_tags(indices))
        psd_defect = -self.lam_min
        trace_defect = abs(self.trace - self.layout.d_out)
        psd_tol = 1e-9 * self.norm if tolerances.psd is None else tolerances.psd
        trace_tol = 1e-9 * self.layout.d_out if tolerances.trace is None else tolerances.trace
        # An overflowed defect or threshold (inf <= inf) says nothing, so it fails.
        psd_ok = -np.inf < psd_defect <= psd_tol < np.inf
        verdict = bool(psd_ok and trace_defect <= trace_tol and not forbidden.any())
        return verdict, psd_defect, trace_defect, indices[forbidden], coeffs[forbidden]

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
    verdict, psd_defect, trace_defect, indices, coeffs = (
        FactorRecord.of(w).check(tolerances or Tolerances()))
    signatures = (TermSignature(tuple(PartyTag(int(t)) for t in row))
                  for row in _party_tags(indices))
    return ValidityReport(verdict, psd_defect, trace_defect,
                          tuple(zip(map(_term, indices, coeffs), signatures)))


def signalling_directions(w: ProcessMatrix, frm: str, to: str) -> bool:
    """True when some nontrivial term acts on the output (or both ends) of
    ``frm`` and as a pure input on ``to`` — the pattern that lets ``frm``'s
    output influence ``to``'s input statistics."""
    i = w.layout.party_index(frm)
    j = w.layout.party_index(to)
    if i == j:
        raise ValueError("signalling needs two distinct parties")
    return bool(_signalling(w)[i, j])


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
        if int(np.prod(red.in_factors)) != party.d_in:
            raise ValueError(
                f"party {party.name!r}: input factors {red.in_factors} do not "
                f"multiply to {party.d_in}"
            )
        if int(np.prod(red.out_factors)) != party.d_out:
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
            d_in=int(np.prod([red.in_factors[k] for k in red.keep])),
            d_out=int(np.prod([red.out_factors[k] for k in red.keep])),
        ))
    traced = linalg.partial_trace(w.op, refined_dims, discard)
    discarded_out = w.layout.d_out // int(np.prod([p.d_out for p in new_parties]))
    return ProcessMatrix(layout=PartyLayout(tuple(new_parties)),
                         op=traced / discarded_out)
