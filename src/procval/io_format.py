"""Plain-text interchange format for process matrices (``procmat/1``).

A document is a JSON object with fixed key order: ``format_version``,
``parties`` (name, d_in, d_out each), ``matrix`` (dim plus row-major entries
as [re, im] pairs) and optional ``metadata``. Serialization is canonical —
fixed key order, shortest round-trip float representation, one entry per
line, newline-terminated — so equal values produce byte-identical documents
and serialize(parse(serialize(w))) is a fixed point. Entry flattening follows
the package-wide convention: row-major, inputs before outputs, parties in
declared order.
"""

from __future__ import annotations

import itertools
import json
from typing import NoReturn

import numpy as np

from .process import Party, PartyLayout, ProcessMatrix

__all__ = [
    "FORMAT_VERSION",
    "ProcmatError",
    "VersionError",
    "DimensionError",
    "MalformedDocumentError",
    "parse",
    "parse_document",
    "serialize",
    "load_path",
]

FORMAT_VERSION = "procmat/1"


class ProcmatError(ValueError):
    """Problem with a process-matrix document; ``location`` points at the
    offending part."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message}" + (f" (at {location})" if location else ""))


class VersionError(ProcmatError):
    pass


class DimensionError(ProcmatError):
    pass


class MalformedDocumentError(ProcmatError):
    pass


def _require(cond: bool, exc: type[ProcmatError], message: str, location: str):
    if not cond:
        raise exc(message, location)


def _as_float(x, location: str) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             MalformedDocumentError, f"expected a number, got {x!r}", location)
    try:
        return float(x)
    except OverflowError:
        raise MalformedDocumentError("integer entry does not fit a double",
                                     location) from None


def _raise_first_bad_entry(entries: list) -> NoReturn:
    """Error path of :func:`_entry_array`: name the first entry that is not a
    ``[re, im]`` pair of numbers that fit a double."""
    for i, pair in enumerate(entries):
        loc = f"matrix.entries[{i}]"
        _require(isinstance(pair, list) and len(pair) == 2,
                 MalformedDocumentError, "entry must be a [re, im] pair", loc)
        _as_float(pair[0], loc)
        _as_float(pair[1], loc)
    raise AssertionError("no malformed entry found")  # unreachable


def _entry_array(entries: list) -> np.ndarray:
    """The decoded ``[re, im]`` pairs as one complex128 array.

    The structure is checked by whole-list passes before any value is
    converted, because ``np.fromiter`` would also accept ``"1.5"`` and
    ``True``. JSON arrays decode to ``list`` and JSON numbers to ``int`` or
    ``float``, so comparing exact types matches the per-entry ``isinstance``
    checks of the error path."""
    values = itertools.chain.from_iterable
    if not (set(map(type, entries)) == {list} and set(map(len, entries)) == {2}
            and set(map(type, values(entries))) <= {float, int}):
        _raise_first_bad_entry(entries)
    try:
        flat = np.fromiter(values(entries), dtype=np.float64, count=2 * len(entries))
    except OverflowError:  # an integer beyond the double range
        _raise_first_bad_entry(entries)
    return flat.view(np.complex128)


def parse_document(text: str) -> tuple[ProcessMatrix, dict]:
    """Parse a document, returning the process and its metadata block."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedDocumentError(
            f"invalid JSON: {err.msg}", f"line {err.lineno}, column {err.colno}"
        ) from err
    _require(isinstance(doc, dict), MalformedDocumentError,
             "document must be a JSON object", "$")
    version = doc.get("format_version")
    _require(version == FORMAT_VERSION, VersionError,
             f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}",
             "format_version")

    raw_parties = doc.get("parties")
    _require(isinstance(raw_parties, list) and raw_parties,
             MalformedDocumentError, "parties must be a non-empty list", "parties")
    parties = []
    for i, p in enumerate(raw_parties):
        loc = f"parties[{i}]"
        _require(isinstance(p, dict), MalformedDocumentError,
                 "party must be an object", loc)
        name = p.get("name")
        _require(isinstance(name, str) and name != "", MalformedDocumentError,
                 "party name must be a non-empty string", loc)
        for key in ("d_in", "d_out"):
            _require(isinstance(p.get(key), int) and p[key] >= 1,
                     DimensionError, f"{key} must be a positive integer", loc)
        parties.append(Party(name=name, d_in=p["d_in"], d_out=p["d_out"]))
    try:
        layout = PartyLayout(tuple(parties))
    except ValueError as err:
        raise MalformedDocumentError(str(err), "parties") from None

    matrix = doc.get("matrix")
    _require(isinstance(matrix, dict), MalformedDocumentError,
             "matrix must be an object", "matrix")
    dim = matrix.get("dim")
    _require(isinstance(dim, int) and dim >= 1, DimensionError,
             "matrix.dim must be a positive integer", "matrix.dim")
    _require(dim == layout.dim, DimensionError,
             f"matrix.dim = {dim} but the parties imply {layout.dim}", "matrix.dim")
    entries = matrix.get("entries")
    _require(isinstance(entries, list), MalformedDocumentError,
             "matrix.entries must be a list", "matrix.entries")
    _require(len(entries) == dim * dim, DimensionError,
             f"expected {dim * dim} entries, got {len(entries)}", "matrix.entries")
    op = _entry_array(entries)

    metadata = doc.get("metadata", {})
    _require(isinstance(metadata, dict), MalformedDocumentError,
             "metadata must be an object", "metadata")
    return ProcessMatrix(layout=layout, op=op.reshape(dim, dim)), metadata


def parse(text: str) -> ProcessMatrix:
    """Parse a ``procmat/1`` document into a process matrix."""
    return parse_document(text)[0]


_CHUNK = 4096  # entries formatted per batch, bounding the temporary lists
_ENTRY = "      [{!r}, {!r}]".format  # repr: the shortest round-trip decimal


def _entry_lines(flat: np.ndarray) -> str:
    """The entry lines of a flattened operator, comma-separated.

    Each value goes through ``repr`` of its Python float, so ``-0.0`` and
    every other value print exactly as a per-entry ``repr`` would; values
    are never de-duplicated, since ``0.0 == -0.0`` but their text differs."""
    finite = np.isfinite(flat)
    if not finite.all():
        bad = flat[~finite][0]
        x = bad.real if not np.isfinite(bad.real) else bad.imag
        raise ValueError(f"cannot serialize non-finite entry {x!r}")
    return ",\n".join(
        ",\n".join(map(_ENTRY, flat.real[s:s + _CHUNK].tolist(),
                       flat.imag[s:s + _CHUNK].tolist()))
        for s in range(0, flat.size, _CHUNK))


def serialize(w: ProcessMatrix, metadata: dict | None = None) -> str:
    """Canonical document text for a process matrix: fixed key order, one
    [re, im] entry per line."""
    lines = ["{", f'  "format_version": {json.dumps(FORMAT_VERSION)},',
             '  "parties": [']
    n = len(w.layout.parties)
    for i, p in enumerate(w.layout.parties):
        sep = "," if i + 1 < n else ""
        lines.append(
            f'    {{"name": {json.dumps(p.name)}, '
            f'"d_in": {p.d_in}, "d_out": {p.d_out}}}{sep}'
        )
    lines += ["  ],", '  "matrix": {', f'    "dim": {w.dim},', '    "entries": [']
    lines.append(_entry_lines(w.op.reshape(-1)))
    lines += ["    ]", "  }" + ("," if metadata else "")]
    if metadata:
        lines.append(f'  "metadata": {json.dumps(metadata, sort_keys=True)}')
    lines.append("}\n")
    return "\n".join(lines)


def load_path(path: str) -> ProcessMatrix:
    """Read and parse a document file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
