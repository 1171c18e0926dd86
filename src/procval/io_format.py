"""Plain-text interchange format for process matrices (``procmat/1``).

A document is a JSON object with fixed key order: ``format_version``,
``parties`` (name, d_in, d_out each), ``matrix`` (dim plus row-major entries
as [re, im] pairs) and optional ``metadata``. Serialization is canonical —
fixed key order, shortest round-trip float representation, one entry per
line, newline-terminated — so equal values produce byte-identical documents
and serialize(parse(serialize(w))) is a fixed point. Entry flattening follows
the package-wide convention: row-major, inputs before outputs, parties in
declared order. A document in the canonical layout is read in one flat pass
over its distinct entry lines, found block by block; any other by
``json.loads`` of the whole text, to the same values and errors. Each
distinct entry is formatted once.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Iterator, NoReturn

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


# The canonical layout up to the first entry, as serialize writes it. The
# "entries": [ a match ends on is matrix.entries: every key before it is fixed
# and each party line is one flat object.
_STRING = rb'"(?:[^"\\\n]|\\.)*"'
_PARTY = rb'    \{"name": %s, "d_in": -?[0-9]+, "d_out": -?[0-9]+\}' % _STRING
_CANONICAL_HEAD = re.compile(
    rb'\{\n  "format_version": %s,\n  "parties": \[\n(?:%s,\n)*%s\n'
    rb'  \],\n  "matrix": \{\n    "dim": -?[0-9]+,\n    "entries": \[\n' % (_STRING, _PARTY, _PARTY))
# After the last entry: the closing lines, with metadata on one line or none.
_CANONICAL_TAIL = re.compile(rb'\n    \]\n  \}(?:,\n  "metadata": ([^\n]*))?\n\}\n')
_NUMBER_CHARS = b"0123456789.eE+-"
_ENTRY_LINE = b"      [, ],\n"  # an entry line without its numbers
_BLOCK = 32  # entry lines (reader) or entries (writer) keyed as one block
# Bytes of entry lines (reader) or of entries (writer) in the first look: when
# it holds no repeat, the lines are decoded whole or the entries formatted one
# by one, since keying them would cost more than it saves. So are they when
# more than half of the blocks, keyed after a look with a repeat, are distinct.
_LOOK = 1 << 16


def _numbered(keys: list) -> tuple[list, np.ndarray]:
    """The distinct keys in first-seen order, and the number of each key
    among them."""
    rank = dict.fromkeys(keys)
    rank.update(zip(rank, itertools.count()))
    return list(rank), np.fromiter(map(rank.__getitem__, keys), dtype=np.intp, count=len(keys))


def _line_numbers(body: bytes) -> tuple[list[bytes], np.ndarray] | None:
    """The distinct lines of the entry lines ``body`` in first-seen order,
    and the number of each line among them; None when the lines in the first
    ``_LOOK`` bytes are all distinct, or when a ``\\n`` does not follow a
    ``,``. Entry lines longer than the look are cut into blocks of
    ``_BLOCK`` lines, keyed by their bytes, and only the distinct blocks are
    split into lines and keyed, unless more than half of the blocks are
    distinct (None); shorter ones are keyed line by line."""
    if len(body) <= _LOOK:
        distinct, numbers = _numbered(body.split(b",\n"))
        return (distinct, numbers) if len(distinct) < len(numbers) else None
    look = body[:body.rfind(b",\n", 0, _LOOK)].split(b",\n")
    if len(set(look)) == len(look):
        return None
    view = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(view == 10)  # the "\n" of each line but the last
    if not (ends[0] > 0 and (view[ends - 1] == 44).all()):
        return None
    cuts = ends[_BLOCK - 1::_BLOCK]  # the end of each full block but the last
    starts = [0, *(cuts + 1).tolist()]
    stops = [*(cuts - 1).tolist(), len(body)]  # without the block's closing ",\n"
    blocks, block_numbers = _numbered(list(map(body.__getitem__, map(slice, starts, stops))))
    if 2 * len(blocks) > len(block_numbers):
        return None
    # A short last block is the last distinct one.
    distinct, numbers = _numbered(b",\n".join(blocks).split(b",\n"))
    table = np.zeros(len(blocks) * _BLOCK, dtype=np.intp)
    table[:len(numbers)] = numbers
    return distinct, table.reshape(-1, _BLOCK)[block_numbers].reshape(-1)[:len(ends) + 1]


def _canonical_document(text: str | bytes) -> dict | None:
    """The decoded document when ``text`` has the canonical layout and every
    entry is a pair of numbers that fit a double, with ``matrix.entries``
    already a complex128 array; otherwise None.

    The layout is matched on the document's UTF-8 bytes (a ``str`` is
    encoded first). The header and metadata are decoded as UTF-8 and go
    through ``json.loads`` as on the general path.
    The entry lines must be ``serialize``'s lines, each value one run of
    ``0-9 . e E + -`` in its place, and the values decode as one flat JSON
    array: the same scanner as the general path, so ``-0`` still reads as
    ``+0.0`` and ``1e400`` as ``inf``. Where lines repeat, only the distinct
    entry lines are checked and decoded, each once, and the entries gathered
    from them (:func:`_line_numbers`); a line's bytes fix its value, and the
    layout checks of a body hold for every line of it exactly when they hold
    for each distinct line. Anything else (other whitespace, ``NaN``,
    ``true``, strings, an integer beyond the double range, a truncated
    document, bytes that are not UTF-8, metadata nested too deeply to
    decode) gives None, and the general path reads the text and raises its
    errors. Every byte of a match is decoded or checked, so a document that
    is not UTF-8 never matches."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    head = _CANONICAL_HEAD.match(data)
    tail_at = data.rfind(b"\n    ]\n  }")
    tail = _CANONICAL_TAIL.fullmatch(data, tail_at) if head and tail_at >= head.end() else None
    if tail is None:
        return None
    try:
        doc = json.loads((data[:head.end()] + b"]}}").decode())
        if tail[1] is not None:
            doc["metadata"] = json.loads(tail[1].decode())  # one value, so no key follows it
        n = doc["matrix"]["dim"] ** 2
        body = data[head.end():tail_at]
        # Each entry line has 14 characters or more, which bounds the template.
        if not 0 < 14 * n - 2 <= len(body):
            return None
        m, index = n, None
        numbered = _line_numbers(body)
        if numbered is not None and len(numbered[1]) == n:  # else the checks below fail
            distinct, index = numbered
            m = len(distinct)
            body = b",\n".join(distinct)
        # Without its number characters the body must be m entry lines, and
        # none of them may sit outside a value's place: in the indent, inside
        # ", " or "],\n", or after the last "]".
        if not (body.translate(None, _NUMBER_CHARS) == _ENTRY_LINE * (m - 1) + _ENTRY_LINE[:-2]
                and body.startswith(b"      [") and body.endswith(b"]")
                and body.count(b"],\n      [") == m - 1 and body.count(b", ") == m):
            return None
        values = json.loads(b"[" + body.translate(None, b"[] \n") + b"]")
        flat = np.fromiter(values, dtype=np.float64, count=2 * m)
    except (ValueError, OverflowError, RecursionError):  # see the docstring
        return None
    entries = flat.view(np.complex128)
    doc["matrix"]["entries"] = entries if index is None else entries[index]
    return doc


def parse_document(text: str | bytes) -> tuple[ProcessMatrix, dict]:
    """Parse a document, returning the process and its metadata block.
    ``bytes`` are a file's contents, read as a file opened in text mode as
    UTF-8 reads them: decoded once, with universal newlines."""
    doc = _canonical_document(text)
    if doc is None:  # the general path
        if isinstance(text, bytes):
            text = text.decode().replace("\r\n", "\n").replace("\r", "\n")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise MalformedDocumentError(
                f"invalid JSON: {err.msg}", f"line {err.lineno}, column {err.colno}"
            ) from err
        except RecursionError:
            raise MalformedDocumentError("invalid JSON: nested too deeply to decode", "$") from None
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
        for key in ("d_in", "d_out"):  # JSON true decodes to a bool, which is an int
            _require(type(p.get(key)) is int and p[key] >= 1,
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
    _require(type(dim) is int and dim >= 1, DimensionError,
             "matrix.dim must be a positive integer", "matrix.dim")
    _require(dim == layout.dim, DimensionError,
             f"matrix.dim = {dim} but the parties imply {layout.dim}", "matrix.dim")
    op = matrix.get("entries")
    if not isinstance(op, np.ndarray):  # a list from json.loads, not yet checked
        _require(isinstance(op, list), MalformedDocumentError,
                 "matrix.entries must be a list", "matrix.entries")
        _require(len(op) == dim * dim, DimensionError,
                 f"expected {dim * dim} entries, got {len(op)}", "matrix.entries")
        op = _entry_array(op)

    metadata = doc.get("metadata", {})
    _require(isinstance(metadata, dict), MalformedDocumentError,
             "metadata must be an object", "metadata")
    return ProcessMatrix(layout=layout, op=op.reshape(dim, dim)), metadata


def parse(text: str | bytes) -> ProcessMatrix:
    """Parse a ``procmat/1`` document (:func:`parse_document`) into a
    process matrix."""
    return parse_document(text)[0]


_ENTRY = "      [{!r}, {!r}]".format  # repr: the shortest round-trip decimal


def _formatted(keys: list[bytes]) -> Iterator[str]:
    """The line of each entry, given by its 16 raw bytes, formatting each
    distinct entry once."""
    line = dict.fromkeys(keys)
    values = np.frombuffer(b"".join(line), dtype=np.complex128)
    line.update(zip(line, map(_ENTRY, values.real.tolist(), values.imag.tolist())))
    return map(line.__getitem__, keys)


def _entry_lines(flat: np.ndarray) -> str:
    """The entry lines of a flattened operator, comma-separated.

    Each value goes through ``repr`` of its Python float, so every value
    prints exactly as a per-entry ``repr`` would. Entries are keyed by their
    raw bytes, so ``0.0`` and ``-0.0``, equal as floats, keep their own text,
    and each distinct entry is formatted once. An operator longer than the
    first ``_LOOK`` bytes is keyed ``_BLOCK`` entries at a time, and only the
    entries of its distinct blocks are keyed one by one; when the entries of
    the look are all distinct, or more than half of the blocks are, each
    entry is formatted instead."""
    finite = np.isfinite(flat)
    if not finite.all():
        bad = flat[~finite][0]
        x = bad.real if not np.isfinite(bad.real) else bad.imag
        raise ValueError(f"cannot serialize non-finite entry {x!r}")
    look = flat[:_LOOK // 16].view("V16").tolist()
    if len(look) == flat.size:
        return ",\n".join(_formatted(look))
    if len(set(look)) < len(look):
        full = flat.size - flat.size % _BLOCK
        keys = flat[:full].view(f"V{16 * _BLOCK}").tolist()
        if full < flat.size:
            keys.append(flat[full:].tobytes())  # the short last block
        blocks = dict.fromkeys(keys)  # the text of each distinct block, by its bytes
        if 2 * len(blocks) <= len(keys):
            lines = list(_formatted(np.frombuffer(b"".join(blocks), dtype="V16").tolist()))
            # A short last block is the last distinct one.
            blocks.update(zip(blocks, (",\n".join(lines[s:s + _BLOCK])
                                       for s in range(0, len(lines), _BLOCK))))
            return ",\n".join(map(blocks.__getitem__, keys))
    return ",\n".join(map(_ENTRY, flat.real.tolist(), flat.imag.tolist()))


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
    """Read and parse a document file, from its bytes: a canonical document
    is never decoded as a whole."""
    with open(path, "rb") as fh:
        return parse(fh.read())
