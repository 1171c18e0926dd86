"""Tests for the procmat/1 interchange format."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procval import (
    PartyLayout,
    ProcessMatrix,
    gallery_entry,
    gallery_names,
    parse,
    serialize,
    tensor_product,
)
from procval import io_format
from procval.io_format import (
    DimensionError,
    MalformedDocumentError,
    VersionError,
    parse_document,
)

from helpers import loop_parse_entries, loop_serialize


@pytest.mark.parametrize("name", gallery_names())
def test_roundtrip_is_bit_exact(name):
    w = gallery_entry(name).process
    back = parse(serialize(w))
    assert back.layout == w.layout
    assert back.op.tobytes() == w.op.tobytes()


def test_serialization_is_deterministic():
    w = gallery_entry("twoway-d2").process
    assert serialize(w) == serialize(w)


def test_serialize_parse_serialize_fixed_point():
    w = gallery_entry("oneway-xy-d2").process
    text = serialize(w)
    assert serialize(parse(text)) == text


def test_whitespace_variant_reserializes_canonically():
    w = gallery_entry("state-maxmix-d2").process
    canonical = serialize(w)
    doc = json.loads(canonical)
    mangled = json.dumps(doc, separators=(",", ":"))  # same value, no whitespace
    assert mangled != canonical
    assert serialize(parse(mangled)) == canonical


def test_metadata_preserved_through_parse_document():
    w = gallery_entry("state-bell-d2").process
    text = serialize(w, metadata={"description": "shared state", "seed": 7})
    _, meta = parse_document(text)
    assert meta == {"description": "shared state", "seed": 7}


def test_version_mismatch():
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["format_version"] = "procmat/2"
    with pytest.raises(VersionError, match="format_version"):
        parse(json.dumps(doc))


def test_entry_count_mismatch():
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["entries"] = doc["matrix"]["entries"][:-1]
    with pytest.raises(DimensionError, match="entries"):
        parse(json.dumps(doc))


def test_dim_inconsistent_with_parties():
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["dim"] = 8
    with pytest.raises(DimensionError, match="dim"):
        parse(json.dumps(doc))


def test_malformed_number_reported_with_location():
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["entries"][5] = ["zero", 0.0]
    with pytest.raises(MalformedDocumentError) as err:
        parse(json.dumps(doc))
    assert "entries[5]" in str(err.value)


def test_integer_entry_beyond_double_range_reported_with_location():
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["entries"][3] = [10 ** 400, 0]
    with pytest.raises(MalformedDocumentError, match="double") as err:
        parse(json.dumps(doc))
    assert "entries[3]" in str(err.value)


def test_invalid_json_reports_position():
    with pytest.raises(MalformedDocumentError, match="line"):
        parse('{"format_version": "procmat/1", ')


def test_non_object_document():
    with pytest.raises(MalformedDocumentError):
        parse("[1, 2, 3]")


def test_bad_party_block():
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["parties"][0]["d_in"] = 0
    with pytest.raises(DimensionError, match="d_in"):
        parse(json.dumps(doc))


def test_floats_read_as_ieee_doubles():
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["entries"][0] = [0.1, -0.30000000000000004]
    back = parse(json.dumps(doc))
    assert back.op.reshape(-1)[0] == 0.1 + -0.30000000000000004j


def test_integer_entries_accepted_and_canonicalized():
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["entries"][0] = [1, 0]
    back = parse(json.dumps(doc))
    assert back.op.reshape(-1)[0] == 1.0 + 0.0j
    # reserialization writes floats
    assert '"entries"' in serialize(back)
    assert json.loads(serialize(back))["matrix"]["entries"][0] == [1.0, 0.0]


@pytest.mark.parametrize("bad, message", [
    ([True, 0.0], "expected a number, got True"),
    ([0.0, False], "expected a number, got False"),
    (["1.5", 0.0], "expected a number, got '1.5'"),
    ([None, 0.0], "expected a number, got None"),
    ([[0.0], 0.0], "expected a number, got [0.0]"),
    ({"re": 0.0, "im": 0.0}, "entry must be a [re, im] pair"),
    (0.5, "entry must be a [re, im] pair"),
    ([0.5], "entry must be a [re, im] pair"),
])
def test_first_malformed_entry_reported_with_location(bad, message):
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["entries"][5] = bad
    doc["matrix"]["entries"][9] = "later"
    with pytest.raises(MalformedDocumentError) as err:
        parse(json.dumps(doc))
    assert err.value.location == "matrix.entries[5]"
    assert str(err.value) == f"{message} (at matrix.entries[5])"


def test_wrong_pair_lengths_with_the_right_value_count():
    # 3 + 1 values where 2 + 2 are due: a count over all values cannot see it.
    w = gallery_entry("state-maxmix-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["entries"][6:8] = [[1, 2, 3], [4]]
    with pytest.raises(MalformedDocumentError, match="pair") as err:
        parse(json.dumps(doc))
    assert err.value.location == "matrix.entries[6]"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_still_parses(value):
    w = gallery_entry("twoway-d2").process
    doc = json.loads(serialize(w))
    doc["matrix"]["entries"][1] = [value, 0.0]
    text = json.dumps(doc)
    assert ("NaN" if math.isnan(value) else "Infinity") in text
    expect = w.op.reshape(-1).copy()
    expect[1] = value
    assert parse(text).op.reshape(-1).tobytes() == expect.tobytes()


def test_serialize_rejects_non_finite_entry_as_the_reference():
    w = gallery_entry("twoway-d2").process
    op = w.op.copy()
    op[2, 3] = complex(0.5, math.nan)
    op[4, 4] = math.inf
    bad = ProcessMatrix(w.layout, op)
    with pytest.raises(ValueError) as ref:
        loop_serialize(bad)
    with pytest.raises(ValueError) as err:
        serialize(bad)
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("name", gallery_names())
def test_gallery_documents_match_the_loop_reference(name):
    entry = gallery_entry(name)
    meta = {"description": entry.notes}
    text = serialize(entry.process, metadata=meta)
    assert text == loop_serialize(entry.process, metadata=meta)
    assert parse(text).op.reshape(-1).tobytes() == loop_parse_entries(text).tobytes()


def test_non_contiguous_operator_serializes_as_the_reference():
    w = gallery_entry("oneway-xy-d2").process
    t = ProcessMatrix(w.layout, w.op.T)
    assert not t.op.flags.c_contiguous
    assert serialize(t) == loop_serialize(t)


# Values whose text or bits a formatter or reader could get wrong: signed
# zeros, the smallest subnormal and the largest subnormal, the extremes near
# the double range, decimals without an exact binary value, and integers that
# are read as doubles (some above 2**53, where the conversion rounds).
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                  2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
                  0.1, 0.2, 0.30000000000000004, 1 / 3, -2.5e-17,
                  0, 1, -7, 2 ** 53 + 1, -(10 ** 20), 2 ** 1000]
VALUES = (st.sampled_from(SPECIAL_VALUES)
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.integers(-(2 ** 70), 2 ** 70))
# Malformed entries and the integer beyond the double range.
BAD_ENTRIES = [[True, 0.0], [0.0, None], ["1.5", 0.0], [[0.0], 0.0], "x",
               [1.0], [1.0, 2.0, 3.0], [10 ** 400, 0]]
LAYOUTS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                   min_size=1, max_size=3).filter(
    lambda dims: math.prod(a * b for a, b in dims) <= 81)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dims=LAYOUTS, pool=st.lists(VALUES, min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1),
       bad=st.none() | st.tuples(st.floats(0, 1, exclude_max=True),
                                 st.sampled_from(BAD_ENTRIES)))
def test_io_matches_the_loop_reference(dims, pool, seed, bad):
    """On random layouts (one-dimensional ends included) and random values,
    ``parse`` reads the bits and raises the errors of the entry-by-entry
    reference, ``serialize`` writes its bytes, and the canonical text is a
    fixed point."""
    layout = PartyLayout.of(*((f"P{k}", a, b) for k, (a, b) in enumerate(dims)))
    n = layout.dim ** 2
    rng = np.random.default_rng(seed)
    entries = [[pool[i], pool[j]] for i, j in rng.integers(len(pool), size=(n, 2)).tolist()]
    if bad is not None:
        entries[int(bad[0] * n)] = bad[1]
    parties = [{"name": p.name, "d_in": p.d_in, "d_out": p.d_out} for p in layout.parties]
    text = json.dumps({"format_version": "procmat/1", "parties": parties,
                       "matrix": {"dim": layout.dim, "entries": entries}})
    try:
        expect = loop_parse_entries(text)
    except MalformedDocumentError as ref:
        with pytest.raises(MalformedDocumentError) as err:
            parse(text)
        assert (str(err.value), err.value.location) == (str(ref), ref.location)
        return
    w = parse(text)
    assert w.layout == layout
    assert w.op.reshape(-1).tobytes() == expect.tobytes()
    canonical = serialize(w)
    assert canonical == loop_serialize(ProcessMatrix(layout, expect.reshape(w.op.shape)))
    assert serialize(parse(canonical)) == canonical


# The canonical-layout reader: on every document it either reads what the
# json.loads path reads, bit for bit, or leaves the text to that path.

def read(text):
    """What ``parse_document`` gives: the operator's bits, layout and
    metadata, or the error's type and message."""
    try:
        w, meta = parse_document(text)
    except Exception as err:  # both readers must raise the same error
        return type(err), str(err)
    return w.op.tobytes(), w.layout, json.dumps(meta)


def read_both(text):
    """``read`` with the canonical-layout reader, and without it."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(io_format, "_canonical_document", lambda text: None)
        general = read(text)
    return read(text), general


def signed_zeros(seed=0):
    """``twoway-d2`` with the sign of each zero part drawn at random: many
    repeated lines, some differing only in the sign of a zero."""
    w = gallery_entry("twoway-d2").process
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random((2,) + w.op.shape) < 0.5, -1.0, 1.0)
    op = np.empty_like(w.op)  # arithmetic such as re + 1j*im would lose the signs
    op.real, op.imag = w.op.real * signs[0], w.op.imag * signs[1]
    return ProcessMatrix(w.layout, op)


@functools.lru_cache(maxsize=None)
def product_256():
    """A dim-256 gallery product: 65,536 lines of 3 distinct entries."""
    return tensor_product(gallery_entry("twoway-d2").process,
                          gallery_entry("oneway-xy-d2").process)


SYNTHETIC = {"signed-zeros": signed_zeros, "product-256": product_256}


def canonical(name="twoway-d2", metadata=None):
    w = SYNTHETIC[name]() if name in SYNTHETIC else gallery_entry(name).process
    return serialize(w, metadata=metadata)


def set_entry(text, k, line):
    """``text`` with its entry line ``k`` (no indent, no comma) replaced."""
    lines = text.split("\n")
    at = lines.index('    "entries": [') + 1 + k
    lines[at] = "      " + line + ("," if lines[at].endswith(",") else "")
    return "\n".join(lines)


@pytest.mark.parametrize("name", gallery_names())
def test_flat_reader_reads_every_gallery_document(name):
    text = canonical(name, {"description": gallery_entry(name).notes})
    assert io_format._canonical_document(text) is not None
    fast, general = read_both(text)
    assert fast == general
    assert serialize(*parse_document(text)) == text


@pytest.mark.parametrize("line, expect", [
    ("[-0, -0.0]", complex(0.0, -0.0)),  # the integer -0 is +0, as json.loads reads it
    ("[1E+2, 2.5e-3]", complex(100.0, 0.0025)),
    ("[1e400, -1e400]", complex(math.inf, -math.inf)),
    ("[12345678901234567890123, 2]", complex(12345678901234567890123, 2)),
])
def test_flat_reader_reads_values_as_json_loads(line, expect):
    text = set_entry(canonical(), 3, line)
    assert io_format._canonical_document(text) is not None
    fast, general = read_both(text)
    assert fast == general
    value = parse(text).op.reshape(-1)[3]
    assert np.array([value]).tobytes() == np.array([expect]).tobytes()


def mutations():
    text = canonical()
    lines = text.split("\n")
    at = lines.index('    "entries": [') + 1
    yield "400-digit integer", set_entry(text, 5, f"[{'9' * 400}, 0.0]")
    yield "NaN", set_entry(text, 1, "[NaN, 0.0]")
    yield "Infinity", set_entry(text, 1, "[0.5, -Infinity]")
    yield "true", set_entry(text, 2, "[true, 0.0]")
    yield "string", set_entry(text, 2, '["1.0", 0.0]')
    yield "null", set_entry(text, 2, "[0.0, null]")
    yield "empty value", set_entry(text, 2, "[, 0.0]")
    yield "plus sign", set_entry(text, 2, "[+1, 0.0]")
    yield "leading zero", set_entry(text, 2, "[01, 0.0]")
    yield "bare point", set_entry(text, 2, "[1., 0.0]")
    yield "two numbers in one place", set_entry(text, 2, "[1 2, 0.0]")
    yield "3 + 1 numbers", set_entry(set_entry(text, 6, "[1, 2, 3]"), 7, "[4]")
    yield "nested pair", set_entry(text, 6, "[[0.0], 0.0]")
    yield "brackets in metadata", canonical(metadata={"note": "[1, 2], [3]", ",": "]"})
    yield "entries block in metadata", text.replace(
        "\n  }\n}\n", '\n  },\n  "metadata": {\n    "entries": [\n      [1, 2]\n    ]\n  }\n}\n')
    yield "metadata that is not one value", canonical(metadata={"a": 1}).replace(
        '{"a": 1}', '{"a": 1}, "matrix": {"dim": 16, "entries": []}')
    yield "duplicate matrix first", text.replace(
        '  "matrix": {', '  "matrix": {"dim": 16, "entries": []},\n  "matrix": {', 1)
    yield "duplicate matrix last", text.replace(
        "\n  }\n}\n", '\n  },\n  "matrix": {"dim": 16, "entries": []}\n}\n')
    yield "digit after a pair", text.replace("[0.5, 0.0],", "[0.5, 0.0]1,", 1)
    yield "digit after a line", text.replace("[0.5, 0.0],\n", "[0.5, 0.0],1\n", 1)
    yield "digit in the indent", text.replace("\n      [0.25", "\n     1 [0.25", 1)
    yield "digit before a pair", text.replace("      [0.25", "      1[0.25", 1)
    yield "digit inside the pair comma", text.replace("[0.5, 0.0]", "[0.5,1 0.0]", 1)
    yield "digit after the last pair", text.replace("[0.5, 0.0]\n    ]", "[0.5, 0.0]1\n    ]")
    yield "CRLF", text.replace("\n", "\r\n")
    yield "extra spaces", text.replace("[0.0, 0.0]", "[0.0,  0.0]")
    yield "tab", text.replace("      [0.5", "\t[0.5", 1)
    yield "no final newline", text[:-1]
    yield "truncated", text[:len(text) // 2]
    yield "truncated after the entries", "\n".join(lines[:at + 256])
    yield "entry missing", "\n".join(lines[:at + 255] + lines[at + 256:])
    yield "entry added", "\n".join(lines[:at] + ["      [0.0, 0.0],"] + lines[at:])
    yield "version", text.replace("procmat/1", "procmat/2")
    yield "dim", text.replace('"dim": 16', '"dim": 4')
    yield "dim zero", text.replace('"dim": 16', '"dim": 0')
    yield "negative dim", text.replace('"dim": 16', '"dim": -16')
    yield "leading-zero dim", text.replace('"dim": 16', '"dim": 016')
    yield "d_in", text.replace('"d_in": 2', '"d_in": 0', 1)
    yield "escaped name", text.replace('"name": "X"', '"name": "\\u0058\\""')
    yield "duplicate name", text.replace('"name": "Y"', '"name": "X"')
    # Repetition-heavy texts: a dim-256 product (its 65,536 entry lines are
    # 2,048 of the reader's blocks) and lines that differ only in the sign of
    # a zero.
    big = canonical("product-256")
    yield "NaN in one repeated line late", set_entry(big, 60000, "[NaN, 0.0]")
    yield "space in one repeated line late", set_entry(big, 50000, "[0.0,  0.0]")
    yield "string in the last line", set_entry(big, 65535, '["0.0", 0.0]')
    yield "huge integer late", set_entry(big, 40000, f"[{'9' * 400}, 0]")
    yield "signed zero late", set_entry(big, 30000, "[-0.0, 0.0]")
    yield "integer late", set_entry(big, 30000, "[0, -0]")
    yield "one line fewer", big.replace("      [0.0, 0.0],\n", "", 1)
    lines = big.split("\n")
    at = lines.index('    "entries": [') + 1
    for k, where in ((31, "at a block's end"), (40, "in mid-block")):
        yield f"digit for the comma of a line {where}", "\n".join(
            lines[:at + k] + [lines[at + k][:-1] + "1"] + lines[at + k + 1:])
    zeros = canonical("signed-zeros")
    yield "signed zeros", zeros
    yield "signed zeros, one line with a plus", zeros.replace("[-0.0, 0.0]", "[-0.0, +0.0]", 1)
    yield "signed zeros, tab", zeros.replace("[0.0, -0.0],", "[0.0,\t-0.0],", 1)


@pytest.mark.parametrize("text", [t for _, t in mutations()], ids=[k for k, _ in mutations()])
def test_flat_reader_matches_json_loads_on_mutated_documents(text):
    assert text != canonical()
    fast, general = read_both(text)
    assert fast == general


def test_integer_beyond_the_double_range_is_left_to_the_general_path():
    text = set_entry(canonical(), 5, f"[{'9' * 400}, 0.0]")
    assert io_format._canonical_document(text) is None
    with pytest.raises(MalformedDocumentError, match="does not fit a double") as err:
        parse(text)
    assert err.value.location == "matrix.entries[5]"


TOKENS = ["0.0", "-0.0", "0", "-0", "1", "-", "e", ".", "1E+2", "1e-5", "1e400", "-1e400", "2.5",
          "17976931348623157" + "0" * 292, "1" + "0" * 400, "NaN", "Infinity",
          "true", "null", '"0.5"', "", "1.", ".5", "+1", "01", "1e", "1e+",
          "0x1", "1_0", "1 2", "[1]", "1,2", "{}"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(["twoway-d2", "state-bell-d2", "oneway-xy-d2", "signed-zeros",
                             "twoway-d3"]),
       values=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(TOKENS)),
                       max_size=3),
       inserts=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(TOKENS + list("\r\n []{},\""))),
                        max_size=2))
def test_flat_reader_matches_json_loads_on_random_edits(name, values, inserts):
    """Tokens put in place of entry values, then tokens inserted anywhere in
    the text (the header, the closing lines and the metadata included):
    whatever the text becomes, the reader with the canonical-layout path
    gives what the json.loads path gives. Every document repeats its lines;
    only the entry lines of ``twoway-d3`` are longer than the reader's first
    look, so only they are keyed block by block."""
    fast, general = read_both(edited(name, values, inserts))
    assert fast == general


def edited(name, values, inserts):
    """The canonical text of ``name`` with ``values`` put in place of entry
    values, then ``inserts`` inserted anywhere."""
    text = canonical(name, {"note": "a [b], c"})
    lines = text.split("\n")
    first = lines.index('    "entries": [') + 1
    last = lines.index("    ]", first)
    pairs = [line.strip().rstrip(",")[1:-1].split(", ") for line in lines[first:last]]
    for where, token in values:
        k = int(where * 2 * len(pairs))
        pairs[k // 2][k % 2] = token
    lines[first:last] = [f"      [{a}, {b}]," for a, b in pairs]
    lines[last - 1] = lines[last - 1][:-1]
    text = "\n".join(lines)
    for where, token in inserts:
        at = int(where * len(text))
        text = text[:at] + token + text[at:]
    return text


# Documents are read and written per distinct entry: the reader decodes each
# distinct entry line once, the writer formats each distinct entry once.

@pytest.fixture()
def decoded(monkeypatch):
    """The length of each list ``json.loads`` returns during the test."""
    lengths = []
    real = json.loads

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        if isinstance(out, list):
            lengths.append(len(out))
        return out

    monkeypatch.setattr(json, "loads", spy)
    return lengths


@pytest.fixture()
def formatted(monkeypatch):
    """The entries ``serialize`` formats during the test, in order."""
    entries = []
    real = io_format._ENTRY

    def spy(re, im):
        entries.append((re, im))
        return real(re, im)

    monkeypatch.setattr(io_format, "_ENTRY", spy)
    return entries


def assert_matches_the_references(text):
    """``parse`` reads ``text`` as ``json.loads`` of the whole text and the
    entry-by-entry reference do, bit for bit, and ``serialize`` writes the
    loop reference's bytes. Returns the parsed process."""
    fast, general = read_both(text)
    assert fast == general
    w = parse(text)
    assert w.op.reshape(-1).tobytes() == loop_parse_entries(text).tobytes()
    assert serialize(w) == loop_serialize(w)
    return w


def entry_lines(text):
    lines = text.split("\n")
    first = lines.index('    "entries": [') + 1
    return [line.rstrip(",") for line in lines[first:lines.index("    ]", first)]]


def distinct_lines(text):
    return set(entry_lines(text))


@pytest.mark.parametrize("name", ["product-256", "twoway-d4", "signed-zeros", "twoway-d3"])
def test_repeated_lines_are_read_and_written_once_each(name, decoded, formatted):
    text = canonical(name)
    assert io_format._canonical_document(text) is not None
    m = len(distinct_lines(text))
    del decoded[:], formatted[:]
    w = parse(text)
    assert decoded == [2 * m]
    serialize(w)
    assert len(formatted) == m
    del formatted[:]
    assert serialize(assert_matches_the_references(text)) == text


def test_lines_differing_only_in_the_sign_of_zero_keep_their_bits():
    w = signed_zeros(seed=3)
    text = serialize(w)
    assert {"      [0.0, 0.0]", "      [-0.0, 0.0]", "      [0.0, -0.0]",
            "      [-0.0, -0.0]"} <= distinct_lines(text)
    back = assert_matches_the_references(text)
    assert back.op.tobytes() == w.op.tobytes()
    assert serialize(back) == text == loop_serialize(w)


@pytest.mark.parametrize("k", [0, io_format._BLOCK - 1, io_format._BLOCK, 5000,
                               65536 - io_format._BLOCK, 65535])
@pytest.mark.parametrize("line", ["[NaN, 0.0]", "[0.0,  0.0]", "[true, 0.0]",
                                  f"[{'9' * 400}, 0]", "[1e400, 0.0]", "[-0, 0.0]",
                                  "[0.25, 0.0]"])
def test_one_changed_occurrence_of_a_repeated_line(k, line):
    """One occurrence of a line that repeats thousands of times is changed:
    at the first and last line of the first block, at the first line of the
    second and of the last block, in mid-document and at the last line. The
    text is read as the json.loads path reads it, to the same values or the
    same error."""
    text = canonical("product-256")
    mutated = set_entry(text, k, line)
    fast, general = read_both(mutated)
    assert fast == general
    canonical_path = io_format._canonical_document(mutated) is not None
    assert canonical_path == (line in ("[1e400, 0.0]", "[-0, 0.0]", "[0.25, 0.0]"))
    if line != "[1e400, 0.0]" and canonical_path:  # infinite values are not written
        assert_matches_the_references(mutated)


def test_repeated_integer_lines():
    text = canonical("twoway-d2")
    for k in range(0, 256, 3):
        text = set_entry(text, k, "[1, 0]" if k % 2 else "[0, -0]")
    assert io_format._canonical_document(text) is not None
    w = assert_matches_the_references(text)
    assert w.op.reshape(-1)[3] == 1.0
    assert np.signbit(w.op.reshape(-1)[6].imag) == False  # the integer -0 reads as +0.0
    assert "[1, 0]" not in serialize(w) and "      [1.0, 0.0]" in serialize(w)


@pytest.mark.parametrize("line, value", [("[1.0, 0.0]", 1.0), ("[-0.0, 0.0]", -0.0),
                                         ("[1, 0]", 1.0), ("[2.5e-3, -1E+2]", 0.0025 - 100j)])
def test_dim_one_document(line, value):
    text = serialize(ProcessMatrix(PartyLayout.of(("A", 1, 1)), np.ones((1, 1))))
    text = set_entry(text, 0, line)
    assert io_format._canonical_document(text) is not None
    w = assert_matches_the_references(text)
    assert w.op.tobytes() == np.array([[value]], dtype=np.complex128).tobytes()


def test_all_distinct_random_document(decoded, formatted):
    layout = PartyLayout.of(("X", 4, 4), ("Y", 4, 4))
    rng = np.random.default_rng(11)
    op = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    text = serialize(ProcessMatrix(layout, op))
    assert len(formatted) == 256 * 256
    assert len(distinct_lines(text)) == 256 * 256
    del decoded[:]
    assert parse(text).op.tobytes() == op.tobytes()
    assert decoded == [2 * 256 * 256]
    assert_matches_the_references(text)


@pytest.fixture()
def numbered(monkeypatch):
    """The number of keys of each ``_numbered`` call during the test: a
    reader that keys block by block numbers its blocks, then the lines of
    its distinct blocks."""
    counts = []
    real = io_format._numbered

    def spy(keys):
        counts.append(len(keys))
        return real(keys)

    monkeypatch.setattr(io_format, "_numbered", spy)
    return counts


R = io_format._BLOCK


def distinct_blocks(text):
    """The distinct blocks of ``text``'s entry lines, as tuples of lines: a
    reader that keys block by block splits and keys only their lines."""
    lines = entry_lines(text)
    return {tuple(lines[s:s + R]) for s in range(0, len(lines), R)}


def read_and_write_dim_81(flat, decoded, formatted, numbered):
    """Parse and serialize a one-party document of dim 81 (6561 entry lines
    of 21 bytes: 205 full blocks and a short last one of one line) holding
    ``flat``. Returns the number of distinct lines, the numbers of keys
    the reader numbered, the lengths of the lists it decoded, the number of
    entries the writer formatted and the number of lines in the distinct
    blocks, after checking the values and bytes against the references."""
    text = serialize(ProcessMatrix(PartyLayout.of(("X", 9, 9)), flat.reshape(81, 81)))
    assert {len(line) for line in entry_lines(text)} == {19}
    del decoded[:], formatted[:], numbered[:]
    w = parse(text)
    counts, lengths = list(numbered), list(decoded)
    serialize(w)
    written = len(formatted)
    assert w.op.reshape(-1).tobytes() == flat.tobytes()
    assert serialize(assert_matches_the_references(text)) == text
    split = sum(map(len, distinct_blocks(text)))
    return len(distinct_lines(text)), counts, lengths, written, split


def mostly_distinct_blocks(flat):
    """Whether more than half of the ``_BLOCK``-entry blocks of ``flat``
    are distinct: a reader or writer that has keyed them then gives up."""
    blocks = [flat[s:s + R].tobytes() for s in range(0, flat.size, R)]
    return 2 * len(set(blocks)) > len(blocks)


@pytest.mark.parametrize("first_repeat", [1, 3119, 3120, 3121, 4095, 4096, 6000])
def test_repeats_that_start_at_the_first_piece_ends(first_repeat, decoded, formatted,
                                                    numbered):
    """Lines all distinct before line ``first_repeat``, which repeats the line
    before it, as do all later ones. The first look is a piece of ``_LOOK``
    bytes of entry lines for the reader (its first 3120 lines here) and of
    ``_LOOK // 16`` entries for the writer. A repeat inside it has the
    lines keyed block by block, splitting only the lines of the distinct
    blocks, and each distinct entry decoded or formatted once, unless more
    than half of the 206 blocks are distinct (from ``first_repeat`` 3300 on,
    so at 4095 for the writer); a later one leaves them to the whole block,
    to the same values and bytes."""
    flat = np.full(81 * 81, 9999.5, dtype=np.complex128)
    flat[:first_repeat - 1] = np.arange(first_repeat - 1) + 1000.5
    m, counts, lengths, written, split = read_and_write_dim_81(flat, decoded, formatted,
                                                               numbered)
    keyed = not mostly_distinct_blocks(flat)
    if 21 * (first_repeat + 1) <= io_format._LOOK:
        assert keyed and m == first_repeat and lengths == [2 * m]
        assert counts == [206, split] and split < 81 * 81
    else:
        assert counts == [] and lengths == [2 * 81 * 81]
    assert keyed == (first_repeat < 3300)
    assert written == (m if first_repeat < io_format._LOOK // 16 and keyed else 81 * 81)


@pytest.mark.parametrize("start", [R * 40, R * 40 + 13, R * 104, R * 104 + 1, 81 * 81 - 1])
def test_repeats_that_start_in_a_block(start, decoded, formatted, numbered):
    """The first 100 lines repeat one line, so the first look sees a repeat.
    Later lines are distinct up to line ``start`` and repeat the first line
    from there on: from a block's first line, from mid-block, or in the
    short last block only. While at most half of the 206 blocks are
    distinct (103 at ``R * 104``), blocks that repeat are split once,
    each distinct line is decoded once and each distinct entry formatted
    once. With more (104 at ``R * 104 + 1``, 204 at the end), the blocks are
    keyed and the lines left to the whole decode and the per-entry format."""
    flat = np.arange(81 * 81) + 1000.5 + 0j
    flat[:100] = flat[start:] = 9999.5
    m, counts, lengths, written, split = read_and_write_dim_81(flat, decoded, formatted,
                                                               numbered)
    assert m == start - 99
    if start <= R * 104:
        assert not mostly_distinct_blocks(flat)
        assert lengths == [2 * m] and written == m and counts == [206, split]
        # split: block 0 (blocks 1 and 2 repeat it), each block from line 96
        # to the one that holds line start - 1, and the short last block
        assert split == R + (start - 3 * R) + (start % R > 0) * (R - start % R) + 1
    else:
        assert mostly_distinct_blocks(flat)
        assert lengths == [2 * 81 * 81] and written == 81 * 81 and counts == [206]


def test_distinct_lines_after_repeated_ones(decoded, formatted, numbered):
    """The first 100 lines repeat, all later ones are distinct. The first
    look sees the repeat, so the reader keys the 206 blocks; 204 of them are
    distinct, more than half, so it splits none of them and decodes the
    lines whole, and the writer formats every entry, to the same values and
    bytes."""
    flat = np.arange(81 * 81) + 1000.5 + 0j
    flat[:100] = 9999.5
    m, counts, lengths, written, split = read_and_write_dim_81(flat, decoded, formatted,
                                                               numbered)
    assert m == 81 * 81 - 99 and split == 81 * 81 - 2 * R
    assert counts == [206] and lengths == [2 * 81 * 81] and written == 81 * 81


@pytest.mark.parametrize("name", ["product-256", "twoway-d3"])
def test_line_numbers_across_blocks(name):
    """An entry block keyed block by block numbers its lines as one split of
    the whole block would: each distinct line by first sight. The lines of
    ``twoway-d3`` (dim 81) end in a short block of one line."""
    text = canonical(name)
    body = text[text.index("[\n      [") + 2:text.rindex("\n    ]\n  }")].encode()
    assert len(body) > io_format._LOOK
    lines = body.split(b",\n")
    distinct, index = io_format._line_numbers(body)
    assert distinct == list(dict.fromkeys(lines))
    assert [distinct[k] for k in index.tolist()] == lines


@pytest.mark.parametrize("name", ["product-256", "twoway-d4"])
def test_a_sparse_product_splits_only_its_distinct_blocks(name, decoded, numbered):
    """A dim-256 gallery product: its 2,048 blocks are keyed by their bytes,
    and only the lines of its few distinct blocks are split and keyed."""
    text = canonical(name)
    del numbered[:], decoded[:]
    parse(text)
    assert numbered[0] == 65536 // R
    assert numbered[1] <= len(distinct_blocks(text)) * R <= 65536 // 8
    assert decoded == [2 * len(distinct_lines(text))]


# With a first look of 64 bytes of lines (4 entries) and blocks of 2, 3 or 7,
# every document below is keyed block by block; its 256 entries end in a full
# block, a short one of one line or one of four.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(["twoway-d2", "state-bell-d2", "signed-zeros"]),
       values=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(TOKENS)),
                       max_size=3),
       inserts=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(TOKENS + list("\r\n []{},\""))),
                        max_size=2),
       block=st.sampled_from([2, 3, 7]))
def test_small_blocks_match_the_references_on_random_edits(name, values, inserts, block):
    """As the random-edit test above, with a small look and small blocks:
    the reader with the canonical-layout path gives what the json.loads path
    gives, and what it reads is written as the loop reference writes it."""
    text = edited(name, values, inserts)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(io_format, "_LOOK", 64)
        m.setattr(io_format, "_BLOCK", block)
        fast, general = read_both(text)
        assert fast == general
        if isinstance(fast[0], bytes) and np.isfinite(np.frombuffer(fast[0])).all():
            w = parse(text)
            assert serialize(w) == loop_serialize(w)


# load_path reads a file's bytes: the canonical reader matches them as they
# are, and any other document is decoded once, as UTF-8 with universal
# newlines, which is what reading the file in text mode gave.

def text_mode_read(path):
    """``parse`` of the file read in text mode as UTF-8: the operator's bits,
    layout and metadata, or the error's type and message."""
    try:
        with open(path, encoding="utf-8") as fh:
            w, meta = parse_document(fh.read())
    except Exception as err:
        return type(err), str(err)
    return w.op.tobytes(), w.layout, json.dumps(meta)


def bytes_read(path):
    """What ``load_path`` reads, in the form of :func:`text_mode_read`."""
    try:
        w = io_format.load_path(path)
    except Exception as err:
        return type(err), str(err)
    with open(path, "rb") as fh:
        meta = parse_document(fh.read())[1]
    return w.op.tobytes(), w.layout, json.dumps(meta)


def _canonical_bytes():
    w = gallery_entry("oneway-xy-d2").process
    return serialize(w, metadata={"note": "café  "}).encode()


BYTE_EDITS = {
    "canonical": lambda b: b,
    "bom": lambda b: b"\xef\xbb\xbf" + b,
    "crlf": lambda b: b.replace(b"\n", b"\r\n"),
    "cr": lambda b: b.replace(b"\n", b"\r"),
    "cr-malformed": lambda b: b.replace(b"\n", b"\r")[:-2] + b"]\r",
    "crlf-malformed": lambda b: b.replace(b"\n", b"\r\n")[:-3] + b"]\r\n",
    "cr-in-metadata": lambda b: b.replace(b'"note":', b'"note":\r'),
    "invalid-utf8-name": lambda b: b.replace(b'"name": "X"', b'"name": "X\xff"'),
    "invalid-utf8-metadata": lambda b: b.replace(b"caf", b"caf\xc3"),
    "invalid-utf8-entry": lambda b: b.replace(b"0.0]", b"0.0\x80]", 1),
    "surrogate-name": lambda b: b.replace(b'"name": "X"', b'"name": "X\xed\xa0\x80"'),
    "non-ascii-name": lambda b: b.replace(b'"name": "X"', '"name": "Xé"'.encode()),
    "truncated-sequence": lambda b: b[:-1] + b"\xe2\x82",
    "compact": lambda b: json.dumps(json.loads(b)).encode(),
}


@pytest.mark.parametrize("edit", BYTE_EDITS)
def test_load_path_reads_as_text_mode_read(tmp_path, edit):
    path = tmp_path / "doc.json"
    path.write_bytes(BYTE_EDITS[edit](_canonical_bytes()))
    assert bytes_read(path) == text_mode_read(path)


def test_load_path_takes_the_canonical_reader_on_bytes(tmp_path, monkeypatch):
    """A canonical document is matched on its bytes: no ``str`` of the
    document is made."""
    path = tmp_path / "doc.json"
    data = serialize(tensor_product(gallery_entry("twoway-d2").process,
                                    gallery_entry("oneway-xy-d2").process)).encode()
    path.write_bytes(data)
    want = parse(data.decode()).op.tobytes()
    seen = []
    real = io_format._canonical_document
    monkeypatch.setattr(io_format, "_canonical_document",
                        lambda text: seen.append(type(text)) or real(text))
    assert io_format.load_path(str(path)).op.tobytes() == want
    assert seen == [bytes]


def test_bom_and_invalid_utf8_keep_their_messages(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xef\xbb\xbf" + _canonical_bytes())
    with pytest.raises(MalformedDocumentError,
                       match=r"invalid JSON: Unexpected UTF-8 BOM .* \(at line 1, column 1\)"):
        io_format.load_path(str(path))
    path.write_bytes(_canonical_bytes().replace(b'"name": "X"', b'"name": "X\xff"'))
    with pytest.raises(UnicodeDecodeError, match="can't decode byte 0xff in position"):
        io_format.load_path(str(path))


def test_str_with_a_lone_surrogate_keeps_its_result():
    """A ``str`` is encoded for the canonical reader with its surrogates
    kept; the strict UTF-8 decode of the header then fails, and the general
    path reads the text as before."""
    text = serialize(gallery_entry("twoway-d2").process).replace('"name": "X"',
                                                                  '"name": "X\ud800"')
    fast, general = read_both(text)
    assert fast == general and fast[1].names == ("X\ud800", "Y")
