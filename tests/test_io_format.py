"""Tests for the procmat/1 interchange format."""

import json

import pytest

from procval import gallery_entry, gallery_names, parse, serialize
from procval.io_format import (
    DimensionError,
    MalformedDocumentError,
    VersionError,
    parse_document,
)


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
