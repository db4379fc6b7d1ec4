"""The file readers raise ParseError and nothing else, whatever bytes they
read; the JSON writer writes what json.dumps would."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from lorentzseg import fileio
from lorentzseg.errors import ParseError
from lorentzseg.fileio import (
    PARAMS_FORMAT,
    load_param_blocks,
    read_embedding_csv,
    read_json,
    read_pgm,
    save_param_blocks,
    write_json,
)

FUZZ = settings(max_examples=200, deadline=None)

# arbitrary bytes, and arbitrary bytes behind a valid first line so that the
# fuzzing also reaches the parsing past the header
CSV_BYTES = hs.one_of(hs.binary(max_size=120), hs.binary(max_size=120).map(lambda b: b"dim=2\n" + b))
PGM_BYTES = hs.one_of(
    hs.binary(max_size=120),
    hs.binary(max_size=120).map(lambda b: b"P5\n" + b),
    hs.tuples(hs.integers(-4, 6), hs.integers(-4, 6), hs.binary(max_size=40)).map(
        lambda t: b"P5\n%d %d\n255\n" % t[:2] + t[2]
    ),
)
JSON_VALUES = hs.recursive(
    hs.none() | hs.booleans() | hs.integers(-10, 10) | hs.floats(allow_nan=False) | hs.text(max_size=5),
    lambda inner: hs.lists(inner, max_size=4) | hs.dictionaries(hs.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
BLOCK_ENTRIES = hs.lists(
    hs.fixed_dictionaries({
        "name": hs.sampled_from(["w1", "b1", "alpha"]),
        "shape": hs.lists(hs.integers(-3, 5), max_size=3),
        "offset": hs.integers(-6, 6),
        "count": hs.integers(-3, 6),
    }),
    max_size=3,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _parse_or_parse_error(read, *args):
    try:
        read(*args)
    except ParseError:
        pass


def _descriptor(blocks) -> bytes:
    return json.dumps({"format": PARAMS_FORMAT, "dtype": "<f8", "blocks": blocks}).encode()


def _write_model(prefix, descriptor: bytes, blob: bytes):
    (prefix.parent / (prefix.name + ".json")).write_bytes(descriptor)
    (prefix.parent / (prefix.name + ".bin")).write_bytes(blob)


FOUR_VALUES = np.arange(4.0).tobytes()


class TestFuzzedReaders:
    @FUZZ
    @given(data=CSV_BYTES)
    def test_embedding_csv(self, fuzz_dir, data):
        (fuzz_dir / "e.csv").write_bytes(data)
        _parse_or_parse_error(read_embedding_csv, fuzz_dir / "e.csv")

    @FUZZ
    @given(data=PGM_BYTES)
    def test_pgm(self, fuzz_dir, data):
        (fuzz_dir / "m.pgm").write_bytes(data)
        _parse_or_parse_error(read_pgm, fuzz_dir / "m.pgm")

    @FUZZ
    @given(data=hs.binary(max_size=120))
    def test_json(self, fuzz_dir, data):
        (fuzz_dir / "d.json").write_bytes(data)
        _parse_or_parse_error(read_json, fuzz_dir / "d.json")

    @FUZZ
    @given(descriptor=hs.binary(max_size=120), blob=hs.binary(max_size=64))
    def test_param_blocks_bytes(self, fuzz_dir, descriptor, blob):
        _write_model(fuzz_dir / "p", descriptor, blob)
        _parse_or_parse_error(load_param_blocks, fuzz_dir / "p")

    @FUZZ
    @given(blocks=hs.one_of(JSON_VALUES, BLOCK_ENTRIES), blob=hs.binary(max_size=64))
    def test_param_block_tables(self, fuzz_dir, blocks, blob):
        _write_model(fuzz_dir / "t", _descriptor(blocks), blob)
        _parse_or_parse_error(load_param_blocks, fuzz_dir / "t")


class TestReaderFaults:
    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "x"
        path.write_bytes(b"\xff\xfe")
        for read in (read_embedding_csv, read_json):
            with pytest.raises(ParseError):
                read(path)

    def test_missing_pgm(self, tmp_path):
        with pytest.raises(ParseError):
            read_pgm(tmp_path / "missing.pgm")

    @pytest.mark.parametrize("entry", [
        {"name": "w1", "shape": [3], "offset": 0, "count": 2},  # shape disagrees with count
        {"name": "w1", "shape": [2], "offset": -4, "count": 2},  # before the blob's start
        {"name": "w1", "shape": [-1], "offset": 0, "count": 4},
    ])
    def test_bad_block_entry(self, tmp_path, entry):
        _write_model(tmp_path / "m", _descriptor([entry]), FOUR_VALUES)
        with pytest.raises(ParseError):
            load_param_blocks(tmp_path / "m")

    def test_block_listed_twice(self, tmp_path):
        entries = [{"name": "a", "shape": [2], "offset": 0, "count": 2},
                   {"name": "a", "shape": [2], "offset": 2, "count": 2}]
        _write_model(tmp_path / "m", _descriptor(entries), FOUR_VALUES)
        with pytest.raises(ParseError, match="'a' is listed twice"):
            load_param_blocks(tmp_path / "m")

    @pytest.mark.parametrize("entries, blob, match", [
        # b starts inside a: it would alias a's second value
        ([{"name": "a", "shape": [2], "offset": 0, "count": 2},
          {"name": "b", "shape": [2], "offset": 1, "count": 2}], np.arange(6.0), "'b' starts at"),
        # a gap between a and b
        ([{"name": "b", "shape": [2], "offset": 3, "count": 2},
          {"name": "a", "shape": [2], "offset": 0, "count": 2}], np.arange(6.0), "'b' starts at"),
        # values left over past the last block
        ([{"name": "a", "shape": [2], "offset": 0, "count": 2},
          {"name": "b", "shape": [2], "offset": 2, "count": 2}], np.arange(6.0), "blocks end at 4"),
    ], ids=["overlap", "gap", "blob-too-long"])
    def test_blocks_must_tile_the_blob(self, tmp_path, entries, blob, match):
        _write_model(tmp_path / "m", _descriptor(entries), blob.tobytes())
        with pytest.raises(ParseError, match=match):
            load_param_blocks(tmp_path / "m")

    def test_descriptor_that_is_not_an_object(self, tmp_path):
        _write_model(tmp_path / "m", b"[1, 2]", FOUR_VALUES)
        with pytest.raises(ParseError):
            load_param_blocks(tmp_path / "m")

    def test_valid_blocks_round_trip(self, tmp_path):
        blocks = {"w1": np.arange(6.0).reshape(2, 3), "alpha": np.array([0.5])}
        save_param_blocks(tmp_path / "m", blocks, {"head": "pixel"})
        loaded, extras = load_param_blocks(tmp_path / "m")
        assert extras == {"head": "pixel"}
        for name, block in blocks.items():
            np.testing.assert_array_equal(loaded[name], block)


BATCH = fileio._JSON_BATCH
NESTED = {"b": [1, {"z": [], "a": [2.5, None]}], "a": {"y": True, "x": ["s"]}}


class TestWriteJson:
    """write_json streams each top-level list in batches; the bytes must be
    those of one json.dumps of the whole payload."""

    @pytest.mark.parametrize("payload", [
        {},
        {"samples": []},
        {"samples": list(range(3)), "count": 3},
        {"samples": [{"k": i, "v": [i, -0.5]} for i in range(BATCH)]},
        {"samples": [[i, i / 3] for i in range(2 * BATCH + 7)], "tail": "x"},
        {"nested": NESTED, "list": [NESTED] * (BATCH + 1)},
        {"\u00fcber": ["caf\u00e9", {"\u03b1": 1}], "\u00e9": [], "plain": 1e-300},
    ], ids=["empty-dict", "empty-list", "short", "one-batch", "ragged", "nested", "non-ascii"])
    def test_equals_json_dumps_and_reads_back(self, tmp_path, payload):
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert path.read_text() == json.dumps(payload, sort_keys=True) + "\n"
        assert read_json(path) == payload

    @FUZZ
    @given(payload=hs.dictionaries(hs.text(max_size=5), JSON_VALUES, max_size=4))
    def test_any_payload_equals_json_dumps(self, fuzz_dir, payload):
        path = fuzz_dir / "w.json"
        write_json(path, payload)
        assert path.read_text() == json.dumps(payload, sort_keys=True) + "\n"
