"""Property tests: whatever bytes a checkpoint, sequence or feature file
holds, its reader fails only with its own documented error type.

Hypothesis runs derandomized and without an example database, so the
examples are the same on every run; conftest.py moves its storage
directory out of the checkout."""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrank.checkpoint import MAGIC, read_checkpoint
from seqrank.dataio import load_features, parse_sequence_file
from seqrank.errors import CheckpointError, ParseError
from seqrank.model import ALL_KINDS

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12)

# headers shaped like real ones, so the schema and block checks are reached
HEADERS = st.fixed_dictionaries(
    {"kind": st.sampled_from(ALL_KINDS),
     "items": st.lists(st.text(max_size=3), max_size=3),
     "blocks": st.lists(st.fixed_dictionaries(
         {"name": st.sampled_from(["X", "E", "counts"]),
          "shape": st.lists(st.integers(-1, 3), max_size=3)}), max_size=3),
     "seed": st.integers(-1, 3), "d": st.integers(-1, 3),
     "f_v": st.integers(0, 3), "f_t": st.integers(0, 3),
     "mask": st.lists(st.sampled_from(["latent", "visual", "sound"]),
                      max_size=3)},
    optional={"users": JSON,
              "hyper": st.dictionaries(st.sampled_from(["alpha", "beta"]),
                                       st.floats() | st.text(max_size=2))})
# block payloads: whole float64 entries, or arbitrary bytes
PAYLOADS = st.integers(0, 12).map(lambda n: bytes(8 * n)) | st.binary(max_size=64)


def framed(head: bytes, tail: bytes) -> bytes:
    return MAGIC + struct.pack("<I", len(head)) + head + tail


CHECKPOINTS = st.one_of(
    st.binary(),
    st.binary().map(lambda tail: MAGIC + tail),
    st.builds(framed, st.binary(max_size=32), st.binary(max_size=32)),
    st.builds(framed, (JSON | HEADERS).map(lambda v: json.dumps(v).encode()),
              PAYLOADS))

# fragments of both text formats, plus bytes that are not UTF-8
TOKENS = [b"#dims", b" ", b"\t", b"\n", b"\r", b",", b"0", b"2", b"\xc2\xb2",
          b"\xd9\xa3", b"u1", b"i1", b"0.5", b"-1", b"nan", b"1e999", b"\xff",
          b"\xc3", b"\x00"]
FRAGMENTS = st.lists(st.sampled_from(TOKENS), max_size=40).map(b"".join)
# the same after a feature header, so the row checks are reached
HEADED = st.builds(lambda dims, body: b"#dims " + dims + b"\n" + body,
                   st.sampled_from([b"1", b"2", b"\xc2\xb2", b"\xd9\xa2"]),
                   FRAGMENTS)
TEXT_FILES = st.binary() | FRAGMENTS | HEADED


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(raw=CHECKPOINTS)
def test_read_checkpoint_raises_only_checkpoint_error(scratch, raw):
    path = scratch / "fuzz.ckpt"
    path.write_bytes(raw)
    try:
        read_checkpoint(path)
    except CheckpointError:
        pass


@FUZZ
@given(raw=TEXT_FILES)
def test_text_parsers_raise_only_parse_error(scratch, raw):
    path = scratch / "fuzz.tsv"
    path.write_bytes(raw)
    for parse in (parse_sequence_file,
                  lambda p: load_features(p, None, 0.0, 1.0)):
        try:
            parse(path)
        except ParseError:
            pass
