"""Binary checkpoint format: framing, validation, and exact round trips."""

import json
import struct

import numpy as np
import pytest

from seqrank.baselines import build_ranker
from seqrank.checkpoint import MAGIC, load_ranker, read_checkpoint, save_ranker
from seqrank.dataio import SynthSpec, build_corpus, synth_corpus
from seqrank.errors import CheckpointError
from seqrank.model import ALL_KINDS, MASK_BY_KIND, Hyper
from seqrank.trainer import TrainConfig

SPEC = SynthSpec(users=6, items=24, clusters=3, seq_len=6,
                 f_dim_visual=2, f_dim_textual=2, noise_sigma=0.3, seed=21)


@pytest.fixture(scope="module")
def world():
    return synth_corpus(SPEC, np.random.default_rng(21))


def trained(world, kind, seed=3):
    corpus, feats = world
    return build_ranker(kind, corpus, feats, Hyper(d=2),
                        TrainConfig(epochs=1, seed=seed))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_round_trip_preserves_rankings(tmp_path, world, kind):
    corpus, feats = world
    ranker = trained(world, kind)
    path = tmp_path / f"{kind}.ckpt"
    save_ranker(path, ranker)
    loaded = load_ranker(path, corpus, feats)
    assert loaded.kind == kind
    for u in corpus.users:
        assert loaded.rank(u) == ranker.rank(u)
    # the loaded blocks keep the saved order, so a second save is the same file
    again = tmp_path / f"{kind}.again.ckpt"
    save_ranker(again, loaded)
    assert again.read_bytes() == path.read_bytes()
    if kind in MASK_BY_KIND:
        assert read_checkpoint(path)[0]["mask"] == list(MASK_BY_KIND[kind])


def test_header_contents(tmp_path, world):
    corpus, feats = world
    save_ranker(tmp_path / "m.ckpt", trained(world, "vtrnn"))
    header, blocks = read_checkpoint(tmp_path / "m.ckpt")
    assert header["kind"] == "vtrnn"
    assert list(header["items"]) == list(corpus.items)
    assert sorted(blocks) == ["E", "InMat", "RecMat", "V", "X"]
    assert blocks["X"].shape == (corpus.n_items, 2)
    assert blocks["X"].dtype == np.float64


def test_same_seed_same_bytes(tmp_path, world):
    for run in ("a", "b"):
        save_ranker(tmp_path / f"{run}.ckpt", trained(world, "vrnn", seed=8))
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\0" * 16)
    with pytest.raises(CheckpointError, match="bad magic"):
        read_checkpoint(p)


def test_truncated_blocks(tmp_path, world):
    p = tmp_path / "t.ckpt"
    save_ranker(p, trained(world, "rnn"))
    raw = p.read_bytes()
    p.write_bytes(raw[:-9])
    with pytest.raises(CheckpointError, match="wants"):
        read_checkpoint(p)


def test_trailing_bytes(tmp_path, world):
    p = tmp_path / "t.ckpt"
    save_ranker(p, trained(world, "pop"))
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        read_checkpoint(p)


def test_unreadable_header(tmp_path):
    head = b"{not json"
    p = tmp_path / "h.ckpt"
    p.write_bytes(MAGIC + struct.pack("<I", len(head)) + head)
    with pytest.raises(CheckpointError, match="unreadable header"):
        read_checkpoint(p)


def test_deeply_nested_header(tmp_path):
    head = b"[" * 100_000  # used to escape as RecursionError
    p = tmp_path / "deep.ckpt"
    p.write_bytes(MAGIC + struct.pack("<I", len(head)) + head)
    with pytest.raises(CheckpointError, match="unreadable header"):
        read_checkpoint(p)


def test_unknown_kind(tmp_path, world):
    corpus, feats = world
    head = json.dumps({"kind": "gru", "items": list(corpus.items),
                       "blocks": []}).encode()
    p = tmp_path / "k.ckpt"
    p.write_bytes(MAGIC + struct.pack("<I", len(head)) + head)
    with pytest.raises(CheckpointError, match="unknown kind"):
        load_ranker(p, corpus, feats)


def test_corpus_mismatch(tmp_path, world):
    corpus, feats = world
    p = tmp_path / "m.ckpt"
    save_ranker(p, trained(world, "pop"))
    other = build_corpus({"zz": ["a", "b", "c", "d"]}, min_len=2,
                         split_frac=0.5)
    with pytest.raises(CheckpointError, match="item table mismatch"):
        load_ranker(p, other, feats)


def test_feature_dim_mismatch(tmp_path, world):
    corpus, feats = world
    p = tmp_path / "d.ckpt"
    save_ranker(p, trained(world, "vtrnn"))
    skinny = synth_corpus(
        SynthSpec(users=6, items=24, clusters=3, seq_len=6, f_dim_visual=5,
                  f_dim_textual=2, noise_sigma=0.3, seed=21),
        np.random.default_rng(21))[1]
    with pytest.raises(CheckpointError, match="visual dim"):
        load_ranker(p, corpus, skinny)



def test_random_checkpoint_with_blocks(tmp_path, world):
    # a random ranker has no parameters; a header listing a block used to
    # load silently, its payload unread
    corpus, feats = world
    src = tmp_path / "random.ckpt"
    save_ranker(src, trained(world, "random"))
    header = dict(read_checkpoint(src)[0],
                  blocks=[{"name": "junk", "shape": [3]}])
    p = tmp_path / "junk.ckpt"
    with_header(src, p, header)
    p.write_bytes(p.read_bytes() + np.zeros(3).tobytes())
    assert set(read_checkpoint(p)[1]) == {"junk"}
    with pytest.raises(CheckpointError, match=r"blocks \['junk'\], expected \[\]"):
        load_ranker(p, corpus, feats)


def with_header(src, dst, header) -> None:
    """Copy checkpoint `src` to `dst` with its JSON header replaced and its
    block payload kept."""
    raw = src.read_bytes()
    (n,) = struct.unpack_from("<I", raw, len(MAGIC))
    head = json.dumps(header).encode()
    dst.write_bytes(MAGIC + struct.pack("<I", len(head)) + head
                    + raw[len(MAGIC) + 4 + n:])


@pytest.fixture
def saved(tmp_path, world):
    """A valid vtrnn checkpoint and its header."""
    p = tmp_path / "ok.ckpt"
    save_ranker(p, trained(world, "vtrnn"))
    return p, read_checkpoint(p)[0]


def test_malformed_headers_raise_checkpoint_error(tmp_path, world, saved):
    # each of these used to escape as a raw AttributeError, TypeError or KeyError
    corpus, feats = world
    src, good = saved
    cases = [(src, [good], "header is not a JSON object"),
             (src, dict(good, blocks=[["X", [24, 2]]]), "'blocks' is malformed")]
    cases += [(src, {k: v for k, v in good.items() if k != key},
               f"header lacks '{key}'") for key in ("items", "d", "mask")]
    # Gamma's rows are only meaningful against the saved user order; a
    # vtbpr file without its user table used to load and rank with them
    embed = tmp_path / "vtbpr.ckpt"
    save_ranker(embed, trained(world, "vtbpr"))
    users_dropped = {k: v for k, v in read_checkpoint(embed)[0].items()
                     if k != "users"}
    cases.append((embed, users_dropped, "header lacks 'users'"))
    # the mask is the kind's: a vbpr file relabelled to the textual slice
    # used to load and rank with the untrained, all-zero V kernel
    vbpr = tmp_path / "vbpr.ckpt"
    save_ranker(vbpr, trained(world, "vbpr"))
    vbpr_header = read_checkpoint(vbpr)[0]
    for mask in (["latent", "textual"], ["visual", "latent"]):
        cases.append((vbpr, dict(vbpr_header, mask=mask),
                      "does not match kind 'vbpr'"))
    for source, header, message in cases:
        p = tmp_path / "bad.ckpt"
        with_header(source, p, header)
        with pytest.raises(CheckpointError, match=message):
            load_ranker(p, corpus, feats)


def test_duplicate_block_names(tmp_path, saved):
    # the last block read under a repeated name used to win silently
    src, good = saved
    blocks = good["blocks"][:-1] + [dict(good["blocks"][-1], name="X")]
    p = tmp_path / "dup.ckpt"
    with_header(src, p, dict(good, blocks=blocks))
    with pytest.raises(CheckpointError, match="duplicate block names"):
        read_checkpoint(p)


@pytest.mark.parametrize("field,value,message", [
    ("d", "3", "'d' is malformed"),
    ("d", 0, "d must be >= 1"),
    ("mask", [], "does not match kind"),
    ("mask", ["sound"], "'mask' is malformed"),
    ("items", 5, "'items' is malformed"),
    ("hyper", {"alpha": "fast"}, "'hyper' is malformed"),
    ("hyper", {"beta": 1.0}, "'hyper' is malformed"),
    ("blocks", [{"name": "X", "shape": [2 ** 32, 2 ** 32]}], "wants"),
])
def test_bad_header_values_raise_checkpoint_error(tmp_path, world, saved,
                                                  field, value, message):
    corpus, feats = world
    src, good = saved
    p = tmp_path / "bad.ckpt"
    with_header(src, p, dict(good, **{field: value}))
    with pytest.raises(CheckpointError, match=message):
        load_ranker(p, corpus, feats)
