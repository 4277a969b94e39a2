"""Binary checkpoint format: framing, validation, and exact round trips."""

import json
import struct

import numpy as np
import pytest

from seqrank.baselines import GRAD_CHECK_STREAMS, build_ranker, grad_check
from seqrank.checkpoint import MAGIC, load_ranker, read_checkpoint, save_ranker
from seqrank.dataio import SynthSpec, build_corpus, synth_corpus
from seqrank.errors import CheckpointError
from seqrank.model import ALL_KINDS, RECURRENT_KINDS, Hyper
from seqrank.settings import TrainConfig

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
    # the kind states the mask and the blocks state the kernel widths, so
    # the header restates neither
    fields = {"kind", "items", "blocks"}
    fields |= ({"seed"} if kind == "random" else set() if kind == "pop"
               else {"d", "hyper"} if kind in RECURRENT_KINDS
               else {"d", "hyper", "users"})
    assert set(read_checkpoint(path)[0]) == fields


@pytest.mark.parametrize("kind", GRAD_CHECK_STREAMS)
def test_blocks_are_the_checked_blocks(tmp_path, world, kind):
    """A trained model, and its checkpoint's block table, hold exactly the
    blocks the gradient check finds update records for: no block exists
    that training never moves."""
    ranker = trained(world, kind)
    path = tmp_path / f"{kind}.ckpt"
    save_ranker(path, ranker)
    table = {b["name"]: tuple(b["shape"])
             for b in read_checkpoint(path)[0]["blocks"]}
    assert table == {name: a.shape for name, a in ranker.params.items()}
    checked = grad_check(kind, Hyper(d=2), np.random.default_rng(0))
    assert sorted(table) == sorted(checked)


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
    with pytest.raises(CheckpointError,
                       match=r"block E has shape \(2, 2\), expected \(2, 5\)"):
        load_ranker(p, corpus, skinny)


def test_inactive_kernel_block_is_refused(tmp_path, world):
    # files written while every model held a kernel per content slice carry
    # an all-zero kernel for each slice the kind does not read
    corpus, feats = world
    src = tmp_path / "rnn.ckpt"
    save_ranker(src, trained(world, "rnn"))
    header = read_checkpoint(src)[0]
    header["blocks"].append({"name": "E", "shape": [2, 2]})
    p = tmp_path / "old.ckpt"
    with_header(src, p, header)
    p.write_bytes(p.read_bytes() + np.zeros(4).tobytes())
    with pytest.raises(CheckpointError,
                       match=r"blocks \['E', 'InMat', 'RecMat', 'X'\], "
                             r"expected \['InMat', 'RecMat', 'X'\]"):
        load_ranker(p, corpus, feats)


def test_stray_users_key_is_ignored(tmp_path, world):
    # only mf and the BPR family have a user table; a recurrent header's
    # "users" key is an unknown key like any other, never compared
    corpus, feats = world
    src = tmp_path / "rnn.ckpt"
    ranker = trained(world, "rnn")
    save_ranker(src, ranker)
    p = tmp_path / "stray.ckpt"
    with_header(src, p, dict(read_checkpoint(src)[0], users=["nobody", 3]))
    loaded = load_ranker(p, corpus, feats)
    assert [loaded.rank(u) for u in corpus.users] == [
        ranker.rank(u) for u in corpus.users]



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
               f"header lacks '{key}'") for key in ("items", "d")]
    # Gamma's rows are only meaningful against the saved user order; a
    # vtbpr file without its user table used to load and rank with them
    embed = tmp_path / "vtbpr.ckpt"
    save_ranker(embed, trained(world, "vtbpr"))
    users_dropped = {k: v for k, v in read_checkpoint(embed)[0].items()
                     if k != "users"}
    cases.append((embed, users_dropped, "header lacks 'users'"))
    # the kind states the mask: a vbpr file relabelled tbpr holds the
    # visual kernel where the textual one is expected
    vbpr = tmp_path / "vbpr.ckpt"
    save_ranker(vbpr, trained(world, "vbpr"))
    cases.append((vbpr, dict(read_checkpoint(vbpr)[0], kind="tbpr"),
                  r"blocks \['E', 'Gamma', 'X'\], "
                  r"expected \['Gamma', 'V', 'X'\]"))
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
    ("d", 3, r"block X has shape \(18, 2\), expected \(18, 3\)"),
    # one block over the whole payload: the vtrnn blocks' 116 floats
    ("blocks", [{"name": "Gamma", "shape": [116]}],
     r"blocks \['Gamma'\], expected \['E', 'InMat', 'RecMat', 'V', 'X'\]"),
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
