"""Binary checkpoint format shared by every ranker kind.

Layout: 8-byte magic "SEQRANK1", uint32 little-endian header length, JSON
header (kind, d, settings, item table, the user table of mf and the BPR
family, block names and shapes), then the parameter blocks as
little-endian float64 in row-major order. Round trips are bit-exact. The
kind states the slice mask (`model.MASK_BY_KIND`), and the blocks are
exactly the kind's: the loader refuses any block set or shape other than
`model.block_shapes` gives for the corpus and the feature widths, and
non-finite values.
"""

import json
import math
import struct

import numpy as np

from . import baselines, model, numkit
from .errors import CheckpointError, ConfigError
from .model import Hyper

MAGIC = b"SEQRANK1"
# kinds with per-user "Gamma" rows, so with a user table in the header
USER_TABLE_KINDS = tuple(k for k in model.MASK_BY_KIND
                         if k not in model.RECURRENT_KINDS)


def _ranker_payload(ranker) -> tuple:
    """(header dict sans blocks, (name, array) pairs in block order)."""
    kind = ranker.kind
    header = {"kind": kind, "items": ranker.corpus.items.tolist()}
    if kind == "random":
        header["seed"] = ranker.seed
        return header, []
    if kind == "pop":
        return header, [("counts", ranker.counts)]
    h = ranker.h
    header.update({"d": h.d,
                   "hyper": {k: getattr(h, k) for k in model.HYPER_REALS}})
    if kind in USER_TABLE_KINDS:
        header["users"] = list(ranker.corpus.users)
    return header, ranker.params.items()


def save_ranker(path, ranker) -> None:
    header, blocks = _ranker_payload(ranker)
    header["blocks"] = [{"name": n, "shape": list(a.shape)} for n, a in blocks]
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for _, a in blocks:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _is_names(v) -> bool:
    return isinstance(v, list) and all(isinstance(n, str) for n in v)


def _is_block_table(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(b, dict) and isinstance(b.get("name"), str)
        and isinstance(b.get("shape"), list)
        and all(numkit.is_count(n) for n in b["shape"]) for b in v)


def _check_header(path, header) -> None:
    """The header schema: every key the loader reads, with its type, per
    kind. Anything else is a CheckpointError, never a raw Python error."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    kind = header.get("kind")
    if kind not in model.ALL_KINDS:
        raise CheckpointError(f"{path}: unknown kind {kind!r}")
    need = {"items": _is_names, "blocks": _is_block_table}
    if kind == "random":
        need["seed"] = numkit.is_count
    elif kind != "pop":
        need["d"] = numkit.is_count
    if kind in USER_TABLE_KINDS:
        need["users"] = _is_names  # Gamma's rows follow the user table
    for key, ok in need.items():
        if key not in header:
            raise CheckpointError(f"{path}: header lacks {key!r}")
        if not ok(header[key]):
            raise CheckpointError(f"{path}: header field {key!r} is malformed")
    names = [b["name"] for b in header["blocks"]]
    if len(set(names)) != len(names):
        raise CheckpointError(f"{path}: duplicate block names {sorted(names)}")
    hyper = header.get("hyper", {})
    if not (isinstance(hyper, dict) and set(hyper) <= set(model.HYPER_REALS)
            and all(numkit.is_real(v) for v in hyper.values())):
        raise CheckpointError(f"{path}: header field 'hyper' is malformed")


def read_checkpoint(path) -> tuple:
    """(header dict, {block name: array}). Validates the framing, the
    header schema and that every parameter value is finite."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise CheckpointError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    if len(raw) < len(MAGIC) + 4 or raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    (head_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    off = len(MAGIC) + 4
    if off + head_len > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[off:off + head_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, or nested too deeply for the decoder
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    _check_header(path, header)
    off += head_len
    blocks = {}
    for spec in header["blocks"]:
        shape = tuple(spec["shape"])
        n = math.prod(shape)  # exact for any size, unlike int64 np.prod
        nbytes = n * 8
        if off + nbytes > len(raw):
            raise CheckpointError(
                f"{path}: block {spec['name']!r} wants {nbytes} bytes, "
                f"{len(raw) - off} left")
        block = np.frombuffer(raw, dtype="<f8", count=n,
                              offset=off).reshape(shape).copy()
        finite = np.isfinite(block)
        if not finite.all():
            at = tuple(np.argwhere(~finite)[0].tolist())
            raise CheckpointError(f"{path}: block {spec['name']!r} holds the "
                                  f"non-finite value {block[at]} at {at}")
        blocks[spec["name"]] = block
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    return header, blocks


def _check_tables(path, header, corpus) -> None:
    if header["items"] != corpus.items.tolist():
        raise CheckpointError(
            f"{path}: item table mismatch, checkpoint has "
            f"{len(header['items'])} items, corpus has {corpus.n_items}")
    if (header["kind"] in USER_TABLE_KINDS
            and header["users"] != list(corpus.users)):
        raise CheckpointError(
            f"{path}: user table mismatch, checkpoint has "
            f"{len(header['users'])} users, corpus has {len(corpus.users)}")


def _hyper_from_header(path, header, feats) -> Hyper:
    kind = header["kind"]
    mask = model.MASK_BY_KIND[kind]
    try:
        h = Hyper(d=header["d"], mask=mask, **header.get("hyper", {}))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    for name in mask[1:]:
        if feats[name].shape[1] == 0:
            raise CheckpointError(f"{path}: kind {kind!r} needs {name} features, "
                                  f"which data.{name} does not give")
    return h


def _expect_blocks(path, blocks, shapes) -> None:
    if sorted(blocks) != sorted(shapes):
        raise CheckpointError(f"{path}: blocks {sorted(blocks)}, "
                              f"expected {sorted(shapes)}")
    for n in shapes:
        if blocks[n].shape != shapes[n]:
            raise CheckpointError(f"{path}: block {n} has shape "
                                  f"{blocks[n].shape}, expected {shapes[n]}")


def load_ranker(path, corpus, feats):
    """Rebuild a ready-to-rank object; ranking after a round trip is
    bit-identical to ranking with the in-memory original."""
    header, blocks = read_checkpoint(path)
    kind = header["kind"]
    _check_tables(path, header, corpus)
    if kind == "random":
        _expect_blocks(path, blocks, {})
        return baselines.RandomRanker(corpus, int(header["seed"]))
    if kind == "pop":
        _expect_blocks(path, blocks, {"counts": (corpus.n_items,)})
        return baselines.PopRanker(corpus, counts=blocks["counts"])
    h = _hyper_from_header(path, header, feats)
    n_users = len(corpus.users) if kind in USER_TABLE_KINDS else None
    try:
        shapes = model.block_shapes(h, feats, n_users, corpus.n_items)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    _expect_blocks(path, blocks, shapes)
    return baselines.EmbedRanker(kind, blocks, corpus, feats, h)
