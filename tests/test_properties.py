"""Property tests.

- Whatever bytes a checkpoint, sequence or feature file holds, its reader
  fails only with its own documented error type, and so does loading a
  checkpoint into a ranker.
- The array ranking path agrees with naive per-user and per-item
  references: candidate ordering (also against a plain stable argsort,
  on distinct scores and on ties, signed zeros, infinities and NaN), the
  batched final states and the cold-start bins (fed the hit rows that
  `user_metrics` keeps of drawn id rankings).
- The tanh-space recurrence of `hidden_states` and `final_states` agrees
  within 1e-14 with a plain logistic loop, h_t = sigma(InMat i_t + RecMat
  h_{t-1}), and saturated pre-activations (+-800 and beyond) give states
  of exactly 0 or 1 with no floating-point error.
- The row sampler draws exactly what an id-based rejection sampler draws
  from the same generator, and never a row the user trained on.
- `build_corpus` keeps, splits and filters exactly as a plain reference
  of the split protocol does.
- `load_features` gives the bits of a line-by-line, token-by-token
  `float()` parse, or fails with its message, on fuzzed feature files and
  on generated ones 10 and 512 wide.
- `sgd.apply` gives the same bits as `sgd.ascend` once per block, or per
  distinct row of a block, on the sum of its records from zero in list
  order, and on a block's lone record as it is (a row-array record's
  rows one by one), signed zeros included; the
  scalar path of `log_sigmoid` gives the same bits as its array path.

Hypothesis runs derandomized and without an example database, so the
examples are the same on every run; conftest.py moves its storage
directory out of the checkout."""

import json
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from id_corpus import id_corpus, kept_hits
from reference_metrics import cold_start_ref
from seqrank import dataio, numkit, sgd
from seqrank.checkpoint import MAGIC, load_ranker, read_checkpoint
from seqrank.dataio import (FLOAT_CHUNK, RANGES, FeatureTable, SynthSpec,
                            build_corpus, load_features, normalize_minmax,
                            parse_sequence_file, sample_triples, synth_raw,
                            write_features)
from seqrank.errors import CheckpointError, EmptyCorpusError, ParseError
from seqrank.evaluator import EvalConfig, cold_start_bins
from seqrank.model import (ALL_KINDS, MASK_BY_KIND, RECURRENT_KINDS, Hyper,
                           block_shapes, final_states, hidden_states,
                           init_params, item_rep_matrix, order_candidates)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12)

# the world fuzzed checkpoints load into: two items, one user and
# nonzero feature widths, small enough that drawn tables and shapes match
LOAD_CORPUS = id_corpus(("u",), ("a", "b"), {"u": ["a", "b"]})
LOAD_FEATS = {"visual": np.ones((2, 1)), "textual": np.ones((2, 2))}
# headers shaped like real ones, their block names drawn from every name a
# kind can hold, so the schema, table and block-set checks are reached;
# `real_header` reaches the shape check and the loaded ranker
HEADERS = st.fixed_dictionaries(
    {"kind": st.sampled_from(ALL_KINDS),
     "items": st.just(["a", "b"]) | st.lists(st.text(max_size=3), max_size=3),
     "blocks": st.lists(st.fixed_dictionaries(
         {"name": st.sampled_from(["X", "E", "V", "Gamma", "InMat", "RecMat",
                                   "counts"]),
          "shape": st.lists(st.integers(-1, 2), max_size=2)}), max_size=4),
     "seed": st.integers(-1, 3), "d": st.integers(-1, 3)},
    optional={"users": st.just(["u"]) | JSON,
              "hyper": st.dictionaries(st.sampled_from(["alpha", "beta"]),
                                       st.floats() | st.text(max_size=2))})
# block payloads: whole float64 entries, or arbitrary bytes
PAYLOADS = st.integers(0, 12).map(lambda n: bytes(8 * n)) | st.binary(max_size=64)


def framed(head: bytes, tail: bytes) -> bytes:
    return MAGIC + struct.pack("<I", len(head)) + head + tail


def fitted(header: dict) -> bytes:
    """`header` framed with the zero payload its block table asks for."""
    n = sum(math.prod(max(k, 0) for k in b["shape"]) for b in header["blocks"])
    return framed(json.dumps(header).encode(), bytes(8 * n))


def real_header(kind: str, d: int, table_d: int) -> dict:
    """A `kind` header that passes every schema and table check against
    LOAD_CORPUS, with the block table of that kind's model at width
    table_d: it loads when d == table_d and meets the shape check when
    not."""
    if kind in MASK_BY_KIND:
        n_users = None if kind in RECURRENT_KINDS else 1
        shapes = block_shapes(Hyper(d=table_d, mask=MASK_BY_KIND[kind]),
                              LOAD_FEATS, n_users, 2)
    else:
        shapes = {"counts": (2,)} if kind == "pop" else {}
    return {"kind": kind, "items": ["a", "b"], "users": ["u"], "seed": 0,
            "d": d, "blocks": [{"name": name, "shape": list(shape)}
                               for name, shape in shapes.items()]}


CHECKPOINTS = st.one_of(
    st.binary(),
    st.binary().map(lambda tail: MAGIC + tail),
    st.builds(framed, st.binary(max_size=32), st.binary(max_size=32)),
    st.builds(framed, (JSON | HEADERS).map(lambda v: json.dumps(v).encode()),
              PAYLOADS),
    HEADERS.map(fitted),
    st.builds(real_header, st.sampled_from(ALL_KINDS), st.integers(1, 2),
              st.integers(1, 2)).map(fitted))

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
        load_ranker(path, LOAD_CORPUS, LOAD_FEATS)
    except CheckpointError:
        pass


@FUZZ
@given(raw=TEXT_FILES)
def test_text_parsers_raise_only_parse_error(scratch, raw):
    path = scratch / "fuzz.tsv"
    path.write_bytes(raw)
    for parse in (parse_sequence_file,
                  lambda p: load_features(p, 0.0, 1.0)):
        try:
            parse(path)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# the array ranking path against naive references

def items_of(n: int) -> tuple:
    return tuple(f"i{j:02d}" for j in range(n))


# few distinct values, so most candidates tie; both signs of zero
SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -2.5, 7.0])


@st.composite
def scored_user(draw):
    """(scores, items, owned): a score per item and the user's training
    items, from none to all of them, often all but one."""
    n = draw(st.integers(1, 30))
    scores = draw(st.lists(SCORES | st.floats(-4.0, 4.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        keep = draw(st.integers(0, n - 1))
        owned = [j for j in range(n) if j != keep]
    else:
        owned = draw(st.lists(st.integers(0, n - 1), unique=True))
    items = items_of(n)
    return np.array(scores), items, [items[j] for j in owned]


@FUZZ
@given(case=scored_user())
def test_order_candidates_matches_sorted_pairs(case):
    scores, items, owned = case
    corpus = id_corpus(("u",), items, {"u": owned})
    got = order_candidates(scores, corpus, "u")
    want = sorted([(it, float(s)) for it, s in zip(items, scores)
                   if it not in owned], key=lambda p: -p[1])
    assert all(type(it) is str and type(s) is float for it, s in got)
    # the score's hex form tells -0.0 from 0.0
    assert [(it, s.hex()) for it, s in got] == [(it, s.hex()) for it, s in want]


# planted ties: both zeros, both infinities, NaN and a few values
EDGE_SCORES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])


@st.composite
def edge_scored_user(draw):
    """(scores, items, owned): scores either pairwise distinct and not NaN,
    so the fast sort's order stands, or drawn with planted ties, signed
    zeros, infinities and NaN, so the stable sort is taken."""
    if draw(st.booleans()):
        scores = draw(st.lists(st.floats(allow_nan=False), min_size=1,
                               max_size=40, unique=True))
    else:
        scores = draw(st.lists(EDGE_SCORES | st.floats(), min_size=1,
                               max_size=40))
    items = items_of(len(scores))
    owned = draw(st.lists(st.sampled_from(items), unique=True,
                          max_size=len(items) - 1))
    return np.array(scores), items, owned


@FUZZ
@given(case=edge_scored_user())
def test_order_candidates_matches_a_stable_argsort(case):
    scores, items, owned = case
    corpus = id_corpus(("u",), items, {"u": owned})
    rows = corpus.candidate_rows("u")
    cand = scores[rows]
    order = np.argsort(-cand, kind="stable")
    want = list(zip(corpus.items[rows[order]].tolist(), cand[order].tolist()))
    got = order_candidates(scores, corpus, "u")
    # the bytes tell -0.0 from 0.0 and compare NaN with itself
    assert [(it, struct.pack("<d", s)) for it, s in got] == \
        [(it, struct.pack("<d", s)) for it, s in want]


MASKS = sorted(set(MASK_BY_KIND.values()))  # the four kind masks


@st.composite
def recurrent_world(draw):
    n_items = draw(st.integers(1, 8))
    items = items_of(n_items)
    users = tuple(f"u{j}" for j in range(draw(st.integers(1, 6))))
    max_len = draw(st.integers(1, 8))
    train = {u: [items[j] for j in draw(st.lists(st.integers(0, n_items - 1),
                                                  min_size=1, max_size=max_len))]
             for u in users}
    d = draw(st.integers(1, 3))
    widths = {name: draw(st.integers(1, 3)) for name in RANGES}
    h = Hyper(d=d, mask=draw(st.sampled_from(MASKS)))
    return (id_corpus(users, items, train), h, widths,
            draw(st.integers(0, 2**32 - 1)))


def logistic_states(inputs: np.ndarray, params: dict) -> np.ndarray:
    """h_0..h_m of the paper's recurrence h_t = sigma(InMat i_t + RecMat
    h_{t-1}) from h_0 = 0, one plain logistic step at a time."""
    states = np.zeros((len(inputs) + 1, params["RecMat"].shape[0]))
    for t, inp in enumerate(inputs):
        states[t + 1] = numkit.sigmoid_arr(params["InMat"] @ inp
                                           + params["RecMat"] @ states[t])
    return states


@FUZZ
@given(world=recurrent_world())
def test_final_states_match_per_user_recurrence(world):
    corpus, h, widths, seed = world
    rng = np.random.default_rng(seed)
    feats = {name: rng.uniform(lo, hi, (corpus.n_items, widths[name]))
             for name, (lo, hi) in RANGES.items()}
    params = init_params(h, feats, None, corpus.n_items, rng)
    final = final_states(params, feats, corpus, h)
    assert final.shape == (len(corpus.users), h.D)
    for u, got in zip(corpus.users, final):
        inputs = item_rep_matrix(params, feats, h, corpus.train_rows[u])
        states = hidden_states(inputs, params)
        assert np.max(np.abs(got - states[-1])) <= 1e-14
        # the tanh-space states against the logistic recurrence they stand for
        want = logistic_states(inputs, params)
        assert np.max(np.abs(states - want)) <= 1e-14
        assert np.max(np.abs(got - want[-1])) <= 1e-14


@FUZZ
@given(signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=6),
       rec=st.sampled_from([0.0, 800.0, -800.0]))
def test_saturated_states_stay_in_the_unit_interval(signs, rec):
    """Pre-activations of +-800 and beyond raise no floating-point error,
    and each state entry rounds to exactly 1 or 0: tanh saturates once
    |x| exceeds about 38, and nothing overflows."""
    items = items_of(len(signs))
    corpus = id_corpus(("u",), items, {"u": list(items)})
    h = Hyper(d=1, mask=("latent", "visual", "textual"))
    feats = {name: np.zeros((len(items), 1)) for name in RANGES}
    # x_t = InMat i_t + RecMat h_{t-1} has the sign of item t's latent
    # entry, and |x_t| >= 800, since |RecMat h_{t-1}| <= 3 |rec|
    in_mat = np.zeros((3, 3))
    in_mat[:, 0] = 800.0 + 3 * abs(rec)
    params = {"X": np.array(signs)[:, None], "E": np.zeros((1, 1)),
              "V": np.zeros((1, 1)), "InMat": in_mat,
              "RecMat": np.full((3, 3), rec)}
    with np.errstate(all="raise"):
        states = hidden_states(item_rep_matrix(params, feats, h), params)
        final = final_states(params, feats, corpus, h)
    want = np.repeat((np.array(signs) > 0)[:, None], 3, axis=1).astype(float)
    assert np.array_equal(states[1:], want)
    assert np.array_equal(final[0], want[-1])


@st.composite
def cold_start_world(draw):
    items = items_of(draw(st.integers(1, 12)))
    users = tuple(f"u{j}" for j in range(draw(st.integers(1, 8))))
    some = st.lists(st.sampled_from(items), unique=True)
    test = {u: draw(some) for u in users}
    if not any(test.values()):
        test[users[0]] = [items[0]]
    ranked = {u: draw(st.permutations(items).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda n: list(p[:n]))))
              for u in users}
    bins = tuple(sorted(draw(st.sets(st.integers(1, 6), max_size=4))))
    return (id_corpus(users, items, {}, test), test, ranked,
            draw(st.integers(1, 6)), bins)


@FUZZ
@given(world=cold_start_world())
def test_cold_start_bins_match_per_bin_recount(world):
    corpus, test, ranked, k, bins = world
    evaluable = corpus.eval_users()
    assert evaluable == [u for u in corpus.users if test[u]]
    cfg = EvalConfig(bins=bins, coldstart_k=k)
    report = cold_start_bins(corpus, {"A": kept_hits(corpus, ranked, cfg)}, cfg)
    bin_users, recalls = cold_start_ref(evaluable, test, ranked, k, bins)
    assert report.bin_users == bin_users
    assert report.recalls["A"] == recalls
    assert all(v is None or type(v) is float for v in report.recalls["A"])


# ---------------------------------------------------------------------------
# the row sampler against an id-based reference

def reference_negatives(items: tuple, seq: list, rng: np.random.Generator) -> list:
    """Negative ids of steps 2..len(seq): uniform draws over `items`,
    rejecting the ids in seq."""
    owned, out = set(seq), []
    for _ in range(len(seq) - 1):
        q = items[int(rng.integers(len(items)))]
        while q in owned:
            q = items[int(rng.integers(len(items)))]
        out.append(q)
    return out


@st.composite
def sampling_world(draw):
    """A corpus whose every user leaves at least one item unowned, its
    training ids by user, and a seed."""
    n_items = draw(st.integers(2, 10))
    items = items_of(n_items)
    train = {}
    for j in range(draw(st.integers(1, 5))):
        spare = draw(st.integers(0, n_items - 1))
        rows = st.integers(0, n_items - 2).map(lambda r, s=spare: r + (r >= s))
        train[f"u{j}"] = [items[r] for r in draw(st.lists(rows, min_size=2, max_size=8))]
    return (id_corpus(tuple(train), items, train), train,
            draw(st.integers(0, 2**32 - 1)))


@FUZZ
@given(world=sampling_world())
def test_row_sampler_matches_id_reference(world):
    corpus, train, seed = world
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for u in corpus.users:
        rows = sample_triples(corpus, u, rng)
        assert rows.dtype == np.intp
        assert corpus.items[rows].tolist() == reference_negatives(
            corpus.items.tolist(), train[u], ref_rng)
        assert not set(rows.tolist()) & set(corpus.train_rows[u].tolist())


def split_ref(raw, min_len, split_frac):
    """The split protocol written out plainly: (kept users, training
    prefixes, new-item test lists, sorted item table)."""
    users = [u for u, seq in raw.items() if len(seq) >= min_len]
    train, test = {}, {}
    for u in users:
        seq = raw[u]
        # the least prefix length reaching split_frac of the sequence
        n_train = min(k for k in range(len(seq) + 1) if k >= split_frac * len(seq))
        train[u], test[u] = seq[:n_train], []
        for it in seq[n_train:]:
            if it not in train[u] and it not in test[u]:
                test[u].append(it)
    items = sorted({it for u in users for it in raw[u]})
    return users, train, test, items


@FUZZ
@given(raw=st.dictionaries(st.text("uvwxyz", min_size=1, max_size=2),
                           st.lists(st.sampled_from("abcdef"), min_size=1,
                                    max_size=9), max_size=6),
       min_len=st.integers(2, 5),
       split_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_build_corpus_matches_split_reference(raw, min_len, split_frac):
    users, train, test, items = split_ref(raw, min_len, split_frac)
    if not users:
        with pytest.raises(EmptyCorpusError):
            build_corpus(raw, min_len, split_frac)
        return
    c = build_corpus(raw, min_len, split_frac)
    assert list(c.users) == users
    assert c.items.tolist() == items
    assert {u: c.items[c.train_rows[u]].tolist() for u in c.train_rows} == train
    assert {u: c.items[c.test_rows[u]].tolist() for u in c.test_rows} == test


# ---------------------------------------------------------------------------
# the feature loader against a line-by-line parse

def load_features_ref(path, lo, hi):
    """The feature file format parsed one line and one float() at a time,
    every check in line order."""
    ids, rows, linenos, seen = [], [], [], set()
    # a file smaller than the reader's first chunk fails to decode before
    # its first line is read
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    toks = lines[0].split() if lines else []
    dim = (int(toks[1]) if len(toks) == 2 and toks[0] == "#dims"
           and toks[1].isdecimal() else 0)
    if dim < 1:
        raise ParseError(f"{path}:1: expected '#dims <F>' header with F >= 1")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'item<TAB>values'")
        values = parts[1].split()
        if len(values) != dim:
            raise ParseError(
                f"{path}:{lineno}: {len(values)} values, header says {dim}")
        try:
            row = [float(v) for v in values]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric token ({exc})") from exc
        if parts[0] in seen:
            raise ParseError(f"{path}:{lineno}: duplicate item id {parts[0]!r}")
        seen.add(parts[0])
        ids.append(parts[0])
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise ParseError(f"{path}: no feature rows")
    matrix = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(matrix)
    if not finite.all():
        j, k = np.argwhere(~finite)[0]
        raise ParseError(f"{path}:{linenos[j]}: non-finite value {matrix[j, k]}")
    return FeatureTable(ids, normalize_minmax(matrix, lo, hi))


def outcome(load, path):
    """(ids, matrix bytes) of a loaded table, or the ParseError message."""
    try:
        table = load(path, 0.0, 1.0)
    except ParseError as exc:
        return str(exc)
    return table.ids, table.matrix.tobytes()


# numbers float() reads, and tokens it rejects, in UTF-8
GOOD_VALUES = [b"0.5", b"-1", b"3", b"0.1", b"1e-3", b"1_0", b"\xd9\xa3",
               b"nan", b"-inf", b"1e999"]
BAD_VALUES = [b"foo", b"0x10", b"1e", b"\xc2\xb2", b"1__0"]


@st.composite
def feature_files(draw):
    """A feature file of up to 8 rows over 4 item ids, so ids repeat, most
    of them well formed: rarely a bad token, a wrong count, a missing tab
    or a byte that is not UTF-8."""
    dim = draw(st.integers(1, 3))
    lines = [b"#dims %d" % dim]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from([b"", b"\xff", b"i1 0.5"])))
            continue
        n = dim if draw(st.integers(0, 7)) else draw(st.integers(0, 4))
        values = [draw(st.sampled_from(BAD_VALUES if draw(st.integers(0, 11)) == 0
                                       else GOOD_VALUES[:4] * 3 + GOOD_VALUES))
                  for _ in range(n)]
        item = draw(st.sampled_from([b"i1", b"i2", b"i3", b"i4"]))
        lines.append(item + b"\t" + b" ".join(values))
    return b"\n".join(lines) + b"\n"


@FUZZ
@given(raw=feature_files(), chunk=st.sampled_from([1, 2, 5, FLOAT_CHUNK]))
def test_load_features_matches_line_by_line_parse(scratch, raw, chunk):
    # small conversion chunks put a bad token or line before, inside and
    # after a chunk boundary
    path = scratch / "features.tsv"
    path.write_bytes(raw)
    with mock.patch.object(dataio, "FLOAT_CHUNK", chunk):
        got = outcome(load_features, path)
    assert got == outcome(load_features_ref, path)


@pytest.mark.parametrize("width", [10, 512])
def test_load_features_matches_line_by_line_parse_on_synth(tmp_path, width):
    spec = SynthSpec(users=6, items=60, clusters=3, seq_len=6,
                     f_dim_visual=width, f_dim_textual=width,
                     noise_sigma=0.3, seed=3)
    _, tables = synth_raw(spec, np.random.default_rng(3))
    for name, table in tables.items():
        path = tmp_path / f"{name}.tsv"
        write_features(path, table)
        got, want = outcome(load_features, path), outcome(load_features_ref, path)
        assert got[1] == want[1] and got[0] == want[0] == list(table.ids), name
        assert len(got[1]) == 8 * 60 * width


# ---------------------------------------------------------------------------
# update and log-sigmoid paths against their plain references

# two row blocks of equal width and one small whole block
SHAPES = {"A": (5, 3), "B": (4, 3), "C": (2, 2)}


def with_signed_zeros(rng, a):
    """a with about a quarter of its entries set to 0.0 or -0.0."""
    a = np.array(a, dtype=float)
    zero = rng.random(a.shape) < 0.25
    a[zero] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[zero]
    return a


@st.composite
def record_lists(draw):
    """(records, decay, clip_norm): records over SHAPES, rows drawn from a
    few so they repeat, whole-block records interleaved with int-row
    records and row-array records (distinct rows, in any order) of the
    same and other blocks, g with signed zeros, and a decay map with a
    lam per block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = []
    for _ in range(draw(st.integers(0, 30))):
        name = draw(st.sampled_from(sorted(SHAPES)))
        rows, width = SHAPES[name]
        form = "whole" if name == "C" else draw(
            st.sampled_from(["whole", "row", "row", "rows", "rows"]))
        if form == "whole":
            row, g = None, rng.normal(size=SHAPES[name])
        elif form == "row":
            row, g = draw(st.integers(0, rows - 1)), rng.normal(size=width)
        else:
            row = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=1,
                                         unique=True)), dtype=np.intp)
            g = rng.normal(size=(len(row), width))
        records.append((name, row, with_signed_zeros(rng, g)))
    decay = {name: draw(st.sampled_from([0.0, 0.01, 0.3]))
             for name in sorted(SHAPES)}
    return records, decay, draw(st.sampled_from([None, 0.05, 1.5]))


def ascend_each(blocks, records, decay, clip):
    """`sgd.ascend` on each record in list order, a row array's rows one
    by one."""
    for name, row, g in records:
        if isinstance(row, np.ndarray):
            for r, gr in zip(row, g):
                sgd.ascend(blocks[name][r], gr, 0.2, decay[name], clip)
        else:
            sgd.ascend(blocks[name] if row is None else blocks[name][row], g,
                       0.2, decay[name], clip)


def summed_per_block_and_row(records):
    """The records with each block of several replaced by its sums, from
    zero in list order, row by row: one whole-block record when any of
    them is whole, else one int-row record per distinct row."""
    by_block = {}
    for name, row, g in records:
        by_block.setdefault(name, []).append((row, g))
    out = []
    for name, recs in by_block.items():
        if len(recs) == 1:
            out.append((name, *recs[0]))
            continue
        whole = any(row is None for row, _ in recs)
        sums = {None: np.zeros(SHAPES[name])} if whole else {}
        for row, g in recs:
            if row is None:
                sums[None] += g
                continue
            for r, gr in zip(np.atleast_1d(row), np.atleast_2d(g)):
                if whole:
                    sums[None][r] += gr
                else:
                    sums[int(r)] = sums.get(int(r), np.zeros(len(gr))) + gr
        out += [(name, r, g) for r, g in sums.items()]
    return out


def start_blocks(seed):
    rng = np.random.default_rng(seed)
    return {name: with_signed_zeros(rng, rng.normal(size=shape))
            for name, shape in SHAPES.items()}


@FUZZ
@given(case=record_lists(), seed=st.integers(0, 2**32 - 1))
def test_apply_matches_ascend_loop(case, seed):
    # one ascent per block, or per distinct row, by its records' sum
    records, decay, clip = case
    got, want = start_blocks(seed), start_blocks(seed)
    sgd.apply(got, records, 0.2, decay, clip)
    ascend_each(want, summed_per_block_and_row(records), decay, clip)
    for name in SHAPES:
        assert got[name].tobytes() == want[name].tobytes(), name


@FUZZ
@given(case=record_lists(), seed=st.integers(0, 2**32 - 1))
def test_apply_takes_a_lone_record_as_it_is(case, seed):
    # a block of one record ascends exactly as that record alone would:
    # no zero-add, no re-gather, signed zeros and clipping included
    records, decay, clip = case
    lone = list({name: (name, row, g) for name, row, g in records}.values())
    got, want = start_blocks(seed), start_blocks(seed)
    sgd.apply(got, lone, 0.2, decay, clip)
    ascend_each(want, lone, decay, clip)
    for name in SHAPES:
        assert got[name].tobytes() == want[name].tobytes(), name


EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324,
         -5e-324, 2.2250738585072014e-308, -1e-310, 36.7, -745.2]


@FUZZ
@given(x=st.sampled_from(EDGES) | st.floats())
def test_log_sigmoid_scalar_path_matches_array_path(x):
    got = numkit.log_sigmoid(x)
    assert type(got) is float
    for arr in (np.array(x), np.array([x])):
        want = numkit.log_sigmoid(arr)
        assert float.hex(got) == float.hex(float(np.reshape(want, -1)[0]))
