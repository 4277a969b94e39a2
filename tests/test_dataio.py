"""Corpus parsing, splitting, feature normalization, negative sampling,
and the planted-cluster generator."""

import numpy as np
import pytest

from seqrank.dataio import (MIN_LEN, RANGES, SPLIT_FRAC, FeatureTable,
                            SynthSpec, build_corpus, build_feature_store,
                            load_corpus, load_features, normalize_minmax,
                            parse_sequence_file, sample_negative,
                            sample_triples, synth_corpus, synth_raw,
                            write_features, write_sequences)
from seqrank.errors import (ConfigError, EmptyCorpusError, ParseError,
                            SamplingError)


def ids(c, rows):
    """The item ids of a corpus's row array, in its order."""
    return c.items[rows].tolist()


def split_ids(c, u):
    """User u's (training ids, test ids)."""
    return ids(c, c.train_rows[u]), ids(c, c.test_rows[u])


def test_build_corpus_trains_on_ceil_prefix():
    c = build_corpus({"u": list("abcdefghij")}, min_len=2, split_frac=0.9)
    assert (len(c.train_rows["u"]), len(c.test_rows["u"])) == (9, 1)
    c = build_corpus({"u": list("abcde")}, min_len=2, split_frac=0.5)
    # ceil(2.5) = 3
    assert split_ids(c, "u") == (["a", "b", "c"], ["d", "e"])
    c = build_corpus({"u": ["a", "b"]}, min_len=2, split_frac=0.9)
    # ceil(1.8) = 2: u trains on both items and is not evaluated
    assert split_ids(c, "u") == (["a", "b"], [])
    assert c.eval_users() == []


def test_parse_sequence_file(tmp_path):
    p = tmp_path / "seq.tsv"
    p.write_text("u1\ta,b,c\n\nu2\tx,y\n")
    raw = parse_sequence_file(p)
    assert list(raw) == ["u1", "u2"]
    assert raw["u1"] == ["a", "b", "c"]


@pytest.mark.parametrize("line,fragment", [
    ("u1 a,b,c", "user<TAB>item"),
    ("u1\t", "user<TAB>item"),
    ("u1\t,,", "empty item list"),
])
def test_parse_sequence_file_errors(tmp_path, line, fragment):
    p = tmp_path / "bad.tsv"
    p.write_text(line + "\n")
    with pytest.raises(ParseError, match=fragment):
        parse_sequence_file(p)


def test_parse_duplicate_user(tmp_path):
    p = tmp_path / "dup.tsv"
    p.write_text("u1\ta,b\nu1\tc,d\n")
    with pytest.raises(ParseError, match="duplicate user"):
        parse_sequence_file(p)


def test_build_corpus_orders_and_filters():
    raw = {"u2": ["b", "a", "c", "b"], "u1": ["c", "a", "a", "d"], "u3": ["a"]}
    c = build_corpus(raw, min_len=2, split_frac=0.75)
    assert c.users == ("u2", "u1")                   # file order, short user dropped
    assert c.items.tolist() == ["a", "b", "c", "d"]  # ascending ids, by row
    assert c.train_rows["u2"].dtype == np.intp
    assert c.train_rows["u2"].tolist() == [1, 0, 2]  # b, a, c
    # u2's test item "b" already trained on, filtered away
    assert split_ids(c, "u2") == (["b", "a", "c"], [])
    assert split_ids(c, "u1") == (["c", "a", "a"], ["d"])
    assert c.test_rows["u1"].dtype == np.intp
    assert c.eval_users() == ["u1"]


def test_build_corpus_validation():
    with pytest.raises(ConfigError):
        build_corpus({"u": ["a", "b"]}, min_len=2, split_frac=1.0)
    with pytest.raises(ConfigError):
        build_corpus({"u": ["a", "b"]}, min_len=1, split_frac=0.5)
    with pytest.raises(EmptyCorpusError):
        build_corpus({"u": ["a"]}, min_len=2, split_frac=0.5)


def test_build_corpus_keeps_new_test_items_once():
    # ceil(4.5) = 5 training items; of the held-out a, e, f, e the training
    # item a and the second e go
    c = build_corpus({"u": ["a", "b", "c", "d", "d", "a", "e", "f", "e"]},
                     min_len=2, split_frac=0.5)
    assert split_ids(c, "u") == (["a", "b", "c", "d", "d"], ["e", "f"])


def test_candidates_excludes_train_only(toy_corpus):
    cands = [toy_corpus.items[j] for j in toy_corpus.candidate_rows("alice")]
    assert "i2" not in cands
    assert "i4" in cands          # test items stay rankable
    assert cands == sorted(cands)


def test_normalize_minmax():
    m = np.array([[0.0, 5.0], [2.0, 5.0], [1.0, 5.0]])
    out = normalize_minmax(m, -1.0, 1.0)
    assert out[:, 0].tolist() == [-1.0, 1.0, 0.0]
    # constant dimension collapses to the low end
    assert out[:, 1].tolist() == [-1.0, -1.0, -1.0]


def test_load_features(tmp_path):
    p = tmp_path / "f.tsv"
    p.write_text("#dims 2\ni1\t0.0 10.0\ni2\t4.0 30.0\n")
    t = load_features(p, lo=0.0, hi=0.5)
    assert t.dim == 2
    assert t.ids == ["i1", "i2"]  # file order
    assert t.matrix[1].tolist() == [0.5, 0.5]
    assert t.matrix[0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("text,fragment", [
    ("#dim 2\ni1\t1 2\n", "header"),
    ("#dims 2\ni1\t1\n", "header says 2"),
    ("#dims 1\ni1\tfoo\n", "non-numeric"),
    ("#dims 2\ni1 1 2\n", "item<TAB>values"),
    ("#dims 2\n", "no feature rows"),
])
def test_load_features_errors(tmp_path, text, fragment):
    p = tmp_path / "f.tsv"
    p.write_text(text)
    with pytest.raises(ParseError, match=fragment):
        load_features(p, lo=0.0, hi=1.0)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_features_rejects_non_finite(tmp_path, token):
    p = tmp_path / "f.tsv"
    p.write_text(f"#dims 2\ni0000\t0.3 0.2\ni0001\t{token} 0.1\n")
    with pytest.raises(ParseError, match=f"f.tsv:3: non-finite value {token}$"):
        load_features(p, lo=0.0, hi=1.0)


def test_load_features_rejects_duplicate_item(tmp_path):
    # a second row for "a" would replace the first and still widen the
    # min-max range of every dimension
    p = tmp_path / "f.tsv"
    p.write_text("#dims 2\na\t1 2\nb\t3 4\na\t9 9\n")
    with pytest.raises(ParseError, match="f.tsv:4: duplicate item id 'a'$"):
        load_features(p, lo=0.0, hi=1.0)


def test_undecodable_files_raise_parse_error(tmp_path):
    seq = tmp_path / "seq.tsv"
    seq.write_bytes(b"u1\ti1,i2\nu2\ti\xff3,i1\n")
    with pytest.raises(ParseError, match=r"seq\.tsv: not UTF-8 text"):
        parse_sequence_file(seq)
    feat = tmp_path / "f.tsv"
    feat.write_bytes(b"#dims 1\ni1\t0.5\ni\xc3\t0.1\n")
    with pytest.raises(ParseError, match=r"f\.tsv: not UTF-8 text"):
        load_features(feat, lo=0.0, hi=1.0)


@pytest.mark.parametrize("dims", ["\u00b2", "1" * 5000, "0"],
                         ids=["superscript", "5000-digits", "zero"])
def test_load_features_header_int_conversion(tmp_path, dims):
    # a superscript two passes str.isdigit but not int(), int() refuses
    # strings of more than 4300 digits, and a width must be at least 1
    p = tmp_path / "f.tsv"
    p.write_bytes(f"#dims {dims}\ni1\t0.5 0.1\n".encode())
    with pytest.raises(ParseError, match="f.tsv:1: expected '#dims <F>' header"):
        load_features(p, lo=0.0, hi=1.0)


def test_feature_store_missing_items(toy_corpus):
    vis = FeatureTable(["i1"], np.array([[0.1, 0.2]]))
    feats, missing = build_feature_store(toy_corpus,
                                         {"visual": vis, "textual": None})
    assert missing["visual"] == [it for it in toy_corpus.items if it != "i1"]
    row = toy_corpus.items.tolist().index
    assert feats["visual"][row("i3")].tolist() == [0.0, 0.0]
    assert feats["visual"][row("i1")].tolist() == [0.1, 0.2]
    assert feats["textual"].shape == (toy_corpus.n_items, 0)
    assert missing["textual"] == []


def test_feature_store_aligns_a_file_in_its_own_order(toy_corpus, tmp_path):
    # the file lists the items out of row order, adds "zz", which the
    # corpus lacks, and leaves out the corpus's i2 and i4; min-max onto
    # [0, 1] maps both dimensions to exact multiples of 0.2
    p = tmp_path / "v.tsv"
    p.write_text("#dims 2\ni6\t5 50\nzz\t0 0\ni3\t2 20\ni1\t4 10\n"
                 "i5\t1 40\n")
    feats, missing = build_feature_store(
        toy_corpus, {"visual": load_features(p, 0.0, 1.0)})
    want = {"i1": [0.8, 0.2], "i2": [0.0, 0.0], "i3": [0.4, 0.4],
            "i4": [0.0, 0.0], "i5": [0.2, 0.8], "i6": [1.0, 1.0]}
    assert toy_corpus.items.tolist() == sorted(want)
    for j, it in enumerate(toy_corpus.items):
        assert feats["visual"][j].tolist() == want[it], it
    assert missing == {"visual": ["i2", "i4"]}  # corpus row order


def test_sample_negative_never_owned(toy_corpus):
    rng = np.random.default_rng(0)
    owned = frozenset(toy_corpus.train_rows["alice"].tolist())
    owned_ids = set(ids(toy_corpus, toy_corpus.train_rows["alice"]))
    assert owned_ids == {"i1", "i2", "i3"}
    for _ in range(200):
        q = sample_negative(toy_corpus, "alice", owned, rng)
        assert q not in owned and toy_corpus.items[q] not in owned_ids


def test_sample_negative_exhausted():
    c = build_corpus({"u": ["a", "b", "a", "b"]}, min_len=2, split_frac=0.5)
    with pytest.raises(SamplingError, match="user 'u' owns every item"):
        sample_negative(c, "u", frozenset(c.train_rows["u"].tolist()),
                        np.random.default_rng(0))


def test_sample_triples_protocol(toy_corpus):
    # m - 1 negatives for a pairwise sequence, one per step t = 2..m, and
    # m for an mf visit, one per observation
    rng = np.random.default_rng(1)
    seq = ids(toy_corpus, toy_corpus.train_rows["bob"])
    assert seq == ["i2", "i3", "i5"]
    for n in (len(seq) - 1, len(seq)):
        neg_rows = sample_triples(toy_corpus, "bob", n, rng)
        assert neg_rows.dtype == np.intp
        assert neg_rows.shape == (n,)
        for q in neg_rows:
            assert toy_corpus.items[q] not in set(seq)


# ---------------------------------------------------------------------------
# synthetic generator

SPEC = SynthSpec(users=12, items=40, clusters=4, seq_len=8,
                 f_dim_visual=3, f_dim_textual=2, noise_sigma=0.2, seed=9)


def test_synth_spec_validation():
    with pytest.raises(ConfigError, match="clusters"):
        SynthSpec(users=2, items=4, clusters=5, seq_len=3,
                  f_dim_visual=1, f_dim_textual=1, noise_sigma=0.1, seed=0)


def test_synth_spec_from_json_rejects_unknown():
    with pytest.raises(ConfigError, match="typo_field"):
        SynthSpec.from_json({"users": 2, "items": 8, "clusters": 2,
                             "seq_len": 3, "f_dim_visual": 1,
                             "f_dim_textual": 1, "noise_sigma": 0.1,
                             "seed": 0, "typo_field": 1})


def test_synth_ids_and_pools():
    assert SPEC.item_id(3) == "i0003"
    assert SPEC.user_id(11) == "u0011"
    assert SPEC.item_cluster(7) == 3
    pools = SPEC.cluster_pools()
    assert len(pools) == 4
    common, cold = pools[0]
    assert cold == []  # cold_fraction defaults to 0
    assert len(common) == 10


def test_synth_raw_deterministic_and_in_range():
    a_seqs, a_tables = synth_raw(SPEC, np.random.default_rng(9))
    b_seqs, b_tables = synth_raw(SPEC, np.random.default_rng(9))
    assert a_seqs == b_seqs
    assert list(a_tables) == list(b_tables) == list(RANGES)
    for name, (lo, hi) in RANGES.items():
        a, b = a_tables[name], b_tables[name]
        assert a.ids == b.ids == a_tables["visual"].ids
        assert len(a.ids) == SPEC.items
        assert np.array_equal(a.matrix, b.matrix)
        assert lo <= a.matrix.min() and a.matrix.max() <= hi
    assert len(a_seqs) == SPEC.users
    assert all(len(s) == SPEC.seq_len for s in a_seqs.values())


def test_synth_cold_items_stay_out_of_head():
    spec = SynthSpec(users=30, items=40, clusters=4, seq_len=10,
                     f_dim_visual=2, f_dim_textual=2, noise_sigma=0.2,
                     seed=11, cold_fraction=0.4, cold_prob=0.7,
                     tail_fraction=0.2)
    raw, _ = synth_raw(spec, np.random.default_rng(11))
    cold_ids = {spec.item_id(j) for _, cold in spec.cluster_pools()
                for j in cold}
    assert cold_ids
    head_len = 8  # ceil(0.8 * 10)
    for seq in raw.values():
        assert not cold_ids.intersection(seq[:head_len])


def test_synth_corpus_matches_file_round_trip(tmp_path):
    corpus, feats = synth_corpus(SPEC, np.random.default_rng(9))
    raw, tables = synth_raw(SPEC, np.random.default_rng(9))
    write_sequences(tmp_path / "s.tsv", raw)
    for name, table in tables.items():
        write_features(tmp_path / f"{name}.tsv", table)
    loaded = load_corpus(tmp_path / "s.tsv", MIN_LEN, SPLIT_FRAC)
    assert loaded.users == corpus.users
    assert loaded.items.tolist() == corpus.items.tolist()
    for u in corpus.users:
        assert split_ids(loaded, u) == split_ids(corpus, u)
    store, _ = build_feature_store(loaded, {
        name: load_features(tmp_path / f"{name}.tsv", *limits)
        for name, limits in RANGES.items()})
    # repr round trip and idempotent renormalization: bit-identical matrices
    assert list(store) == list(feats) == ["visual", "textual"]
    for name in feats:
        assert np.array_equal(store[name], feats[name]), name
