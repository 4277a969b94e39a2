"""Ranker ladder: random, popularity, pointwise MF, and the BPR family."""

from dataclasses import replace

import numpy as np
import pytest

from id_corpus import id_corpus
from seqrank import baselines, model, trainer
from seqrank.baselines import (EmbedRanker, PopRanker, RandomRanker,
                               build_ranker, grad_check,
                               train_content_bpr, train_mf, user_stream)
from seqrank.dataio import SynthSpec, synth_corpus
from seqrank.errors import ConfigError, DivergenceError
from seqrank.model import ALL_KINDS, KERNELS, MASK_BY_KIND, Hyper
from seqrank.trainer import TrainConfig

SPEC = SynthSpec(users=6, items=24, clusters=3, seq_len=6,
                 f_dim_visual=2, f_dim_textual=2, noise_sigma=0.3, seed=21)


@pytest.fixture(scope="module")
def world():
    return synth_corpus(SPEC, np.random.default_rng(21))


def test_user_stream_stable_and_distinct():
    a = user_stream(4, "alice").random(5)
    b = user_stream(4, "alice").random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, user_stream(4, "bob").random(5))
    assert not np.array_equal(a, user_stream(5, "alice").random(5))


def test_random_ranker(toy_corpus):
    r = RandomRanker(toy_corpus, seed=0)
    first = r.rank("alice")
    assert first == r.rank("alice")  # stable across calls
    ids = [it for it, _ in first]
    assert sorted(ids) == toy_corpus.items[toy_corpus.candidate_rows("alice")].tolist()
    scores = [s for _, s in first]
    assert scores == sorted(scores, reverse=True)


def test_pop_ranker_counts(toy_corpus):
    r = PopRanker(toy_corpus)
    by_item = {it: c for it, c in zip(toy_corpus.items, r.counts)}
    assert by_item == {"i1": 1, "i2": 3, "i3": 2, "i4": 1, "i5": 2, "i6": 0}
    assert [it for it, _ in r.rank("alice")] == ["i5", "i4", "i6"]
    # restoring from stored counts reproduces the ranking exactly
    again = PopRanker(toy_corpus, counts=r.counts.copy())
    assert again.rank("bob") == r.rank("bob")


def test_init_bpr_params_shapes():
    """mf and the BPR family draw their blocks with a user table."""
    h = Hyper(d=3, mask=("latent", "visual"))
    feats = {"visual": np.zeros((7, 4)), "textual": np.zeros((7, 2))}
    p = model.init_params(h, feats, 5, 7, np.random.default_rng(0))
    # D = 2 active slices * d; the textual slice is inactive, so no V
    assert {name: a.shape for name, a in p.items()} == {
        "Gamma": (5, 6), "X": (7, 3), "E": (3, 4)}
    assert p["E"].any()


def test_embed_ranker_scores(toy_corpus, toy_feats):
    h = Hyper(d=2, mask=("latent", "visual", "textual"))
    params = model.init_params(h, toy_feats, len(toy_corpus.users),
                               toy_corpus.n_items, np.random.default_rng(2))
    r = EmbedRanker("vtbpr", params, toy_corpus, toy_feats, h)
    ranked = r.rank("carol")
    gamma = params["Gamma"][list(toy_corpus.users).index("carol")]
    items = toy_corpus.items.tolist()
    rep = model.item_rep_matrix(params, toy_feats, h)
    for it, score in ranked:
        assert score == pytest.approx(float(rep[items.index(it)] @ gamma),
                                      abs=1e-12)
    with pytest.raises(KeyError):
        r.rank("mallory")


def test_recurrent_ranker_scores(toy_corpus, toy_feats):
    h = Hyper(d=2, mask=("latent", "visual", "textual"))
    params = model.init_params(h, toy_feats, None, toy_corpus.n_items,
                               np.random.default_rng(6))
    r = EmbedRanker("vtrnn", params, toy_corpus, toy_feats, h)
    rows = toy_corpus.train_rows["carol"]
    assert toy_corpus.items[rows].tolist() == ["i5", "i4", "i2"]
    state = model.hidden_states(model.item_rep_matrix(params, toy_feats, h, rows),
                                params)[-1]
    ranked = r.rank("carol")
    assert sorted(it for it, _ in ranked) == ["i1", "i3", "i6"]
    items = toy_corpus.items.tolist()
    rep = model.item_rep_matrix(params, toy_feats, h)
    for it, score in ranked:
        assert score == pytest.approx(float(rep[items.index(it)] @ state),
                                      abs=1e-12)
    with pytest.raises(KeyError):
        r.rank("mallory")


def test_recurrent_ranker_empty_sequence(toy_feats):
    corpus = id_corpus(("ann", "ben"), ("i1", "i2", "i3", "i4", "i5", "i6"),
                       {"ann": ["i2", "i1"], "ben": []},
                       {"ann": ["i3"], "ben": ["i4"]})
    h = Hyper(d=2, mask=MASK_BY_KIND["vtrnn"])
    params = model.init_params(h, toy_feats, None, corpus.n_items,
                               np.random.default_rng(6))
    r = EmbedRanker("vtrnn", params, corpus, toy_feats, h)
    assert not r.user_vecs[1].any()    # ben keeps the zero state
    assert len(r.rank("ann")) == 4
    with pytest.raises(ConfigError, match="empty training sequence"):
        r.rank("ben")
    # the same guard holds for a ranker over trained user rows
    params = model.init_params(h, toy_feats, 2, corpus.n_items,
                               np.random.default_rng(6))
    r = EmbedRanker("vtbpr", params, corpus, toy_feats, h)
    assert len(r.rank("ann")) == 4
    with pytest.raises(ConfigError, match="empty training sequence"):
        r.rank("ben")


def test_content_bpr_deterministic(world):
    corpus, feats = world
    h = Hyper(d=2, mask=MASK_BY_KIND["vtbpr"])
    cfg = TrainConfig(epochs=3, seed=5)
    pa = train_content_bpr(corpus, feats, h, cfg, None)
    pb = train_content_bpr(corpus, feats, h, cfg, None)
    for a, b in zip(pa.values(), pb.values()):
        assert np.array_equal(a, b)


def test_content_bpr_divergence(world):
    corpus, feats = world
    h = Hyper(d=2, mask=MASK_BY_KIND["vtbpr"], alpha=1e150, lam_theta=0.01)
    with np.errstate(all="ignore"), pytest.raises(
            DivergenceError, match=r"non-finite parameters at epoch \d+, "
                                   r"user '\w+', block '(Gamma|X|E|V)'$"):
        train_content_bpr(corpus, feats, h, TrainConfig(epochs=8, seed=0),
                          None)


@pytest.mark.parametrize("kind", ["bpr", "vbpr", "tbpr", "vtbpr"])
def test_bpr_gradients_match_finite_differences(kind):
    h = Hyper(d=3)
    report = grad_check(kind, h, np.random.default_rng(31))
    assert max(report.values()) < 1e-5, report


def test_mf_gradients_match_finite_differences():
    report = grad_check("mf", Hyper(d=3), np.random.default_rng(32))
    assert max(report.values()) < 1e-5, report


@pytest.mark.parametrize("kind, step, block", [
    ("vtbpr", "bpr_user_grads", "E"),
    ("mf", "mf_user_grads", "X"),
])
def test_grad_check_detects_a_scaled_record(monkeypatch, kind, step, block):
    # every step's record of `block` is scaled, its objective term is not
    real = getattr(baselines, step)

    def scaled(*args):
        *head, updates = real(*args)
        return (*head, [(name, row, 1.05 * g if name == block else g)
                        for name, row, g in updates])

    monkeypatch.setattr(baselines, step, scaled)
    report = grad_check(kind, Hyper(d=2), np.random.default_rng(5))
    assert report[block] > 1e-3, report
    assert max(v for name, v in report.items() if name != block) < 1e-5, report


def moved_by(trained, start) -> dict:
    """Per block, the largest distance a row (Gamma, X) or the whole block
    (E, V) moved between two parameter sets."""
    out = {}
    for (name, a), (_, b) in zip(trained.items(), start.items()):
        diff = a - b
        out[name] = float(np.linalg.norm(diff) if name in ("E", "V")
                          else np.linalg.norm(diff, axis=1).max())
    return out


def test_clip_norm_bounds_bpr_and_mf_steps():
    """With alpha = 1 and no decay, each user visit moves its user row,
    each item row and each kernel by at most clip_norm. A zero-rate run
    draws the same samples and leaves the starting parameters."""
    rng = np.random.default_rng(8)
    feats = {"visual": rng.uniform(0.0, 0.5, (3, 2)),
             "textual": rng.uniform(-0.5, 0.5, (3, 2))}
    clip = 1e-6
    bound = clip * (1.0 + 1e-6)   # a - b loses bits next to |a| ~ 0.5
    cfg = TrainConfig(epochs=1, seed=0, clip_norm=clip)
    free = dict(alpha=1.0, lam_theta=0.0, lam_e=0.0, lam_v=0.0)
    # one BPR step: positive "b" against the only unowned item, "c"
    corpus = id_corpus(("u",), ("a", "b", "c"), {"u": ["a", "b"]})
    h = Hyper(d=2, mask=MASK_BY_KIND["vtbpr"], **free)
    start = train_content_bpr(corpus, feats, replace(h, alpha=0.0), cfg, None)
    moved = moved_by(train_content_bpr(corpus, feats, h, cfg, None), start)
    unclipped = moved_by(train_content_bpr(
        corpus, feats, h, replace(cfg, clip_norm=None), None), start)
    for name in ("Gamma", "X", "E", "V"):
        assert 0.0 < moved[name] <= bound, (name, moved)
        assert unclipped[name] > 100 * clip, (name, unclipped)
    # mf: one visit of the observations (u, "a", 1) and (u, "b", 0) moves
    # each X row and the user's row once
    corpus = id_corpus(("u",), ("a", "b"), {"u": ["a"]})
    h = Hyper(d=2, mask=MASK_BY_KIND["mf"], **free)
    feats = {name: mat[:2] for name, mat in feats.items()}
    start = train_mf(corpus, feats, replace(h, alpha=0.0), cfg, None)
    moved = moved_by(train_mf(corpus, feats, h, cfg, None), start)
    assert 0.0 < moved["X"] <= bound, moved
    assert 0.0 < moved["Gamma"] <= bound, moved
    unclipped = moved_by(train_mf(corpus, feats, h,
                                  replace(cfg, clip_norm=None), None), start)
    assert min(unclipped["X"], unclipped["Gamma"]) > 100 * clip, unclipped


def test_train_mf_mask_guard(world):
    corpus, feats = world
    h = Hyper(d=2, mask=MASK_BY_KIND["vbpr"])
    with pytest.raises(ConfigError, match="latent"):
        train_mf(corpus, feats, h, TrainConfig(epochs=1, seed=0), None)


def test_train_mf_deterministic(world):
    corpus, feats = world
    h = Hyper(d=2, mask=MASK_BY_KIND["mf"], alpha=0.01)
    cfg = TrainConfig(epochs=2, seed=9)
    pa = train_mf(corpus, feats, h, cfg, None)
    pb = train_mf(corpus, feats, h, cfg, None)
    assert np.array_equal(pa["X"], pb["X"])
    assert np.array_equal(pa["Gamma"], pb["Gamma"])


def test_bpr_kind_is_latent_only_content_bpr(world):
    corpus, feats = world
    cfg = TrainConfig(epochs=3, seed=4)
    plain = build_ranker("bpr", corpus, feats, Hyper(d=2), cfg).params
    content = train_content_bpr(
        corpus, {name: np.zeros((corpus.n_items, 0)) for name in feats},
        Hyper(d=2, mask=MASK_BY_KIND["bpr"]), cfg, None)
    assert np.array_equal(plain["Gamma"], content["Gamma"])
    assert np.array_equal(plain["X"], content["X"])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_build_ranker_every_kind(world, kind):
    corpus, feats = world
    h = Hyper(d=2)
    ranker = build_ranker(kind, corpus, feats, h, TrainConfig(epochs=1, seed=3))
    assert ranker.kind == kind
    u = corpus.users[0]
    ranked = ranker.rank(u)
    ids = [it for it, _ in ranked]
    assert sorted(ids) == corpus.items[corpus.candidate_rows(u)].tolist()
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)


def test_build_ranker_applies_kind_mask(world):
    corpus, feats = world
    h = Hyper(d=2)  # default latent-only mask, must be overridden
    r = build_ranker("vbpr", corpus, feats, h, TrainConfig(epochs=1, seed=3))
    assert r.h.mask == ("latent", "visual")
    assert r.params["E"].any()
    assert "V" not in r.params


@pytest.mark.parametrize("kind,f_v", [("vtrnn", 4), ("rnn", 4), ("mf", 4),
                                      ("bpr", 4), ("vbpr", 0)],
                         ids=["widths-from-features", "latent-only-rnn",
                              "latent-only-mf", "latent-only-bpr",
                              "no-visual-features"])
def test_build_ranker_reads_widths_from_features(world, kind, f_v):
    """The feature matrices set the kernel widths: each active slice has
    a drawn kernel of its features' width, and an inactive one, such as
    every slice of the latent-only kinds, has no kernel. An active slice
    whose features have zero width is a ConfigError that names it."""
    corpus, _ = world
    rng = np.random.default_rng(6)
    feats = {"visual": rng.uniform(0.0, 0.5, (corpus.n_items, f_v)),
             "textual": rng.uniform(-0.5, 0.5, (corpus.n_items, 3))}
    h, cfg = Hyper(d=2), TrainConfig(epochs=1, seed=3)
    if f_v == 0:
        with pytest.raises(ConfigError, match="visual slice active but its "
                                              "features are 0 wide"):
            build_ranker(kind, corpus, feats, h, cfg)
        return
    ranker = build_ranker(kind, corpus, feats, h, cfg)
    kernels = {block: a.shape for block, a in ranker.params.items()
               if block in KERNELS.values()}
    assert kernels == {KERNELS[name]: (2, feats[name].shape[1])
                       for name in MASK_BY_KIND[kind][1:]}
    assert all(ranker.params[block].any() for block in kernels)


@pytest.mark.parametrize("kind", ["vrnn", "vbpr"])
def test_trainers_refuse_zero_width_active_slice(world, kind):
    """The width check sits where every trainer sizes its kernels, so a
    trainer called directly refuses a zero-width active slice too."""
    corpus, feats = world
    feats = {**feats, "visual": np.zeros((corpus.n_items, 0))}
    h = Hyper(d=2, mask=MASK_BY_KIND[kind])
    train = trainer.train if kind == "vrnn" else train_content_bpr
    with pytest.raises(ConfigError, match="visual slice active but its "
                                          "features are 0 wide"):
        train(corpus, feats, h, TrainConfig(epochs=1, seed=0), None)


def test_build_ranker_unknown_kind(world):
    corpus, feats = world
    with pytest.raises(ConfigError, match="unknown ranker kind"):
        build_ranker("gru", corpus, feats, Hyper(d=2),
                     TrainConfig(epochs=1, seed=0))
