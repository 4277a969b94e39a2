"""One update list per step: training applies it with `sgd.apply` and the
gradient check sums it with `sgd.gradient`, so with no decay and no
clipping a step moves the parameters by alpha times the checked
gradient. With decay, each block decays by its own regularizer, and a
recurrent sequence's records go to one `sgd.apply` call. A divergence
names the first non-finite block."""

import numpy as np
import pytest

from id_corpus import id_corpus
from seqrank import sgd, trainer
from seqrank.baselines import bpr_pair_grads, mf_obs_grads, train_content_bpr
from seqrank.dataio import sample_triples
from seqrank.errors import DivergenceError
from seqrank.model import MASK_BY_KIND, Hyper, init_params
from seqrank.trainer import (TrainConfig, sequence_context, sequence_updates,
                             tiny_fixture, train)

FREE = dict(alpha=0.5, lam_theta=0.0, lam_e=0.0, lam_v=0.0)
SEED = 9
CFG = TrainConfig(epochs=1, seed=SEED)


def start_rng():
    """The stream `sgd.run_epochs` draws a run's starting parameters from;
    its training draws come from [SEED, 1]."""
    return np.random.default_rng([SEED, 0])


def assert_moved_by(after, before, alpha, grads):
    """Each block moved by alpha * grads[block] to a relative 1e-12 of
    the step; blocks without a gradient did not move."""
    for name, block in after.items():
        moved = block - before[name]
        if name not in grads:
            assert not moved.any(), name
            continue
        step = alpha * grads[name]
        assert np.abs(step).max() > 0.0, name
        assert np.abs(moved - step).max() <= 1e-12 * np.abs(step).max(), name


def test_recurrent_sequence_moves_by_sequence_gradients():
    h = Hyper(d=3, mask=MASK_BY_KIND["vtrnn"], **FREE)
    corpus, feats, _ = tiny_fixture(np.random.default_rng(4))
    start = init_params(h, feats, None, corpus.n_items, start_rng())
    negs = sample_triples(corpus, "u0", np.random.default_rng([SEED, 1]))
    trained = train(corpus, feats, h, CFG, None)
    ctx = sequence_context(start, corpus, feats, h, "u0", negs)
    grads = sgd.gradient(start, sequence_updates(ctx, start, feats, h))
    assert sorted(grads) == ["E", "InMat", "RecMat", "V", "X"]
    assert_moved_by(trained, start, h.alpha, grads)


def one_triple_world():
    """The only triple: user "u", positive "b", the one unowned item "c"."""
    corpus = id_corpus(("u",), ("a", "b", "c"), {"u": ["a", "b"]})
    rng = np.random.default_rng(8)
    feats = {"visual": rng.uniform(0.0, 0.5, (3, 2)),
             "textual": rng.uniform(-0.5, 0.5, (3, 2))}
    return corpus, feats


def test_bpr_triple_moves_by_its_summed_records():
    corpus, feats = one_triple_world()
    h = Hyper(d=2, mask=MASK_BY_KIND["vtbpr"], **FREE)
    start = init_params(h, feats, 1, 3, start_rng())
    trained = train_content_bpr(corpus, feats, h, CFG, None)
    grads = sgd.gradient(start, bpr_pair_grads(start, feats, h, 0, 1, 2)[1])
    assert sorted(grads) == ["E", "Gamma", "V", "X"]
    assert_moved_by(trained, start, h.alpha, grads)


def test_mf_observation_moves_by_its_summed_records():
    # one step; training pairs every interaction with a sampled negative,
    # two observations on the same user row, so this is not a whole visit
    h = Hyper(d=2, mask=MASK_BY_KIND["mf"], **FREE)
    _, feats = one_triple_world()  # 3 items; mf reads no features
    params = init_params(h, feats, 2, 3, start_rng())
    before = {n: b.copy() for n, b in params.items()}
    _, updates = mf_obs_grads(params, 1, 2, 1.0)
    sgd.apply(params, updates, h.alpha, h.decay)
    assert_moved_by(params, before, h.alpha, sgd.gradient(before, updates))


# ---------------------------------------------------------------------------
# decay per block: three distinct regularizers, no clipping

DECAY = dict(alpha=0.5, lam_theta=0.01, lam_e=0.03, lam_v=0.07)


def naive_step(params, records, h):
    """A copy of params after theta += alpha * (g - lam * theta) for each
    record in order, lam chosen by block name here, not by `Hyper.decay`."""
    lam = {"X": h.lam_theta, "Gamma": h.lam_theta, "InMat": h.lam_theta,
           "RecMat": h.lam_theta, "E": h.lam_e, "V": h.lam_v}
    out = {name: b.copy() for name, b in params.items()}
    for name, row, g in records:
        theta = out[name] if row is None else out[name][row]
        theta += h.alpha * (g - lam[name] * theta)
    return out


def assert_same(a, b):
    for (name, x), (_, y) in zip(a.items(), b.items()):
        assert np.array_equal(x, y), name


def test_recurrent_sequence_decays_each_block_by_its_regularizer():
    h = Hyper(d=3, mask=MASK_BY_KIND["vtrnn"], **DECAY)
    corpus, feats, _ = tiny_fixture(np.random.default_rng(4))
    start = init_params(h, feats, None, corpus.n_items, start_rng())
    negs = sample_triples(corpus, "u0", np.random.default_rng([SEED, 1]))
    ctx = sequence_context(start, corpus, feats, h, "u0", negs)
    records = sequence_updates(ctx, start, feats, h)
    assert_same(train(corpus, feats, h, CFG, None),
                naive_step(start, records, h))


def test_bpr_triple_decays_each_block_by_its_regularizer():
    corpus, feats = one_triple_world()
    h = Hyper(d=2, mask=MASK_BY_KIND["vtbpr"], **DECAY)
    start = init_params(h, feats, 1, 3, start_rng())
    records = bpr_pair_grads(start, feats, h, 0, 1, 2)[1]
    assert_same(train_content_bpr(corpus, feats, h, CFG, None),
                naive_step(start, records, h))


def test_mf_observation_decays_each_block_by_its_regularizer():
    h = Hyper(d=2, mask=MASK_BY_KIND["mf"], **DECAY)
    _, feats = one_triple_world()  # 3 items; mf reads no features
    params = init_params(h, feats, 2, 3, start_rng())
    _, records = mf_obs_grads(params, 1, 2, 1.0)
    want = naive_step(params, records, h)
    sgd.apply(params, records, h.alpha, h.decay)
    assert_same(params, want)


# ---------------------------------------------------------------------------
# call structure: one apply per recurrent sequence

def test_train_applies_once_per_sequence(monkeypatch):
    calls = {"apply": 0, "forward_updates": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(sgd, "apply")
    counted(trainer, "forward_updates")
    h = Hyper(d=2, mask=MASK_BY_KIND["vtrnn"])
    corpus, feats, _ = tiny_fixture(np.random.default_rng(4))
    epochs = 3
    train(corpus, feats, h, TrainConfig(epochs=epochs, seed=SEED), None)
    pairs = len(corpus.train_rows["u0"]) - 1
    assert calls == {"apply": epochs, "forward_updates": epochs * pairs}


def test_divergence_names_the_first_non_finite_block():
    corpus = id_corpus(("u", "w"), ("a", "b"),
                       {"u": ["a", "b"], "w": ["b", "a"]})

    def init(rng):
        return {"X": np.zeros(2), "E": np.zeros(2), "V": np.zeros(2)}

    def visit(params, u, rng):
        # user w's step overflows E and V; X stays finite
        g = np.full(2, np.inf if u == "w" else 1.0)
        yield 0.0, 1, [("X", None, np.ones(2)), ("E", None, g), ("V", None, g)]

    h = Hyper(d=1, alpha=0.5, lam_theta=0.0, lam_e=0.0, lam_v=0.0)
    with pytest.raises(DivergenceError) as exc:
        sgd.run_epochs(corpus, TrainConfig(epochs=2, seed=0), h, init, visit,
                       None)
    assert str(exc.value) == ("non-finite parameters at epoch 1, user 'w', "
                              "block 'E'")
