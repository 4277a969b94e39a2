"""One update list per step: training applies it with `sgd.apply` and the
gradient check sums it with `sgd.gradient`, so with no decay and no
clipping a step moves the parameters by alpha times the checked
gradient. With decay, each block, and each distinct row of a block,
decays by its own regularizer once per step, and a recurrent sequence's
records, like an mf or BPR user visit's, go to one `sgd.apply` call. A
visit's records sum to the gradients of its pairs or observations taken
one at a time. Training and the gradient check run each family's one
step, and a divergence names the first non-finite block."""

import numpy as np
import pytest

from id_corpus import id_corpus
from seqrank import baselines, dataio, numkit, sgd, trainer
from seqrank.baselines import (bpr_user_grads, mf_user_grads,
                               train_content_bpr, train_mf)
from seqrank.dataio import SynthSpec, sample_triples, synth_corpus
from seqrank.errors import DivergenceError
from seqrank.model import (KERNELS, MASK_BY_KIND, Hyper, init_params,
                           item_rep_matrix)
from seqrank.settings import TrainConfig
from seqrank.trainer import (sequence_context, sequence_updates, tiny_fixture,
                             train)

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
    negs = sample_triples(corpus, "u0", len(corpus.train_rows["u0"]) - 1,
                         np.random.default_rng([SEED, 1]))
    trained = train(corpus, feats, h, CFG, None)
    ctx = sequence_context(start, corpus, feats, h, "u0", negs)
    grads = sgd.gradient(start, sequence_updates(ctx, start, feats, h))
    assert sorted(grads) == ["E", "InMat", "RecMat", "V", "X"]
    assert_moved_by(trained, start, h.alpha, grads)


def test_recurrent_step_is_alpha_times_the_checked_gradient():
    # lam 0, no clip: the step's one ascent per block and distinct row is
    # exactly alpha times what the gradient check differentiates, every
    # bit, repeated latent rows included
    h = Hyper(d=3, mask=MASK_BY_KIND["vtrnn"], **FREE)
    corpus, feats, _ = tiny_fixture(np.random.default_rng(4))
    start = init_params(h, feats, None, corpus.n_items, start_rng())
    negs = sample_triples(corpus, "u0", len(corpus.train_rows["u0"]) - 1,
                         np.random.default_rng([SEED, 1]))
    trained = train(corpus, feats, h, CFG, None)
    ctx = sequence_context(start, corpus, feats, h, "u0", negs)
    grads = sgd.gradient(start, sequence_updates(ctx, start, feats, h))
    assert sorted(grads) == sorted(trained)
    for name, block in trained.items():
        assert np.array_equal(block, start[name] + h.alpha * grads[name]), name


def one_triple_world():
    """The only triple: user "u", positive "b", the one unowned item "c"."""
    corpus = id_corpus(("u",), ("a", "b", "c"), {"u": ["a", "b"]})
    rng = np.random.default_rng(8)
    feats = {"visual": rng.uniform(0.0, 0.5, (3, 2)),
             "textual": rng.uniform(-0.5, 0.5, (3, 2))}
    return corpus, feats


def repeat_negative_world():
    """User "u" trains on "a", "b", "c"; "d", the one unowned item, is the
    negative of every pair and observation, so a visit repeats its row.
    Returns (corpus, feats, the visit's positives, negatives)."""
    corpus = id_corpus(("u",), ("a", "b", "c", "d"), {"u": ["a", "b", "c"]})
    rng = np.random.default_rng(8)
    feats = {"visual": rng.uniform(0.0, 0.5, (4, 2)),
             "textual": rng.uniform(-0.5, 0.5, (4, 3))}
    return corpus, feats, np.arange(3), np.full(3, 3)


def test_bpr_triple_moves_by_its_summed_records():
    corpus, feats = one_triple_world()
    h = Hyper(d=2, mask=MASK_BY_KIND["vtbpr"], **FREE)
    start = init_params(h, feats, 1, 3, start_rng())
    trained = train_content_bpr(corpus, feats, h, CFG, None)
    grads = sgd.gradient(start, bpr_user_grads(start, feats, h, 0, np.array([1]),
                                               np.array([2]))[1])
    assert sorted(grads) == ["E", "Gamma", "V", "X"]
    assert_moved_by(trained, start, h.alpha, grads)


def mf_visit(pos, neg):
    """(rows, targets) of an mf visit: each positive at target 1, then
    each negative at target 0."""
    return np.concatenate([pos, neg]), np.repeat([1.0, 0.0], len(pos))


def test_mf_observation_moves_by_its_summed_records():
    # one visit: the user's three observations and three of "d"
    corpus, feats, pos, neg = repeat_negative_world()
    h = Hyper(d=2, mask=MASK_BY_KIND["mf"], **FREE)
    start = init_params(h, feats, 1, 4, start_rng())
    trained = train_mf(corpus, feats, h, CFG, None)
    grads = sgd.gradient(start, mf_user_grads(start, 0, *mf_visit(pos, neg))[-1])
    assert sorted(grads) == ["Gamma", "X"]
    assert_moved_by(trained, start, h.alpha, grads)


# ---------------------------------------------------------------------------
# a visit's records against its pairs' and observations' one by one, at
# fixed parameters, over a sequence whose positives repeat

def test_visit_gradient_is_the_sum_of_its_pairs_and_observations():
    corpus = id_corpus(("u",), tuple("abcdef"), {"u": list("abacb")})
    rng = np.random.default_rng(3)
    feats = {"visual": rng.uniform(0.0, 0.5, (6, 2)),
             "textual": rng.uniform(-0.5, 0.5, (6, 3))}
    seq = corpus.train_rows["u"]
    neg = sample_triples(corpus, "u", len(seq) - 1, rng)
    h = Hyper(d=2, mask=MASK_BY_KIND["vtbpr"])
    params = init_params(h, feats, 1, 6, rng)
    sl, gamma = h.slices, params["Gamma"][0]
    rep = item_rep_matrix(params, feats, h)
    want = {name: np.zeros_like(b) for name, b in params.items()}
    terms = []
    for ip, iq in zip(seq[1:], neg):
        x = float(gamma @ (rep[ip] - rep[iq]))
        c = 1.0 / (1.0 + np.exp(x))
        terms.append(numkit.log_sigmoid(x))
        want["Gamma"][0] += c * (rep[ip] - rep[iq])
        want["X"][ip] += c * gamma[sl["latent"]]
        want["X"][iq] -= c * gamma[sl["latent"]]
        for name in h.mask[1:]:
            want[KERNELS[name]] += c * np.outer(
                gamma[sl[name]], feats[name][ip] - feats[name][iq])
    xhat, updates = bpr_user_grads(params, feats, h, 0, seq[1:], neg)
    assert abs(float(np.sum(numkit.log_sigmoid(xhat))) - sum(terms)) <= 1e-12
    assert_close(sgd.gradient(params, updates), want)

    h = Hyper(d=2, mask=MASK_BY_KIND["mf"])
    params = init_params(h, feats, 1, 6, rng)
    gamma = params["Gamma"][0]
    rows, targets = mf_visit(seq, rng.choice([3, 4, 5], size=len(seq)))
    want = {name: np.zeros_like(b) for name, b in params.items()}
    for i, t in zip(rows, targets):
        err = t - float(gamma @ params["X"][i])
        want["Gamma"][0] += err * params["X"][i]
        want["X"][i] += err * gamma
    assert_close(sgd.gradient(params, mf_user_grads(params, 0, rows, targets)[-1]),
                 want)


def assert_close(got, want):
    assert sorted(got) == sorted(want)
    for name, g in want.items():
        assert np.abs(g).max() > 0.0, name
        assert np.abs(got[name] - g).max() <= 1e-12, name


# ---------------------------------------------------------------------------
# decay per block: three distinct regularizers, no clipping

DECAY = dict(alpha=0.5, lam_theta=0.01, lam_e=0.03, lam_v=0.07)


def naive_step(params, records, h):
    """A copy of params after one step: the records' g, a row record's
    row by row, summed per whole block or per row in list order,
    then theta += alpha * (sum - lam * theta) once per block or distinct
    row, lam chosen by block name here, not by `Hyper.decay`."""
    lam = {"X": h.lam_theta, "Gamma": h.lam_theta, "InMat": h.lam_theta,
           "RecMat": h.lam_theta, "E": h.lam_e, "V": h.lam_v}
    sums = {}
    for name, rows, g in records:
        for r, gr in [(None, g)] if rows is None else zip(rows, g):
            key = (name, None if r is None else int(r))
            sums[key] = sums[key] + gr if key in sums else gr
    out = {name: b.copy() for name, b in params.items()}
    for (name, r), g in sums.items():
        theta = out[name] if r is None else out[name][r]
        theta += h.alpha * (g - lam[name] * theta)
    return out


def assert_same(a, b):
    for (name, x), (_, y) in zip(a.items(), b.items()):
        assert np.array_equal(x, y), name


def test_recurrent_sequence_decays_each_block_by_its_regularizer():
    h = Hyper(d=3, mask=MASK_BY_KIND["vtrnn"], **DECAY)
    corpus, feats, _ = tiny_fixture(np.random.default_rng(4))
    start = init_params(h, feats, None, corpus.n_items, start_rng())
    negs = sample_triples(corpus, "u0", len(corpus.train_rows["u0"]) - 1,
                         np.random.default_rng([SEED, 1]))
    ctx = sequence_context(start, corpus, feats, h, "u0", negs)
    records = sequence_updates(ctx, start, feats, h)
    # the step repeats latent rows, across pairs and across the phases
    rows = np.hstack([row for name, row, _ in records if name == "X"])
    assert len(rows) > len(set(rows.tolist()))
    assert_same(train(corpus, feats, h, CFG, None),
                naive_step(start, records, h))


def test_bpr_triple_decays_each_block_by_its_regularizer():
    # one visit of two triples that share the negative "d": each block,
    # and each distinct row, decays once
    corpus, feats, pos, neg = repeat_negative_world()
    h = Hyper(d=2, mask=MASK_BY_KIND["vtbpr"], **DECAY)
    start = init_params(h, feats, 1, 4, start_rng())
    records = bpr_user_grads(start, feats, h, 0, pos[1:], neg[1:])[1]
    assert [len(row) for name, row, _ in records if name == "X"] == [3]
    assert_same(train_content_bpr(corpus, feats, h, CFG, None),
                naive_step(start, records, h))


def test_mf_observation_decays_each_block_by_its_regularizer():
    corpus, feats, pos, neg = repeat_negative_world()
    h = Hyper(d=2, mask=MASK_BY_KIND["mf"], **DECAY)
    start = init_params(h, feats, 1, 4, start_rng())
    records = mf_user_grads(start, 0, *mf_visit(pos, neg))[-1]
    assert [len(row) for name, row, _ in records if name == "X"] == [4]
    assert_same(train_mf(corpus, feats, h, CFG, None),
                naive_step(start, records, h))


# ---------------------------------------------------------------------------
# call structure: one apply per recurrent sequence and per mf or BPR user
# visit, and one sample_negative call per sampled negative

def count_calls(monkeypatch, calls, module, name):
    """Count calls of module.name in calls[name]."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def uneven_world():
    """Users of 4, 1 and 3 training items: the 1-item user is not
    visited."""
    corpus = id_corpus(("a", "b", "c"), tuple("pqrstuv"),
                       {"a": list("pqrs"), "b": ["r"], "c": list("qst")})
    rng = np.random.default_rng(4)
    feats = {"visual": rng.uniform(0.0, 0.5, (7, 2)),
             "textual": rng.uniform(-0.5, 0.5, (7, 3))}
    return corpus, feats


def test_train_applies_once_per_sequence(monkeypatch):
    calls = {"apply": 0, "forward_updates": 0, "sample_negative": 0}
    count_calls(monkeypatch, calls, sgd, "apply")
    count_calls(monkeypatch, calls, trainer, "forward_updates")
    count_calls(monkeypatch, calls, dataio, "sample_negative")
    corpus, feats = uneven_world()
    lengths = [len(corpus.train_rows[u]) for u in corpus.users]
    sequences = sum(m >= 2 for m in lengths)
    # one negative per pair, m - 1 of them per sequence
    pairs = sum(m - 1 for m in lengths if m >= 2)
    epochs = 3
    for kind in ("rnn", "vtrnn"):
        calls.update(dict.fromkeys(calls, 0))
        h = Hyper(d=2, mask=MASK_BY_KIND[kind])
        train(corpus, feats, h, TrainConfig(epochs=epochs, seed=SEED), None)
        assert calls == {"apply": epochs * sequences,
                         "forward_updates": epochs * pairs,
                         "sample_negative": epochs * pairs}, kind


@pytest.mark.parametrize("kind", ["mf", "bpr", "vtbpr"])
def test_mf_and_bpr_apply_once_per_visit(monkeypatch, kind):
    corpus, feats = synth_corpus(
        SynthSpec(users=5, items=30, clusters=3, seq_len=6, f_dim_visual=2,
                  f_dim_textual=2, noise_sigma=0.3, seed=2),
        np.random.default_rng(2))
    calls = {"apply": 0, "sample_negative": 0}
    count_calls(monkeypatch, calls, sgd, "apply")
    count_calls(monkeypatch, calls, dataio, "sample_negative")
    epochs = 2
    baselines.build_ranker(kind, corpus, feats, Hyper(d=2),
                           TrainConfig(epochs=epochs, seed=SEED))
    lengths = [len(corpus.train_rows[u]) for u in corpus.users]
    # mf draws a negative per interaction, BPR one per step t >= 2
    short = 1 if kind == "mf" else 2
    visits = sum(m >= short for m in lengths)
    negatives = sum(m - (short - 1) for m in lengths if m >= short)
    assert visits and negatives > visits
    assert calls == {"apply": epochs * visits,
                     "sample_negative": epochs * negatives}


# each family's step, which training and the gradient check both run:
# (kind, module, name, whether module.name makes the step)
STEPS = [("vtrnn", trainer, "sequence_step", True),
         ("vtbpr", baselines, "bpr_step", True),
         ("mf", baselines, "mf_user_grads", False)]


@pytest.mark.parametrize("kind,module,name,factory", STEPS,
                         ids=[name for _, _, name, _ in STEPS])
def test_training_and_grad_check_run_the_family_step(monkeypatch, kind,
                                                     module, name, factory):
    users = []   # the user, or mf's user row, of each step call
    real = getattr(module, name)

    def count(step):
        def counted(params, user, *rest):
            users.append(user)
            return step(params, user, *rest)
        return counted
    monkeypatch.setattr(module, name,
                        (lambda *a: count(real(*a))) if factory else count(real))
    corpus, feats = uneven_world()
    epochs = 2
    baselines.build_ranker(kind, corpus, feats, Hyper(d=2),
                           TrainConfig(epochs=epochs, seed=SEED))
    lead = 0 if kind == "mf" else 1
    visited = [corpus.user_index[u] if kind == "mf" else u
               for u in corpus.users if len(corpus.train_rows[u]) > lead]
    assert users == visited * epochs
    users.clear()
    baselines.grad_check(kind, Hyper(d=2), np.random.default_rng(0))
    assert users and set(users) == ({0, 1} if kind == "mf" else {"u0"})


def test_divergence_names_the_first_non_finite_block():
    corpus = id_corpus(("u", "w"), ("a", "b", "c"),
                       {"u": ["a", "b"], "w": ["b", "a"]})
    feats = {"visual": np.ones((3, 1)), "textual": np.ones((3, 1))}

    def step(params, u, negatives):
        # user w's step overflows E and V; X stays finite
        bad = np.inf if u == "w" else 1.0
        return 0.0, 1, [("X", None, np.ones_like(params["X"])),
                        ("E", None, np.full_like(params["E"], bad)),
                        ("V", None, np.full_like(params["V"], bad))]

    h = Hyper(d=1, mask=MASK_BY_KIND["vtrnn"], alpha=0.5, lam_theta=0.0,
              lam_e=0.0, lam_v=0.0)
    with pytest.raises(DivergenceError) as exc:
        sgd.run_epochs(corpus, feats, h, TrainConfig(epochs=2, seed=0), step,
                       None, n_users=None, lead=1)
    assert str(exc.value) == ("non-finite parameters at epoch 1, user 'w', "
                              "block 'E'")


# ---------------------------------------------------------------------------
# the record form: rows None or a 1-D intp array, g shaped to match

def grad_check_steps(monkeypatch, kind):
    """(params, [update records of each step]) of `kind`'s steps on the
    fixture that `baselines.grad_check` builds for it, at its seed
    stream."""
    seen = {}

    def capture(params, step, visits):
        seen["params"] = params
        seen["steps"] = [step(params, *visit)[-1] for visit in visits]
        return {}
    monkeypatch.setattr(sgd, "grad_check", capture)
    baselines.grad_check(kind, Hyper(d=2), np.random.default_rng(
        [SEED, baselines.GRAD_CHECK_STREAMS[kind]]))
    return seen["params"], seen["steps"]


@pytest.mark.parametrize("kind", baselines.GRAD_CHECK_STREAMS)
def test_records_are_whole_blocks_or_row_arrays(monkeypatch, kind):
    # the fixtures repeat no row within a record: the recurrent one's
    # sequence holds distinct items, and the visits' item records sum
    # repeats onto distinct rows
    params, steps = grad_check_steps(monkeypatch, kind)
    records = [r for updates in steps for r in updates]
    assert records
    for name, rows, g in records:
        block = params[name]
        if rows is None:
            assert g.shape == block.shape, name
            continue
        assert type(rows) is np.ndarray and rows.dtype == np.intp, name
        assert rows.ndim == 1 and len(set(rows.tolist())) == len(rows), name
        assert g.shape == (len(rows),) + block.shape[1:], name


@pytest.mark.parametrize("kind", ["mf", "vtbpr"])
def test_clipped_visit_moves_its_user_row_as_ascend_does(monkeypatch, kind):
    # the first visit's records, clipped at half its user row's norm
    params, (records, *_) = grad_check_steps(monkeypatch, kind)
    (rows, g), = [(rows, g) for name, rows, g in records if name == "Gamma"]
    clip = 0.5 * float(np.linalg.norm(g[0]))
    h = Hyper(d=2, **DECAY)
    got = {name: b.copy() for name, b in params.items()}
    sgd.apply(got, records, h.alpha, h.decay, clip)
    want = params["Gamma"].copy()
    sgd.ascend(want[rows[0]], g[0], h.alpha, h.lam_theta, clip)
    assert got["Gamma"].tobytes() == want.tobytes()
