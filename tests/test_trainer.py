"""Two-phase sequence updates and their finite-difference verification."""

import numpy as np
import pytest

from seqrank import baselines, numkit, sgd, trainer
from seqrank.baselines import build_ranker
from seqrank.dataio import synth_corpus, SynthSpec
from seqrank.errors import ConfigError, DivergenceError
from seqrank.model import (MASK_BY_KIND, RECURRENT_KINDS, SLICE_NAMES, Hyper,
                           hidden_states, init_params, item_rep_matrix,
                           step_hidden, tanh_transitions)
from seqrank.settings import TrainConfig
from seqrank.trainer import (SeqContext, backward_gradients, backward_steps,
                             forward_updates, sequence_context, sequence_updates,
                             tiny_fixture, train)

FULL = SLICE_NAMES
# the recurrent kind of each slice mask
RECURRENT_BY_MASK = {MASK_BY_KIND[kind]: kind for kind in RECURRENT_KINDS}


def full_hyper(**kw):
    kw.setdefault("d", 3)
    kw.setdefault("mask", FULL)
    return Hyper(**kw)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0, seed=1)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, seed=1, clip_norm=0.0)


def test_train_config_reports_every_problem():
    with pytest.raises(ConfigError) as err:
        TrainConfig(epochs=0, seed=-1, clip_norm=-1)
    assert str(err.value) == ("epochs must be >= 1, got 0; seed must be >= 0, "
                              "got -1; clip_norm must be > 0, got -1")


@pytest.mark.parametrize("seed", ["7", True, 1.5])
def test_train_config_seed_must_be_an_integer(seed):
    with pytest.raises(ConfigError) as err:
        TrainConfig(epochs=1, seed=seed)
    assert str(err.value) == f"seed must be an integer, got {seed!r}"


def make_context(h, seed=6):
    """(params, corpus, feats, negatives) of the one-user fixture;
    negatives is {"u0": the negative rows of steps 2..m}."""
    rng = np.random.default_rng(seed)
    corpus, feats, negatives = tiny_fixture(rng)
    params = init_params(h, feats, None, corpus.n_items, rng)
    return params, corpus, feats, negatives


def test_sequence_context_checks_negative_count():
    h = full_hyper()
    params, corpus, feats, negatives = make_context(h)
    neg = negatives["u0"]
    for wrong in ([], neg[:-1], np.append(neg, neg[0])):
        with pytest.raises(ConfigError, match="negatives for the"):
            sequence_context(params, corpus, feats, h, "u0", wrong)


def test_context_contents():
    h = full_hyper()
    params, corpus, feats, negatives = make_context(h)
    ctx = sequence_context(params, corpus, feats, h, "u0", negatives["u0"])
    m = len(corpus.train_rows["u0"])
    assert ctx.m == m
    assert ctx.states.shape == (m + 1, h.D)
    assert not ctx.states[0].any()
    assert ctx.scores.shape == (m - 1,)   # steps t = 2..m at index t - 2
    assert np.array_equal(ctx.c, numkit.sigmoid_arr(-ctx.scores))
    # states replay the recurrence in tanh space, u = 2h - 1 from u_0 = -1
    in_t, bias, rec_t = tanh_transitions(params)
    u = np.full(h.D, -1.0)
    for t, pre in enumerate(ctx.inputs @ in_t + bias, start=1):
        u = step_hidden(u, pre, rec_t)
        assert np.array_equal(0.5 + 0.5 * u, ctx.states[t])


def test_forward_grad_pieces():
    h = full_hyper()
    params, corpus, feats, negatives = make_context(h)
    ctx = sequence_context(params, corpus, feats, h, "u0", negatives["u0"])
    sl = h.slices
    pos, neg = corpus.train_rows["u0"][1:], negatives["u0"]
    assert np.array_equal(ctx.c, numkit.sigmoid_arr(-ctx.scores))
    assert ctx.pair_rows.dtype == np.intp
    assert sorted(ctx.forward_grads) == ["E", "V"]
    for k in range(ctx.m - 1):   # step t = k + 2
        gx = ctx.c[k] * ctx.states[k + 1][sl["latent"]]
        assert np.array_equal(ctx.pair_rows[k], [pos[k], neg[k]])
        assert np.array_equal(ctx.pair_grads[k], [gx, -gx])
    # each kernel's sum over the steps, one matmul, against the sum of the
    # steps' outer products
    for name, block in (("visual", "E"), ("textual", "V")):
        want = sum(ctx.c[k] * np.outer(ctx.states[k + 1][sl[name]],
                                       feats[name][pos[k]] - feats[name][neg[k]])
                   for k in range(ctx.m - 1))
        got = ctx.forward_grads[block]
        assert got.shape == (h.d, feats[name].shape[1])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def test_forward_updates_touch_only_their_blocks():
    h = full_hyper(alpha=0.2, lam_theta=0.01)
    params, corpus, feats, negatives = make_context(h)
    ctx = sequence_context(params, corpus, feats, h, "u0", negatives["u0"])
    k = 0   # step t = 2
    before = {n: b.copy() for n, b in params.items()}
    sgd.apply(params, forward_updates(ctx, k), h.alpha, h.decay)
    ip, iq = corpus.train_rows["u0"][k + 1], negatives["u0"][k]
    a, lam = h.alpha, h.lam_theta
    c, h_x = ctx.c[k], ctx.states[k + 1][h.slices["latent"]]
    assert np.array_equal(params["X"][ip],
                          before["X"][ip] + a * (c * h_x - lam * before["X"][ip]))
    assert np.array_equal(params["X"][iq],
                          before["X"][iq] + a * (-(c * h_x) - lam * before["X"][iq]))
    untouched = [j for j in range(corpus.n_items) if j not in (ip, iq)]
    assert np.array_equal(params["X"][untouched], before["X"][untouched])
    # a pair's records are its latent rows only: the kernels' forward sums
    # are the sequence's records, the transitions the backward phase's
    for name in ("InMat", "RecMat", "E", "V"):
        assert np.array_equal(params[name], before[name]), name


def test_backward_last_layer_gate():
    h = full_hyper()
    params, corpus, feats, negatives = make_context(h)
    ctx = sequence_context(params, corpus, feats, h, "u0", negatives["u0"])
    e = backward_steps(ctx, params)
    assert e.shape == (ctx.m - 1, h.D)  # layer t in row t - 1
    t = ctx.m - 1  # last layer, fed only by the final pair (step t + 1)
    hvec = ctx.states[t]
    diff = ctx.inputs[t] - ctx.neg_inputs[t - 1]
    gate = diff * hvec * (1.0 - hvec)
    assert np.allclose(e[t - 1], ctx.c[t - 1] * gate, atol=1e-15)


def test_backward_short_sequence_has_no_updates():
    h = full_hyper()
    params, corpus, feats, _ = make_context(h)
    rows = np.array([0])
    inputs = item_rep_matrix(params, feats, h, rows)
    none = np.zeros((0, h.D))
    ctx = SeqContext(rows, np.zeros((0, 2), dtype=np.intp),
                     np.zeros((0, 2, h.d)), inputs, none,
                     hidden_states(inputs, params), np.zeros(0), np.zeros(0), {})
    before = {n: b.copy() for n, b in params.items()}
    updates = backward_gradients(ctx, params, feats, h)
    assert updates == []
    sgd.apply(params, updates, h.alpha, h.decay)
    for a, b in zip(params.values(), before.values()):
        assert np.array_equal(a, b)


def test_sequence_gradients_keys_follow_mask():
    h = Hyper(d=3, mask=("latent",))
    params, corpus, feats, negatives = make_context(h)
    ctx = sequence_context(params, corpus, feats, h, "u0", negatives["u0"])
    grads = sgd.gradient(params, sequence_updates(ctx, params, feats, h))
    assert sorted(grads) == ["InMat", "RecMat", "X"]


@pytest.mark.parametrize("mask", list(RECURRENT_BY_MASK))
def test_gradients_match_finite_differences(mask):
    h = Hyper(d=3)
    report = baselines.grad_check(RECURRENT_BY_MASK[mask], h,
                                  np.random.default_rng(77))
    assert max(report.values()) < 1e-5, report


def test_grad_check_detects_broken_gradient(monkeypatch):
    # the step's first record, the positive latent row of its first pair,
    # is scaled; its objective term is not
    real = trainer.sequence_updates

    def scaled(*args):
        (name, row, g), *rest = real(*args)
        return [(name, row, 1.05 * g), *rest]

    monkeypatch.setattr(trainer, "sequence_updates", scaled)
    report = baselines.grad_check("vtrnn", full_hyper(),
                                  np.random.default_rng(77))
    assert report["X"] > 1e-3, report
    assert max(v for name, v in report.items() if name != "X") < 1e-5, report


SPEC = SynthSpec(users=6, items=24, clusters=3, seq_len=6,
                 f_dim_visual=2, f_dim_textual=2, noise_sigma=0.3, seed=21)


def small_world():
    return synth_corpus(SPEC, np.random.default_rng(21))


def test_train_deterministic():
    corpus, feats = small_world()
    h = full_hyper(d=2)
    cfg = TrainConfig(epochs=3, seed=13)
    pa = train(corpus, feats, h, cfg, None)
    pb = train(corpus, feats, h, cfg, None)
    for a, b in zip(pa.values(), pb.values()):
        assert np.array_equal(a, b)


# the three trainers that share `sgd.run_epochs`, each run through
# build_ranker; the logged objective is mean ln sigma for the pairwise ones
# and mean squared error for mf
DRIVER_KINDS = {"vtrnn": -1.0, "vtbpr": -1.0, "mf": 1.0}


def fit(kind, corpus, feats, cfg, log=None, **hyper):
    h = full_hyper(d=2, **hyper)
    return build_ranker(kind, corpus, feats, h, cfg, log=log).params


def test_train_shuffle_changes_order_not_determinism():
    corpus, feats = small_world()
    shuffled = TrainConfig(epochs=3, seed=13, shuffle_users=True)
    for kind in DRIVER_KINDS:
        pa = fit(kind, corpus, feats, shuffled)
        pb = fit(kind, corpus, feats, shuffled)
        assert np.array_equal(pa["X"], pb["X"]), kind
        plain = fit(kind, corpus, feats, TrainConfig(epochs=3, seed=13))
        assert not np.array_equal(pa["X"], plain["X"]), kind


def test_train_log_format():
    corpus, feats = small_world()
    for kind, sign in DRIVER_KINDS.items():
        lines = []
        fit(kind, corpus, feats, TrainConfig(epochs=2, seed=1), log=lines.append)
        assert len(lines) == 2, kind
        for n, line in enumerate(lines, start=1):
            epoch, mean, norm = line.split("\t")
            assert int(epoch) == n, kind
            assert sign * float(mean) > 0.0, kind
            assert float(norm) > 0.0, kind


def test_train_divergence_raises():
    corpus, feats = small_world()
    for kind in DRIVER_KINDS:
        with np.errstate(all="ignore"), pytest.raises(
                DivergenceError, match=r"non-finite parameters at epoch \d+, "
                                       r"user '\w+', block '\w+'$") as exc:
            fit(kind, corpus, feats, TrainConfig(epochs=6, seed=0),
                alpha=1e150, lam_theta=0.01)
        # the named block is one of the kind's
        block = str(exc.value).split("'")[-2]
        blocks = fit(kind, corpus, feats, TrainConfig(epochs=1, seed=0))
        assert block in blocks, (kind, str(exc.value))


def test_clip_norm_bounds_forward_step():
    h = full_hyper(alpha=1.0, lam_theta=0.0)
    params, corpus, feats, negatives = make_context(h)
    ctx = sequence_context(params, corpus, feats, h, "u0", negatives["u0"])
    ip = corpus.train_rows["u0"][1]
    # a zero row takes the clipped step exactly (alpha 1, no decay), so the
    # difference below carries no rounding from the addition
    params["X"][ip] = 0.0
    before = {n: b.copy() for n, b in params.items()}
    clip = 1e-6
    sgd.apply(params, forward_updates(ctx, 0), h.alpha, h.decay,
              clip)
    moved = float(np.linalg.norm(params["X"][ip] - before["X"][ip]))
    assert moved <= clip * (1.0 + 1e-12)
