"""Item representation slices, the recurrent step, and candidate ordering."""

import numpy as np
import pytest

from seqrank.errors import ConfigError
from seqrank.dataio import RANGES
from seqrank.model import (ALL_KINDS, KERNELS, MASK_BY_KIND, RECURRENT_KINDS,
                           SLICE_NAMES, Hyper, init_params,
                           final_states, hidden_states, item_rep_matrix,
                           order_candidates, score_pair, step_hidden,
                           tanh_transitions)


def test_hyper_mask_is_a_kind_tuple():
    for kind, mask in MASK_BY_KIND.items():
        h = Hyper(d=2, mask=mask)
        assert h.mask == mask and h.D == 2 * len(mask), kind
        assert list(h.slices) == list(mask)


def test_hyper_rejects_a_mask_of_no_kind():
    for mask in ((), ("visual",), ("latent", "textual", "visual"),
                 ["latent"]):
        with pytest.raises(ConfigError, match="not a kind's slice tuple"):
            Hyper(d=2, mask=mask)


def test_mask_slices_offsets():
    h = Hyper(d=4, mask=("latent", "textual"))
    assert h.slices == {"latent": slice(0, 4), "textual": slice(4, 8)}
    assert h.D == 8


def test_kind_tables_consistent():
    assert set(RECURRENT_KINDS) < set(MASK_BY_KIND)
    assert set(MASK_BY_KIND) | {"random", "pop"} == set(ALL_KINDS)
    # the latent slice is always on, and slices follow SLICE_NAMES order:
    # the model, trainer and BPR code read the latent slice unconditionally
    for mask in MASK_BY_KIND.values():
        assert mask[0] == "latent"
        assert mask == tuple(n for n in SLICE_NAMES if n in mask)
    # every content slice has a kernel and a feature range
    assert list(KERNELS) == list(RANGES) == list(SLICE_NAMES[1:])


def test_hyper_validation_aggregates():
    with pytest.raises(ConfigError) as err:
        Hyper(d=0, alpha=-0.5, init_lo=1.0, init_hi=0.0)
    msg = str(err.value)
    assert "d must" in msg and "alpha" in msg and "init range" in msg


def test_hyper_dims():
    h = Hyper(d=3, mask=("latent", "visual"))
    assert h.D == 6
    assert Hyper(d=3).D == 3
    assert h.slices == {"latent": slice(0, 3), "visual": slice(3, 6)}


def test_init_params_bounds_and_inactive_blocks():
    h = Hyper(d=4, mask=("latent", "visual"))
    feats = {"visual": np.zeros((7, 3)), "textual": np.zeros((7, 2))}
    p = init_params(h, feats, None, 7, np.random.default_rng(0))
    # the textual slice is inactive, so there is no V kernel
    assert {name: a.shape for name, a in p.items()} == {
        "X": (7, 4), "E": (4, 3), "InMat": (8, 8), "RecMat": (8, 8)}
    for a in p.values():
        assert a.min() >= -0.5 and a.max() <= 0.5


def test_init_mean_near_zero():
    # 4 sigma CLT bound for 1e5 uniform(-.5,.5) draws: .2887/sqrt(1e5)*4
    h = Hyper(d=100, mask=("latent",))
    p = init_params(h, {}, None, 1000, np.random.default_rng(123))
    assert abs(p["X"].mean()) < 3.66e-3


def test_inactive_slices_do_not_consume_randomness():
    seed = 5
    ha = Hyper(d=4, mask=MASK_BY_KIND["rnn"])
    hb = Hyper(d=4, mask=MASK_BY_KIND["trnn"])
    feats = {name: np.zeros((6, 3)) for name in KERNELS}
    pa = init_params(ha, feats, None, 6, np.random.default_rng(seed))
    pb = init_params(hb, feats, None, 6, np.random.default_rng(seed))
    assert np.array_equal(pa["X"], pb["X"])  # X stream unaffected by later blocks


def one_item_world():
    """d=1, one item, hand-sized parameter blocks."""
    h = Hyper(d=1, mask=("latent", "visual", "textual"))
    params = {"X": np.array([[0.5]]), "E": np.array([[1.0]]),
              "V": np.array([[1.0]]),
              "InMat": np.eye(3), "RecMat": np.zeros((3, 3))}
    feats = {"visual": np.array([[0.5]]), "textual": np.array([[-0.5]])}
    return h, params, feats


def test_item_rep_concatenation():
    h, params, feats = one_item_world()
    inp = item_rep_matrix(params, feats, h)[0]
    assert inp.tolist() == [0.5, 0.5, -0.5]
    assert inp[h.slices["latent"]].tolist() == [0.5]
    assert inp[h.slices["visual"]].tolist() == [0.5]
    assert inp[h.slices["textual"]].tolist() == [-0.5]


def test_step_hidden_identity_matrices():
    h, params, feats = one_item_world()
    inp = item_rep_matrix(params, feats, h)[0]
    in_t, bias, rec_t = tanh_transitions(params)
    u = step_hidden(np.full(h.D, -1.0), inp @ in_t + bias, rec_t)
    # InMat = I, RecMat = 0: u = tanh(input / 2), so h = sigmoid(input)
    assert np.array_equal(u, np.tanh(inp / 2))
    state = hidden_states(inp[None], params)[1]
    assert np.array_equal(state, 0.5 + 0.5 * u)
    expect = 1.0 / (1.0 + np.exp(-inp))
    assert np.allclose(state, expect, atol=1e-15)
    assert state[h.slices["latent"]].shape == (1,)


def test_score_pair_hand_value():
    prev = np.array([0.5, 0.25])
    p_inp = np.array([1.0, 2.0])
    q_inp = np.array([3.0, -1.0])
    zero = np.zeros(2)
    assert score_pair(prev, p_inp, zero) == 1.0     # positive part
    assert score_pair(prev, zero, q_inp) == -1.25   # negative part
    assert score_pair(prev, p_inp, q_inp) == -0.25


def test_score_pair_antisymmetry_exact():
    rng = np.random.default_rng(2)
    for _ in range(50):
        prev = rng.normal(size=6)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        assert score_pair(prev, a, b) == -score_pair(prev, b, a)
    # stacked rows, as the trainer scores a whole sequence
    prev, a, b = (rng.normal(size=(50, 6)) for _ in range(3))
    assert np.array_equal(score_pair(prev, a, b), -score_pair(prev, b, a))


def test_final_states_rows(toy_corpus, toy_feats):
    h = Hyper(d=3, mask=("latent", "visual", "textual"))
    params = init_params(h, toy_feats, None, toy_corpus.n_items,
                         np.random.default_rng(4))
    final = final_states(params, toy_feats, toy_corpus, h)
    assert final.shape == (len(toy_corpus.users), h.D)
    in_t, bias, rec_t = tanh_transitions(params)
    for u, got in zip(toy_corpus.users, final):
        reps = item_rep_matrix(params, toy_feats, h, toy_corpus.train_rows[u])
        states = hidden_states(reps, params)
        # replayed in tanh space: u_0 = -1, one step per input, h = (1 + u) / 2
        tanh_states = [np.full(h.D, -1.0)]
        for pre in reps @ in_t + bias:
            tanh_states.append(step_hidden(tanh_states[-1], pre, rec_t))
        assert np.array_equal(0.5 + 0.5 * np.array(tanh_states), states)
        # the batched pass sums in another order than the per-user one
        assert np.allclose(got, states[-1], rtol=0.0, atol=1e-14)


def test_item_rep_matrix_rows(toy_corpus, toy_feats):
    h = Hyper(d=2, mask=("latent", "visual", "textual"))
    params = init_params(h, toy_feats, None, toy_corpus.n_items,
                         np.random.default_rng(8))
    rep = item_rep_matrix(params, toy_feats, h)
    assert rep.shape == (toy_corpus.n_items, h.D)
    sl = h.slices
    assert np.array_equal(rep[:, sl["latent"]], params["X"])  # copied
    assert np.array_equal(rep[:, sl["visual"]], toy_feats["visual"] @ params["E"].T)
    assert np.array_equal(rep[:, sl["textual"]],
                          toy_feats["textual"] @ params["V"].T)
    # the given rows, repeats kept; a product over fewer rows may differ
    # from the stacked one in the last bit, so compare to rounding only
    rows = [3, 0, 3]
    picked = item_rep_matrix(params, toy_feats, h, rows)
    assert np.array_equal(picked[:, sl["latent"]], params["X"][rows])
    assert np.allclose(picked, rep[rows], rtol=0.0, atol=1e-14)


def test_order_candidates_filters_and_breaks_ties(toy_corpus):
    scores = np.zeros(toy_corpus.n_items)
    scores[toy_corpus.items.tolist().index("i5")] = 2.0
    ranked = order_candidates(scores, toy_corpus, "alice")
    ids = [it for it, _ in ranked]
    assert ids[0] == "i5"
    assert ids[1:] == ["i4", "i6"]  # tied zeros fall back to ascending id
    trained = toy_corpus.items[toy_corpus.train_rows["alice"]].tolist()
    assert trained == ["i1", "i2", "i3"]
    assert set(ids).isdisjoint(trained)
    assert ranked[0][1] == 2.0

