"""Comparison ranker ladder behind one interface.

Every ranker exposes .kind and .rank(u) -> [(item, score), ...] over the
user's unseen items, sorted descending with ascending-id ties, so the
evaluator treats all of them uniformly. Kinds: random, pop, mf, bpr, vbpr,
tbpr, vtbpr, rnn, vrnn, trnn, vtrnn. Each rank(u) is one score vector over
all items passed to `model.order_candidates`. Every trained kind ranks with
one class, `EmbedRanker`: item representations against the user's row of a
(U, D) user-vector matrix, the trained "Gamma" or, for the recurrent kinds,
the states `model.final_states` computed for every user when the ranker was
built. A kind's slice mask, its `model.MASK_BY_KIND` tuple, is put into
`Hyper` by `build_ranker` and `grad_check` alone. Kernel widths are the
features' widths, and every trainer takes (corpus, feats, h, cfg, log).

The trainable kinds share one epoch loop, `sgd.run_epochs`; mf and the
BPR family supply their per-user steps here. Their parameters are one
{block name: array} dict, the per-user rows "Gamma" plus the item blocks
"X" and the active slices' kernels (`model.block_shapes` with a user
table), so the representation helpers in `model` read both model
families. Users and items are rows (`corpus.user_index`,
`corpus.train_rows` and the rows the sampler draws).
A BPR triple (user row, positive row, negative row) has its score and
its update records (block, row or None, g; see `sgd`), with one kernel
record per active content slice, formed in `bpr_pair_grads`, and an mf
observation (user row, item row, target) its records in `mf_obs_grads`. Each step yields its records to
`sgd.run_epochs`, which applies them with `sgd.apply` and the per-block
decays of `Hyper.decay`.

`grad_check` is the gradient check of every trainable kind: it builds the
kind's small fixture and hands `sgd.grad_check` the steps that training
runs, each with the objective term its records ascend.
"""

import hashlib
from dataclasses import replace

import numpy as np

from . import model, numkit, sgd, trainer
from .dataio import Corpus, sample_negative, sample_triples
from .errors import ConfigError
from .model import Hyper, order_candidates


def user_stream(seed: int, u: str) -> np.random.Generator:
    """Generator keyed by (seed, user id), stable across call order so
    per-user draws do not depend on evaluation scheduling."""
    digest = hashlib.sha256(u.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


class RandomRanker:
    kind = "random"

    def __init__(self, corpus: Corpus, seed: int):
        self.corpus = corpus
        self.seed = seed

    def rank(self, u: str) -> list:
        scores = user_stream(self.seed, u).random(self.corpus.n_items)
        return order_candidates(scores, self.corpus, u)


class PopRanker:
    kind = "pop"

    def __init__(self, corpus: Corpus, counts: np.ndarray | None = None):
        self.corpus = corpus
        if counts is None:
            rows = np.concatenate([corpus.train_rows[u] for u in corpus.users])
            counts = np.bincount(rows, minlength=corpus.n_items).astype(np.float64)
        self.counts = counts

    def rank(self, u: str) -> list:
        return order_candidates(self.counts, self.corpus, u)


# ---------------------------------------------------------------------------
# embedding-dot rankers: BPR family and pointwise MF share the score form
# dot(gamma_u, item representation)

class EmbedRanker:
    """Scores unseen items by dot product of their representations with
    the user's row of one (U, D) user-vector matrix: the trained "Gamma"
    rows of mf and the BPR family, or for the recurrent kinds every user's
    final training state from one batched `model.final_states` pass."""

    def __init__(self, kind: str, params: dict, corpus: Corpus,
                 feats: dict, h: Hyper):
        self.kind = kind
        self.params = params
        self.corpus = corpus
        self.h = h
        self.rep = model.item_rep_matrix(params, feats, h)
        self.user_vecs = (params["Gamma"] if "Gamma" in params
                          else model.final_states(params, feats, corpus, h))

    def rank(self, u: str) -> list:
        if u not in self.corpus.user_index:
            raise KeyError(f"unknown user {u!r}")
        if not len(self.corpus.train_rows[u]):
            raise ConfigError(f"user {u!r} has an empty training sequence")
        vec = self.user_vecs[self.corpus.user_index[u]]
        return order_candidates(self.rep @ vec, self.corpus, u)


# ---------------------------------------------------------------------------
# BPR training over the masked item representation

def bpr_pair_grads(params: dict, feats: dict, h: Hyper, uj: int,
                   ip: int, iq: int) -> tuple:
    """(xhat, updates) of user row uj's triple over item rows ip and iq:
    xhat = dot(gamma_u, rep_p - rep_q) and the update records of
    ln sigma(xhat): user row uj's, latent rows ip and iq (opposite signs),
    and each active content slice's kernel (`model.KERNELS`), which moves
    by a rank-1 feature-difference term."""
    diff = (model.item_rep_matrix(params, feats, h, ip)
            - model.item_rep_matrix(params, feats, h, iq))
    gamma_u = params["Gamma"][uj]
    xhat = float(gamma_u @ diff)
    c = numkit.sigmoid(-xhat)
    sl = h.slices
    gx = c * gamma_u[sl["latent"]]
    updates = [("Gamma", uj, c * diff), ("X", ip, gx), ("X", iq, -gx)]
    # a[:, None] * b is np.outer(a, b) without its ravel and asarray calls
    for name in h.mask[1:]:
        fdiff = feats[name][ip] - feats[name][iq]
        updates.append((model.KERNELS[name], None,
                        c * (gamma_u[sl[name], None] * fdiff)))
    return xhat, updates


def train_content_bpr(corpus: Corpus, feats: dict, h: Hyper,
                      cfg: trainer.TrainConfig, log) -> dict:
    """Pairwise ascent on dot(gamma_u, rep_p - rep_q), one `bpr_pair_grads`
    step per sampled triple, over `sgd.run_epochs`."""

    def visit(params, u, rng):
        seq = corpus.train_rows[u]
        if len(seq) < 2:
            return
        uj = corpus.user_index[u]
        negs = sample_triples(corpus, u, rng)
        for ip, iq in zip(seq[1:].tolist(), negs.tolist()):
            xhat, updates = bpr_pair_grads(params, feats, h, uj, ip, iq)
            yield numkit.log_sigmoid(xhat), 1, updates

    return sgd.run_epochs(
        corpus, cfg, h,
        lambda rng: model.init_params(h, feats, len(corpus.users),
                                      corpus.n_items, rng),
        visit, log)


# ---------------------------------------------------------------------------
# pointwise matrix factorization

def train_mf(corpus: Corpus, feats: dict, h: Hyper,
             cfg: trainer.TrainConfig, log) -> dict:
    """Squared-error factorization on implicit data: every training
    interaction is a target-1 observation paired with one sampled
    target-0 negative. The logged objective is the mean squared error;
    mf has no content slice, so no block reads `feats`."""
    if h.mask != ("latent",):
        raise ConfigError("mf uses the latent slice only")

    def visit(params, u, rng):
        uj = corpus.user_index[u]
        seq = corpus.train_rows[u].tolist()
        owned = frozenset(seq)
        for ip in seq:
            iq = sample_negative(corpus, u, owned, rng)
            for ij, target in ((ip, 1.0), (iq, 0.0)):
                err, updates = mf_obs_grads(params, uj, ij, target)
                yield err * err, 1, updates

    return sgd.run_epochs(
        corpus, cfg, h,
        lambda rng: model.init_params(h, feats, len(corpus.users),
                                      corpus.n_items, rng),
        visit, log)


def mf_obs_grads(params: dict, uj: int, ij: int, target: float) -> tuple:
    """(err, updates) of one observation: err = target - dot(gamma_u, x_i)
    and the update records of -0.5 * err^2 for user row uj and item row
    ij."""
    gamma_u, x_i = params["Gamma"][uj], params["X"][ij]
    err = target - float(gamma_u @ x_i)
    return err, [("Gamma", uj, err * x_i), ("X", ij, err * gamma_u)]


# ---------------------------------------------------------------------------
# factory

def build_ranker(kind: str, corpus: Corpus, feats: dict, h: Hyper,
                 cfg: trainer.TrainConfig, log=None):
    """Train (where applicable) and wrap a ranker of the requested kind.
    Trainable kinds train with `h.mask` set to their `model.MASK_BY_KIND`
    tuple, whatever `h` carried, and kernels as wide as `feats`, {content
    slice: matrix}; `model.block_shapes` refuses a 0-wide active one."""
    if kind == "random":
        return RandomRanker(corpus, cfg.seed)
    if kind == "pop":
        return PopRanker(corpus)
    if kind not in model.MASK_BY_KIND:
        raise ConfigError(f"unknown ranker kind {kind!r} "
                          f"(expected one of {sorted(model.ALL_KINDS)})")
    h = replace(h, mask=model.MASK_BY_KIND[kind])
    train = (train_mf if kind == "mf"
             else trainer.train if kind in model.RECURRENT_KINDS
             else train_content_bpr)
    params = train(corpus, feats, h, cfg, log)
    return EmbedRanker(kind, params, corpus, feats, h)


# the trainable kinds in the gradient check's report order, each with the
# key of its seed stream [seed, key]
GRAD_CHECK_STREAMS = {"rnn": 0, "vrnn": 1, "trnn": 2, "vtrnn": 3,
                      "bpr": 100, "vbpr": 101, "tbpr": 102, "vtbpr": 103,
                      "mf": 200}


def grad_check(kind: str, h: Hyper, rng: np.random.Generator) -> dict:
    """`sgd.grad_check` of one trainable kind, with `h.mask` set to the
    kind's as in `build_ranker`: {block: max relative error} over every
    block the kind's records touch. The steps are the ones training runs,
    at draws fixed here: for the recurrent kinds `trainer.sequence_context`
    and `sequence_updates` on `trainer.tiny_fixture`, term
    sum_t ln sigma(score_t); for the BPR family one `bpr_pair_grads` per
    pair of the same fixture, term ln sigma(xhat); for mf `mf_obs_grads` of
    8 random observations of 2 users and 4 items without features, term
    -err^2 / 2, the objective its records ascend."""
    h = replace(h, mask=model.MASK_BY_KIND[kind])
    if kind == "mf":
        observations = [(int(rng.integers(2)), int(rng.integers(4)),
                         float(rng.integers(2))) for _ in range(8)]
        params = model.init_params(h, {}, 2, 4, rng)

        def steps():
            return [(-0.5 * err * err, updates) for err, updates
                    in (mf_obs_grads(params, *obs) for obs in observations)]
        return sgd.grad_check(params, steps)

    corpus, feats, negatives = trainer.tiny_fixture(rng)
    neg_rows = negatives["u0"]
    if kind in model.RECURRENT_KINDS:
        params = model.init_params(h, feats, None, corpus.n_items, rng)

        def steps():
            ctx = trainer.sequence_context(params, corpus, feats, h, "u0",
                                           neg_rows)
            return [(float(np.sum(numkit.log_sigmoid(ctx.scores))),
                     trainer.sequence_updates(ctx, params, feats, h))]
    else:
        params = model.init_params(h, feats, 1, corpus.n_items, rng)
        pairs = list(zip(corpus.train_rows["u0"][1:].tolist(),
                         neg_rows.tolist()))

        def steps():
            return [(numkit.log_sigmoid(xhat), updates) for xhat, updates
                    in (bpr_pair_grads(params, feats, h, 0, ip, iq)
                        for ip, iq in pairs)]
    return sgd.grad_check(params, steps)
