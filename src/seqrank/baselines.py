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

The trainable kinds share one epoch loop, `sgd.run_epochs`, which draws
their parameters and negatives; mf and the BPR family supply their
per-user steps here. Their parameters are one {block name: array} dict,
the per-user rows "Gamma" plus the item blocks "X" and the active slices'
kernels (`model.block_shapes` with a user table), so the representation
helpers in `model` read both model families. Users and items are rows
(`corpus.user_index`, `corpus.train_rows` and the rows the sampler
draws). A user visit is one step: `bpr_step` scores all of the user's
sampled triples (positive row, negative row) at once through
`bpr_user_grads`, from one gather of their representations, and the mf
step all of the user's observations (item row, target) through
`mf_user_grads`. Each returns the update records (block, rows or None,
g; see `sgd`) of the summed objective at the pre-visit parameters, as
the recurrent kinds' frozen context does: one one-row record of the
user's "Gamma" row, one row record over the distinct item rows, with
repeated rows summed, and, for the BPR family, one kernel record per
active content slice. `sgd.run_epochs` applies each visit's records with
one `sgd.apply` and the per-block decays of `Hyper.decay`, so a block, or
a distinct row, decays once per visit.

`grad_check` is the gradient check of every trainable kind: it builds the
kind's small fixture and hands `sgd.grad_check` the steps that training
runs, each with the objective term its records ascend.
"""

import hashlib
from dataclasses import replace

import numpy as np

from . import model, numkit, sgd, trainer
from .dataio import Corpus
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

def _row_sums(name: str, rows: np.ndarray, coef: np.ndarray,
              vec: np.ndarray) -> tuple:
    """One row record of block `name`: entry k of `rows` adds coef[k] *
    vec, summed over its repeats onto the distinct rows."""
    distinct, at = np.unique(rows, return_inverse=True)
    return name, distinct, np.bincount(at, weights=coef)[:, None] * vec


def bpr_user_grads(params: dict, feats: dict, h: Hyper, uj: int,
                   pos: np.ndarray, neg: np.ndarray) -> tuple:
    """(xhat, updates) of user row uj's pairs (pos[k], neg[k]), all scored
    at the current parameters: xhat[k] = dot(gamma_u, rep_pos - rep_neg),
    and the update records of sum_k ln sigma(xhat[k]) with c = sigma(-xhat):
    user row uj's (c @ diff), one row record of the latent rows
    (c[k] on pos[k], -c[k] on neg[k], times gamma_u's latent slice), and
    each active content slice's kernel (`model.KERNELS`), which moves by
    gamma_u's slice times the c-weighted feature differences."""
    k = len(pos)
    rows = np.concatenate([pos, neg])
    reps = model.item_rep_matrix(params, feats, h, rows)
    diff = reps[:k] - reps[k:]
    gamma_u = params["Gamma"][uj]
    xhat = diff @ gamma_u
    c = numkit.sigmoid_arr(-xhat)
    sl = h.slices
    updates = [("Gamma", np.array([uj], dtype=np.intp), (c @ diff)[None]),
               _row_sums("X", rows, np.concatenate([c, -c]),
                         gamma_u[sl["latent"]])]
    for name in h.mask[1:]:
        fdiff = feats[name][pos] - feats[name][neg]
        updates.append((model.KERNELS[name], None,
                        gamma_u[sl[name], None] * (c @ fdiff)))
    return xhat, updates


def bpr_step(corpus: Corpus, feats: dict, h: Hyper):
    """The BPR family's step(params, u, neg_rows) -> (term, count,
    records): one `bpr_user_grads` over user u's pairs
    (train_rows[u][t-1], neg_rows[t-2]), t = 2..m, term
    sum_k ln sigma(xhat[k])."""
    def step(params, u, neg_rows):
        xhat, updates = bpr_user_grads(params, feats, h, corpus.user_index[u],
                                       corpus.train_rows[u][1:], neg_rows)
        return float(np.sum(numkit.log_sigmoid(xhat))), len(xhat), updates
    return step


def train_content_bpr(corpus: Corpus, feats: dict, h: Hyper,
                      cfg: trainer.TrainConfig, log) -> dict:
    """Pairwise ascent on dot(gamma_u, rep_p - rep_q), one `bpr_step` per
    visit of a user with 2 or more items, over `sgd.run_epochs`."""
    return sgd.run_epochs(corpus, feats, h, cfg, bpr_step(corpus, feats, h),
                          log, n_users=len(corpus.users), lead=1)


# ---------------------------------------------------------------------------
# pointwise matrix factorization

def train_mf(corpus: Corpus, feats: dict, h: Hyper,
             cfg: trainer.TrainConfig, log) -> dict:
    """Squared-error factorization on implicit data: every training
    interaction is a target-1 observation paired with one sampled
    target-0 negative, and a user visit is one `mf_user_grads` step over
    all of them. The logged objective is the mean squared error; mf has
    no content slice, so no block reads `feats`."""
    if h.mask != ("latent",):
        raise ConfigError("mf uses the latent slice only")

    def step(params, u, neg_rows):
        seq = corpus.train_rows[u]
        term, count, updates = mf_user_grads(
            params, corpus.user_index[u], np.concatenate([seq, neg_rows]),
            np.repeat([1.0, 0.0], len(seq)))
        # the squared error, -2 times the term, exactly
        return -2.0 * term, count, updates

    return sgd.run_epochs(corpus, feats, h, cfg, step, log,
                          n_users=len(corpus.users), lead=0)


def mf_user_grads(params: dict, uj: int, rows: np.ndarray,
                  targets: np.ndarray) -> tuple:
    """The step (term, count, records) of user row uj's observations
    (rows[k], targets[k]), all at the current parameters: with
    err = targets - X[rows] @ gamma_u, the term -0.5 * sum_k err[k]^2,
    the count len(rows), and its update records, user row uj's and one
    row record of the item rows."""
    gamma_u, x = params["Gamma"][uj], params["X"][rows]
    err = targets - x @ gamma_u
    return -0.5 * float(err @ err), len(err), [
        ("Gamma", np.array([uj], dtype=np.intp), (err @ x)[None]),
        _row_sums("X", rows, err, gamma_u)]


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
    at draws fixed here: `trainer.sequence_step` for the recurrent kinds
    and `bpr_step` for the BPR family, each on `trainer.tiny_fixture`,
    whose 3 negatives repeat rows of a pool of 2; for mf one
    `mf_user_grads` per user of 2, each over 6 random observations of 4
    items without features, so rows repeat."""
    h = replace(h, mask=model.MASK_BY_KIND[kind])
    if kind == "mf":
        visits = [(uj, rng.integers(4, size=6),
                   rng.integers(2, size=6).astype(np.float64)) for uj in range(2)]
        return sgd.grad_check(model.init_params(h, {}, 2, 4, rng),
                              mf_user_grads, visits)
    corpus, feats, negatives = trainer.tiny_fixture(rng)
    recurrent = kind in model.RECURRENT_KINDS
    params = model.init_params(h, feats, None if recurrent else 1,
                               corpus.n_items, rng)
    step = (trainer.sequence_step if recurrent else bpr_step)(corpus, feats, h)
    return sgd.grad_check(params, step, negatives.items())
