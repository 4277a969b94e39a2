"""Pairwise-ranking training of the recurrent model.

Per user sequence: one (positive, sampled-negative) pair per step t >= 2,
scored against the previous hidden state. Items are item rows throughout:
the positives are `corpus.train_rows[u]`, the negatives the rows
`dataio.sample_triples` draws; the features are the {content slice: matrix}
dict of `dataio.build_feature_store`, and each active content slice adds its
kernel block (`model.KERNELS`) to the records the phases form. Updates run
in two phases from a context frozen at sequence start. The context holds the
sequence as stacked arrays: inputs, states, scores, c = sigma(-score), the
pairs' latent rows and gradients and each kernel's forward sum over the
sequence, one matmul, all computed in one pass. Both phases return their
updates as `sgd` update records (block, rows or None, g); each block's L2
decay is `Hyper.decay`'s, which `sgd.apply` reads. The forward phase gives
the direct score gradients on the latent rows of one pair at a time, one
two-row record each (`forward_updates`), then the kernels' sums. The
backward phase runs the e-recursion through the recurrence and gives the
latent rows of layers 1..m-1 as one row record, then the
transition/embedding sums over the whole sequence, formed as matmuls over
the stacked per-layer vectors, as one record per block.

With zero regularization, the records of one sequence (`sequence_updates`)
sum to the exact gradient of sum_t ln sigma(score_t) at the frozen
context. `baselines.grad_check` holds them, through `sgd.grad_check`,
against central finite differences of that sum over `ctx.scores`, on the
one-user `tiny_fixture`, whose features are 3 wide, and training ascends
exactly that sum: one ascent per sequence, each block and each distinct
latent row once.

`sequence_step` is the recurrent kinds' step: the context of one user's
sequence at the negatives `sgd.run_epochs` drew, its term and its
records, which `sgd.run_epochs` hands to one `sgd.apply` call and
`baselines.grad_check` to `sgd.grad_check`. `train`, called as every
trainer is, (corpus, feats, h, cfg, log), runs it on `sgd.run_epochs`,
which owns the parameter and negative draws, epochs, user order, the
divergence guard and the log line.
"""

from dataclasses import dataclass

# "np.random.Generator" annotations stay quoted: evaluated when a def
# runs, they would import numpy.random, which numpy loads lazily and
# eval and coldstart of a trained kind never use
import numpy as np

from . import numkit, sgd
from .dataio import RANGES, Corpus
from .errors import ConfigError
from .model import KERNELS, Hyper, hidden_states, item_rep_matrix, score_pair
from .settings import TrainConfig


@dataclass
class SeqContext:
    """Everything the two update phases read, computed once per sequence at
    the pre-update parameters. The backward phase additionally reads
    InMat/RecMat, which the forward phase never touches, so the context
    stays consistent across both phases.

    Step t = 2..m pairs the positive rows[t-1] with a negative and scores
    both against h_{t-1}; its per-pair entries sit at index k = t - 2."""

    rows: np.ndarray         # (m,) item rows of seq, t = 1..m
    pair_rows: np.ndarray    # (m-1, 2) [positive, negative] item rows
    pair_grads: np.ndarray   # (m-1, 2, d) [g, -g], g = c * latent h_{t-1}:
                             # the pair's direct latent score gradients
    inputs: np.ndarray       # (m, D) i_1..i_m
    neg_inputs: np.ndarray   # (m-1, D)
    states: np.ndarray       # (m+1, D) h_0..h_m, h_0 = 0
    scores: np.ndarray       # (m-1,)
    c: np.ndarray            # (m-1,) sigma(-score), the per-step loss multiplier
    forward_grads: dict      # kernel block -> its (d, width) forward score
                             # gradient summed over the steps, c included,
                             # "E" visual and "V" textual

    @property
    def m(self) -> int:
        return len(self.rows)


def sequence_context(params: dict, corpus: Corpus, feats: dict,
                     h: Hyper, u: str, neg_rows) -> SeqContext:
    """Context of user u's training sequence with the negative rows of
    steps 2..m, one per step."""
    seq = corpus.train_rows[u]
    m = len(seq)
    if len(neg_rows) != m - 1:
        raise ConfigError(f"user {u!r}: {len(neg_rows)} negatives for the "
                          f"{m - 1} steps of a length-{m} sequence")
    rows = np.concatenate([seq, np.asarray(neg_rows, dtype=np.intp)])
    reps = item_rep_matrix(params, feats, h, rows)
    inputs, neg_inputs = reps[:m], reps[m:]
    states = hidden_states(inputs, params)
    prev = states[1:m]
    scores = score_pair(prev, inputs[1:], neg_inputs)
    c = numkit.sigmoid_arr(-scores)
    sl = h.slices
    # rows[1:] is the positives then the negatives, m - 1 each; the signs
    # are exact, so the negative's gradient is -g bit for bit
    pair_rows = rows[1:].reshape(2, m - 1).T
    pair_grads = (c[:, None] * prev[:, sl["latent"]])[:, None] * [[1.0], [-1.0]]
    forward_grads = {}
    for name in h.mask[1:]:
        diff = feats[name][rows[1:m]] - feats[name][rows[m:]]
        forward_grads[KERNELS[name]] = (c[:, None] * prev[:, sl[name]]).T @ diff
    return SeqContext(rows[:m], pair_rows, pair_grads, inputs, neg_inputs,
                      states, scores, c, forward_grads)


# ---------------------------------------------------------------------------
# forward-direction updates: direct score gradients, one pair step each

def forward_updates(ctx: SeqContext, k: int) -> list:
    """Pair k's (step t = k + 2) update records: one two-row record of its
    score gradient g on the pair's latent rows, g for the positive and -g
    for the negative, views into the context's pair arrays. The kernels'
    forward sums are `sequence_updates`' records, the transition matrices
    the backward phase's job."""
    return [("X", ctx.pair_rows[k], ctx.pair_grads[k])]


# ---------------------------------------------------------------------------
# backward phase: propagate through the recurrence, accumulate per block

def backward_steps(ctx: SeqContext, params: dict) -> np.ndarray:
    """e-recursion from layer m-1 down to 1 (layer m never feeds a score:
    the last pair reads h^{m-1}). Returns e, (m-1, D) with layer t in row
    t-1: the new score gradient arriving at layer t through step t+1's
    pair (its gate) times c, plus the part carried back from later
    layers."""
    hvec = ctx.states[1:ctx.m]
    sig_deriv = hvec * (1.0 - hvec)
    gate = (ctx.inputs[1:] - ctx.neg_inputs) * sig_deriv
    e = ctx.c[:, None] * gate
    rec_t = params["RecMat"].T
    carried = np.empty(e.shape[1])
    for r in range(len(e) - 2, -1, -1):
        np.matmul(rec_t, e[r + 1], out=carried)
        carried *= sig_deriv[r]
        e[r] += carried
    return e


def backward_gradients(ctx: SeqContext, params: dict, feats: dict,
                       h: Hyper) -> list:
    """The backward phase's update records: one row record of the latent
    rows of the items ctx.rows[:m-1], layer 1 to m-1 (a repeated item
    repeats its row), then the BPTT sums over layers 1..m-1 as whole
    blocks, "InMat", "RecMat" and the active "E"/"V". Sequences shorter
    than 2 have no backward signal and no records."""
    if ctx.m < 2:
        return []
    e = backward_steps(ctx, params)
    back = e @ params["InMat"]
    sl = h.slices
    rows = ctx.rows[:-1]
    updates = [("X", rows, back[:, sl["latent"]]),
               ("InMat", None, e.T @ ctx.inputs[:-1]),
               ("RecMat", None, e.T @ ctx.states[:-2])]
    for name in h.mask[1:]:
        updates.append((KERNELS[name], None,
                        back[:, sl[name]].T @ feats[name][rows]))
    return updates


# ---------------------------------------------------------------------------
# one sequence's records: both phases, applied as one step

def sequence_updates(ctx: SeqContext, params: dict, feats: dict,
                     h: Hyper) -> list:
    """Every update record of the sequence, all at the frozen context:
    `forward_updates` of each pair in step order, the kernels' forward
    sums, then `backward_gradients`. `sgd.apply` sums them per block and
    distinct row into one ascent."""
    updates = [r for k in range(ctx.m - 1) for r in forward_updates(ctx, k)]
    updates += [(name, None, g) for name, g in ctx.forward_grads.items()]
    return updates + backward_gradients(ctx, params, feats, h)


# ---------------------------------------------------------------------------
# the step and the training loop

def sequence_step(corpus: Corpus, feats: dict, h: Hyper):
    """The recurrent kinds' step(params, u, neg_rows) -> (term, count,
    records): user u's `sequence_context` at the negatives of steps 2..m,
    its term sum_t ln sigma(score_t) over its m - 1 pairs, and
    `sequence_updates`, all at the frozen context."""
    def step(params, u, neg_rows):
        ctx = sequence_context(params, corpus, feats, h, u, neg_rows)
        return (float(np.sum(numkit.log_sigmoid(ctx.scores))), len(ctx.scores),
                sequence_updates(ctx, params, feats, h))
    return step


def train(corpus: Corpus, feats: dict, h: Hyper, cfg: TrainConfig,
          log) -> dict:
    """SGD ascent over users and epochs, one `sequence_step` per user
    sequence of 2 or more items (`sgd.run_epochs`). Each user's negatives
    are resampled fresh each epoch; the logged objective is the mean
    ln sigma over the epoch's pairs."""
    if not corpus.users:
        raise ConfigError("empty corpus")
    return sgd.run_epochs(corpus, feats, h, cfg,
                          sequence_step(corpus, feats, h), log,
                          n_users=None, lead=1)


# ---------------------------------------------------------------------------
# the gradient check's fixture

def tiny_fixture(rng: "np.random.Generator"):
    """One-user corpus, 6 items and a length-4 sequence, with 3-wide
    features drawn uniformly in each content slice's range and a full
    negative ladder, small enough to finite-difference every parameter
    entry. Returns (corpus, feats, {"u0": negative rows of steps 2..4})."""
    n_items, seq_len, width = 6, 4, 3
    items = np.array([f"i{j}" for j in range(n_items)], dtype=object)
    order = rng.permutation(n_items)
    corpus = Corpus(("u0",), items, {"u0": order[:seq_len].astype(np.intp)},
                    {"u0": np.zeros(0, dtype=np.intp)})
    feats = {name: rng.uniform(lo, hi, (n_items, width))
             for name, (lo, hi) in RANGES.items()}
    pool = np.setdiff1d(np.arange(n_items), order[:seq_len])
    neg_rows = np.array([pool[int(rng.integers(len(pool)))]
                         for _ in range(seq_len - 1)], dtype=np.intp)
    return corpus, feats, {"u0": neg_rows}

