"""Recurrent sequential ranker forward pass.

Items are represented by concatenating width-d slices: a free latent
vector, always, then per kind an embedded visual and an embedded textual
feature vector; `Hyper.mask` is the kind's slice tuple from `MASK_BY_KIND`.
A content slice is its matrix of the features, one {slice: (n_items,
width) matrix} dict, times its (d, width) kernel block, named in
`KERNELS`; widths live only there, so `Hyper` holds settings only. A sigmoid
recurrence, h_t = sigma(InMat i_t + RecMat h_{t-1}) from h_0 = 0, folds the
user's training sequence into a hidden state; preferences are dot products
between that state and item representations.

Everything is a plain float64 array, and a model is exactly its kind's
named blocks: one {block name: array} dict whose names and shapes are
`block_shapes`' table, the one statement of every kind's layout, which
`init_params` draws and the checkpoint loader checks. A sequence's item
representations are gathered as one (m, D) matrix, `hidden_states` runs
the recurrence over it with every step's input term precomputed in one
matmul, and `Hyper.slices` holds the slice offsets, computed once. The
recurrence runs in tanh space: it carries u = 2h - 1, so each step is one
matmul, add and tanh (`step_hidden`, on the arrays `tanh_transitions`
gives), and h is formed once at the end. Training runs `hidden_states` per
sequence; ranking takes every user's final state from `final_states`, one
padded (U, D) run of the same step over all users at once (there is no
per-user ranking pass), and `order_candidates` turns a score vector
into a ranking with array operations: a mask of the user's training rows
and an argsort, the fast default one when the keys it sorts are distinct
and the stable one when some tie or are NaN, so the order is always the
stable sort's.
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import numkit
from .errors import ConfigError

SLICE_NAMES = ("latent", "visual", "textual")

# config strings for every ranker kind; a trainable kind maps to its slice
# mask: "latent", then its content slices in SLICE_NAMES order
MASK_BY_KIND = {
    "mf": ("latent",),
    "bpr": ("latent",),
    "vbpr": ("latent", "visual"),
    "tbpr": ("latent", "textual"),
    "vtbpr": ("latent", "visual", "textual"),
    "rnn": ("latent",),
    "vrnn": ("latent", "visual"),
    "trnn": ("latent", "textual"),
    "vtrnn": ("latent", "visual", "textual"),
}
ALL_KINDS = ("random", "pop") + tuple(MASK_BY_KIND)
RECURRENT_KINDS = ("rnn", "vrnn", "trnn", "vtrnn")

# the step size alpha of each kind when a config sets none: mf's squared
# error takes smaller steps than the pairwise kinds' ln sigma
ALPHA_BY_KIND = {kind: 0.01 if kind == "mf" else 0.1 for kind in ALL_KINDS}

# each content slice's kernel block, (d, width), which embeds the slice's
# features; its width is the width of the slice's feature matrix
KERNELS = {"visual": "E", "textual": "V"}


@dataclass(frozen=True)
class Hyper:
    d: int
    mask: tuple = ("latent",)
    alpha: float = 0.1
    lam_theta: float = 0.001
    lam_e: float = 0.001
    lam_v: float = 0.001
    init_lo: float = -0.5
    init_hi: float = 0.5

    def __post_init__(self):
        reals = [(name, getattr(self, name)) for name in HYPER_REALS]
        problems = [f"{name} must be a finite real number, got {v!r}"
                    for name, v in reals if not numkit.is_real(v)]
        reals_ok = not problems
        if not numkit.is_int(self.d):
            problems.append(f"d must be an integer, got {self.d!r}")
        elif self.d < 1:
            problems.append(f"d must be >= 1, got {self.d}")
        if self.mask not in MASK_BY_KIND.values():
            problems.append(f"mask {self.mask!r} is not a kind's slice tuple, "
                            f"one of {sorted(set(MASK_BY_KIND.values()))}")
        if reals_ok:
            # alpha == 0 is allowed: a zero-rate pass is the standard no-op probe
            if self.alpha < 0:
                problems.append(f"alpha must be >= 0, got {self.alpha}")
            if min(self.lam_theta, self.lam_e, self.lam_v) < 0:
                problems.append("regularizers must be >= 0")
            if self.init_lo > self.init_hi:
                problems.append(f"init range [{self.init_lo}, {self.init_hi}] is empty")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def D(self) -> int:
        return self.d * len(self.mask)

    @cached_property
    def slices(self) -> dict:
        """Offsets of the active slices in the concatenated vector, in mask
        order."""
        d = self.d
        return {name: slice(j * d, (j + 1) * d) for j, name in enumerate(self.mask)}

    @cached_property
    def decay(self) -> dict:
        """{block name: the L2 regularizer of that block}: lam_e for the
        visual kernel E, lam_v for the textual kernel V, lam_theta for the
        latent rows X and Gamma and the transitions InMat and RecMat."""
        theta = self.lam_theta
        return {"X": theta, "Gamma": theta, "InMat": theta, "RecMat": theta,
                "E": self.lam_e, "V": self.lam_v}


# the float settings of Hyper, in field order: what a config's "hyper"
# section and a checkpoint header carry besides the dims
HYPER_REALS = tuple(f.name for f in fields(Hyper) if f.type is float)


def block_shapes(h: Hyper, feats: dict, n_users: int | None,
                 n_items: int) -> dict:
    """{block name: shape}, exactly the blocks of a model and in the order
    `init_params` draws them: "Gamma" (n_users, D) for mf and the BPR
    family, which keep per-user rows; "X" (n_items, d); each active content
    slice's (d, width) kernel in mask order, "E" visual and "V" textual,
    width that of feats[name]; and for the recurrent kinds, whose n_users
    is None, the (D, D) input and recurrent transitions "InMat" and
    "RecMat". An active slice 0 wide is a ConfigError, and so is a block
    too large for numpy to size (`numkit.fits_float64`)."""
    D = h.D
    shapes = {} if n_users is None else {"Gamma": (n_users, D)}
    shapes["X"] = (n_items, h.d)
    for name in h.mask[1:]:
        width = feats[name].shape[1]
        if width == 0:
            raise ConfigError(f"{name} slice active but its features are 0 wide")
        shapes[KERNELS[name]] = (h.d, width)
    if n_users is None:
        shapes.update(InMat=(D, D), RecMat=(D, D))
    too_big = [f"{name} {shape}" for name, shape in shapes.items()
               if not numkit.fits_float64(shape)]
    if too_big:
        raise ConfigError(f"blocks too large to allocate: {', '.join(too_big)}")
    return shapes


def init_params(h: Hyper, feats: dict, n_users: int | None, n_items: int,
                rng: np.random.Generator) -> dict:
    """Uniform [init_lo, init_hi] draws of every `block_shapes` block, in
    that order; a slice the kind does not read has no block and uses no
    randomness."""
    return {name: rng.uniform(h.init_lo, h.init_hi, shape) for name, shape
            in block_shapes(h, feats, n_users, n_items).items()}


def tanh_transitions(params: dict) -> tuple:
    """(in_t, bias, rec_t) = (InMat^T / 2, RecMat 1 / 4, RecMat^T / 4): the
    recurrence h_t = sigma(InMat i_t + RecMat h_{t-1}) carried as
    u_t = 2 h_t - 1 = tanh(a_t + u_{t-1} rec_t), with the row vector
    a_t = i_t in_t + bias, since sigma(x) = (1 + tanh(x / 2)) / 2 and
    h = (1 + u) / 2. The scalings by powers of two are exact."""
    rec = params["RecMat"]
    return 0.5 * params["InMat"].T, 0.25 * rec.sum(axis=1), 0.25 * rec.T


def step_hidden(prev: np.ndarray, pre: np.ndarray,
                rec_t: np.ndarray) -> np.ndarray:
    """u_t = tanh(a_t + u_{t-1} rec_t), with a_t precomputed and rec_t
    from `tanh_transitions`."""
    return np.tanh(pre + prev @ rec_t)


def hidden_states(inputs: np.ndarray, params: dict) -> np.ndarray:
    """States h_0..h_m (rows) for the input rows i_1..i_m; h_0 is zero.
    The recurrence runs on u = 2h - 1 from u_0 = -1 (`tanh_transitions`),
    one matmul, add and tanh per step, and h = (1 + u) / 2 is formed once.
    A state entry rounds to exactly 1 once its pre-activation
    x = InMat i_t + RecMat h_{t-1} exceeds about 37, and to exactly 0 once
    x falls below about -38, where tanh rounds to +-1; no x overflows."""
    in_t, bias, rec_t = tanh_transitions(params)
    pre = inputs @ in_t + bias
    u = np.empty((len(inputs) + 1, len(bias)))
    u[0] = -1.0
    for t, a in enumerate(pre):
        u[t + 1] = step_hidden(u[t], a, rec_t)
    return 0.5 + 0.5 * u


def final_states(params: dict, feats, corpus, h: Hyper) -> np.ndarray:
    """(U, D) final training state of every user, rows in `corpus.users`
    order: the recurrence of `hidden_states` run over all users at once.
    Step t advances only the users whose sequence is longer than t and
    gathers only their t-th inputs. A user with an empty training sequence
    keeps the zero state. The step is `step_hidden`'s, written out, so
    that the traced benchmark's `model.step_hidden_s` times training
    steps alone."""
    seqs = [corpus.train_rows[u] for u in corpus.users]
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    rows = np.zeros((len(seqs), lengths.max(initial=0)), dtype=np.intp)
    for j, seq in enumerate(seqs):
        rows[j, :len(seq)] = seq
    in_t, bias, rec_t = tanh_transitions(params)
    u = np.full((len(seqs), h.D), -1.0)
    for t in range(rows.shape[1]):
        live = np.flatnonzero(lengths > t)
        pre = item_rep_matrix(params, feats, h, rows[live, t]) @ in_t + bias
        u[live] = np.tanh(pre + u[live] @ rec_t)
    return 0.5 + 0.5 * u


def score_pair(prev: np.ndarray, p_inp: np.ndarray, q_inp: np.ndarray):
    """prev.p - prev.q, row by row when the operands are stacked; swapping
    p and q negates the score exactly."""
    return (np.einsum("...i,...i->...", prev, p_inp)
            - np.einsum("...i,...i->...", prev, q_inp))


def item_rep_matrix(params: dict, feats, h: Hyper, rows=None) -> np.ndarray:
    """Item representations [x; E f; V g] over the active slices, stacked
    (n, D): every item in item-id order, or the given item rows in their
    order. Only the active slices' features are gathered."""
    at = slice(None) if rows is None else rows
    parts = [params["X"][at]]
    for name in h.mask[1:]:
        parts.append(feats[name][at] @ params[KERNELS[name]].T)
    return np.concatenate(parts, axis=-1)


def order_candidates(scores: np.ndarray, corpus, u: str) -> list:
    """Turn a full item-score vector into the user's candidate ranking,
    [(item id, float score), ...]: drop trained items, sort descending;
    equal scores keep ascending item-id order (a stable sort of the
    candidate rows, which ascend with the ids). The fast default sort
    runs first: when its sorted keys strictly ascend, they are distinct
    and none is NaN, so theirs is the one sorted order and equals the
    stable sort's; otherwise the stable sort reorders them."""
    rows = corpus.candidate_rows(u)
    cand = scores[rows]
    keys = -cand
    order = np.argsort(keys)
    ranked = keys[order]
    if not (ranked[1:] > ranked[:-1]).all():
        order = np.argsort(keys, kind="stable")
    return list(zip(corpus.items[rows[order]].tolist(), cand[order].tolist()))
