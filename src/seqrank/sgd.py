"""The per-user SGD epoch loop and the update records every trainable
ranker's step returns.

`run_epochs` owns a training run: it draws the starting parameters
(`model.init_params`) and, for each user it visits, the user's negatives
(`dataio.sample_triples`), then calls the kind's step(params, u,
negatives) -> (objective term, pair count, update records) and applies
the records before it draws for the next user. Initialization and
training draw from split seed streams, so the training draws are the same
for every model kind under one seed. `grad_check` calls the same steps.

A step's updates are a list of records (block name, rows, g): the ascent
direction g of the whole block when rows is None, else of the block's
rows, a 1-D intp array, with g of shape (len(rows),) + the block's row
shape, g[k] that of rows[k]. `grouped` sums a list per block and per
distinct row of a block, in list order; a block of one record keeps it as
it is, so that record's rows must be distinct. Training runs the list
through `apply`, which ascends each touched block, or each distinct row
of it, once by that sum with the one update rule `ascend`: theta +=
alpha * (clip(g) - lam * theta), with lam the block's L2 decay from
`Hyper.decay`, each row clipped by its own norm. So a step is one ascent,
and each block or distinct row decays once per step. `gradient` writes
the same sums into full-shape arrays, and `grad_check` holds them against
central finite differences of the steps' own objective terms: the one
gradient check of every trainable kind, of exactly the sums training
ascends. Parameters are a {block name: array} dict; `apply` updates its
arrays in place.

A step's records are all formed at the parameters before the step: one
recurrent sequence at its frozen context, one mf or BPR user visit at the
pre-visit parameters.
"""

import numpy as np

from . import dataio, model, numkit
from .errors import DivergenceError


def ascend(theta: np.ndarray, g: np.ndarray, alpha: float, lam: float,
           clip_norm: float | None) -> None:
    """In place: theta += alpha * (g - lam * theta), with g first rescaled
    to norm clip_norm when it is longer."""
    if clip_norm is not None:
        n = float(np.linalg.norm(g))
        if n > clip_norm:
            g = g * (clip_norm / n)
    theta += alpha * (g - lam * theta)


def _dense(like: np.ndarray, records) -> np.ndarray:
    """The g of (rows, g) records summed from zero, in list order, into an
    array shaped like `like`."""
    total = np.zeros_like(like)
    for rows, g in records:
        if rows is None:
            total += g
        else:
            np.add.at(total, rows, g)
    return total


def grouped(blocks: dict, updates) -> dict:
    """{block name: (rows, g)}: for each block `updates` touches, in the
    order first touched, the sum of its records' g, added in list order.
    A block of one record keeps it as it is. A block of several sums them
    from zero: into one whole-block g when any is whole (rows None), else
    into one g per distinct row, the rows ascending, from the records'
    rows and g's each concatenated in list order, repeats included."""
    by_block = {}
    for name, rows, g in updates:
        by_block.setdefault(name, []).append((rows, g))
    for name, records in by_block.items():
        if len(records) == 1:
            by_block[name] = records[0]
        elif any(rows is None for rows, _ in records):
            by_block[name] = (None, _dense(blocks[name], records))
        else:
            rows, gs = zip(*records)
            distinct, at = np.unique(np.concatenate(rows), return_inverse=True)
            total = np.zeros((len(distinct),) + blocks[name].shape[1:])
            np.add.at(total, at, np.concatenate(gs))
            by_block[name] = (distinct, total)
    return by_block


def apply(blocks: dict, updates, alpha: float, decay: dict,
          clip_norm: float | None = None) -> None:
    """Ascend each block of `updates`, in place, once by its `grouped`
    record, with the decay {block name: lam} gives it. A whole block goes
    to `ascend`; a row record's rows are gathered, each clipped by its own
    norm and ascended, and scattered back, as one `ascend` per row would."""
    for name, (rows, g) in grouped(blocks, updates).items():
        if rows is None:
            ascend(blocks[name], g, alpha, decay[name], clip_norm)
            continue
        theta = blocks[name].take(rows, axis=0)   # a gather, faster than [rows]
        if clip_norm is not None:
            # ascend's norm, row by row: a norm along axis 1 sums in
            # another order and may differ in the last bit
            n = np.array([np.linalg.norm(r) for r in g])
            g = g * np.where(n > clip_norm,
                             clip_norm / np.maximum(n, clip_norm), 1.0)[:, None]
        theta += alpha * (g - decay[name] * theta)
        blocks[name][rows] = theta


def gradient(params: dict, updates) -> dict:
    """{block name: its `grouped` record written into a full-shape array},
    for the blocks `updates` touches: the sums that `apply` ascends."""
    return {name: _dense(params[name], [record])
            for name, record in grouped(params, updates).items()}


def grad_check(params: dict, step, visits) -> dict:
    """{block: max relative error} of `gradient` of the records of
    step(params, *visit), over every visit in `visits`, against central
    finite differences of the sum of the steps' objective terms, every
    entry of every block the records touch. A step returns (objective
    term, pair count, update records) at the current `params`, as a
    training step does; with its draws fixed by the visits, the records'
    sum is the terms' exact gradient when the records are right."""
    def steps():
        return [step(params, *visit) for visit in visits]
    grads = gradient(params, [r for _, _, updates in steps() for r in updates])
    return numkit.fd_check(params, lambda: sum(term for term, _, _ in steps()),
                           grads)


def param_norm(params: dict) -> float:
    return float(np.sqrt(sum(np.sum(b ** 2) for b in params.values())))


def run_epochs(corpus, feats, h, cfg, step, log, *, n_users, lead):
    """Train the parameters `model.init_params` draws for h, feats and
    n_users (None for the recurrent kinds, which keep no user rows) from
    the [cfg.seed, 0] stream, and return them. Run cfg.epochs passes over
    the users, in corpus order or reshuffled each epoch, with the
    [cfg.seed, 1] stream: a user whose training sequence holds m > lead
    items gets m - lead negatives from `dataio.sample_triples` and one
    step(params, u, negatives), whose records are applied with h.alpha,
    h.decay and cfg.clip_norm before the next user's draws. lead is 1 for
    the pairwise kinds, whose steps t = 2..m each pair item t with a
    negative, and 0 for mf, which pairs every item with one. After each
    epoch, `log` (when not None) gets "epoch<TAB>mean objective<TAB>
    parameter norm", the mean of the steps' terms over their pair counts.
    Raises DivergenceError at the first user whose updates leave a
    non-finite parameter, naming the epoch, the user and the first such
    block in dict order."""
    params = model.init_params(h, feats, n_users, corpus.n_items,
                               np.random.default_rng([cfg.seed, 0]))
    rng = np.random.default_rng([cfg.seed, 1])
    for epoch in range(1, cfg.epochs + 1):
        users = list(corpus.users)
        if cfg.shuffle_users:
            users = [users[i] for i in rng.permutation(len(users))]
        total, n = 0.0, 0
        for u in users:
            m = len(corpus.train_rows[u])
            if m <= lead:
                continue
            term, count, updates = step(
                params, u, dataio.sample_triples(corpus, u, m - lead, rng))
            total += term
            n += count
            apply(params, updates, h.alpha, h.decay, cfg.clip_norm)
            bad = next((name for name, b in params.items()
                        if not np.isfinite(b).all()), None)
            if bad is not None:
                raise DivergenceError(f"non-finite parameters at epoch {epoch}, "
                                      f"user {u!r}, block {bad!r}")
        if log is not None:
            mean = total / n if n else float("nan")
            log(f"{epoch}\t{mean:.6f}\t{param_norm(params):.6f}")
    return params
