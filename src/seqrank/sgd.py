"""The per-user SGD epoch loop and the update records every trainable
ranker's step returns.

A trainer supplies `init(rng)`, which draws the starting parameters, and
`visit(params, u, rng)`, which yields (objective term, pair count, update
records) for each step of one user's sampled pairs; `run_epochs` applies a
step's records before it draws the next step. Initialization and training
draw from split seed streams, so the training draws are the same for every
model kind under one seed.

A step's updates are a list of records (block name, row or None, g): the
ascent direction g of one row of the block, of the whole block when row is
None, or of several distinct rows, g stacked in their order, when row is an
int array. Training runs the list through `apply`, whose one update rule is
`ascend`: theta += alpha * (clip(g) - lam * theta), with lam the block's
L2 decay from `Hyper.decay`, once per row of a row array, each clipped by
its own norm. `gradient` sums the same lists into full-shape arrays, and
`grad_check` holds that sum against central finite differences of the
steps' own objective terms: the one gradient check of every trainable
kind. Parameters are the {block name: array} dict that `init` returns;
`apply` updates its arrays in place.

A step's list is formed in full before `apply` runs it, and this relies on
one invariant of every step: no record's g reads a parameter entry that
another record of the same list writes. So one `apply` per recurrent
sequence ascends each entry exactly as one `apply` per pair did. The
steps of mf and the BPR family are whole user visits whose records are
formed at the pre-visit parameters, one apply per visit.
"""

import numpy as np

from . import numkit
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


def apply(blocks: dict, updates, alpha: float, decay: dict,
          clip_norm: float | None = None) -> None:
    """Ascend every record of `updates` in order, in place, each with the
    decay {block name: lam} gives its block. A row-array record is
    gathered, each of its rows clipped by its own norm and ascended, and
    scattered back, as one `ascend` per row would; its rows are
    distinct."""
    for name, row, g in updates:
        if row is None:
            ascend(blocks[name], g, alpha, decay[name], clip_norm)
        elif isinstance(row, np.ndarray):
            block = blocks[name]
            theta = block[row]
            if clip_norm is not None:
                # ascend's norm, row by row: a norm along axis 1 sums in
                # another order and may differ in the last bit
                n = np.array([np.linalg.norm(r) for r in g])
                g = g * np.where(n > clip_norm,
                                 clip_norm / np.maximum(n, clip_norm), 1.0)[:, None]
            theta += alpha * (g - decay[name] * theta)
            block[row] = theta
        else:
            ascend(blocks[name][row], g, alpha, decay[name], clip_norm)


def gradient(params: dict, updates) -> dict:
    """{block name: its records' g summed into a full-shape array}, for
    the blocks `updates` touch; a row array's g adds row by row."""
    grads = {}
    for name, row, g in updates:
        total = grads.setdefault(name, np.zeros_like(params[name]))
        if row is None:
            total += g
        else:
            np.add.at(total, row, g)
    return grads


def grad_check(params: dict, steps) -> dict:
    """{block: max relative error} of `gradient` of the records `steps()`
    returns against central finite differences of the sum of its objective
    terms, every entry of every block the records touch. `steps()` gives
    [(objective term, update records)] at the current `params`, with its
    random draws fixed, so the records' sum is the terms' exact gradient
    when the records are right."""
    grads = gradient(params, [r for _, updates in steps() for r in updates])
    return numkit.fd_check(params, lambda: sum(term for term, _ in steps()),
                           grads)


def param_norm(params: dict) -> float:
    return float(np.sqrt(sum(np.sum(b ** 2) for b in params.values())))


def run_epochs(corpus, cfg, h, init, visit, log):
    """Run cfg.epochs passes over the users, in corpus order or reshuffled
    each epoch, applying each step's records with h.alpha, h.decay and
    cfg.clip_norm. After each epoch, `log` (when not None) gets
    "epoch<TAB>mean objective<TAB>parameter norm". Raises DivergenceError
    at the first user whose updates leave a non-finite parameter, naming
    the epoch, the user and the first such block in dict order."""
    params = init(np.random.default_rng([cfg.seed, 0]))
    rng = np.random.default_rng([cfg.seed, 1])
    for epoch in range(1, cfg.epochs + 1):
        users = list(corpus.users)
        if cfg.shuffle_users:
            users = [users[i] for i in rng.permutation(len(users))]
        total, n = 0.0, 0
        for u in users:
            for term, count, updates in visit(params, u, rng):
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
