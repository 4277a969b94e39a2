"""The per-user SGD epoch loop and the update records every trainable
ranker's step returns.

A trainer supplies `init(rng)`, which draws the starting parameters, and
`visit(params, u, rng)`, which updates them from one user's sampled pairs
and yields (objective term, pair count) as it goes. Initialization and
training draw from split seed streams, so the training draws are the same
for every model kind under one seed.

A step's updates are a list of records (block name, row or None, g, lam):
the ascent direction g of one row of the block, or of the whole block when
row is None, and its L2 decay lam. Training runs the list through `apply`,
whose one update rule is `ascend`: theta += alpha * (clip(g) - lam * theta).
The gradient checks sum the same lists with `gradient`.
"""

import numpy as np

from .errors import DivergenceError


def ascend(theta: np.ndarray, g: np.ndarray, alpha: float, lam: float,
           clip_norm: float | None = None) -> None:
    """In place: theta += alpha * (g - lam * theta), with g first rescaled
    to norm clip_norm when it is longer."""
    if clip_norm is not None:
        n = float(np.linalg.norm(g))
        if n > clip_norm:
            g = g * (clip_norm / n)
    theta += alpha * (g - lam * theta)


def apply(params, updates, alpha: float,
          clip_norm: float | None = None) -> None:
    """Ascend every record of `updates` in order, in place."""
    blocks = dict(params.blocks())
    for name, row, g, lam in updates:
        theta = blocks[name] if row is None else blocks[name][row]
        ascend(theta, g, alpha, lam, clip_norm)


def gradient(params, updates) -> dict:
    """{block name: its records' g summed into a full-shape array}, for
    the blocks `updates` touch."""
    blocks = dict(params.blocks())
    grads = {}
    for name, row, g, _ in updates:
        total = grads.setdefault(name, np.zeros_like(blocks[name]))
        if row is None:
            total += g
        else:
            total[row] += g
    return grads


def param_norm(params) -> float:
    return float(np.sqrt(sum(np.sum(b ** 2) for _, b in params.blocks())))


def run_epochs(corpus, cfg, init, visit, log=None):
    """Run cfg.epochs passes over the users, in corpus order or reshuffled
    each epoch. After each epoch, `log` gets "epoch<TAB>mean objective<TAB>
    parameter norm". Raises DivergenceError at the first user whose updates
    leave a non-finite parameter."""
    params = init(np.random.default_rng([cfg.seed, 0]))
    rng = np.random.default_rng([cfg.seed, 1])
    for epoch in range(1, cfg.epochs + 1):
        users = list(corpus.users)
        if cfg.shuffle_users:
            users = [users[i] for i in rng.permutation(len(users))]
        total, n = 0.0, 0
        for u in users:
            for term, count in visit(params, u, rng):
                total += term
                n += count
            if not all(np.isfinite(b).all() for _, b in params.blocks()):
                raise DivergenceError(
                    f"non-finite parameters at epoch {epoch}, user {u!r}")
        if log is not None:
            mean = total / n if n else float("nan")
            log(f"{epoch}\t{mean:.6f}\t{param_norm(params):.6f}")
    return params
