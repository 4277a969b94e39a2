"""Float64 numeric kernels shared by every model in the package: stable
sigmoids, the central finite differences behind `sgd.grad_check`, and the
tests every float and integer setting, and every array size a setting
asks for, passes."""

import math

import numpy as np


def is_real(v) -> bool:
    """An int or float, not a bool, that converts to a finite float64."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def is_int(v) -> bool:
    """An int, not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def fits_float64(shape: tuple) -> bool:
    """Whether numpy can size a float64 array of `shape`: 8 bytes an entry
    come to at most np.iinfo(np.intp).max."""
    return math.prod(shape) * 8 <= np.iinfo(np.intp).max


def is_count(v, least: int = 0) -> bool:
    """An int, not a bool, of at least `least`."""
    return is_int(v) and v >= least


def sigmoid_arr(x: np.ndarray) -> np.ndarray:
    """Elementwise stable sigmoid, overflow-free for any finite float64.
    It rounds to exactly 1.0 for x above about 36.7 and underflows to
    exactly 0.0 below about -745."""
    # exp(-|x|) is exp(-x) where x >= 0 and exp(x) elsewhere, so this is
    # 1/(1 + exp(-x)) and exp(x)/(1 + exp(x)) branch by branch
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def log_sigmoid(x):
    """ln(sigmoid(x)) without overflow, elementwise; a float for a 0-d
    input (a float, say), computed by the same ufuncs as an array's entries,
    so it has the same bits."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = -np.log1p(np.exp(-x[pos]))
    out[~pos] = x[~pos] - np.log1p(np.exp(x[~pos]))
    return out if out.ndim else float(out)


FD_STEP = 1e-5


def fd_check(blocks: dict, loss, grads: dict) -> dict:
    """Analytic gradients vs central finite differences of `loss()`, step
    FD_STEP, every entry of every block in `grads`. `blocks` maps the same
    names to the live parameter arrays, which are perturbed in place and
    restored. Returns {block: max relative error}."""
    report = {}
    for name, g in grads.items():
        block = blocks[name]
        numeric = np.zeros_like(g)
        for k in range(block.size):
            saved = block.flat[k]
            block.flat[k] = saved + FD_STEP
            f_hi = loss()
            block.flat[k] = saved - FD_STEP
            f_lo = loss()
            block.flat[k] = saved
            numeric.flat[k] = (f_hi - f_lo) / (2.0 * FD_STEP)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(numeric)), 1e-8)
        report[name] = float(np.max(np.abs(g - numeric) / denom))
    return report
