import math

import numpy as np
import pytest

from seqrank import numkit


def test_sigmoid_values():
    out = numkit.sigmoid_arr(np.array([0.0, 0.8]))
    assert out[0] == 0.5
    # frozen: 1/(1+exp(-0.8))
    assert abs(out[1] - 0.6899744811276125) < 1e-15


def test_sigmoid_extremes_do_not_overflow():
    with np.errstate(over="raise"):
        lo, hi = numkit.sigmoid_arr(np.array([-800.0, 800.0]))
    assert 0.0 <= lo < 1e-300
    assert hi == 1.0


def test_sigmoid_complement_identity():
    xs = np.linspace(-30.0, 30.0, 61)
    gap = numkit.sigmoid_arr(-xs) - (1.0 - numkit.sigmoid_arr(xs))
    assert np.abs(gap).max() < 1e-15


def test_sigmoid_arr_matches_scalar():
    """A vector gives, entry by entry, the bits of each entry alone."""
    xs = np.array([-800.0, -5.0, -0.3, 0.0, 2.0, 40.0, 800.0])
    out = numkit.sigmoid_arr(xs)
    for x, y in zip(xs, out):
        assert y == numkit.sigmoid_arr(np.array(x))


def test_log_sigmoid_stable():
    assert numkit.log_sigmoid(0.0) == pytest.approx(math.log(0.5), abs=1e-15)
    # ln sigma(-1000) is about -1000, must not underflow to -inf via exp
    assert abs(float(numkit.log_sigmoid(-1000.0)) + 1000.0) < 1e-9
    assert float(numkit.log_sigmoid(1000.0)) == 0.0


def test_fd_check_quadratic():
    w = np.array([[0.5, -1.0], [2.0, 0.25]])
    loss = lambda: 0.5 * float(np.sum(w ** 2))  # noqa: E731, gradient is w
    before = w.copy()
    report = numkit.fd_check({"W": w}, loss, {"W": w.copy()})
    assert report["W"] < 1e-8
    assert np.array_equal(w, before)  # every perturbed entry restored
    assert numkit.fd_check({"W": w}, loss, {"W": w + 0.01})["W"] > 1e-3


@pytest.mark.parametrize("v, want", [
    (0, True), (-3, True), (10 ** 400, True),
    (True, False), (False, False), (1.0, False), (np.int64(1), False),
    ("1", False), (None, False),
])
def test_is_int(v, want):
    assert numkit.is_int(v) is want


@pytest.mark.parametrize("v, least, want", [
    (0, 0, True), (-1, 0, False), (2, 2, True), (1, 2, False),
    (True, 0, False), (2.0, 2, False),
])
def test_is_count(v, least, want):
    assert numkit.is_count(v, least) is want
