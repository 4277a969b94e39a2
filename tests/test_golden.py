"""Golden trace: parameters and training-log lines after 2 epochs.

`golden_trace.npz` holds every parameter block and every training-log line
of `vtrnn`, `vrnn`, `vtbpr` and `mf` trained for 2 epochs on the acceptance
`SMALL` corpus. It was recorded with the per-step object implementation of
the recurrent core, before that core moved to plain arrays, and pins the
rewrite to the old numbers:

- log lines are byte-identical for every kind;
- `vtbpr` and `mf` blocks are bit-exact;
- `vtrnn` and `vrnn` blocks agree to a relative error of 1e-12, measured
  as max |new - golden| / max |golden| per block.

Regenerate only when the training arithmetic is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import os

import numpy as np
import pytest

from seqrank.baselines import build_ranker
from seqrank.dataio import synth_corpus
from seqrank.model import Hyper
from seqrank.trainer import TrainConfig
from test_acceptance import SMALL

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace.npz")
KINDS = ("vtrnn", "vrnn", "vtbpr", "mf")
RECURRENT_REL_TOL = 1e-12


def trace(kind: str) -> dict:
    """{block name: array} plus "log": the training-log lines."""
    corpus, feats = synth_corpus(SMALL, np.random.default_rng(77))
    lines = []
    ranker = build_ranker(kind, corpus, feats, Hyper(d=4, f_v=3, f_t=3),
                          TrainConfig(epochs=2, seed=5), log=lines.append)
    out = {name: block for name, block in ranker.params.blocks()}
    out["log"] = np.array(lines)
    return out


def record(path: str = GOLDEN) -> None:
    np.savez(path, **{f"{kind}/{name}": value
                      for kind in KINDS for name, value in trace(kind).items()})


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as z:
        return {key: z[key] for key in z.files}


@pytest.mark.parametrize("kind", KINDS)
def test_golden_trace(golden, kind):
    got = trace(kind)
    assert sorted(got) == sorted(key.split("/", 1)[1] for key in golden
                                 if key.startswith(kind + "/"))
    assert got["log"].tolist() == golden[f"{kind}/log"].tolist()
    for name, block in got.items():
        if name == "log":
            continue
        want = golden[f"{kind}/{name}"]
        assert block.shape == want.shape, name
        if kind in ("vtbpr", "mf"):
            assert np.array_equal(block, want), name
        else:
            scale = np.max(np.abs(want)) if want.size else 0.0
            err = np.max(np.abs(block - want)) if want.size else 0.0
            assert err <= RECURRENT_REL_TOL * scale, (name, err, scale)


if __name__ == "__main__":
    record()
