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

The `<kind>+shuffle` entries hold `vtrnn`, `vtbpr` and `mf` trained the same
way with `shuffle_users=True`. They were recorded on the array-native core,
before the three trainers shared one epoch driver, and must match bit for
bit.

Running this file records every entry missing from `golden_trace.npz` and
keeps the ones it has; delete an entry (or the file) to re-record it, and
only when the training arithmetic is meant to change:

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
SHUFFLED_KINDS = ("vtrnn", "vtbpr", "mf")
RECURRENT_REL_TOL = 1e-12


def trace(kind: str, shuffle: bool = False) -> dict:
    """{block name: array} plus "log": the training-log lines."""
    corpus, feats = synth_corpus(SMALL, np.random.default_rng(77))
    lines = []
    ranker = build_ranker(kind, corpus, feats, Hyper(d=4, f_v=3, f_t=3),
                          TrainConfig(epochs=2, seed=5, shuffle_users=shuffle),
                          log=lines.append)
    out = {name: block for name, block in ranker.params.blocks()}
    out["log"] = np.array(lines)
    return out


def entries() -> dict:
    """Entry prefix -> (kind, shuffle_users)."""
    out = {kind: (kind, False) for kind in KINDS}
    out.update({f"{kind}+shuffle": (kind, True) for kind in SHUFFLED_KINDS})
    return out


def record(path: str = GOLDEN) -> None:
    have = {}
    if os.path.exists(path):
        with np.load(path) as z:
            have = {key: z[key] for key in z.files}
    prefixes = {key.split("/", 1)[0] for key in have}
    for prefix, (kind, shuffle) in entries().items():
        if prefix not in prefixes:
            have.update({f"{prefix}/{name}": value
                         for name, value in trace(kind, shuffle).items()})
    np.savez(path, **have)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as z:
        return {key: z[key] for key in z.files}


def check_entry(golden, prefix: str, exact: bool) -> None:
    kind, shuffle = entries()[prefix]
    got = trace(kind, shuffle)
    assert sorted(got) == sorted(key.split("/", 1)[1] for key in golden
                                 if key.startswith(prefix + "/"))
    assert got["log"].tolist() == golden[f"{prefix}/log"].tolist()
    for name, block in got.items():
        if name == "log":
            continue
        want = golden[f"{prefix}/{name}"]
        assert block.shape == want.shape, name
        if exact:
            assert np.array_equal(block, want), name
        else:
            scale = np.max(np.abs(want)) if want.size else 0.0
            err = np.max(np.abs(block - want)) if want.size else 0.0
            assert err <= RECURRENT_REL_TOL * scale, (name, err, scale)


@pytest.mark.parametrize("kind", KINDS)
def test_golden_trace(golden, kind):
    check_entry(golden, kind, exact=kind in ("vtbpr", "mf"))


@pytest.mark.parametrize("kind", SHUFFLED_KINDS)
def test_golden_trace_shuffled(golden, kind):
    check_entry(golden, f"{kind}+shuffle", exact=True)


if __name__ == "__main__":
    record()
