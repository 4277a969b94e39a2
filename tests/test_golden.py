"""Golden trace: parameters and training-log lines after 2 epochs.

`golden_trace.npz` holds every parameter block and every training-log line
of `vtrnn`, `vrnn`, `vtbpr` and `mf` trained for 2 epochs on the acceptance
`SMALL` corpus. It was recorded with the per-step object implementation of
the recurrent core, before that core moved to plain arrays, and pins the
rewrite to the old numbers. The `vtrnn` and `vrnn` entries, and every
recurrent entry below, were re-recorded when a recurrent sequence became
one ascent (its records summed per block and distinct row):

- log lines are byte-identical for every kind;
- `vtbpr` and `mf` blocks are bit-exact;
- `vtrnn` and `vrnn` blocks agree to a relative error of 1e-12, measured
  as max |new - golden| / max |golden| per block.

The `mf` entry also holds the all-zero E and V kernels, which every model
carried when it was recorded. A model now holds only its kind's blocks,
so the kernel of a slice outside its mask is the one stored block it may
lack.

The `<kind>+shuffle` entries hold `vtrnn`, `vtbpr` and `mf` trained the same
way with `shuffle_users=True`. They were recorded on the array-native core,
before the three trainers shared one epoch driver, and must match bit for
bit.

The `<kind>+ranking` entries hold `rank(u)` of every corpus user for
`vtrnn`, `vrnn`, `vtbpr`, `mf`, `pop` and `random` (the trained kinds as
above, without shuffling): the item ids and scores of all rankings end to
end, and each ranking's length. They were recorded while rankings were
still built per user and per candidate in Python, before ranking moved to
array operations and one batched recurrence over all users. Ids and lengths
must match exactly; scores bit for bit, except for the recurrent kinds,
whose scores may differ by 1e-14 absolute.

The `<kind>+report` entries hold what `evaluate` gives for the same six
rankers under the default `EvalConfig`: every report value (each cutoff's
metrics in `METRICS` order, then AUC), the user and skipped-AUC counts,
and the kept hit rows (each user's relevant items ranked within
`coldstart_k`), concatenated in user order with their lengths. The values
and counts were recorded before the evaluator read each ranking in one
pass; the hit rows replaced the kept ranked prefixes later, with values
and counts re-recorded byte for byte. All must match bit for bit.

The `coldstart` entry holds the cold-start report of the same six rankers,
with the growth of `vtrnn` over `vrnn` and of `vtbpr` over `mf`, under the
default `EvalConfig` and under `coldstart_k=5`, where the top-k hits are
partial: the users per bin, every recall and every growth, NaN where a
value is undefined. It was recorded while the cold-start bins matched the
kept ranked ids against the test items a second time, and must match bit
for bit.

Running this file records every entry missing from `golden_trace.npz` and
keeps the ones it has; delete an entry (or the file) to re-record it, and
only when the training arithmetic is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import functools
import os

import numpy as np
import pytest

from seqrank.baselines import build_ranker
from seqrank.dataio import synth_corpus
from seqrank.evaluator import METRICS, EvalConfig, cold_start_bins, evaluate
from seqrank.model import KERNELS, MASK_BY_KIND, Hyper
from seqrank.trainer import TrainConfig
from test_acceptance import SMALL

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace.npz")
KINDS = ("vtrnn", "vrnn", "vtbpr", "mf")
SHUFFLED_KINDS = ("vtrnn", "vtbpr", "mf")
RANKED_KINDS = ("vtrnn", "vrnn", "vtbpr", "mf", "pop", "random")
RECURRENT_REL_TOL = 1e-12
RECURRENT_SCORE_TOL = 1e-14
COLDSTART_CONFIGS = (EvalConfig(), EvalConfig(coldstart_k=5))
COLDSTART_PAIRS = [("vtrnn", "vrnn"), ("vtbpr", "mf")]


@functools.lru_cache(maxsize=None)
def build(kind: str, shuffle: bool = False) -> tuple:
    """(ranker, training-log lines) of `kind` trained for 2 epochs on the
    SMALL corpus."""
    corpus, feats = synth_corpus(SMALL, np.random.default_rng(77))
    lines = []
    ranker = build_ranker(kind, corpus, feats, Hyper(d=4),
                          TrainConfig(epochs=2, seed=5, shuffle_users=shuffle),
                          log=lines.append)
    return ranker, lines


def trace(kind: str, shuffle: bool = False) -> dict:
    """{block name: array} plus "log": the training-log lines."""
    ranker, lines = build(kind, shuffle)
    out = {name: block.copy() for name, block in ranker.params.items()}
    out["log"] = np.array(lines)
    return out


def rankings(kind: str) -> dict:
    """"ids" and "scores" of every corpus user's ranking, concatenated in
    user order, and "lengths", each ranking's length."""
    ranker, _ = build(kind)
    ranked = [ranker.rank(u) for u in ranker.corpus.users]
    return {"ids": np.array([it for r in ranked for it, _ in r]),
            "scores": np.array([s for r in ranked for _, s in r]),
            "lengths": np.array([len(r) for r in ranked])}


def reports(kind: str) -> dict:
    """"values": every report metric, each cutoff's in METRICS order, then
    AUC; "counts": users evaluated and AUC-skipped; "hits" and "lengths":
    the kept hit rows concatenated in user order, and each user's count."""
    ranker, _ = build(kind)
    report, kept = evaluate(ranker, ranker.corpus, EvalConfig())
    values = [report.per_cutoff[k][m] for k in report.cutoffs for m in METRICS]
    return {"values": np.array(values + [report.auc]),
            "counts": np.array([report.users_evaluated, report.auc_skipped]),
            "hits": np.concatenate(list(kept.values())),
            "lengths": np.array([len(rows) for rows in kept.values()])}


def coldstart() -> dict:
    """"bin_users", "recalls" (RANKED_KINDS order) and "growth"
    (COLDSTART_PAIRS order) of the cold-start report of the six rankers,
    one row per config of COLDSTART_CONFIGS, NaN where undefined."""
    out = {"bin_users": [], "recalls": [], "growth": []}
    for cfg in COLDSTART_CONFIGS:
        kept = {}
        for kind in RANKED_KINDS:
            ranker, _ = build(kind)
            _, kept[kind] = evaluate(ranker, ranker.corpus, cfg)
        report = cold_start_bins(ranker.corpus, kept, cfg, COLDSTART_PAIRS)
        out["bin_users"].append(report.bin_users)
        out["recalls"].append([report.recalls[kind] for kind in RANKED_KINDS])
        out["growth"].append([report.growth[f"{a}_over_{b}"]
                              for a, b in COLDSTART_PAIRS])
    return {name: np.array(v, dtype=int if name == "bin_users" else float)
            for name, v in out.items()}


def entries() -> dict:
    """Entry prefix -> function computing the entry's arrays."""
    out = {kind: functools.partial(trace, kind) for kind in KINDS}
    out.update({f"{kind}+shuffle": functools.partial(trace, kind, True)
                for kind in SHUFFLED_KINDS})
    out.update({f"{kind}+ranking": functools.partial(rankings, kind)
                for kind in RANKED_KINDS})
    out.update({f"{kind}+report": functools.partial(reports, kind)
                for kind in RANKED_KINDS})
    out["coldstart"] = coldstart
    return out


def record(path: str = GOLDEN) -> None:
    have = {}
    if os.path.exists(path):
        with np.load(path) as z:
            have = {key: z[key] for key in z.files}
    prefixes = {key.split("/", 1)[0] for key in have}
    for prefix, compute in entries().items():
        if prefix not in prefixes:
            have.update({f"{prefix}/{name}": value
                         for name, value in compute().items()})
    np.savez(path, **have)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as z:
        return {key: z[key] for key in z.files}


def stored(golden, prefix: str) -> dict:
    return {key.split("/", 1)[1]: value for key, value in golden.items()
            if key.startswith(prefix + "/")}


def check_entry(golden, prefix: str, exact: bool) -> None:
    got, want = entries()[prefix](), stored(golden, prefix)
    # the trace was recorded while every model held a kernel per content
    # slice; a kernel of a slice outside the kind's mask was all zero, and
    # is the only stored block a model may lack
    mask = MASK_BY_KIND[prefix.split("+")[0]]
    unread = {block for name, block in KERNELS.items() if name not in mask}
    for name in set(want) - set(got):
        assert name in unread and not want[name].any(), name
    assert set(got) <= set(want)
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


@pytest.mark.parametrize("kind", RANKED_KINDS)
def test_golden_rankings(golden, kind):
    got, want = rankings(kind), stored(golden, f"{kind}+ranking")
    assert sorted(got) == sorted(want)
    assert got["lengths"].tolist() == want["lengths"].tolist()
    assert got["ids"].tolist() == want["ids"].tolist()
    assert got["scores"].shape == want["scores"].shape
    if kind in ("vtrnn", "vrnn"):
        err = np.max(np.abs(got["scores"] - want["scores"]))
        assert err <= RECURRENT_SCORE_TOL, err
    else:
        assert np.array_equal(got["scores"], want["scores"])


@pytest.mark.parametrize("kind", RANKED_KINDS)
def test_golden_reports(golden, kind):
    got, want = reports(kind), stored(golden, f"{kind}+report")
    assert sorted(got) == sorted(want)
    assert got["counts"].tolist() == want["counts"].tolist()
    assert got["lengths"].tolist() == want["lengths"].tolist()
    assert got["hits"].tolist() == want["hits"].tolist()
    # bit for bit: the bytes tell -0.0 from 0.0 and compare NaN with itself
    assert got["values"].dtype == want["values"].dtype
    assert got["values"].tobytes() == want["values"].tobytes()


def test_golden_coldstart(golden):
    got, want = coldstart(), stored(golden, "coldstart")
    assert sorted(got) == sorted(want)
    for name, value in got.items():
        # bit for bit: the bytes tell -0.0 from 0.0 and compare NaN with itself
        assert value.dtype == want[name].dtype, name
        assert value.shape == want[name].shape, name
        assert value.tobytes() == want[name].tobytes(), name


if __name__ == "__main__":
    record()
