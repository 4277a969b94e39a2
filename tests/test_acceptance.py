"""Acceptance checks for the whole package.

One test per acceptance property, each asserting exactly the documented
bound. The planted-corpus configurations are fixed by seed, so every run
sees identical numbers; the runtime bounds are asserted where the property
includes one.
"""

import time

import numpy as np
import pytest

from reference_metrics import (auc_ref, average_precision_ref, ndcg_ref,
                               precision_ref, recall_ref)
from seqrank import baselines, checkpoint, evaluator, model, numkit, sgd
from seqrank.baselines import build_ranker
from seqrank.dataio import SynthSpec, sample_triples, synth_corpus
from seqrank.evaluator import (EvalConfig, auc_from_scores, cold_start_bins,
                               cutoff_metrics, evaluate)
from seqrank.model import MASK_BY_KIND, Hyper, init_params
from seqrank.trainer import TrainConfig, sequence_context, sequence_updates

GRAD_TOL = 1e-5
ORACLE_TOL = 1e-12
EXACT = 0.0


# ---------------------------------------------------------------------------
# 1. analytic gradients match central finite differences for every
#    trainable model, max relative error < 1e-5, in under 10 seconds

def test_gradient_fidelity_all_trainable_models():
    t0 = time.monotonic()
    worst = {}
    h = Hyper(d=2)
    for kind, key in baselines.GRAD_CHECK_STREAMS.items():
        report = baselines.grad_check(kind, h, np.random.default_rng([0, key]))
        worst[kind] = max(report.values())
    assert sorted(worst) == sorted(MASK_BY_KIND)
    elapsed = time.monotonic() - t0
    assert max(worst.values()) < GRAD_TOL, worst
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2./3. planted-corpus ranking order and the random baseline's AUC

PLANTED = SynthSpec(users=200, items=400, clusters=8, seq_len=20,
                    f_dim_visual=10, f_dim_textual=10, noise_sigma=0.3,
                    seed=42)


@pytest.fixture(scope="module")
def planted_aucs():
    t0 = time.monotonic()
    corpus, feats = synth_corpus(PLANTED, np.random.default_rng(42))
    cfg = TrainConfig(epochs=30, seed=7)
    ecfg = EvalConfig(cutoffs=(10,), bins=(1,))
    aucs = {}
    for kind in ("random", "rnn", "vtrnn"):
        h = Hyper(d=10)
        report, _ = evaluate(build_ranker(kind, corpus, feats, h, cfg),
                             corpus, ecfg)
        aucs[kind] = report.auc
    pairs = 0
    for u in corpus.eval_users():
        n_rel = len(set(corpus.test_rows[u].tolist()))
        pairs += n_rel * (corpus.candidate_rows(u).size - n_rel)
    return aucs, pairs, time.monotonic() - t0


def test_planted_corpus_ranking_order(planted_aucs):
    aucs, _, elapsed = planted_aucs
    assert aucs["vtrnn"] > 0.75, aucs
    assert aucs["vtrnn"] > aucs["rnn"], aucs
    assert aucs["rnn"] > aucs["random"], aucs
    assert elapsed < 300.0, f"planted-corpus run took {elapsed:.0f}s"


def test_random_ranker_auc_near_half(planted_aucs):
    aucs, pairs, _ = planted_aucs
    assert pairs >= 10_000  # enough ranked pairs for the 0.02 band
    assert abs(aucs["random"] - 0.5) < 0.02


# ---------------------------------------------------------------------------
# 4. metric implementations match brute-force references to 1e-12 on
#    randomized micro-instances (<= 5 candidates, <= 3 relevant)

def test_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        ranked = [f"c{j}" for j in rng.permutation(n)]
        n_rel = int(rng.integers(1, min(3, n - 1) + 1))
        relevant = set(rng.choice(ranked, size=n_rel, replace=False))
        k = int(rng.integers(1, n + 1))

        hit = np.array([it in relevant for it in ranked])
        recall, precision, ap, ndcg = cutoff_metrics(hit, n_rel, (k,))[k]
        assert abs(recall - recall_ref(ranked, relevant, k)) <= ORACLE_TOL
        assert abs(precision - precision_ref(ranked, relevant, k)) <= ORACLE_TOL
        assert abs(ap - average_precision_ref(ranked, relevant, k)) <= ORACLE_TOL
        assert abs(ndcg - ndcg_ref(ranked, relevant, k)) <= ORACLE_TOL

        # scores drawn from a small grid so ties occur regularly, passed
        # as the evaluator passes them: (id, score) pairs in ranked
        # (descending) order, with the relevant positions
        scores = rng.choice([0.0, 0.5, 1.0, 2.0], size=n)
        rel_mask = np.zeros(n, dtype=bool)
        rel_mask[rng.choice(n, size=n_rel, replace=False)] = True
        order = np.argsort(-scores, kind="stable")
        scores, rel_mask = scores[order], rel_mask[order]
        ranking = list(zip(ranked, scores.tolist()))
        assert abs(auc_from_scores(ranking, np.flatnonzero(rel_mask).tolist())
                   - auc_ref(scores.tolist(), rel_mask.tolist())) <= ORACLE_TOL


# ---------------------------------------------------------------------------
# 5. cold-start trend: relative improvement of the feature model over the
#    featureless recurrent model grows toward the coldest frequency bin

COLD_BINS = (2, 4, 8, 16, 32)


def cold_start_growth(seed):
    spec = SynthSpec(users=200, items=400, clusters=8, seq_len=20,
                     f_dim_visual=16, f_dim_textual=16, noise_sigma=0.15,
                     seed=seed, cold_fraction=0.3, cold_prob=0.5,
                     tail_fraction=0.1, tail_pool=5)
    corpus, feats = synth_corpus(spec, np.random.default_rng(seed))
    freq = evaluator.test_frequencies(corpus)
    test_items = {j for u in corpus.users for j in corpus.test_rows[u].tolist()}
    cold_share = sum(1 for j in test_items if freq[j] <= 2) / len(test_items)
    assert cold_share >= 0.30  # planted corpus: >= 30% rare test items

    rankings = {}
    ecfg = EvalConfig(cutoffs=(30,), bins=COLD_BINS, coldstart_k=30)
    for kind in ("rnn", "vtrnn"):
        h = Hyper(d=10, lam_theta=0.02, lam_e=0.02, lam_v=0.02)
        ranker = build_ranker(kind, corpus, feats, h,
                              TrainConfig(epochs=10, seed=seed + 7))
        _, rankings[kind] = evaluate(ranker, corpus, ecfg)
    report = cold_start_bins(corpus, rankings, ecfg, [("vtrnn", "rnn")])
    return report.growth["vtrnn_over_rnn"]


def test_cold_start_growth_trend():
    t0 = time.monotonic()
    wins = 0
    for seed in (101, 202, 303):
        g = cold_start_growth(seed)
        if g[0] is not None and g[-1] is not None and g[0] > g[-1]:
            wins += 1
    elapsed = time.monotonic() - t0
    assert wins >= 2, f"coldest-bin growth won only {wins}/3 seeds"
    assert elapsed < 600.0, f"cold-start runs took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. determinism and persistence: byte-identical checkpoints from one
#    (config, seed) and bit-exact round trips

SMALL = SynthSpec(users=20, items=60, clusters=3, seq_len=10,
                  f_dim_visual=3, f_dim_textual=3, noise_sigma=0.3, seed=77)


def test_determinism_and_persistence(tmp_path):
    corpus, feats = synth_corpus(SMALL, np.random.default_rng(77))
    h = Hyper(d=4)
    cfg = TrainConfig(epochs=3, seed=5)

    for run in ("a", "b"):
        ranker = build_ranker("vtrnn", corpus, feats, h, cfg)
        checkpoint.save_ranker(tmp_path / f"{run}.ckpt", ranker)
    bytes_a = (tmp_path / "a.ckpt").read_bytes()
    assert bytes_a == (tmp_path / "b.ckpt").read_bytes()

    loaded = checkpoint.load_ranker(tmp_path / "a.ckpt", corpus, feats)
    for u in corpus.users:
        assert loaded.rank(u) == ranker.rank(u)  # bit-exact scores and order


# ---------------------------------------------------------------------------
# 7. objective ascent: with no penalty and a small rate, the training
#    objective rises over 5 epochs on frozen negatives in >= 19/20 runs

ASCENT = SynthSpec(users=10, items=30, clusters=3, seq_len=10,
                   f_dim_visual=4, f_dim_textual=4, noise_sigma=0.3, seed=5)


def objective_gain(corpus, feats, seed):
    h = Hyper(d=4, mask=("latent", "visual", "textual"),
              alpha=0.03, lam_theta=0.0, lam_e=0.0, lam_v=0.0)
    params = init_params(h, feats, None, corpus.n_items,
                         np.random.default_rng([seed, 0]))
    rng = np.random.default_rng([seed, 1])
    frozen = {u: sample_triples(corpus, u, len(corpus.train_rows[u]) - 1, rng)
              for u in corpus.users}

    def objective():
        """sum of ln sigma(score) over the frozen pairs; with every lambda
        0 there is no penalty term"""
        return sum(float(np.sum(numkit.log_sigmoid(sequence_context(
            params, corpus, feats, h, u, neg_rows).scores)))
            for u, neg_rows in frozen.items())

    before = objective()
    for _ in range(5):
        for u, neg_rows in frozen.items():
            # one step per sequence, as training takes it
            ctx = sequence_context(params, corpus, feats, h, u, neg_rows)
            sgd.apply(params, sequence_updates(ctx, params, feats, h), h.alpha,
                      h.decay)
    return objective() - before


def test_objective_ascent():
    corpus, feats = synth_corpus(ASCENT, np.random.default_rng(5))
    gains = [objective_gain(corpus, feats, seed) for seed in range(20)]
    ascended = sum(1 for g in gains if g > 0.0)
    assert ascended >= 19, f"objective rose in only {ascended}/20 runs: {gains}"


# ---------------------------------------------------------------------------
# 8. ablation identities, all bit-exact

def test_ablation_identities():
    corpus, feats = synth_corpus(SMALL, np.random.default_rng(77))

    # (a) the bpr kind, trained with the real features present, is the
    #     latent-only content model trained without any
    cfg = TrainConfig(epochs=2, seed=9)
    plain = build_ranker("bpr", corpus, feats, Hyper(d=4), cfg).params
    empty = {name: np.zeros((corpus.n_items, 0)) for name in feats}
    content = baselines.train_content_bpr(
        corpus, empty, Hyper(d=4, mask=MASK_BY_KIND["bpr"]), cfg, None)
    for name in ("Gamma", "X"):
        assert np.array_equal(plain[name], content[name]), name

    # (b) the unbounded frequency bin reproduces plain recall exactly
    k = 10
    ranker = build_ranker("vtrnn", corpus, feats, Hyper(d=4),
                          TrainConfig(epochs=2, seed=5))
    ecfg = EvalConfig(cutoffs=(k,), bins=(1, 2, 4), coldstart_k=k)
    report, rankings = evaluate(ranker, corpus, ecfg)
    cs = cold_start_bins(corpus, {"vtrnn": rankings}, ecfg)
    assert cs.recalls["vtrnn"][-1] == report.per_cutoff[k]["recall"]

    # (c) swapping the pair negates the score exactly
    rng = np.random.default_rng(1)
    for _ in range(100):
        prev = rng.normal(size=9)
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        assert model.score_pair(prev, a, b) == -model.score_pair(prev, b, a)
