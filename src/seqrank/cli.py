"""Command-line surface: train, eval, coldstart, gradcheck, synth.

Configuration is one JSON file; every default is filled in and the resolved
config is echoed to stdout before work starts, so a run is reproducible
from its own output. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric divergence, 5 gradient-check failure.
"""

import argparse
import copy
import csv
import json
import os
import sys

import numpy as np

from . import baselines, checkpoint, dataio, evaluator, model, numkit, trainer
from .errors import ConfigError, DataError, DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGE = 4
EXIT_GRADCHECK = 5

GRAD_TOL = 1e-5

DEFAULTS = {
    "kind": "vtrnn",
    "seed": 0,
    "out": "out",
    "data": {"sequences": None, "visual": None, "textual": None,
             "min_len": dataio.MIN_LEN, "split_frac": dataio.SPLIT_FRAC},
    "hyper": {"d": 10, "alpha": None, "lam_theta": 0.001, "lam_e": 0.001,
              "lam_v": 0.001, "init_lo": -0.5, "init_hi": 0.5},
    "train": {"epochs": 20, "shuffle_users": False, "clip_norm": None},
    "eval": {"cutoffs": [10, 30, 50], "bins": [1, 2, 4, 8, 16, 32, 64, 128, 256],
             "coldstart_k": 30},
    "pairs": None,
    "synth": None,
}


def _merge(defaults: dict, given: dict, prefix: str, problems: list) -> dict:
    out = copy.deepcopy(defaults)
    for key, val in given.items():
        if key not in defaults:
            problems.append(f"unknown config key {prefix}{key!r}")
        elif isinstance(defaults[key], dict) and defaults[key] is not None:
            if isinstance(val, dict):
                out[key] = _merge(defaults[key], val, f"{prefix}{key}.", problems)
            else:
                problems.append(f"config key {prefix}{key!r} must be an object")
        else:
            out[key] = val
    return out


def _is_count(v, least: int) -> bool:
    """An integer (not a bool) of at least `least`."""
    return numkit.is_int(v) and v >= least


def _train_config(cfg: dict) -> trainer.TrainConfig:
    tr = cfg["train"]
    return trainer.TrainConfig(epochs=tr["epochs"], seed=cfg["seed"],
                               shuffle_users=tr["shuffle_users"],
                               clip_norm=tr["clip_norm"])


def _eval_config(cfg: dict) -> evaluator.EvalConfig:
    ev = cfg["eval"]
    return evaluator.EvalConfig(cutoffs=tuple(ev["cutoffs"]),
                                bins=tuple(ev["bins"]),
                                coldstart_k=ev["coldstart_k"])


def resolve_config(args) -> dict:
    """Read the JSON config, fill defaults, apply flag overrides, and
    validate everything validatable before touching data. All problems are
    reported together."""
    problems = []
    raw = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # not UTF-8, not JSON, or nested too deeply for the decoder
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")

    cfg = _merge(DEFAULTS, raw, "", problems)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out

    kind = cfg["kind"]
    if kind not in model.ALL_KINDS:
        problems.append(f"kind must be one of {sorted(model.ALL_KINDS)}, "
                        f"got {kind!r}")
    if not _is_count(cfg["seed"], 0):
        problems.append(f"seed must be an integer >= 0, got {cfg['seed']!r}")

    if not isinstance(cfg["out"], str):
        problems.append(f"out must be a path string, got {cfg['out']!r}")
    elif args.cmd != "gradcheck":  # the one command that writes no files
        if not cfg["out"]:  # abspath would read it as the working directory
            problems.append("out path is empty")
        elif "\0" in cfg["out"]:  # no system call takes it
            problems.append(f"out path {cfg['out']!r} holds a NUL character")
        else:
            # out, or the nearest ancestor of out that exists, must be a
            # directory for os.makedirs to make it
            out = found = os.path.abspath(cfg["out"])
            while not os.path.lexists(found):
                found = os.path.dirname(found)
            if not os.path.isdir(found):
                where = "exists and" if found == out else f"lies under {found!r}, which"
                problems.append(f"out path {cfg['out']!r} {where} is not a directory")
    pairs = cfg["pairs"]
    if pairs is not None and not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(name, str) for name in p) for p in pairs)):
        problems.append(f"pairs must be null or a list of [name, name] "
                        f"string pairs, got {pairs!r}")

    data = cfg["data"]
    needs_data = args.cmd in ("train", "eval", "coldstart")
    for key in ("sequences", "visual", "textual"):
        path = data[key]
        if path is not None and not isinstance(path, str):
            problems.append(f"data.{key} must be a path string or null, got {path!r}")
        elif needs_data and path is not None:
            if not os.path.exists(path):
                problems.append(f"data.{key} path {path!r} does not exist")
            elif not os.path.isfile(path):
                problems.append(f"data.{key} path {path!r} is not a regular file")
    if needs_data:
        if data["sequences"] is None:
            problems.append("data.sequences is required")
        if kind in model.MASK_BY_KIND:
            need = model.MASK_BY_KIND[kind]
            if "visual" in need and data["visual"] is None:
                problems.append(f"kind {kind!r} needs data.visual features")
            if "textual" in need and data["textual"] is None:
                problems.append(f"kind {kind!r} needs data.textual features")
    if not _is_count(data["min_len"], 2):
        problems.append(f"data.min_len must be an integer >= 2, got {data['min_len']!r}")
    if not (isinstance(data["split_frac"], (int, float))
            and 0.0 < data["split_frac"] < 1.0):
        problems.append(f"data.split_frac must be in (0,1), got {data['split_frac']!r}")

    hy = cfg["hyper"]
    if hy["alpha"] is None:
        hy["alpha"] = 0.01 if kind == "mf" else 0.1
    try:
        model.Hyper(d=hy["d"], **{k: hy[k] for k in model.HYPER_REALS})
    except (ConfigError, TypeError) as exc:
        problems.append(f"hyper: {exc}")
    try:
        _train_config(cfg)
    except (ConfigError, TypeError) as exc:
        problems.append(f"train: {exc}")
    try:
        _eval_config(cfg)
    except (ConfigError, TypeError) as exc:
        problems.append(f"eval: {exc}")
    if args.cmd == "synth" and cfg["synth"] is None:
        problems.append("synth section is required for the synth command")
    if cfg["synth"] is not None:
        try:
            dataio.SynthSpec.from_json(cfg["synth"])
        except ConfigError as exc:
            problems.append(f"synth: {exc}")

    if problems:
        raise ConfigError("\n".join(problems))
    return cfg


def echo_config(cfg: dict) -> None:
    print(json.dumps(cfg, indent=2, sort_keys=True))


def build_data(cfg: dict):
    data = cfg["data"]
    corpus = dataio.load_corpus(data["sequences"], data["min_len"],
                                data["split_frac"])
    if data["visual"] is not None:
        vis = dataio.load_features(data["visual"], *dataio.VISUAL_RANGE)
    else:
        vis = dataio.empty_table()
    if data["textual"] is not None:
        tex = dataio.load_features(data["textual"], *dataio.TEXTUAL_RANGE)
    else:
        tex = dataio.empty_table()
    feats = dataio.build_feature_store(corpus, vis, tex)
    for label, missing in (("visual", feats.missing_visual),
                           ("textual", feats.missing_textual)):
        if missing:
            print(f"warning: {len(missing)} items lack {label} features "
                  f"(zero-filled), first: {missing[0]}", file=sys.stderr)
    return corpus, feats


def _write_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    corpus, feats = build_data(cfg)
    kind, hy = cfg["kind"], cfg["hyper"]
    hy["f_v"] = feats.f_v
    hy["f_t"] = feats.f_t
    echo_config(cfg)
    os.makedirs(cfg["out"], exist_ok=True)
    tcfg = _train_config(cfg)
    # the kind's mask is build_ranker's to set
    hyper = model.Hyper(d=hy["d"], f_v=feats.f_v, f_t=feats.f_t,
                        **{k: hy[k] for k in model.HYPER_REALS})
    log_path = os.path.join(cfg["out"], f"train_{kind}.log")
    with open(log_path, "w", encoding="utf-8") as log_fh:
        ranker = baselines.build_ranker(
            kind, corpus, feats, hyper, tcfg,
            log=lambda line: print(line, file=log_fh))
    ckpt_path = os.path.join(cfg["out"], f"{kind}.ckpt")
    checkpoint.save_ranker(ckpt_path, ranker)
    print(f"checkpoint: {ckpt_path}")
    print(f"training log: {log_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    corpus, feats = build_data(cfg)
    echo_config(cfg)
    ranker = checkpoint.load_ranker(args.checkpoint, corpus, feats)
    report, _ = evaluator.evaluate(ranker, corpus, _eval_config(cfg))
    os.makedirs(cfg["out"], exist_ok=True)
    base = os.path.join(cfg["out"], f"eval_{report.kind}")
    _write_json(base + ".json", report.to_json_dict())
    _write_csv(base + ".csv", report.csv_rows())
    print(f"users evaluated: {report.users_evaluated}  auc: {report.auc:.4f}")
    for k in report.cutoffs:
        m = report.per_cutoff[k]
        print(f"@{k}: recall {m['recall']:.4f}  precision {m['precision']:.4f}"
              f"  map {m['map']:.4f}  ndcg {m['ndcg']:.4f}")
    print(f"reports: {base}.json {base}.csv")
    return EXIT_OK


def cmd_coldstart(args) -> int:
    cfg = resolve_config(args)
    corpus, feats = build_data(cfg)
    echo_config(cfg)
    rankers = {}
    for path in args.checkpoints:
        ranker = checkpoint.load_ranker(path, corpus, feats)
        name = ranker.kind
        while name in rankers:
            name += "+"
        rankers[name] = ranker
    names = list(rankers)
    if cfg["pairs"] is not None:
        pairs = [tuple(p) for p in cfg["pairs"]]
    elif len(names) >= 2:
        pairs = [(names[0], names[1])]
    else:
        pairs = []
    evaluator.check_pairs(pairs, names)
    ecfg = _eval_config(cfg)
    rankings = {}
    for name in names:  # pop: a ranker is freed once its rankings are kept
        _, rankings[name] = evaluator.evaluate(rankers.pop(name), corpus, ecfg)
    report = evaluator.cold_start_bins(corpus, rankings, ecfg, pairs)
    os.makedirs(cfg["out"], exist_ok=True)
    base = os.path.join(cfg["out"], "coldstart")
    _write_json(base + ".json", report.to_json_dict())
    _write_csv(base + ".csv", report.csv_rows())
    for name, vals in report.growth.items():
        shown = ["undef" if v is None else f"{v:.3f}" for v in vals]
        print(f"growth {name}: " + " ".join(shown))
    print(f"reports: {base}.json {base}.csv")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    h = model.Hyper(d=2, f_v=3, f_t=3)
    worst, failed = 0.0, False
    for kind, key in baselines.GRAD_CHECK_STREAMS.items():
        report = baselines.grad_check(
            kind, h, np.random.default_rng([cfg["seed"], key]))
        for block, err in sorted(report.items()):
            status = "ok" if err < GRAD_TOL else "FAIL"
            print(f"{kind}\t{block}\t{err:.3e}\t{status}")
            worst = max(worst, err)
            failed = failed or err >= GRAD_TOL
    print(f"max relative error: {worst:.3e} (tolerance {GRAD_TOL:.0e})")
    return EXIT_GRADCHECK if failed else EXIT_OK


def cmd_synth(args) -> int:
    cfg = resolve_config(args)
    spec_fields = dict(cfg["synth"])
    if args.seed is not None:
        spec_fields["seed"] = args.seed
    spec = dataio.SynthSpec.from_json(spec_fields)
    cfg["synth"] = spec_fields
    echo_config(cfg)
    raw_seqs, vis, tex = dataio.synth_raw(spec, np.random.default_rng(spec.seed))
    os.makedirs(cfg["out"], exist_ok=True)
    seq_path = os.path.join(cfg["out"], "sequences.tsv")
    vis_path = os.path.join(cfg["out"], "visual.tsv")
    tex_path = os.path.join(cfg["out"], "textual.tsv")
    dataio.write_sequences(seq_path, raw_seqs)
    dataio.write_features(vis_path, vis)
    dataio.write_features(tex_path, tex)
    print(f"wrote {len(raw_seqs)} user sequences to {seq_path}")
    print(f"wrote {spec.items} visual rows to {vis_path}")
    print(f"wrote {spec.items} textual rows to {tex_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="seqrank",
        description="sequential ranking models with content features")
    sub = p.add_subparsers(dest="cmd", required=True)
    specs = {
        "train": (cmd_train, "train a model and write a checkpoint"),
        "eval": (cmd_eval, "evaluate a checkpoint"),
        "coldstart": (cmd_coldstart, "frequency-bin analysis over checkpoints"),
        "gradcheck": (cmd_gradcheck, "verify analytic gradients by finite differences"),
        "synth": (cmd_synth, "generate a planted-structure corpus"),
    }
    for name, (fn, help_text) in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.set_defaults(fn=fn)
    sub.choices["eval"].add_argument("checkpoint")
    sub.choices["coldstart"].add_argument("checkpoints", nargs="+")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGE


if __name__ == "__main__":
    sys.exit(main())
