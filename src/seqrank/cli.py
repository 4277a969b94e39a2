"""Command-line surface: train, eval, coldstart, gradcheck, synth.

Configuration is one JSON file; every default is filled in and the resolved
config is echoed to stdout before work starts, so a run is reproducible
from its own output. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric divergence, 5 gradient-check failure.
"""

import argparse
import contextlib
import copy
import csv
import functools
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


# each section's one builder: resolve_config runs it to check the section,
# and the command that uses the section runs it again to get the object
SECTIONS = {
    "hyper": lambda cfg: model.Hyper(**cfg["hyper"]),
    "train": lambda cfg: trainer.TrainConfig(seed=cfg["seed"], **cfg["train"]),
    "eval": lambda cfg: evaluator.EvalConfig(
        cutoffs=tuple(cfg["eval"]["cutoffs"]), bins=tuple(cfg["eval"]["bins"]),
        coldstart_k=cfg["eval"]["coldstart_k"]),
    "synth": lambda cfg: dataio.SynthSpec.from_json(cfg["synth"]),
}


def _merge(raw: dict, problems: list) -> dict:
    """DEFAULTS with the config's values in place. `data` and each section
    must be an object (synth, null by default, may stay null), and a value
    whose default is a list must be a list: tuple() would split a string
    into characters and read an object as its keys."""
    cfg = copy.deepcopy(DEFAULTS)
    for key, val in raw.items():
        if key not in DEFAULTS:
            problems.append(f"unknown config key {key!r}")
        elif (key == "data" or key in SECTIONS) and not isinstance(val, dict):
            if val is not None or DEFAULTS[key] is not None:
                problems.append(f"config key {key!r} must be an object")
        elif isinstance(cfg[key], dict):
            for name, v in val.items():
                dotted = repr(key + "." + name)
                if name not in cfg[key]:
                    problems.append(f"unknown config key {dotted}")
                elif isinstance(cfg[key][name], list) and not isinstance(v, list):
                    problems.append(f"config key {dotted} must be a list, got {v!r}")
                else:
                    cfg[key][name] = v
        else:
            cfg[key] = val
    return cfg


def _out_problems(out: str) -> list:
    """Why `out` cannot be made as a directory, known before it is made."""
    if not out:  # abspath would read it as the working directory
        return ["out path is empty"]
    if "\0" in out:  # no system call takes it
        return [f"out path {out!r} holds a NUL character"]
    # out, or the nearest ancestor of out that exists, must be a
    # directory for os.makedirs to make it
    path = found = os.path.abspath(out)
    while not os.path.lexists(found):
        found = os.path.dirname(found)
    if os.path.isdir(found):
        return []
    where = "exists and" if found == path else f"lies under {found!r}, which"
    return [f"out path {out!r} {where} is not a directory"]


def _data_problems(cfg: dict, cmd: str) -> list:
    data, kind = cfg["data"], cfg["kind"]
    problems = []
    needs_data = cmd in ("train", "eval", "coldstart")
    for key in ("sequences", *dataio.RANGES):
        path = data[key]
        if path is not None and not isinstance(path, str):
            problems.append(f"data.{key} must be a path string or null, got {path!r}")
        elif needs_data and path is not None:
            if not os.path.exists(path):
                problems.append(f"data.{key} path {path!r} does not exist")
            elif not os.path.isfile(path):
                problems.append(f"data.{key} path {path!r} is not a regular file")
    if needs_data and data["sequences"] is None:
        problems.append("data.sequences is required")
    # eval and coldstart run each checkpoint's kind; a kind that is no
    # string (a JSON list or object) is no kind, reported with the rest
    if cmd == "train" and isinstance(kind, str):
        for key in model.MASK_BY_KIND.get(kind, ())[1:]:
            if data[key] is None:
                problems.append(f"kind {kind!r} needs data.{key} features")
    return problems + [f"data.{p}" for p in
                       dataio.split_problems(data["min_len"], data["split_frac"])]


def resolve_config(args) -> dict:
    """Read the JSON config, fill defaults and apply the flag overrides,
    then check everything checkable before any data is read, each section
    by the builder its command runs. All problems are reported together.
    The returned config is the one the command runs and echoes."""
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
    problems = []
    cfg = _merge(raw, problems)
    if args.seed is not None:
        cfg["seed"] = args.seed
        if args.cmd == "synth" and cfg["synth"] is not None:
            cfg["synth"]["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    kind = cfg["kind"]
    if cfg["hyper"]["alpha"] is None:
        # an unknown kind, reported below, gets Hyper's default
        cfg["hyper"]["alpha"] = (model.ALPHA_BY_KIND[kind]
                                 if kind in model.ALL_KINDS else model.Hyper.alpha)

    if kind not in model.ALL_KINDS:
        problems.append(f"kind must be one of {sorted(model.ALL_KINDS)}, "
                        f"got {kind!r}")
    seed_ok = numkit.is_count(cfg["seed"])
    if not seed_ok:
        problems.append(f"seed must be an integer >= 0, got {cfg['seed']!r}")
    if not isinstance(cfg["out"], str):
        problems.append(f"out must be a path string, got {cfg['out']!r}")
    elif args.cmd != "gradcheck":  # the one command that writes no files
        problems += _out_problems(cfg["out"])
    pairs = cfg["pairs"]
    if pairs is not None and not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(name, str) for name in p) for p in pairs)):
        problems.append(f"pairs must be null or a list of [name, name] "
                        f"string pairs, got {pairs!r}")
    problems += _data_problems(cfg, args.cmd)
    if args.cmd == "synth" and raw.get("synth") is None:
        problems.append("synth section is required for the synth command")
    for name, build in SECTIONS.items():
        # a bad --seed is synth's seed too, and is reported once, above
        if cfg[name] is None or (name == "synth" and not seed_ok
                                 and args.seed is not None):
            continue
        try:
            build(cfg)
        except (ConfigError, TypeError) as exc:
            problems.append(f"{name}: {exc}")

    if problems:
        raise ConfigError("\n".join(problems))
    return cfg


def echo_config(cfg: dict) -> None:
    print(json.dumps(cfg, indent=2, sort_keys=True))


def build_data(cfg: dict):
    """(corpus, {content slice: matrix}); a slice whose data key is null
    gets a zero-width matrix."""
    data = cfg["data"]
    corpus = dataio.load_corpus(data["sequences"], data["min_len"],
                                data["split_frac"])
    tables = {name: None if data[name] is None
              else dataio.load_features(data[name], *limits)
              for name, limits in dataio.RANGES.items()}
    feats, missing = dataio.build_feature_store(corpus, tables)
    for name, ids in missing.items():
        if ids:
            print(f"warning: {len(ids)} items lack {name} features "
                  f"(zero-filled), first: {ids[0]}", file=sys.stderr)
    return corpus, feats


def _make_out(cfg: dict) -> str:
    """Make the out directory. An OS refusal that resolve_config could not
    foresee (a name too long, say) is a config error naming the path."""
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make out path {out!r}: "
                          f"{exc.strerror or exc}") from exc
    return out


def _write_reports(cfg: dict, name: str, report) -> str:
    """<out>/<name>.json and .csv; returns the line that names both."""
    base = os.path.join(_make_out(cfg), name)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())
    return f"reports: {base}.json {base}.csv"


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    corpus, feats = build_data(cfg)
    echo_config(cfg)
    out, kind = _make_out(cfg), cfg["kind"]
    log_path = os.path.join(out, f"train_{kind}.log")
    with contextlib.ExitStack() as stack:
        # opened at the first epoch line, so a run refused before training
        # (its blocks too large, say) writes no log
        @functools.cache
        def log_fh():
            return stack.enter_context(open(log_path, "w", encoding="utf-8"))
        ranker = baselines.build_ranker(
            kind, corpus, feats, SECTIONS["hyper"](cfg), SECTIONS["train"](cfg),
            log=lambda line: print(line, file=log_fh()))
    ckpt_path = os.path.join(out, f"{kind}.ckpt")
    checkpoint.save_ranker(ckpt_path, ranker)
    print(f"checkpoint: {ckpt_path}")
    print(f"training log: {log_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    corpus, feats = build_data(cfg)
    echo_config(cfg)
    ranker = checkpoint.load_ranker(args.checkpoint, corpus, feats)
    report, _ = evaluator.evaluate(ranker, corpus, SECTIONS["eval"](cfg))
    written = _write_reports(cfg, f"eval_{report.kind}", report)
    print(f"users evaluated: {report.users_evaluated}  auc: {report.auc:.4f}")
    for k in report.cutoffs:
        m = report.per_cutoff[k]
        print(f"@{k}: recall {m['recall']:.4f}  precision {m['precision']:.4f}"
              f"  map {m['map']:.4f}  ndcg {m['ndcg']:.4f}")
    print(written)
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
    ecfg = SECTIONS["eval"](cfg)
    hits = {}
    for name in names:  # pop: a ranker is freed once its hit rows are kept
        _, hits[name] = evaluator.evaluate(rankers.pop(name), corpus, ecfg)
    report = evaluator.cold_start_bins(corpus, hits, ecfg, pairs)
    written = _write_reports(cfg, "coldstart", report)
    for name, vals in report.growth.items():
        shown = ["undef" if v is None else f"{v:.3f}" for v in vals]
        print(f"growth {name}: " + " ".join(shown))
    print(written)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    h = model.Hyper(d=2)
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
    spec = SECTIONS["synth"](cfg)
    echo_config(cfg)
    raw_seqs, tables = dataio.synth_raw(spec, np.random.default_rng(spec.seed))
    out = _make_out(cfg)
    seq_path = os.path.join(out, "sequences.tsv")
    dataio.write_sequences(seq_path, raw_seqs)
    print(f"wrote {len(raw_seqs)} user sequences to {seq_path}")
    for name, table in tables.items():
        path = os.path.join(out, f"{name}.tsv")
        dataio.write_features(path, table)
        print(f"wrote {spec.items} {name} rows to {path}")
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
