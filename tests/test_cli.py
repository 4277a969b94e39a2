"""Command-line pipeline: synth -> train -> eval -> coldstart, plus the
gradient checker and config/error handling. Commands run in-process."""

import csv
import importlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from seqrank import checkpoint, cli, model

ROOT = Path(__file__).resolve().parents[1]

SYNTH = {"users": 8, "items": 24, "clusters": 3, "seq_len": 10,
         "f_dim_visual": 2, "f_dim_textual": 2, "noise_sigma": 0.3,
         "seed": 5}


def write_config(path, extra):
    path.write_text(json.dumps(extra))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth corpus plus rnn and vtrnn checkpoints, shared read-only."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    cfg_synth = write_config(root / "synth.json", {"synth": SYNTH})
    assert cli.main(["synth", "--config", cfg_synth, "--out", str(data)]) == 0

    paths = {"sequences": str(data / "sequences.tsv"),
             "visual": str(data / "visual.tsv"),
             "textual": str(data / "textual.tsv")}
    out = {}
    for kind in ("rnn", "vtrnn"):
        cfg = write_config(root / f"{kind}.json", {
            "kind": kind,
            "data": paths,
            "hyper": {"d": 3},
            "train": {"epochs": 2},
        })
        assert cli.main(["train", "--config", cfg, "--seed", "2",
                         "--out", str(root / kind)]) == 0
        out[kind] = root / kind / f"{kind}.ckpt"
    return root, paths, out


def test_synth_writes_parseable_files(pipeline):
    root, paths, _ = pipeline
    lines = open(paths["sequences"]).read().strip().split("\n")
    assert len(lines) == SYNTH["users"]
    head = open(paths["visual"]).readline()
    assert head == "#dims 2\n"


def test_train_outputs(pipeline):
    root, _, ckpts = pipeline
    assert ckpts["rnn"].exists()
    log = (root / "rnn" / "train_rnn.log").read_text().strip().split("\n")
    assert len(log) == 2
    assert log[0].split("\t")[0] == "1"


def test_eval_writes_reports(pipeline, capsys, tmp_path):
    root, paths, ckpts = pipeline
    cfg = write_config(tmp_path / "eval.json",
                       {"data": paths, "eval": {"cutoffs": [5, 10]}})
    code = cli.main(["eval", str(ckpts["vtrnn"]), "--config", cfg,
                     "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "eval_vtrnn.json").read_text())
    assert report["kind"] == "vtrnn"
    assert set(report["cutoffs"]) == {"5", "10"}
    assert 0.0 <= report["auc"] <= 1.0
    with open(tmp_path / "eval_vtrnn.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ranker", "metric", "k", "value", "value_x100"]
    assert len(rows) == 1 + 2 * 4 + 1
    assert "users evaluated" in capsys.readouterr().out


def test_coldstart_reports(pipeline, capsys, tmp_path):
    root, paths, ckpts = pipeline
    cfg = write_config(tmp_path / "cs.json", {
        "data": paths,
        "eval": {"bins": [1, 2, 4], "coldstart_k": 5},
        "pairs": [["vtrnn", "rnn"]],
    })
    code = cli.main(["coldstart", str(ckpts["vtrnn"]), str(ckpts["rnn"]),
                     "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    js = json.loads((tmp_path / "coldstart.json").read_text())
    assert js["bins"] == ["1-1", "1-2", "1-4", "all"]
    assert set(js["recalls"]) == {"vtrnn", "rnn"}
    assert "vtrnn_over_rnn" in js["growth"]
    assert "growth vtrnn_over_rnn:" in capsys.readouterr().out


def test_coldstart_unknown_pair_name_fails_before_evaluating(
        pipeline, capsys, tmp_path, monkeypatch):
    _, paths, ckpts = pipeline
    cfg = write_config(tmp_path / "cs.json", {
        "data": paths, "pairs": [["vtrnn", "nosuch"]]})

    def no_evaluate(*args, **kwargs):
        raise AssertionError("evaluate called before the pairs check")

    monkeypatch.setattr(cli.evaluator, "evaluate", no_evaluate)
    code = cli.main(["coldstart", str(ckpts["vtrnn"]), str(ckpts["rnn"]),
                     "--config", cfg, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert ("growth pair ('vtrnn', 'nosuch') not among rankers "
            "['rnn', 'vtrnn']") in capsys.readouterr().err
    assert not (tmp_path / "coldstart.json").exists()


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "max relative error" in out


def test_gradcheck_rows_cover_every_kind_and_block(capsys):
    # a check that skipped a kind or a block would pass on its error alone
    assert cli.main(["gradcheck", "--seed", "1"]) == 0
    rows = [line.split("\t")[:2]
            for line in capsys.readouterr().out.splitlines()[:-1]]
    want = []
    for kind, mask in model.MASK_BY_KIND.items():
        blocks = ["X"] + (["InMat", "RecMat"] if kind in model.RECURRENT_KINDS
                          else ["Gamma"])
        blocks += ["E"] * ("visual" in mask) + ["V"] * ("textual" in mask)
        want += [[kind, block] for block in blocks]
    assert sorted(rows) == sorted(want)


def test_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"kidn": "rnn"})
    assert cli.main(["gradcheck", "--config", cfg]) == cli.EXIT_CONFIG
    assert "kidn" in capsys.readouterr().err
    cfg = write_config(tmp_path / "c.json", {"hyper": {"f_t": 1}})
    assert cli.main(["gradcheck", "--config", cfg]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error:\nunknown config key 'hyper.f_t'\n"


def test_unknown_kind_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "transformer",
                        "data": {"sequences": "nope.tsv"}})
    assert cli.main(["train", "--config", cfg]) == cli.EXIT_CONFIG
    assert "transformer" in capsys.readouterr().err


def test_missing_sequences_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "pop", "data": {"sequences": "missing.tsv"}})
    assert cli.main(["train", "--config", cfg]) == cli.EXIT_CONFIG
    assert "missing.tsv" in capsys.readouterr().err


def test_malformed_data_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("useronly-no-tab\n")
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "pop", "data": {"sequences": str(bad)}})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == \
        cli.EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_non_finite_features_is_data_error(pipeline, tmp_path, capsys):
    _, paths, _ = pipeline
    lines = open(paths["visual"]).read().split("\n")
    item, values = lines[1].split("\t")
    lines[1] = item + "\t" + " ".join(["nan"] + values.split()[1:])
    bad = tmp_path / "visual.tsv"
    bad.write_text("\n".join(lines))
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "vtrnn", "data": dict(paths, visual=str(bad))})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == \
        cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "visual.tsv:2: non-finite value nan" in err


def test_duplicate_feature_item_is_data_error(pipeline, tmp_path, capsys):
    _, paths, _ = pipeline
    text = open(paths["textual"]).read()
    lines = text.rstrip("\n").split("\n")
    bad = tmp_path / "textual.tsv"
    bad.write_text(text + lines[1] + "\n")
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "vtrnn", "data": dict(paths, textual=str(bad))})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == \
        cli.EXIT_DATA
    err = capsys.readouterr().err
    item = lines[1].split("\t")[0]
    assert err.count("\n") == 1
    assert f"textual.tsv:{len(lines) + 1}: duplicate item id {item!r}" in err


def test_eval_malformed_checkpoint_header(pipeline, tmp_path, capsys):
    _, paths, ckpts = pipeline
    raw = ckpts["vtrnn"].read_bytes()
    (n,) = struct.unpack_from("<I", raw, len(checkpoint.MAGIC))
    payload = raw[len(checkpoint.MAGIC) + 4 + n:]
    good, _ = checkpoint.read_checkpoint(ckpts["vtrnn"])
    cfg = write_config(tmp_path / "c.json", {"data": paths})
    headers = {"list": [good],
               "block-not-object": dict(good, blocks=[["X", [24, 3]]]),
               "missing-d": {k: v for k, v in good.items() if k != "d"}}
    for label, header in headers.items():
        head = json.dumps(header).encode()
        ckpt = tmp_path / f"{label}.ckpt"
        ckpt.write_bytes(checkpoint.MAGIC + struct.pack("<I", len(head))
                         + head + payload)
        code = cli.main(["eval", str(ckpt), "--config", cfg,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA, label
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert "header" in err.split(": ", 2)[2], err


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_eval_non_finite_checkpoint_is_data_error(pipeline, tmp_path, capsys,
                                                  value):
    _, paths, ckpts = pipeline
    raw = bytearray(ckpts["rnn"].read_bytes())
    header, blocks = checkpoint.read_checkpoint(ckpts["rnn"])
    assert [b["name"] for b in header["blocks"]][0] == "X"
    x_at = len(raw) - 8 * sum(b.size for b in blocks.values())
    struct.pack_into("<d", raw, x_at + 8 * 5, value)  # X row 1, column 2
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    cfg = write_config(tmp_path / "c.json", {"data": paths})
    code = cli.main(["eval", str(bad), "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert err.count("\n") == 1
    assert f"bad.ckpt: block 'X' holds the non-finite value {value} at (1, 2)" \
        in err
    assert not (tmp_path / "eval_rnn.json").exists()


def test_eval_checkpoint_corpus_mismatch(pipeline, tmp_path, capsys):
    root, paths, ckpts = pipeline
    other = tmp_path / "seq.tsv"
    other.write_text("u1\ta,b,c,d\nu2\tb,c,d,a\n")
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "rnn", "data": {"sequences": str(other)}})
    code = cli.main(["eval", str(ckpts["rnn"]), "--config", cfg,
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_DATA
    assert "mismatch" in capsys.readouterr().err


def test_train_divergence_exit_code(pipeline, tmp_path, capsys):
    root, paths, _ = pipeline
    cfg = write_config(tmp_path / "c.json", {
        "kind": "rnn", "data": paths,
        "hyper": {"d": 2, "alpha": 1e150, "lam_theta": 0.01},
        "train": {"epochs": 8},
    })
    import numpy as np
    with np.errstate(all="ignore"):
        code = cli.main(["train", "--config", cfg, "--out", str(tmp_path)])
    assert code == cli.EXIT_DIVERGE
    assert "divergence" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [("hyper", "d", 2.5),
                                               ("hyper", "d", True),
                                               ("train", "epochs", 1.5)])
def test_non_integer_config_is_config_error(pipeline, tmp_path, capsys,
                                            section, key, value):
    _, paths, _ = pipeline
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "rnn", "data": paths, section: {key: value}})
    code = cli.main(["train", "--config", cfg, "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error:\n{section}: {key} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("cmd,section,key,value", [
    ("train", "hyper", "alpha", True),
    ("train", "hyper", "lam_theta", True),
    ("train", "train", "clip_norm", True),
    ("train", "hyper", "init_hi", float("inf")),
    ("train", "train", "clip_norm", float("nan")),
    ("train", "hyper", "alpha", float("nan")),
    ("synth", "synth", "noise_sigma", float("nan")),
    ("synth", "synth", "noise_sigma", True),
], ids=["bool-alpha", "bool-lam-theta", "bool-clip", "inf-init-hi", "nan-clip",
        "nan-alpha", "nan-noise", "bool-noise"])
def test_float_setting_must_be_finite_real(pipeline, tmp_path, capsys,
                                           cmd, section, key, value):
    _, paths, _ = pipeline
    given = {"kind": "rnn", "data": paths, "train": {"epochs": 1},
             "synth": dict(SYNTH)}
    given[section] = dict(given.get(section, {}), **{key: value})
    cfg = write_config(tmp_path / "c.json", given)
    code = cli.main([cmd, "--config", cfg, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG, err
    assert err == (f"config error:\n{section}: {key} must be a finite real "
                   f"number, got {value!r}\n")


@pytest.mark.parametrize("cmd,extra,argv,fragment", [
    ("train", {"train": {"epochs": 1, "shuffle_users": "false"}}, [],
     "train: shuffle_users must be true or false, got 'false'"),
    ("eval", {"eval": {"cutoffs": [10.5]}}, ["ckpt"],
     "eval: cutoffs and bins must be integers"),
    ("coldstart", {"eval": {"bins": [1, 1.5]}}, ["ckpt"],
     "eval: cutoffs and bins must be integers"),
    ("coldstart", {"eval": {"coldstart_k": True}}, ["ckpt"],
     "eval: coldstart_k must be a positive integer, got True"),
    ("eval", {"eval": {"cutoffs": "10"}}, ["ckpt"],
     "config key 'eval.cutoffs' must be a list, got '10'"),
    ("coldstart", {"eval": {"bins": {"10": 1}}}, ["ckpt"],
     "config key 'eval.bins' must be a list, got {'10': 1}"),
    ("synth", {"synth": dict(SYNTH, users=30.5)}, [],
     "synth: users must be an integer, got 30.5"),
    ("synth", {"synth": dict(SYNTH, seed=-1)}, [], "synth: seed must be >= 0"),
    ("synth", {"synth": SYNTH}, ["--seed", "-1"], "seed must be an integer >= 0"),
    ("train", {"seed": -1}, [], "seed must be an integer >= 0, got -1"),
    ("train", {"seed": True}, [], "seed must be an integer >= 0, got True"),
    ("train", {}, ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ("gradcheck", {}, ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ("train", {"hyper": 5}, [], "config key 'hyper' must be an object"),
    ("synth", {"synth": 5}, [], "config key 'synth' must be an object"),
    ("train", {"synth": 5}, [], "config key 'synth' must be an object"),
    ("eval", {"synth": 5}, ["ckpt"], "config key 'synth' must be an object"),
    ("gradcheck", {"synth": 5}, [], "config key 'synth' must be an object"),
], ids=["shuffle-string", "float-cutoff", "float-bin", "bool-k",
        "string-cutoffs", "object-bins", "float-users",
        "synth-seed", "synth-flag-seed", "seed", "bool-seed", "flag-seed",
        "gradcheck-flag-seed", "hyper-int", "synth-int", "train-synth-int",
        "eval-synth-int", "gradcheck-synth-int"])
def test_mistyped_config_is_config_error(pipeline, tmp_path, capsys,
                                         cmd, extra, argv, fragment):
    _, paths, ckpts = pipeline
    cfg = write_config(tmp_path / "c.json",
                       dict({"kind": "rnn", "data": paths,
                             "train": {"epochs": 1}}, **extra))
    argv = [str(ckpts["rnn"]) if a == "ckpt" else a for a in argv]
    code = cli.main([cmd, "--config", cfg, "--out", str(tmp_path)] + argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"config error:\n{fragment}") and err.count("\n") == 2, err


PAIRS_SHAPE = "pairs must be null or a list of [name, name] string pairs, got "
PATH_TYPE = " must be a path string or null, got "
KIND_ONE_OF = f"kind must be one of {sorted(model.ALL_KINDS)}, got "


@pytest.mark.parametrize("cmd,extra,fragment", [
    ("coldstart", {"pairs": 5}, PAIRS_SHAPE + "5"),
    ("coldstart", {"pairs": "ab"}, PAIRS_SHAPE + "'ab'"),
    ("coldstart", {"pairs": [["bpr"]]}, PAIRS_SHAPE + "[['bpr']]"),
    ("coldstart", {"pairs": [["a", "b", "c"]]}, PAIRS_SHAPE + "[['a', 'b', 'c']]"),
    ("coldstart", {"pairs": [{"a": 1}]}, PAIRS_SHAPE + "[{'a': 1}]"),
    ("train", {"out": 7}, "out must be a path string, got 7"),
    ("train", {"out": ["x"]}, "out must be a path string, got ['x']"),
    ("train", {"data": {"sequences": ["x"]}}, "data.sequences" + PATH_TYPE + "['x']"),
    ("train", {"data": {"sequences": 0}}, "data.sequences" + PATH_TYPE + "0"),
    ("train", {"data": {"visual": ["x"]}}, "data.visual" + PATH_TYPE + "['x']"),
    ("train", {"data": {"textual": 1.5}}, "data.textual" + PATH_TYPE + "1.5"),
    ("train", {"kind": "vtrnn", "data": {"visual": None}},
     "kind 'vtrnn' needs data.visual features"),
    ("train", {"kind": ["x"]}, f"{KIND_ONE_OF}['x']"),
    ("train", {"kind": {"a": 1}}, f"{KIND_ONE_OF}{{'a': 1}}"),
    ("train", {"data": {"min_len": 1}}, "data.min_len must be an integer >= 2, got 1"),
    ("train", {"data": {"split_frac": 1.0}}, "data.split_frac must be in (0,1), got 1.0"),
], ids=["pairs-int", "pairs-string", "pairs-short", "pairs-long", "pairs-object",
        "out-int", "out-list", "sequences-list", "sequences-fd", "visual-list",
        "textual-float", "vtrnn-no-visual", "kind-list", "kind-object",
        "min-len", "split-frac"])
def test_malformed_pairs_or_path_is_config_error(pipeline, tmp_path, capsys,
                                                 monkeypatch, cmd, extra, fragment):
    """Rejected while the config is resolved: no checkpoint is loaded, no
    file descriptor is read as data, and the message is one line."""
    _, paths, ckpts = pipeline

    def no_load(*args, **kwargs):
        raise AssertionError("data read before the config was checked")

    monkeypatch.setattr(cli.dataio, "load_corpus", no_load)
    given = {"kind": "rnn", "train": {"epochs": 1}, "out": str(tmp_path / "out"),
             **extra}
    given["data"] = dict(paths, **extra.get("data", {}))
    cfg = write_config(tmp_path / "c.json", given)
    argv = [str(ckpts["rnn"]), str(ckpts["vtrnn"])] if cmd == "coldstart" else []
    code = cli.main([cmd, "--config", cfg] + argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG, err
    assert err.startswith(f"config error:\n{fragment}") and err.count("\n") == 2, err
    assert not (tmp_path / "out").exists()


# a path that is missing or the wrong kind of file -> (exit code, stderr)
PATH_CASES = {
    "missing-checkpoint": (cli.EXIT_DATA, "data error: {missing}: cannot read "
                                          "(No such file or directory)"),
    "checkpoint-is-dir": (cli.EXIT_DATA,
                          "data error: {a_dir}: cannot read (Is a directory)"),
    "sequences-is-dir": (cli.EXIT_CONFIG, "config error:\ndata.sequences path "
                                          "'{a_dir}' is not a regular file"),
    "visual-is-dir": (cli.EXIT_CONFIG, "config error:\ndata.visual path "
                                       "'{a_dir}' is not a regular file"),
    "out-is-file": (cli.EXIT_CONFIG, "config error:\nout path '{a_file}' "
                                     "exists and is not a directory"),
    "out-under-file": (cli.EXIT_CONFIG, "config error:\nout path "
                                        "'{a_file}/sub' lies under '{a_file}', "
                                        "which is not a directory"),
    "out-empty": (cli.EXIT_CONFIG, "config error:\nout path is empty"),
    # argv cannot carry a NUL: this one comes from the config
    "out-nul": (cli.EXIT_CONFIG, "config error:\nout path 'x\\x00y' holds "
                                 "a NUL character"),
    # passes the checks made before any file is read; the OS refuses it
    "out-too-long": (cli.EXIT_CONFIG, "config error:\ncannot make out path "
                                      "'{too_long}': File name too long"),
}


@pytest.mark.parametrize("case", PATH_CASES)
def test_os_error_on_a_path_is_its_exit_code(pipeline, tmp_path, capsys,
                                             case):
    """A path that exists as the wrong kind of file, or not at all, gives
    its exit code and a one-line message, never a traceback."""
    _, paths, ckpts = pipeline
    a_dir, a_file = tmp_path / "a_dir", tmp_path / "a_file"
    a_dir.mkdir()
    a_file.write_text("not a directory\n")
    missing = tmp_path / "missing.ckpt"
    data, out, checkpoints = dict(paths), tmp_path / "out", [ckpts["rnn"]]
    cmd = "coldstart" if case == "checkpoint-is-dir" else "eval"
    if case == "missing-checkpoint":
        checkpoints = [missing]
    elif case == "checkpoint-is-dir":
        checkpoints = [ckpts["rnn"], a_dir]
    elif case == "sequences-is-dir":
        data["sequences"] = str(a_dir)
    elif case == "visual-is-dir":
        data["visual"] = str(a_dir)
    elif case == "out-is-file":
        out = a_file
    elif case == "out-under-file":
        out = a_file / "sub"
    elif case == "out-empty":
        out = ""
    elif case == "out-too-long":
        out = tmp_path / ("o" * 300)
    overrides = {"data": data}
    if case == "out-nul":
        overrides["out"], out = "x\0y", None
    cfg = write_config(tmp_path / "c.json", overrides)
    flags = [] if out is None else ["--out", str(out)]
    got = cli.main([cmd, *map(str, checkpoints), "--config", cfg, *flags])
    err = capsys.readouterr().err
    code, fragment = PATH_CASES[case]
    assert got == code, err
    want = fragment.format(missing=missing, a_dir=a_dir, a_file=a_file,
                           too_long=out)
    assert err == want + "\n", err
    assert not (tmp_path / "out").exists()
    assert a_file.read_text() == "not a directory\n"


@pytest.mark.parametrize("raw", [b"[" * 100_000, b'{"seed": 1}\xff'],
                         ids=["deep", "not-utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, raw):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(raw)
    assert cli.main(["gradcheck", "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:\nconfig is not valid JSON: ")
    assert err.count("\n") == 2, err


def test_undecodable_sequences_is_data_error(tmp_path, capsys):
    bad = tmp_path / "seq.tsv"
    bad.write_bytes(b"u1\ta,b,c\nu2\t\xff,b,c\n")
    cfg = write_config(tmp_path / "c.json",
                       {"kind": "pop", "data": {"sequences": str(bad)}})
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == \
        cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert "seq.tsv: not UTF-8 text" in err


@pytest.mark.parametrize("key,value", [("split_frac", 0.2), ("min_len", 7)])
def test_synth_rejects_split_settings(tmp_path, capsys, key, value):
    # synth writes whole sequences: the split is the data section's
    cfg = write_config(tmp_path / "c.json", {"synth": dict(SYNTH, **{key: value})})
    code = cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    lines = [line for line in err.splitlines()
             if line.startswith("synth: unknown generator fields: ")]
    assert lines == [f"synth: unknown generator fields: [{key!r}]"], err
    assert not (tmp_path / "d").exists()


def test_config_echo_is_json(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"synth": SYNTH})
    assert cli.main(["synth", "--config", cfg, "--seed", "7",
                     "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    echoed = json.loads(out[:out.rindex("}") + 1])
    assert echoed["seed"] == 7
    assert echoed["synth"]["users"] == SYNTH["users"]


@pytest.mark.parametrize("kind", model.ALL_KINDS)
def test_unset_alpha_is_the_kinds(tmp_path, kind):
    """A config without hyper.alpha resolves to the kind's ALPHA_BY_KIND
    entry, which the echo prints: 0.01 for mf, 0.1 for every other kind."""
    cfg = write_config(tmp_path / "c.json", {"kind": kind})
    args = cli.build_parser().parse_args(["gradcheck", "--config", cfg])
    alpha = cli.resolve_config(args)["hyper"]["alpha"]
    assert alpha == model.ALPHA_BY_KIND[kind] == (0.01 if kind == "mf" else 0.1)


@pytest.mark.parametrize("cmd", ["train", "eval", "coldstart", "synth"])
def test_config_echo_runs_to_the_same_echo(pipeline, tmp_path, capsys, cmd):
    _, paths, ckpts = pipeline
    cfg = write_config(tmp_path / "c.json", {
        "kind": "rnn", "data": paths, "hyper": {"d": 3},
        "train": {"epochs": 1}, "synth": SYNTH})
    argv = {"eval": [str(ckpts["rnn"])],
            "coldstart": [str(ckpts["rnn"]), str(ckpts["vtrnn"])]}.get(cmd, [])
    assert cli.main([cmd, "--config", cfg, "--seed", "3",
                     "--out", str(tmp_path / "out")] + argv) == 0
    out = capsys.readouterr().out
    echo = out[:out.index("\n}\n") + 3]
    (tmp_path / "echo.json").write_text(echo)
    code = cli.main([cmd, "--config", str(tmp_path / "echo.json")] + argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out.startswith(echo)


@pytest.mark.parametrize("synth", [
    {k: v for k, v in SYNTH.items() if k != "seed"}, dict(SYNTH, seed=-1)],
    ids=["no-seed", "negative-seed"])
def test_synth_seed_flag_sets_the_generator_seed(tmp_path, capsys, synth):
    cfg = write_config(tmp_path / "want.json", {"synth": dict(SYNTH, seed=3)})
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "want")]) == 0
    cfg = write_config(tmp_path / "c.json", {"synth": synth})
    code = cli.main(["synth", "--config", cfg, "--seed", "3",
                     "--out", str(tmp_path / "got")])
    assert code == 0, capsys.readouterr().err
    for name in ("sequences.tsv", "visual.tsv", "textual.tsv"):
        assert ((tmp_path / "got" / name).read_bytes()
                == (tmp_path / "want" / name).read_bytes())


@pytest.mark.parametrize("cmd", ["eval", "coldstart"])
def test_checkpoint_kind_sets_the_features_needed(pipeline, tmp_path, capsys,
                                                  cmd):
    """eval and coldstart run the checkpoint's kind, not the config's."""
    _, paths, ckpts = pipeline
    cfg = write_config(tmp_path / "c.json",
                       {"data": {"sequences": paths["sequences"]}})
    code = cli.main([cmd, str(ckpts["rnn"]), "--config", cfg,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK, capsys.readouterr().err
    code = cli.main([cmd, str(ckpts["vtrnn"]), "--config", cfg,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {ckpts['vtrnn']}: kind 'vtrnn' needs visual features, "
        f"which data.visual does not give\n")


@pytest.mark.parametrize("kind", ["rnn", "mf"])
def test_unread_feature_files_change_nothing(pipeline, tmp_path, kind):
    """A kind's outputs depend only on the files it reads: training with or
    without the feature files of slices outside its mask writes the same
    checkpoint and log, and evaluating it the same reports."""
    _, paths, _ = pipeline
    for label, data in (("with", paths),
                        ("without", {"sequences": paths["sequences"]})):
        cfg = write_config(tmp_path / f"{label}.json", {
            "kind": kind, "data": data, "hyper": {"d": 3},
            "train": {"epochs": 2}})
        out = tmp_path / label
        assert cli.main(["train", "--config", cfg, "--seed", "2",
                         "--out", str(out)]) == 0
        assert cli.main(["eval", str(out / f"{kind}.ckpt"), "--config", cfg,
                         "--out", str(out)]) == 0
    for name in (f"{kind}.ckpt", f"train_{kind}.log", f"eval_{kind}.json",
                 f"eval_{kind}.csv"):
        assert ((tmp_path / "with" / name).read_bytes()
                == (tmp_path / "without" / name).read_bytes()), name


def scripts_table(text):
    """Read `[project.scripts]` of a pyproject.toml text as flat
    `name = "module:attr"` lines (Python 3.10 has no stdlib TOML reader)."""
    table, scripts = None, {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]" and "=" in line:
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name.strip("\"'")] = target.strip("\"'")
    return scripts


def run_gradcheck(argv, env):
    proc = subprocess.run(argv + ["gradcheck", "--seed", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "max relative error" in proc.stdout


def test_console_script_entry_point():
    # the children find the package in src, as an uninstalled checkout's
    # tests do
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "seqrank.cli"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2  # no subcommand given
    assert proc.stderr.startswith("usage: seqrank")

    scripts = scripts_table((ROOT / "pyproject.toml").read_text())
    assert scripts.get("seqrank") == "seqrank.cli:main"
    module, attr = scripts["seqrank"].split(":")
    assert callable(getattr(importlib.import_module(module), attr))

    run_gradcheck([sys.executable, "-m", "seqrank"], env)
    installed = shutil.which("seqrank")
    if installed:  # the script exists only after `pip install`
        run_gradcheck([installed], env)


def test_scripts_table_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = (ROOT / "pyproject.toml").read_text()
    assert (scripts_table(text)
            == tomllib.loads(text)["project"]["scripts"])
