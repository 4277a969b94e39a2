"""Workloads and the runner that executes seqrank CLI commands for the
benchmark (run.py): one command at a time, each in its own process, with
its wall time, peak RSS and exit code, and a tally of the checks made on
the outputs. Each wall time is also given scaled by a speed probe run just
before and just after the command (see `probe`)."""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
TRACE_ROOT = os.path.join(ROOT, ".bench_out")

MODEL_SEED = 7
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 120
SETUPS_PER_PASS = 2

# The speed probe: PROBE_STEPS steps of the kind the recurrent trainer
# takes (a small matrix product, tanh and a sum, in Python). A command's
# scaled time is its wall time times PROBE_REFERENCE_S over the mean of the
# probes run just before and just after it, that is, its wall time on a
# machine where the probe takes PROBE_REFERENCE_S: about the fast state of
# the 2-vCPU VM the benchmark was tuned on.
PROBE_STEPS = 30_000
PROBE_REFERENCE_S = 0.09
# a probe that ended less than this long before a command is reused as
# that command's "before" probe
PROBE_REUSE_S = 0.1
_PROBE_RNG = np.random.default_rng(0)
_PROBE_W = _PROBE_RNG.standard_normal((20, 10))
_PROBE_X = _PROBE_RNG.standard_normal(20)

# the acceptance-test planted corpus; the workload seed is added per run
PLANTED = {"users": 200, "items": 400, "clusters": 8, "seq_len": 20,
           "f_dim_visual": 10, "f_dim_textual": 10, "noise_sigma": 0.3}


@dataclass(frozen=True)
class Workload:
    synth: dict
    train: tuple            # ((kind, epochs), ...) in the order trained
    headline: str           # the model `eval` reports on
    coldstart: tuple        # the checkpoints `coldstart` compares


WORKLOADS = {
    # training-heavy: the recurrent trainer is on the blocking path
    "planted": Workload(PLANTED, (("vtrnn", 3), ("rnn", 3)), "vtrnn",
                        ("vtrnn", "rnn")),
    # evaluation-heavy: 2000 candidates per user put the evaluator and the
    # scoring half of `model` on the blocking path
    "wide": Workload(dict(PLANTED, users=200, items=2000),
                     (("vtrnn", 1), ("rnn", 1)), "vtrnn", ("vtrnn", "rnn")),
    # bypasses the recurrent trainer: only the non-recurrent epoch loops
    "ladder": Workload(PLANTED, (("pop", 4), ("mf", 4), ("bpr", 4),
                                 ("vtbpr", 4)), "vtbpr", ("vtbpr", "bpr")),
}

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s",
                    "train_pairs_per_s": "pairs/s", "eval_users_per_s": "users/s",
                    "peak_rss_mb": "MB", "auc": "ratio", "ops_ok_share": "ratio"}


@dataclass
class Command:
    label: str      # e.g. "train_vtrnn"
    args: list      # seqrank CLI arguments
    wall: float = 0.0
    scaled: float = 0.0     # wall time scaled by the speed probes
    rss_mb: float = 0.0
    ok: bool = False
    spans: str | None = None    # span file, for a traced command


def probe() -> float:
    """Wall time of the speed probe's fixed loop."""
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(PROBE_STEPS):
        total += float(np.tanh(_PROBE_X @ _PROBE_W).sum())
    return time.perf_counter() - t0


class Bench:
    """One benchmark run: its work directory, its configs and its tally of
    attempted and failed operations (CLI commands and output checks)."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.work = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.commands = 0
        self._last_probe = (0.0, -1.0)    # (probe seconds, when it ended)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.synth_cfg = self._config("synth", {"synth": dict(self.wl.synth, seed=seed)})

    def _config(self, name: str, obj: dict) -> str:
        path = os.path.join(self.work, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
        return path

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def run(self, cmd: Command) -> Command:
        """Run one CLI command in its own process; time it from just before
        the process starts until it has been reaped, and scale that time by
        the speed probes run just before and just after it."""
        self.commands += 1
        before, ended = self._last_probe
        if time.perf_counter() - ended > PROBE_REUSE_S:
            before = probe()
        log = os.path.join(self.work, f"{self.commands}_{cmd.label}.log")
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            opts = ["--trace", cmd.spans, f"{self.name}-{self.seed}", repr(t0)] if cmd.spans else []
            proc = subprocess.Popen([sys.executable, CHILD, *opts, "--", *cmd.args],
                                    cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            _, status, usage = os.wait4(proc.pid, 0)
            cmd.wall = time.perf_counter() - t0
            watchdog.cancel()
        after = probe()
        self._last_probe = (after, time.perf_counter())
        cmd.scaled = cmd.wall * PROBE_REFERENCE_S * 2 / (before + after)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cmd.rss_mb = usage.ru_maxrss / 1024.0
        cmd.ok = self.check(proc.returncode == 0,
                            f"{cmd.label} exited {proc.returncode}, see {log}")
        return cmd

    def synth(self, data: str, spans: str | None = None) -> Command:
        return self.run(Command("synth", ["synth", "--config", self.synth_cfg,
                                          "--out", data], spans=spans))

    def data_cfg(self, data: str) -> dict:
        return {"sequences": os.path.join(data, "sequences.tsv"),
                "visual": os.path.join(data, "visual.tsv"),
                "textual": os.path.join(data, "textual.tsv")}

    def pipeline(self, data: str, out: str, trace_dir: str | None = None) -> list:
        """Every command after synth, in order; stops at the first failure."""
        cmds = []
        for kind, epochs in self.wl.train:
            cfg = self._config(f"train_{kind}", {
                "kind": kind, "seed": MODEL_SEED, "data": self.data_cfg(data),
                "hyper": {"d": 10}, "train": {"epochs": epochs}})
            cmds.append(Command(f"train_{kind}", ["train", "--config", cfg, "--out", out]))
        eval_cfg = self._config("eval", {"seed": MODEL_SEED, "data": self.data_cfg(data)})
        ckpt = lambda kind: os.path.join(out, f"{kind}.ckpt")
        cmds.append(Command(f"eval_{self.wl.headline}",
                            ["eval", "--config", eval_cfg, "--out", out,
                             ckpt(self.wl.headline)]))
        cmds.append(Command("coldstart", ["coldstart", "--config", eval_cfg, "--out", out,
                                          *map(ckpt, self.wl.coldstart)]))
        done = []
        for i, cmd in enumerate(cmds):
            if trace_dir is not None:
                cmd.spans = os.path.join(trace_dir, f"{i + 1}_{cmd.label}.npz")
            done.append(self.run(cmd))
            if not cmd.ok:
                break
        return done

    def same_files(self, ref_dir: str, other_dir: str, what: str) -> None:
        """Every output file of ref_dir must exist byte for byte in other_dir."""
        for name in sorted(os.listdir(ref_dir)):
            with open(os.path.join(ref_dir, name), "rb") as fh:
                want = fh.read()
            other = os.path.join(other_dir, name)
            got = None
            if os.path.exists(other):
                with open(other, "rb") as fh:
                    got = fh.read()
            self.check(got == want, f"{what}: {name} differs")

    def check_eval_report(self, data: str, out: str, stats: oracle.CorpusStats) -> float:
        """Recompute the eval report from the checkpoint's rank(u); return
        the report's AUC."""
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from seqrank import checkpoint, cli
        path = os.path.join(out, f"eval_{self.wl.headline}.json")
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        corpus, feats = cli.build_data({"data": dict(self.data_cfg(data), min_len=2,
                                                     split_frac=0.9)})
        ranker = checkpoint.load_ranker(os.path.join(out, f"{self.wl.headline}.ckpt"),
                                        corpus, feats)
        problems = oracle.report_mismatches(report, ranker, stats)
        self.check(not problems, "eval report != brute force: " + "; ".join(problems[:5]))
        return float(report["auc"])

    def evaluations(self) -> int:
        """Checkpoint evaluations per pass: one by eval, one per coldstart model."""
        return 1 + len(self.wl.coldstart)
