"""The settings that a config's `train` and `eval` sections build, each
checked when it is made. This module imports only `numkit` and `errors`,
so `cli.resolve_config` checks both sections without loading the trainer
or the evaluator that run them: `synth` checks them too, and trains and
ranks nothing."""

from dataclasses import dataclass

from . import numkit
from .errors import ConfigError


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    seed: int
    shuffle_users: bool = False
    clip_norm: float | None = None

    def __post_init__(self):
        problems = numkit.type_problems(self)
        if numkit.is_int(self.epochs) and self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if numkit.is_int(self.seed) and self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if numkit.is_real(self.clip_norm) and self.clip_norm <= 0:
            problems.append(f"clip_norm must be > 0, got {self.clip_norm}")
        if problems:
            raise ConfigError("; ".join(problems))


@dataclass(frozen=True)
class EvalConfig:
    cutoffs: tuple = (10, 30, 50)
    bins: tuple = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    coldstart_k: int = 30     # the cold-start recall cutoff; hit rows kept within it

    def __post_init__(self):
        problems = []
        if not all(numkit.is_int(v) for v in (*self.cutoffs, *self.bins)):
            problems.append(f"cutoffs and bins must be integers, got "
                            f"{list(self.cutoffs)} and {list(self.bins)}")
        else:
            if not self.cutoffs:
                problems.append("cutoffs must be nonempty")
            if any(k < 1 for k in self.cutoffs):
                problems.append("cutoffs must be positive")
            if list(self.cutoffs) != sorted(set(self.cutoffs)):
                problems.append("cutoffs must be strictly increasing")
            if any(b < 1 for b in self.bins):
                problems.append("bins must be positive")
            if list(self.bins) != sorted(set(self.bins)):
                problems.append("bin bounds must be strictly increasing")
        if not numkit.is_count(self.coldstart_k, 1):
            problems.append(f"coldstart_k must be a positive integer, "
                            f"got {self.coldstart_k!r}")
        if problems:
            raise ConfigError("; ".join(problems))
